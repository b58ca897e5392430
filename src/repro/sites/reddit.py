"""``reddit.sim`` — the OSN the honeypot feed is sourced from.

The paper's honeypot "leverages publicly available messages from social
networks (OSN) like Reddit" because IM chatter is "shorter and less formal
than email".  This host serves subreddit pages with posts and comment
threads (generated from the conversational corpus), and the feed pipeline
scrapes them — closing the same loop the paper's implementation used.
"""

from __future__ import annotations

import random

from repro.ecosystem.corpus import ConversationGenerator
from repro.web.http import Request, Response
from repro.web.network import VirtualInternet
from repro.web.server import VirtualHost

REDDIT_HOSTNAME = "reddit.sim"

#: Subreddits with publicly scrapeable chatter.
SUBREDDITS = ("gaming", "movies", "music", "pcbuilds", "casualconversation")

_POST_TITLES = (
    "what's everyone playing this weekend?",
    "unpopular opinion thread",
    "just finished the new season, thoughts?",
    "rate my setup",
    "daily discussion",
    "this community is the best, change my mind",
)


class RedditSite:
    """Deterministic subreddit pages with comment threads."""

    def __init__(self, seed: int = 1337, posts_per_subreddit: int = 4, comments_per_post: int = 12) -> None:
        self._threads: dict[str, list[tuple[str, list[str]]]] = {}
        for subreddit in SUBREDDITS:
            # A str seed goes through SHA-512, the same in every process;
            # ``hash()`` of a str varies with PYTHONHASHSEED.
            rng = random.Random(f"{seed}:{subreddit}")
            generator = ConversationGenerator(rng)
            posts: list[tuple[str, list[str]]] = []
            for _ in range(posts_per_subreddit):
                title = rng.choice(_POST_TITLES)
                comments = [generator.next_message().text for _ in range(comments_per_post)]
                posts.append((title, comments))
            self._threads[subreddit] = posts
        self.host = VirtualHost(REDDIT_HOSTNAME)
        self.host.add_route("/", self._front_page)
        self.host.add_route("/r/{subreddit}", self._subreddit_page)

    def register(self, internet: VirtualInternet) -> None:
        internet.register(REDDIT_HOSTNAME, self.host)

    # -- pages -------------------------------------------------------------

    def _front_page(self, request: Request) -> Response:
        links = "".join(
            f'<li><a class="sub-link" href="/r/{subreddit}">r/{subreddit}</a></li>'
            for subreddit in SUBREDDITS
        )
        return Response.html(
            f"<html><head><title>reddit.sim</title></head><body><ul id='subs'>{links}</ul></body></html>"
        )

    def _subreddit_page(self, request: Request, subreddit: str) -> Response:
        threads = self._threads.get(subreddit)
        if threads is None:
            return Response.html("<html><head><title>404</title></head><body>no such sub</body></html>", status=404)
        blocks = []
        for index, (title, comments) in enumerate(threads):
            rendered_comments = "".join(
                f'<div class="comment"><p class="comment-body">{comment}</p></div>' for comment in comments
            )
            blocks.append(
                f'<div class="post" data-post-id="{index}"><h2 class="post-title">{title}</h2>'
                f'<div class="comments">{rendered_comments}</div></div>'
            )
        return Response.html(
            f"<html><head><title>r/{subreddit}</title></head><body>{''.join(blocks)}</body></html>"
        )

    def comment_count(self, subreddit: str) -> int:
        return sum(len(comments) for _, comments in self._threads.get(subreddit, []))
