"""Tests for the reddit.sim OSN site and the scraped feed source."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.ecosystem.corpus import style_metrics
from repro.honeypot.feed import alternation_violations, post_feed
from repro.honeypot.osn_source import OsnFeedSource, RedditScraper
from repro.honeypot.personas import create_personas, join_guild_with_verification
from repro.sites.reddit import REDDIT_HOSTNAME, SUBREDDITS, RedditSite
from repro.web.client import HttpClient
from repro.web.dom import parse_html


@pytest.fixture
def reddit(internet):
    site = RedditSite(seed=9)
    site.register(internet)
    return site


class TestRedditSite:
    def test_front_page_lists_subs(self, internet, reddit):
        body = HttpClient(internet).get(f"https://{REDDIT_HOSTNAME}/").body
        page = parse_html(body)
        links = [node.text for node in page.select("a.sub-link")]
        assert links == [f"r/{sub}" for sub in SUBREDDITS]

    def test_subreddit_page_has_comments(self, internet, reddit):
        body = HttpClient(internet).get(f"https://{REDDIT_HOSTNAME}/r/gaming").body
        page = parse_html(body)
        comments = page.select("p.comment-body")
        assert len(comments) == reddit.comment_count("gaming")
        assert all(node.text for node in comments)

    def test_unknown_subreddit_404(self, internet, reddit):
        assert HttpClient(internet).get(f"https://{REDDIT_HOSTNAME}/r/nope").status == 404

    def test_deterministic_content(self, internet):
        a = RedditSite(seed=4)
        b = RedditSite(seed=4)
        assert a._threads == b._threads
        # The same page, byte for byte, from processes with different string hashing.
        render = (
            "from repro.sites.reddit import RedditSite\n"
            "from repro.web.http import Request, Url\n"
            "site = RedditSite(seed=4)\n"
            "request = Request('GET', Url.parse('https://reddit.sim/r/gaming'), client_id='t')\n"
            "print(site.host.handle(request).body)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        pages = [
            subprocess.run(
                [sys.executable, "-c", render],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                capture_output=True,
                check=True,
            ).stdout
            for hash_seed in ("0", "1")
        ]
        assert b"comment-body" in pages[0]
        assert pages[0] == pages[1]


class TestOsnFeedSource:
    def test_scrape_collects_pool(self, internet, reddit):
        source = OsnFeedSource.scrape(internet, seed=1)
        expected = sum(reddit.comment_count(sub) for sub in SUBREDDITS)
        assert len(source) == expected

    def test_cycles_through_pool(self, internet, reddit):
        source = OsnFeedSource.scrape(internet, subreddits=("gaming",), seed=1)
        first_cycle = [source.next_message() for _ in range(len(source))]
        second_cycle = [source.next_message() for _ in range(len(source))]
        assert first_cycle == second_cycle

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            OsnFeedSource().next_message()

    def test_scraped_messages_keep_im_style(self, internet, reddit):
        source = OsnFeedSource.scrape(internet, seed=1)
        metrics = style_metrics(source.messages)
        assert metrics["mean_words"] < 12
        assert metrics["informal_fraction"] > 0.4

    def test_missing_site_yields_empty(self, internet):
        scraper = RedditScraper(internet)
        assert scraper.fetch_comments("gaming") == []


class TestOsnBackedFeed:
    def test_feed_posts_scraped_messages(self, platform, internet, reddit):
        source = OsnFeedSource.scrape(internet, subreddits=("music",), seed=2)
        owner = platform.create_user("o", phone_verified=True)
        guild = platform.create_guild(owner, "G")
        personas = create_personas(platform, 4, random.Random(1))
        join_guild_with_verification(platform, personas, guild)
        channel = guild.text_channels()[0]
        messages = post_feed(
            platform, guild, channel.channel_id, personas, 10, random.Random(3),
            message_source=source.next_message,
        )
        assert len(messages) == 10
        assert alternation_violations(messages) == 0
        pool = set(source.messages)
        assert all(message.content in pool for message in messages)


class TestOsnBackedCampaign:
    def test_campaign_with_scraped_feed_catches_melonian(self, clock, internet, reddit):
        from repro.discordsim.platform import DiscordPlatform
        from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
        from repro.honeypot import HoneypotExperiment

        platform = DiscordPlatform(clock)
        ecosystem = generate_ecosystem(EcosystemConfig(n_bots=200, seed=66, honeypot_window=30))
        source = OsnFeedSource.scrape(internet, seed=6)
        experiment = HoneypotExperiment(platform, internet)
        report = experiment.run(ecosystem.top_voted(30), feed_source=source.next_message)
        assert [outcome.bot_name for outcome in report.flagged_bots] == ["Melonian"]
