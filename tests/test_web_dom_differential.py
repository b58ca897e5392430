"""Differential tests: the flat DOM engine against the reference oracle.

:mod:`tests.dom_oracle` is the linked-tree engine :mod:`repro.web.dom`
replaced.  For random markup crossed with random selectors from the
documented grammar, and for every page type the virtual sites serve run
through every locator the scrapers use, both engines must build the same
tree and return the same elements in the same order, with the same
``.text``, or raise the same ``ValueError``.
"""

from __future__ import annotations

import re
from functools import partial
from operator import methodcaller
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.botstore import build_store_host
from repro.botstore.host import StoreDefenses
from repro.ecosystem.generator import EcosystemConfig, InviteStatus, generate_ecosystem
from repro.ecosystem.repos import RepoKind
from repro.sites.botwebsites import BotWebsiteBuilder, variant_for
from repro.sites.discordweb import DiscordWebsite
from repro.sites.github import GitHubSite
from repro.sites.reddit import RedditSite
from repro.web import dom
from repro.web.antiscrape import CaptchaWallMiddleware
from repro.web.browser import Browser, By
from repro.web.captcha import CaptchaService
from repro.web.client import HttpClient
from repro.web.http import Request, Response, Url
from repro.web.network import VirtualClock, VirtualInternet
from repro.web.server import VirtualHost
from tests import dom_oracle

ENGINES = (dom, dom_oracle)

#: Every locator the scrapers and the OSN feed source pass to the browser.
SCRAPER_LOCATORS = (
    (By.CSS_SELECTOR, "a.bot-link"),
    (By.CSS_SELECTOR, "a[data-bot-id]"),
    (By.CSS_SELECTOR, "h1.bot-title"),
    (By.CSS_SELECTOR, "span.dev-tag"),
    (By.CSS_SELECTOR, "p.description"),
    (By.ID, "guild-count"),
    (By.CSS_SELECTOR, "span.stat-guilds"),
    (By.ID, "votes"),
    (By.CSS_SELECTOR, "span.stat-votes"),
    (By.ID, "invite-button"),
    (By.CSS_SELECTOR, "a.invite-link"),
    (By.ID, "website-link"),
    (By.CSS_SELECTOR, "a[rel=website]"),
    (By.ID, "github-link"),
    (By.CSS_SELECTOR, "a[rel=github]"),
    (By.CSS_SELECTOR, "p.built-with"),
    (By.CSS_SELECTOR, "span.tag"),
    (By.CSS_SELECTOR, "ul#permission-list li.permission-item"),
    (By.CSS_SELECTOR, "p.scopes"),
    (By.ID, "captcha-challenge"),
    (By.CSS_SELECTOR, "p.prompt"),
    (By.ID, "code-section"),
    (By.CSS_SELECTOR, "span.language-name"),
    (By.CSS_SELECTOR, "a.file-link"),
    (By.TAG_NAME, "a"),
    (By.ID, "policy"),
    (By.CSS_SELECTOR, "body"),
    (By.CSS_SELECTOR, "p.comment-body"),
)


def _locate(root, by: str, value: str) -> list:
    """The elements the browser's locator finds below ``root``, unwrapped.

    ``Browser._find`` only calls ``select``, ``find_all`` and ``.text`` on
    ``root``, so it runs over either engine's tree.
    """
    browser = Browser(VirtualInternet(VirtualClock()))
    return [found._element for found in browser._find(root, by, value, require=False)]


def _positions(document) -> dict[int, int]:
    return {id(node): index for index, node in enumerate(document.iter())}


def _shape(document) -> list[tuple]:
    """Every element in pre-order, with all the ``Element`` API reports about it."""
    position = _positions(document)
    return [
        (
            node.tag,
            node.attrs,
            node.own_text,
            node.text,
            position.get(id(node.parent), -1),
            [position[id(child)] for child in node.children],
            sorted(node.classes),
            [position[id(found)] for found in node.find_all("a")],
            node.links(),
        )
        for node in document.iter()
    ]


def _hits(position: dict[int, int], scope, query) -> object:
    """``query(scope)`` as (document position, tag, text) triples, or the ValueError it raised."""
    try:
        found = query(scope)
    except ValueError as error:
        return ("ValueError", str(error))
    return [(position[id(node)], node.tag, node.text) for node in found]


def _assert_agree(markup: str, queries) -> None:
    """Same tree from both engines, and every query agrees from every element as scope."""
    ours, theirs = (engine.parse_html(markup) for engine in ENGINES)
    assert _shape(ours) == _shape(theirs)
    our_position, their_position = _positions(ours), _positions(theirs)
    for our_scope, their_scope in zip(ours.iter(), theirs.iter()):
        for query in queries:
            assert _hits(our_position, our_scope, query) == _hits(their_position, their_scope, query), query


# -- random markup x random selectors -------------------------------------------

_TAGS = ("div", "p", "span", "a", "li", "DIV", "br", "img")
_ATTRS = ("id", "class", "lang", "href")
_WORDS = ("b", "bot", "en", "en-US", "x-y", "")
_TEXT = ("x", "Privacy Policy", " ", "\n", "\t", "\u00a0", "&amp;", "&lt;", "&#39;", "&nbsp;", "&bogus;", "&", "\u00e9")


def _render_attr(name: str, value: str | None, quote: str) -> str:
    if value is None:
        return f" {name}"
    if not quote and (not value or " " in value):
        quote = '"'
    return f" {name}={quote}{value}{quote}"


_attr = st.builds(
    _render_attr,
    st.sampled_from(_ATTRS),
    st.one_of(st.none(), st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join)),
    st.sampled_from(('"', "'", "")),
)
_attrs = st.lists(_attr, max_size=2).map("".join)
_text = st.lists(st.sampled_from(_TEXT), max_size=3).map("".join)
# Leaves: text, void and self-closed tags, stray closers (``document`` is the
# root's own tag, whose closer must be ignored too) and comments.
_leaf = st.one_of(
    _text,
    _text,
    _text,
    st.builds(lambda tag, attrs: f"<{tag}{attrs}>", st.sampled_from(("br", "img")), _attrs),
    st.builds(lambda tag, attrs: f"<{tag}{attrs}/>", st.sampled_from(_TAGS), _attrs),
    st.sampled_from(_TAGS + ("document",)).map(lambda tag: f"</{tag}>"),
    st.just("<!-- note -->"),
)
# Elements nest; about one in four is left unclosed, as a browser must tolerate.
_tree = st.recursive(
    _leaf,
    lambda inner: st.builds(
        lambda tag, attrs, children, closed: f"<{tag}{attrs}>{''.join(children)}{f'</{tag}>' if closed else ''}",
        st.sampled_from(_TAGS[:-2]),
        _attrs,
        st.lists(inner, max_size=4),
        st.sampled_from((True, True, True, False)),
    ),
    max_leaves=30,
)
markups = st.lists(_tree, min_size=1, max_size=3).map("".join)

_attr_test = st.builds(
    lambda name, operator, value, quote: f"[{name}{operator}{quote}{value}{quote}]",
    st.sampled_from(_ATTRS),
    st.sampled_from(("=", "~=", "^=", "$=", "*=", "|=")),
    st.sampled_from(_WORDS + ("e", "x y")),
    st.sampled_from(("", '"', "'")),
)
_part = st.one_of(
    st.sampled_from(_WORDS[:-1]).map(lambda word: "#" + word),
    st.sampled_from(_WORDS[:-1]).map(lambda word: "." + word),
    st.sampled_from(_ATTRS).map(lambda name: f"[{name}]"),
    _attr_test,
    _attr_test,
)
_type = st.sampled_from(("*", "div", "p", "span", "a", "li"))
# A branch repeated in ``one_of`` is drawn more often: mostly bare types and
# valid selectors, so that enough selectors match to exercise the
# combinators, the dedup and the ordering.
_compound = st.one_of(
    _type,
    _type,
    st.builds(lambda tag, parts: tag + "".join(parts), st.just("") | _type, st.lists(_part, min_size=1, max_size=2)),
)
_group = st.lists(st.tuples(st.sampled_from((" ", " > ", ">")), _compound), min_size=1, max_size=3).map(
    lambda steps: "".join(combinator + compound for combinator, compound in steps).strip()
)
_groups = st.lists(_group, min_size=1, max_size=3).map(", ".join)
_malformed = st.sampled_from(("!!!", "", ",", ">", "a >", "> li", "[", "a[=x]", "#", "a..b", "a,,b", "p[lang|=]"))
selectors = st.one_of(_groups, _groups, _groups, _malformed)


class TestRandomMarkup:
    @settings(max_examples=300, deadline=None)
    @given(markups, st.lists(selectors, min_size=1, max_size=4))
    @example("<div><div><p>1</p></div><p>2</p></div><p>3</p>", ["div > p", "div p", "p, div", "* > *", "div div, p"])
    @example("</document><p>x</p></p>y", ["p", "*"])
    @example(
        '<p lang="en">a</p><p lang="en-US">b</p><p lang="english">c</p>'
        '<p class="bot b" lang="">d</p><p class="bot">e</p>',
        ["p[lang|=en]", "[class~=b]", "[class|=b]", "[lang|='']", "[lang^=en]", "[lang$=US]", "[lang*=ngl]"],
    )
    def test_engines_agree(self, markup, chosen):
        queries = [methodcaller("select", selector) for selector in chosen]
        for body in (markup, markup[: len(markup) // 2]):
            _assert_agree(body, queries)


# -- every page type the sites serve x every scraper locator -----------------------


PAGE_KINDS = (
    "top list A", "top list B", "detail A", "detail B", "consent", "github repo", "github user",
    "website home", "legal", "policy", "subreddit", "captcha",
)


def _captcha_page() -> str:
    host = VirtualHost("store.sim")
    host.add_route("/", lambda request: Response.text("content"))
    host.add_middleware(CaptchaWallMiddleware(CaptchaService(VirtualClock())))
    return host.handle(Request("GET", Url.parse("https://store.sim/"), client_id="c")).body


@pytest.fixture(scope="module")
def served_pages() -> dict[str, str]:
    eco = generate_ecosystem(EcosystemConfig(n_bots=200, seed=13, honeypot_window=40))
    internet = VirtualInternet(VirtualClock(), seed=7)
    build_store_host(eco, internet, StoreDefenses(captcha_enabled=False, rate_limit_requests=10_000))
    DiscordWebsite(eco).register(internet)
    GitHubSite(eco).register(internet)
    BotWebsiteBuilder(eco).register(internet)
    RedditSite(seed=4).register(internet)
    client = HttpClient(internet, default_timeout=10.0)

    def body(url: str) -> str:
        response = client.get(url)
        assert response.status == 200, url
        return response.body

    consent = next(bot for bot in eco.bots if bot.invite_status is InviteStatus.VALID)
    repo = next(bot for bot in eco.bots if bot.github and bot.github.kind is RepoKind.VALID_CODE)
    profile = next(bot for bot in eco.bots if bot.github and bot.github.kind is RepoKind.USER_PROFILE)
    legal = next(bot for bot in eco.websites() if variant_for(bot) == "legal" and bot.policy.link_valid)
    legal_page = body(f"{legal.website_url}legal")
    policy_href = dom.parse_html(legal_page).select_one("a.legal-link").get("href")
    return {
        "top list A": body("https://top.gg.sim/list/top?page=1"),
        "top list B": body("https://top.gg.sim/list/top?page=2"),
        "detail A": body("https://top.gg.sim/bot/0"),
        "detail B": body("https://top.gg.sim/bot/1"),
        "consent": body(consent.invite_url),
        "github repo": body(repo.github_url),
        "github user": body(profile.github_url),
        "website home": body(eco.websites()[0].website_url),
        "legal": legal_page,
        "policy": body(f"https://{legal.website_host}{policy_href}"),
        "subreddit": body("https://reddit.sim/r/gaming"),
        "captcha": _captcha_page(),
    }


def _locator_queries(markup: str) -> list:
    anchors = [node.text for node in dom_oracle.parse_html(markup).find_all("a")]
    link_texts = sorted(set(anchors) | {"Privacy Policy", "privacy", "Legal", ""})
    partials = sorted({word for text in anchors for word in text.split()[:1]} | {"rivacy", ""})
    locators = list(SCRAPER_LOCATORS)
    locators += [(By.LINK_TEXT, text) for text in link_texts]
    locators += [(By.PARTIAL_LINK_TEXT, text) for text in partials]
    return [partial(_locate, by=by, value=value) for by, value in locators]


class TestServedPages:
    def test_every_page_type_is_served(self, served_pages):
        assert tuple(served_pages) == PAGE_KINDS
        assert all("<" in page for page in served_pages.values())
        assert 'data-variant="A"' in served_pages["top list A"] and 'data-variant="B"' in served_pages["top list B"]
        assert 'data-variant="A"' in served_pages["detail A"] and 'data-variant="B"' in served_pages["detail B"]
        assert "captcha-challenge" in served_pages["captcha"]

    @pytest.mark.parametrize("cut", ["whole", "half"])
    @pytest.mark.parametrize("kind", PAGE_KINDS)
    def test_scraper_locators_agree(self, served_pages, kind, cut):
        markup = served_pages[kind]
        if cut == "half":
            markup = markup[: len(markup) // 2]
        _assert_agree(markup, _locator_queries(markup))

    def test_locator_list_covers_the_scrapers(self):
        """SCRAPER_LOCATORS is exactly the ``By.X, "value"`` pairs in the scraping code."""
        package = Path(repro.__file__).parent
        sources = [*sorted((package / "scraper").glob("*.py")), package / "honeypot" / "osn_source.py"]
        used = {
            (getattr(By, name), value)
            for path in sources
            for name, value in re.findall(r'By\.(\w+), "([^"]+)"', path.read_text(encoding="utf-8"))
        }
        assert used == set(SCRAPER_LOCATORS), sorted(used ^ set(SCRAPER_LOCATORS))
