"""Differential tests: the flat DOM engine against the reference oracle.

:mod:`tests.dom_oracle` is the linked-tree engine :mod:`repro.web.dom`
replaced, on :mod:`html.parser`.  For random markup crossed with random
selectors from the documented grammar, and for every page type the
virtual sites serve run through every locator the scrapers use, both
engines must build the same tree and return the same elements in the same
order, with the same ``.text``, or raise the same ``ValueError``.  The
random markup and the cut pages straddle the boundary between
:mod:`repro.web.dom`'s strict tokenizer and its :mod:`html.parser`
fallback.
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


def _rows(document) -> list[tuple]:
    """Every element in pre-order: tag, attributes, own text and its parent's position."""
    nodes = list(document.iter())
    position = {id(node): index for index, node in enumerate(nodes)}
    return [(node.tag, node.attrs, node.own_text, position.get(id(node.parent), -1)) for node in nodes]


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
#: Values that need decoding, like the consent pages' raw ``&permissions=8``.
#: Older and newer html.parser releases decode ``&copy=1`` and ``&ampx``
#: differently; both engines must follow the running one.
_ENTITY_VALUES = ("?a=1&permissions=8", "&amp;", "&#39;", "&copy=1", "&ampx")
_TEXT = (
    "x", "Privacy Policy", " ", "\n", "\t", "\u00a0", "&amp;", "&lt;", "&#39;", "&nbsp;", "&bogus;", "&", "\u00e9",
    "1 < 2", "<3",
)


def _render_attr(name: str, value: str | None, quote: str, equals: str) -> str:
    if value is None:
        return f" {name}"
    if not quote and (not value or " " in value):
        quote = '"'
    return f" {name}{equals}{quote}{value}{quote}"


_attr = st.builds(
    _render_attr,
    # Upper-case names are lower-cased, so ``ID`` repeats ``id``: the last one wins.
    st.sampled_from(_ATTRS + ("ID", "Lang")),
    st.one_of(st.none(), st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join), st.sampled_from(_ENTITY_VALUES)),
    st.sampled_from(('"', "'", "")),
    # Whitespace around ``=`` is inside the strict subset; ``==`` is not.
    st.sampled_from(("=", "=", " = ", "\n=", "==")),
)
_attrs = st.lists(_attr, max_size=3).map("".join)
_text = st.lists(st.sampled_from(_TEXT), max_size=3).map("".join)
# Elements some html.parser release reads as raw text, holding text or markup.
_raw_text = st.builds(
    lambda tag, attrs, content: f"<{tag}{attrs}>{content}</{tag}>",
    st.sampled_from(("script", "style", "title", "textarea", "iframe", "plaintext")),
    _attrs,
    st.one_of(_text, st.sampled_from(("<p>x</p>", "if (a<b) {}", "</p>", "<!-- c -->"))),
)
# Leaves: text, void and self-closed tags, stray closers (``document`` is the
# root's own tag, whose closer must be ignored too), comments, doctypes and
# raw-text elements.
_leaf = st.one_of(
    _text,
    _text,
    _text,
    st.builds(
        lambda tag, attrs, close: f"<{tag}{attrs}{close}", st.sampled_from(("br", "img")), _attrs,
        st.sampled_from((">", "/>", " />")),
    ),
    st.builds(
        lambda tag, attrs, close: f"<{tag}{attrs}{close}", st.sampled_from(_TAGS), _attrs, st.sampled_from(("/>", " />"))
    ),
    st.sampled_from(_TAGS + ("document",)).map(lambda tag: f"</{tag}>"),
    st.sampled_from(("<!-- note -->", "<!DOCTYPE html>")),
    _raw_text,
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
    @given(markups, st.lists(selectors, min_size=1, max_size=4), st.integers(0, 1000))
    @example(
        "<div><div><p>1</p></div><p>2</p></div><p>3</p>", ["div > p", "div p", "p, div", "* > *", "div div, p"], 500
    )
    @example("</document><p>x</p></p>y", ["p", "*"], 500)
    @example(
        '<p lang="en">a</p><p lang="en-US">b</p><p lang="english">c</p>'
        '<p class="bot b" lang="">d</p><p class="bot">e</p>',
        ["p[lang|=en]", "[class~=b]", "[class|=b]", "[lang|='']", "[lang^=en]", "[lang$=US]", "[lang*=ngl]"],
        500,
    )
    # Inside the strict subset whole; the drawn cut ends inside the script,
    # whose text an older html.parser drops when its end tag never comes.
    @example(
        '<p ID = "a" id="b" title="a>b" HREF="?a=1&permissions=8&amp;&#39;">x<br /></p>'
        "<title>t</title><script>if (a) {}</script>",
        ["p", "#b", "[href*=permissions]", "title, script"],
        900,
    )
    @example(
        "<!DOCTYPE html><p>1 < 2</p><script>if (a<b) {}</script><textarea><p>x</p></textarea><style>p {}</style>",
        ["p", "title, textarea, script, style"],
        500,
    )
    def test_engines_agree(self, markup, chosen, permille):
        """Whole, cut at half, and cut at a drawn offset (in thousandths of the length)."""
        queries = [methodcaller("select", selector) for selector in chosen]
        for body in (markup, markup[: len(markup) // 2], markup[: len(markup) * permille // 1000]):
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


#: Past a long page's first 1 KB, its cuts are this many characters apart.
_CUT_STRIDE = 31


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

    def test_whole_pages_take_the_strict_path(self, served_pages):
        """No whole page falls back to html.parser.

        Markup outside the strict subset, such as a ``<!DOCTYPE html>``
        added to a renderer, would send every page of that type to the
        fallback while every tree, and so every other test, stayed the same.
        """
        assert [kind for kind, page in served_pages.items() if dom._parse_strict(page) is None] == []

    @pytest.mark.parametrize("kind", PAGE_KINDS)
    def test_every_cut_builds_the_same_tree(self, served_pages, kind):
        """Cut pages build the same tree on both sides of the strict/fallback boundary.

        A cut lands where a truncated body ends.  Pages under 1 KB are cut
        at every offset, so inside tag names, attribute names, end tags and
        the detail pages' ``&``-carrying invite hrefs.  The top lists and
        the subreddit are cut at every offset of their first 1 KB and every
        ``_CUT_STRIDE``-th after it.
        """
        page = served_pages[kind]
        for cut in [*range(min(len(page), 1024)), *range(1024, len(page), _CUT_STRIDE)]:
            body = page[:cut]
            assert _rows(dom.parse_html(body)) == _rows(dom_oracle.parse_html(body)), (cut, body[-40:])

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
