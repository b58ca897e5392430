"""``Url``: immutable, parsed once per string (hypothesis).

``Url.parse`` is memoized, so equal strings share one instance, and
``HttpClient.request`` sends a ``Url`` as it is instead of parsing its text
again.  Both rest on facts about ``urllib.parse`` checked here on the
running Python: a memoized parse has the fields of an uncached one (or
raises the same error), and parsing a ``Url``'s text gives back its fields
for every URL form the sites, the scraper and the vetting service build.
A plain absolute URL is split by one regular expression instead of
``urlsplit``; every parse, plain or hostile, must give the fields (or
raise the error) that ``urlsplit`` and its ``hostname`` and ``port`` give.

A redirect is resolved and its query read without ``urllib.parse``'s
round trips: ``Url.join`` parses an absolute reference in the base's
scheme as it is, and the query decoder replaces ``parse_qsl``.  Both are
checked against those functions here, which stay as the oracles.
"""

from __future__ import annotations

import urllib.parse

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.discordsim.oauth import OAuthScope, build_invite_url
from repro.discordsim.permissions import ALL_PERMISSIONS_VALUE, Permissions
from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
from repro.serving import ServicePolicy, VettingService
from repro.sites.botwebsites import BotWebsiteBuilder
from repro.web import http
from repro.web.client import HttpClient
from repro.web.http import Url
from repro.web.network import VirtualClock, VirtualInternet

FIELDS = ("scheme", "host", "port", "path", "query", "fragment")


def fields(url: Url) -> tuple:
    return tuple(getattr(url, name) for name in FIELDS)


def outcome(parse, raw: str):
    try:
        return ("parsed", fields(parse(raw)))
    except ValueError as error:
        return ("raised", type(error))


# -- the memo gives what an uncached parse gives -------------------------------

labels = st.from_regex(r"[A-Za-z0-9-]{1,8}", fullmatch=True)
raw_hosts = st.lists(labels, min_size=1, max_size=3).map(".".join)
raw_ports = st.one_of(st.just(""), st.integers(0, 99_999).map(lambda port: f":{port}"), st.just(":"))
raw_paths = st.lists(st.from_regex(r"[A-Za-z0-9_.~%!$&'()*+,;=:@-]{0,8}", fullmatch=True), max_size=4).map(
    lambda segments: "/" + "/".join(segments) if segments else ""
)
raw_queries = st.one_of(st.just(""), st.from_regex(r"\?[A-Za-z0-9=&%+._-]{0,16}", fullmatch=True))
raw_fragments = st.one_of(st.just(""), st.from_regex(r"#[A-Za-z0-9_-]{0,8}", fullmatch=True))
raw_schemes = st.sampled_from(["https://", "http://", "HTTPS://", "//", "", "about:", "mailto:"])


@st.composite
def raw_urls(draw) -> str:
    scheme = draw(raw_schemes)
    host = draw(raw_hosts) + draw(raw_ports) if scheme.endswith("//") else ""
    return scheme + host + draw(raw_paths) + draw(raw_queries) + draw(raw_fragments)


@settings(max_examples=400)
@given(raw=st.one_of(raw_urls(), st.text(max_size=30)))
def test_a_memoized_parse_equals_an_uncached_one(raw):
    uncached = http._parse.__wrapped__
    assert outcome(Url.parse, raw) == outcome(uncached, raw)
    assert outcome(Url.parse, raw) == outcome(uncached, raw)  # the second parse is the memo's
    if outcome(uncached, raw)[0] == "parsed":
        assert Url.parse(raw) is Url.parse(raw)


# -- parsing a Url's text gives back its fields ---------------------------------

site_hosts = st.sampled_from(
    ["top.gg.sim", "discord.sim", "github.sim", "vetting.gate", "chillbot42.botsite.sim", "reddit.sim"]
)
segments = st.lists(st.from_regex(r"[A-Za-z0-9_.-]{1,10}", fullmatch=True), max_size=4)
params = st.dictionaries(
    st.from_regex(r"[a-z_]{1,10}", fullmatch=True), st.text(max_size=8).filter(lambda text: "\x00" not in text),
    max_size=3,
)
references = st.sampled_from(["/", "/privacy", "legal/privacy", "../up", "?page=2", "#top", "https://github.sim/a/b"])


@st.composite
def site_urls(draw) -> Url:
    """A Url built the way the sites and clients build one: parsed, with params, joined."""
    scheme = draw(st.sampled_from(["https", "http"]))
    port = draw(st.sampled_from(["", ":8443"]))
    query = urllib.parse.urlencode(draw(params))
    raw = f"{scheme}://{draw(site_hosts)}{port}/" + "/".join(draw(segments)) + (f"?{query}" if query else "")
    url = Url.parse(raw)
    if draw(st.booleans()):
        url = url.with_params(**draw(params))
    if draw(st.booleans()):
        url = url.join(draw(references))
    return url


invites = st.builds(
    lambda client_id, bits, scopes: Url.parse(build_invite_url(client_id, Permissions(bits), scopes=scopes)),
    st.integers(10**17, 10**18),
    st.integers(0, ALL_PERMISSIONS_VALUE),
    st.lists(st.sampled_from(list(OAuthScope)), min_size=1, max_size=3, unique=True).map(tuple),
)


@settings(max_examples=300)
@given(url=st.one_of(site_urls(), invites))
def test_parsing_a_urls_text_gives_back_its_fields(url):
    assert fields(Url.parse(str(url))) == fields(url)


@pytest.fixture(scope="module")
def sent_urls():
    """Every Url a small crawl and a vetting service put on the wire, and those handed to clients."""
    sent: list[Url] = []
    original_exchange, original_request = VirtualInternet.exchange, HttpClient.request

    def exchange(internet, request):
        sent.append(request.url)
        return original_exchange(internet, request)

    def request(client, method, url, *args, **kwargs):
        if isinstance(url, Url):
            sent.append(url)
        return original_request(client, method, url, *args, **kwargs)

    VirtualInternet.exchange, HttpClient.request = exchange, request
    try:
        AssessmentPipeline(PipelineConfig().scaled(n_bots=80, honeypot_sample_size=8)).run()
        ecosystem = generate_ecosystem(EcosystemConfig(n_bots=60, seed=5, honeypot_window=10))
        internet = VirtualInternet(VirtualClock(), seed=5)
        BotWebsiteBuilder(ecosystem).register(internet)
        service = VettingService(internet, ecosystem.bots, policy=ServicePolicy(warmup=0.0), seed=5)
        client = HttpClient(internet, client_id="probe")
        for bot in ecosystem.websites()[:12]:
            client.get(f"https://{service.hostname}/vet/{bot.name}")
            internet.clock.sleep(4_000)
    finally:
        VirtualInternet.exchange, HttpClient.request = original_exchange, original_request
    return sent


def test_every_url_sent_survives_a_reparse(sent_urls):
    assert len({url.host for url in sent_urls}) >= 5
    assert any(url.path.endswith(("/privacy", "/privacy-policy", "/legal/privacy")) for url in sent_urls)
    for url in sent_urls:
        assert fields(Url.parse(str(url))) == fields(url), url


# -- join resolves as urljoin resolves --------------------------------------------

#: Characters that ``urljoin`` or ``urlsplit`` rewrite or read specially.
hostile_chars = st.sampled_from(
    ["\t", "\r", "\n", ";", ";p", " ", "\x00", "%", "%zz", "#", "?", "/", "[", "]", "@", ":", "\\"]
)
#: Empty, upper-case and IPv6 authorities, and ports that raise.
hostile_authorities = st.one_of(
    st.just(""),
    st.builds(lambda host, port: host + port, raw_hosts, raw_ports),
    st.sampled_from(["[::1]", "[::1", "::1]", "user:pw@a.sim", "a.sim:-1", "a.sim: 8", "A.SIM", "a.sim:8x"]),
)
reference_schemes = st.sampled_from(
    ["https://", "http://", "HTTPS://", "Http://", "ftp://", "//", "", "https:", "https:/", "https:///", "mailto:"]
)


@st.composite
def hostile_references(draw) -> str:
    """Absolute, scheme-relative and relative references, with a hostile character spliced in."""
    scheme = draw(reference_schemes)
    authority = draw(hostile_authorities) if scheme.endswith("//") else ""
    reference = scheme + authority + draw(raw_paths) + draw(raw_queries) + draw(raw_fragments)
    for _ in range(draw(st.integers(0, 2))):
        # Often just after the scheme, where a deleted character empties the authority.
        at = draw(st.one_of(st.just(len(scheme)), st.integers(0, len(reference))))
        reference = reference[:at] + draw(hostile_chars) + reference[at:]
    return reference


def parsed_bases() -> st.SearchStrategy[Url]:
    """Bases of every scheme the parser gives: http, https, other and upper-case schemes."""

    def parse_or_none(raw: str) -> Url | None:
        try:
            return Url.parse(raw)
        except ValueError:
            return None

    parsed = raw_urls().map(parse_or_none).filter(lambda url: url is not None and url.is_absolute)
    return st.one_of(site_urls(), invites, parsed)


def joined_by_urljoin(base: Url, reference: str) -> Url:
    return Url.parse(urllib.parse.urljoin(str(base), reference))


@settings(max_examples=1500)
@given(
    base=parsed_bases(),
    reference=st.one_of(
        hostile_references(),
        st.text(max_size=20).map("https://".__add__),
        st.one_of(site_urls(), invites).map(str),  # what the sites send back: redirects, absolute links
    ),
)
@example(base=Url.parse("https://a.sim/p"), reference="https://\n/x")
@example(base=Url.parse("https://a.sim/p"), reference="https://\t")
@example(base=Url.parse("http://a.sim/p"), reference="http://\r?q")
@example(base=Url.parse("https://a.sim/p"), reference="https://b.sim/x;")
@example(base=Url.parse("https://a.sim/p"), reference="https://b.sim/x;?q")
@example(base=Url.parse("https://a.sim/p"), reference="https://b.sim:99999/")
def test_join_gives_what_urljoin_then_parse_gives(base, reference):
    assert outcome(base.join, reference) == outcome(lambda raw: joined_by_urljoin(base, raw), reference)


@pytest.mark.parametrize(
    ("reference", "resolved_by_urljoin"),
    [
        ("https://slowcdn.discord.sim/hop/1?client_id=1", False),
        ("https://discord.sim/oauth2/authorize?client_id=1&permissions=0&scope=bot", False),
        ("https://b.sim:8080/y?z=1#f", False),
        ("https:///x", True),
        ("https://", True),
        ("https://?q", True),
        ("https://#f", True),
        ("HTTPS://b.sim/", True),
        ("http://b.sim/", True),
        ("https://b.sim/\tx", True),
        ("https://b.sim/x;", True),
        ("//b.sim/x", True),
        ("/x", True),
        ("x", True),
    ],
)
def test_only_an_absolute_reference_in_the_bases_scheme_skips_urljoin(reference, resolved_by_urljoin, monkeypatch):
    base = Url.parse("https://a.sim/p/q")
    expected = joined_by_urljoin(base, reference)
    calls = []
    original = urllib.parse.urljoin
    monkeypatch.setattr(urllib.parse, "urljoin", lambda *args: calls.append(args) or original(*args))
    assert fields(base.join(reference)) == fields(expected)
    assert calls == ([(str(base), reference)] if resolved_by_urljoin else [])


# -- a plain URL is split without urlsplit, as urlsplit splits it ---------------


def split_by_urlsplit(raw: str) -> tuple:
    """A parse's fields from ``urlsplit`` and its ``hostname`` and ``port`` alone."""
    parts = urllib.parse.urlsplit(raw)
    if not parts.netloc and not parts.scheme:
        return ("", "", None, parts.path or "/", parts.query, parts.fragment)
    return (parts.scheme or "https", parts.hostname or "", parts.port, parts.path or "/", parts.query, parts.fragment)


def oracle_outcome(raw: str):
    try:
        return ("parsed", split_by_urlsplit(raw))
    except ValueError as error:
        return ("raised", type(error))


plain_hosts = st.lists(st.from_regex(r"[a-z0-9-]{1,8}", fullmatch=True), min_size=1, max_size=3).map(".".join)
#: Text a path, query or fragment may hold: reserved, percent, non-ASCII and control characters.
url_text = st.text(alphabet=st.sampled_from("aZ09/.-_~%!$&'()*+,;=:@?# é€\u3000\x00\x0b\x1f"), max_size=10)


@st.composite
def plain_urls(draw) -> str:
    """What the sites and the scraper send: lower-case http(s), a plain host, an absolute path."""
    scheme = draw(st.sampled_from(["https://", "http://"]))
    path = draw(st.one_of(st.just(""), url_text.map("/".__add__)))
    query = draw(st.one_of(st.just(""), url_text.map("?".__add__)))
    fragment = draw(st.one_of(st.just(""), url_text.map("#".__add__)))
    return scheme + draw(plain_hosts) + path + query + fragment


#: What may turn a plain URL into one that ``urlsplit`` must read: upper
#: case, a port, userinfo, brackets, percent, non-ASCII (fullwidth forms
#: that NFKC maps to a delimiter among them), whitespace and controls.
hostile_splices = st.sampled_from(
    ["A", "H", "S", ":", ":8443", ":0", ":99999", ":-1", ":x", "@", "user:pw@", "[", "]", "[::1]", "%", "%2f",
     "é", "ß", "\uff0f", "\uff1a", "\u2100", "\t", "\r", "\n", " ", "\x00", "\x1f", "\x0b", "_", "/", "?", "#", ""]
)


@st.composite
def hostile_urls(draw) -> str:
    """A plain URL with hostile text spliced in anywhere, often around the scheme and host."""
    url = draw(plain_urls())
    boundary = url.index("://") + 3
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.one_of(st.just(0), st.integers(0, boundary), st.integers(boundary, len(url)),
                            st.integers(0, len(url))))
        url = url[:at] + draw(hostile_splices) + url[at:]
    return url


@settings(max_examples=1500)
@given(raw=st.one_of(plain_urls(), hostile_urls(), raw_urls(), hostile_references(), st.text(max_size=30)))
@example(raw="https://a.sim")
@example(raw="https://a.sim?q#f")
@example(raw="http://a.sim#f?q")
@example(raw="https://a.sim/p?q#f#g")
@example(raw="https://-.sim/")
@example(raw="https://a.sim:/")
@example(raw="https://a.sim/\x00")
@example(raw="\x00https://a.sim/")
@example(raw=" https://a.sim/")
@example(raw="https://a.sim/x\n")
@example(raw="https://\ta.sim/")
@example(raw="https:///x")
@example(raw="https://a.sim\uff0fb/")
@example(raw="https://a.sim./p")
def test_a_parse_equals_urlsplit_and_its_hostname_and_port(raw):
    assert outcome(http._parse.__wrapped__, raw) == oracle_outcome(raw)
    assert outcome(Url.parse, raw) == oracle_outcome(raw)


@pytest.mark.parametrize(
    ("raw", "skips_urlsplit"),
    [
        ("https://top.gg.sim/bot/12", True),
        ("https://slowcdn.discord.sim/hop/1?client_id=7", True),
        ("https://discord.sim/oauth2/authorize?client_id=1&permissions=8&scope=bot#x", True),
        ("http://a.sim", True),
        ("https://a.sim?q=1", True),
        ("https://a.sim#f", True),
        ("https://a-1.b2.sim/%7e/é?x=é#€", True),
        ("https://a.sim/p\x00\x0b", True),
        ("HTTPS://a.sim/", False),
        ("Http://a.sim/", False),
        ("https://A.sim/", False),
        ("https://a.sim:8443/", False),
        ("https://a.sim:/", False),
        ("https://user@a.sim/", False),
        ("https://[::1]/", False),
        ("https://a.sim%2f/", False),
        ("https://a_b.sim/", False),
        ("https://é.sim/", False),
        ("https://a.sim/\tx", False),
        ("https://a.sim/x\r", False),
        ("https://a.sim/?q\n", False),
        (" https://a.sim/", False),
        ("\x00https://a.sim/", False),
        ("https:///x", False),
        ("https://", False),
        ("https:a.sim/x", False),
        ("ftp://a.sim/", False),
        ("//a.sim/x", False),
        ("/bots/1", False),
        ("bots/1", False),
        ("", False),
    ],
)
def test_only_a_plain_url_skips_urlsplit(raw, skips_urlsplit, monkeypatch):
    expected = oracle_outcome(raw)
    calls = []
    original = urllib.parse.urlsplit
    monkeypatch.setattr(urllib.parse, "urlsplit", lambda *args: calls.append(args) or original(*args))
    assert outcome(http._parse.__wrapped__, raw) == expected
    assert calls == ([] if skips_urlsplit else [(raw,)])


# -- the query decoder decodes as parse_qsl decodes -------------------------------

query_texts = st.one_of(
    st.text(alphabet=st.sampled_from("ab=&%+2F0zé€ \x00;"), max_size=24),
    st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6)), max_size=5).map(urllib.parse.urlencode),
    st.text(max_size=24),
)


@settings(max_examples=1500)
@given(query=query_texts)
def test_the_decoder_equals_parse_qsl_with_key_order(query):
    expected = dict(urllib.parse.parse_qsl(query, keep_blank_values=True))
    decoded = Url(host="a.sim", query=query).query_params()
    assert list(decoded.items()) == list(expected.items())


@settings(max_examples=500)
@given(query=query_texts, extra=st.text(max_size=4), default=st.one_of(st.none(), st.text(max_size=3)))
def test_param_reads_what_query_params_holds(query, extra, default):
    url = Url(host="a.sim", query=query)
    decoded = url.query_params()
    url.query_params().clear()  # the caller's own copy: the Url's decoded query stays
    for name in [*decoded, extra]:
        assert url.param(name) == decoded.get(name)
        assert url.param(name, default) == decoded.get(name, default)
