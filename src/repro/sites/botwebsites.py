"""Per-bot developer websites hosting privacy policies.

The paper notes that bots "tend to not have any visible privacy policies on
top.gg", so the scraper must visit each bot's website and hunt for the
policy with element locators.  To exercise that, sites come in several
structural variants: the policy link may sit in the navigation bar, in the
footer, or behind a "legal" page; anchor text and paths vary; and a small
class of sites (3 of 676 in the paper) advertise a policy link that 404s.
"""

from __future__ import annotations

from repro.ecosystem.generator import BotProfile, Ecosystem
from repro.ecosystem.stream import rank_suffix_of
from repro.web.http import Request, Response
from repro.web.network import VirtualInternet
from repro.web.server import VirtualHost

#: Structural variants a bot website can use for its policy link.
WEBSITE_VARIANTS = ("nav", "footer", "legal")

#: Policy-page path per website structural variant.
POLICY_PATHS = {"nav": "/privacy", "footer": "/privacy-policy", "legal": "/legal/privacy"}

#: Domain under which every generated bot website lives.
BOTSITE_DOMAIN = ".botsite.sim"


def variant_for(bot: BotProfile) -> str:
    return WEBSITE_VARIANTS[bot.client_id % len(WEBSITE_VARIANTS)]


class BotWebsiteBuilder:
    """Builds one VirtualHost per bot website.

    For a materialized :class:`Ecosystem` every site is built and registered
    up front.  For a streaming ecosystem no site exists until a request
    arrives: ``register`` installs a resolver on the internet that decodes
    ``<name><rank>.botsite.sim`` back to the owning bot's rank and builds
    that one site on demand (bounded by the internet's dynamic-host LRU).
    """

    def __init__(self, ecosystem: Ecosystem) -> None:
        self.ecosystem = ecosystem
        self.hosts: dict[str, VirtualHost] = {}
        self._streaming = getattr(ecosystem, "stream", None) is not None
        if not self._streaming:
            for bot in ecosystem.websites():
                assert bot.website_host is not None
                self.hosts[bot.website_host] = _build_site(bot)

    def register(self, internet: VirtualInternet) -> None:
        if self._streaming:
            internet.register_resolver(self.resolve)
            return
        for hostname, host in self.hosts.items():
            internet.register(hostname, host)

    def resolve(self, hostname: str) -> VirtualHost | None:
        """``<botname-lowercase>.botsite.sim`` -> that bot's site, else None."""
        if not hostname.endswith(BOTSITE_DOMAIN):
            return None
        rank = rank_suffix_of(hostname[: -len(BOTSITE_DOMAIN)])
        if rank is None or not 0 <= rank < len(self.ecosystem.bots):
            return None
        bot = self.ecosystem.bots[rank]
        if bot.website_host != hostname:
            return None
        return _build_site(bot)


def _build_site(bot: BotProfile) -> VirtualHost:
    host = VirtualHost(bot.website_host or "site")
    variant = variant_for(bot)
    policy_path = POLICY_PATHS[variant]
    has_policy_link = bot.policy.present
    policy_resolves = bot.policy.present and bot.policy.link_valid

    def homepage(request: Request) -> Response:
        link_html = ""
        if has_policy_link:
            if variant == "nav":
                link_html = f'<nav><a class="nav-link" href="{policy_path}">Privacy Policy</a></nav>'
            elif variant == "footer":
                link_html = f'<footer><a class="footer-link" href="{policy_path}">privacy</a></footer>'
            else:
                link_html = '<nav><a class="nav-link" href="/legal">Legal</a></nav>'
        body = (
            f"<html><head><title>{bot.name}</title></head><body>"
            f'<h1 class="bot-title">{bot.name}</h1>'
            f'<p class="pitch">{bot.description}</p>'
            f'<a id="invite" href="{bot.invite_url}">Add to your server</a>'
            f"{link_html}"
            "</body></html>"
        )
        return Response.html(body)

    def legal(request: Request) -> Response:
        body = (
            f"<html><head><title>{bot.name} legal</title></head><body>"
            f'<ul><li><a class="legal-link" href="{policy_path}">Privacy Policy</a></li>'
            '<li><a class="legal-link" href="/legal/terms">Terms of Service</a></li></ul>'
            "</body></html>"
        )
        return Response.html(body)

    def terms(request: Request) -> Response:
        return Response.html(
            f"<html><head><title>Terms</title></head><body><h1>{bot.name} Terms</h1>"
            "<p>Use at your own risk.</p></body></html>"
        )

    def privacy(request: Request) -> Response:
        if not policy_resolves:
            return Response.html("<html><head><title>404</title></head><body><h1>Not found</h1></body></html>", status=404)
        paragraphs = "".join(f"<p>{line}</p>" for line in bot.policy_text.splitlines() if line.strip())
        body = (
            f"<html><head><title>{bot.name} privacy policy</title></head><body>"
            f'<div id="policy">{paragraphs}</div></body></html>'
        )
        return Response.html(body)

    host.add_route("/", homepage)
    if variant == "legal":
        host.add_route("/legal", legal)
        host.add_route("/legal/terms", terms)
    if has_policy_link:
        host.add_route(policy_path, privacy)
    return host
