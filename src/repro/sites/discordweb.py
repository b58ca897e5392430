"""``discord.sim`` — the platform's web frontend.

Serves the OAuth consent page for each bot in the ecosystem.  This is where
the scraper reads requested permissions from, and where the three invalid
classes from the paper manifest:

- **malformed** invite links fail OAuth parameter validation (400);
- **removed** bots return "Unknown Application" (404);
- **slow-redirect** bots bounce through a throttled CDN host whose chain
  exceeds the scraper's page-load timeout.
"""

from __future__ import annotations

from repro.discordsim.oauth import ConsentScreen, InviteLinkError, parse_invite_url
from repro.ecosystem.generator import BotProfile, Ecosystem, InviteStatus
from repro.web.http import Request, Response
from repro.web.network import HostConditions, VirtualInternet
from repro.web.server import VirtualHost

DISCORD_HOSTNAME = "discord.sim"
SLOW_CDN_HOSTNAME = "slowcdn.discord.sim"

#: Latency of one hop through the throttled CDN.  Three hops at 6s each
#: blow through the scraper's default 10s page-load budget.
SLOW_HOP_LATENCY = 6.0
SLOW_HOPS = 3


class DiscordWebsite:
    """Builds and registers the ``discord.sim`` hosts for an ecosystem."""

    def __init__(self, ecosystem: Ecosystem) -> None:
        self.ecosystem = ecosystem
        # Materialized populations get a dict; streaming ones decode the
        # client id back to a rank (ids are rank + a constant base), so the
        # consent pages never force the population resident.
        self._by_client_id: dict[int, BotProfile] | None = (
            None
            if getattr(ecosystem, "stream", None) is not None
            else {bot.client_id: bot for bot in ecosystem.bots}
        )
        self.host = VirtualHost(DISCORD_HOSTNAME)
        self.slow_host = VirtualHost(SLOW_CDN_HOSTNAME)
        self.host.add_route("/oauth2/authorize", self._authorize)
        self.slow_host.add_route("/hop/{n}", self._slow_hop)
        self.consent_pages_served = 0

    def register(self, internet: VirtualInternet) -> None:
        internet.register(DISCORD_HOSTNAME, self.host)
        internet.register(
            SLOW_CDN_HOSTNAME,
            self.slow_host,
            HostConditions(base_latency=SLOW_HOP_LATENCY),
        )

    # -- routes ------------------------------------------------------------

    def _authorize(self, request: Request) -> Response:
        try:
            client_id = int(request.param("client_id", ""))
        except ValueError:
            return Response.html(_error_page("Invalid OAuth2 authorize request"), status=400)
        if self._by_client_id is not None:
            bot = self._by_client_id.get(client_id)
        else:
            bot = self.ecosystem.bot_by_client_id(client_id)
        if bot is None or bot.invite_status is InviteStatus.REMOVED:
            return Response.html(_error_page("Unknown Application"), status=404)
        if bot.invite_status is InviteStatus.SLOW_REDIRECT:
            # First hop of a throttled redirect chain.
            return Response.redirect(f"https://{SLOW_CDN_HOSTNAME}/hop/1?client_id={client_id}")
        if bot.invite_status is InviteStatus.MALFORMED:
            return Response.html(_error_page("Invalid OAuth2 authorize request"), status=400)
        try:
            invite = parse_invite_url(str(request.url))
        except InviteLinkError:
            return Response.html(_error_page("Invalid OAuth2 authorize request"), status=400)
        screen = ConsentScreen(bot_name=bot.name, invite=invite, guild_names=["My Server"])
        self.consent_pages_served += 1
        return Response.html(screen.render_html())

    def _slow_hop(self, request: Request, n: str) -> Response:
        try:
            hop = int(n)
        except ValueError:
            return Response.not_found(f"{SLOW_CDN_HOSTNAME}: no hop {n}")
        client_id = request.param("client_id", "0")
        if hop < SLOW_HOPS:
            return Response.redirect(f"https://{SLOW_CDN_HOSTNAME}/hop/{hop + 1}?client_id={client_id}")
        return Response.redirect(f"https://{DISCORD_HOSTNAME}/oauth2/authorize?client_id={client_id}&permissions=0&scope=bot")


def _error_page(message: str) -> str:
    return (
        "<html><head><title>Discord</title></head><body>"
        f'<div class="error"><h1 id="error-message">{message}</h1></div>'
        "</body></html>"
    )
