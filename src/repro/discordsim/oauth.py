"""OAuth2 install flow: scopes, invite URLs, and the consent screen (Fig 2).

Bots are installed through an OAuth authorisation URL of the form::

    https://discord.sim/oauth2/authorize?client_id=<id>&permissions=<bits>&scope=bot

The consent screen enumerates exactly the permissions encoded in the URL's
bitfield — this page is where the paper's scraper reads each bot's requested
permissions from ("74% of the chatbots requested valid permissions on the
installation page").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.web.http import Url
from repro.discordsim.permissions import Permissions


class OAuthScope(Enum):
    """OAuth scopes.  Some are whitelisted (staff approval) or test-only."""

    BOT = "bot"
    IDENTIFY = "identify"
    EMAIL = "email"
    GUILDS = "guilds"
    GUILDS_JOIN = "guilds.join"
    APPLICATIONS_COMMANDS = "applications.commands"
    MESSAGES_READ = "messages.read"
    RPC = "rpc"
    RPC_NOTIFICATIONS_READ = "rpc.notifications.read"
    RELATIONSHIPS_READ = "relationships.read"

    @property
    def requires_whitelist(self) -> bool:
        return self in _WHITELISTED_SCOPES

    @property
    def testing_only(self) -> bool:
        return self in _TESTING_SCOPES


_WHITELISTED_SCOPES = frozenset({OAuthScope.MESSAGES_READ, OAuthScope.RELATIONSHIPS_READ})
_TESTING_SCOPES = frozenset({OAuthScope.RPC, OAuthScope.RPC_NOTIFICATIONS_READ})


class InviteLinkError(ValueError):
    """The URL is not a well-formed OAuth authorisation link."""


@dataclass(frozen=True)
class InviteLink:
    """A parsed bot-invite URL."""

    client_id: int
    permissions: Permissions
    scopes: tuple[OAuthScope, ...] = (OAuthScope.BOT,)
    host: str = "discord.sim"

    def url(self) -> str:
        scope_value = "%20".join(scope.value for scope in self.scopes)
        return (
            f"https://{self.host}/oauth2/authorize"
            f"?client_id={self.client_id}&permissions={self.permissions.value}&scope={scope_value}"
        )


def build_invite_url(
    client_id: int,
    permissions: Permissions,
    scopes: tuple[OAuthScope, ...] = (OAuthScope.BOT,),
    host: str = "discord.sim",
) -> str:
    return InviteLink(client_id=client_id, permissions=permissions, scopes=scopes, host=host).url()


def parse_invite_url(raw: str) -> InviteLink:
    """Parse an OAuth authorise URL; raises :class:`InviteLinkError` if malformed."""
    url = Url.parse(raw)
    if "/oauth2/authorize" not in url.path:
        raise InviteLinkError(f"not an oauth authorise path: {raw!r}")
    try:
        # A missing client_id reads as "", which int() refuses like a malformed one.
        client_id = int(url.param("client_id", ""))
    except ValueError:
        raise InviteLinkError(f"missing or malformed client_id in {raw!r}") from None
    try:
        permissions = Permissions(int(url.param("permissions", "0")))
    except ValueError:
        raise InviteLinkError(f"malformed permissions bitfield in {raw!r}") from None
    raw_scopes = url.param("scope", "bot").replace("%20", " ").split()
    scopes: list[OAuthScope] = []
    for name in raw_scopes:
        try:
            scopes.append(OAuthScope(name))
        except ValueError:
            raise InviteLinkError(f"unknown scope {name!r} in {raw!r}") from None
    if OAuthScope.BOT not in scopes:
        raise InviteLinkError("the bot scope is required for all chatbots")
    return InviteLink(client_id=client_id, permissions=permissions, scopes=tuple(scopes), host=url.host)


@dataclass
class ConsentScreen:
    """The authorisation page shown to the installing user (Figure 2)."""

    bot_name: str
    invite: InviteLink
    captcha_challenge_id: str | None = None
    captcha_prompt: str | None = None
    guild_names: list[str] = field(default_factory=list)

    def render_html(self) -> str:
        """Render the page the scraper parses permissions from."""
        rows = "".join(
            f'<li class="permission-item">{name}</li>' for name in self.invite.permissions.display_names()
        )
        scopes = ", ".join(scope.value for scope in self.invite.scopes)
        options = "".join(f"<option>{name}</option>" for name in self.guild_names)
        captcha = ""
        if self.captcha_challenge_id:
            captcha = (
                f'<div id="captcha-challenge" data-challenge-id="{self.captcha_challenge_id}">'
                f'<p class="prompt">{self.captcha_prompt}</p></div>'
            )
        return (
            "<html><head><title>Authorize application</title></head><body>"
            f'<div class="consent"><h1 id="bot-name">{self.bot_name}</h1>'
            "<p>wants to access your account</p>"
            f'<p class="scopes">Scopes: {scopes}</p>'
            f'<label>Add to server:</label><select id="guild-select">{options}</select>'
            "<h2>This will allow the developer to:</h2>"
            f'<ul id="permission-list">{rows}</ul>'
            f"{captcha}"
            '<button id="authorize">Authorize</button>'
            '<button id="cancel">Cancel</button>'
            "</div></body></html>"
        )
