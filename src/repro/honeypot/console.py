"""The canary console: receives and attributes token triggers.

Two virtual hosts: ``canary.sim`` serves the beacon endpoint
(``GET /t/{token_id}``) that URL/Word/PDF tokens point at, and
``mail.canary.sim`` accepts SMTP-ish deliveries to canary mailboxes.
Every trigger is recorded with the requesting client id and the token's
deployment context (guild name = bot under test).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.honeypot.tokens import CANARY_DOMAIN, CanaryToken, TokenKind
from repro.web.http import Request, Response
from repro.web.network import VirtualInternet
from repro.web.server import VirtualHost

CANARY_HOSTNAME = CANARY_DOMAIN
MAIL_HOSTNAME = f"mail.{CANARY_DOMAIN}"


@dataclass(frozen=True)
class TriggerRecord:
    """One token trigger, as the console logs it."""

    time: float
    token_id: str
    kind: TokenKind
    context: str  # guild / bot name
    client_id: str  # who fetched the beacon


@dataclass
class RegisteredToken:
    token: CanaryToken
    deployed_at: float


class CanaryConsole:
    """Token registry + trigger sink."""

    def __init__(self) -> None:
        self._tokens: dict[str, RegisteredToken] = {}
        self.triggers: list[TriggerRecord] = []
        self.unknown_hits: int = 0
        self.host = VirtualHost(CANARY_HOSTNAME)
        self.mail_host = VirtualHost(MAIL_HOSTNAME)
        self.host.add_route("/t/{token_id}", self._beacon)
        self.mail_host.add_route("/smtp", self._smtp, method="POST")
        self._clock_now = lambda: 0.0

    def register(self, internet: VirtualInternet) -> None:
        internet.register(CANARY_HOSTNAME, self.host)
        internet.register(MAIL_HOSTNAME, self.mail_host)
        self._clock_now = internet.clock.now

    # -- token lifecycle ------------------------------------------------------

    def deploy(self, token: CanaryToken) -> None:
        """Arm a freshly minted token."""
        self._tokens[token.token_id] = RegisteredToken(token=token, deployed_at=self._clock_now())

    # -- endpoints ----------------------------------------------------------------

    def _beacon(self, request: Request, token_id: str) -> Response:
        entry = self._tokens.get(token_id)
        if entry is None:
            self.unknown_hits += 1
            return Response.text("ok")  # indistinguishable from a real hit
        self.triggers.append(
            TriggerRecord(
                time=self._clock_now(),
                token_id=token_id,
                kind=entry.token.kind,
                context=entry.token.context,
                client_id=request.client_id,
            )
        )
        return Response.text("ok")

    def _smtp(self, request: Request) -> Response:
        """Record mail sent to canary mailboxes (``To: <id>@canary.sim``)."""
        recipient = ""
        for line in request.body.splitlines():
            if line.lower().startswith("to:"):
                recipient = line.split(":", 1)[1].strip()
                break
        local, _, domain = recipient.partition("@")
        if domain != CANARY_DOMAIN:
            return Response.text("relay denied", status=403)
        entry = self._tokens.get(local)
        if entry is None:
            self.unknown_hits += 1
            return Response.text("accepted")
        self.triggers.append(
            TriggerRecord(
                time=self._clock_now(),
                token_id=local,
                kind=TokenKind.EMAIL,
                context=entry.token.context,
                client_id=request.client_id,
            )
        )
        return Response.text("accepted")

    # -- analysis --------------------------------------------------------------------

    def triggers_by_context(self) -> dict[str, list[TriggerRecord]]:
        grouped: dict[str, list[TriggerRecord]] = {}
        for record in self.triggers:
            grouped.setdefault(record.context, []).append(record)
        return grouped
