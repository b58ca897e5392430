"""A ``discord.py``-style bot runtime.

Bots register prefix commands (``!kick``, ``!info``, …); the runtime
subscribes to the gateway and dispatches matching messages.  Developers who
follow best practice guard privileged commands with
:func:`requires_user_permissions` — the check the paper found missing from
97.35% of Python bot repositories.  Nothing in the platform forces them to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.discordsim.api import BotApiClient
from repro.discordsim.gateway import Event
from repro.discordsim.guild import GuildError
from repro.discordsim.models import Message
from repro.discordsim.permissions import Permission
from repro.discordsim.platform import DiscordPlatform
from repro.web.network import VirtualInternet


class CheckFailure(GuildError):
    """A user-permission check rejected the command invocation."""


@dataclass
class CommandContext:
    """Everything a command handler gets about the invocation."""

    bot: "BotRuntime"
    api: BotApiClient
    message: Message
    args: list[str]

    @property
    def guild_id(self) -> int:
        return self.message.guild_id

    @property
    def channel_id(self) -> int:
        return self.message.channel_id

    @property
    def author_id(self) -> int:
        return self.message.author_id

    def reply(self, content: str) -> Message:
        return self.api.send_message(self.guild_id, self.channel_id, content)


CommandHandler = Callable[[CommandContext], None]
MessageListener = Callable[["BotRuntime", Message], None]


def requires_user_permissions(*permissions: Permission) -> Callable[[CommandHandler], CommandHandler]:
    """Decorator: verify the *invoking user* holds ``permissions``.

    This is the runtime analogue of the source-level APIs in the paper's
    Table 3 (``.hasPermission(``, ``member.roles.cache``, ``.has(``,
    ``userPermissions``).  A bot whose privileged commands lack this guard is
    vulnerable to permission re-delegation.
    """

    def decorate(handler: CommandHandler) -> CommandHandler:
        def guarded(context: CommandContext) -> None:
            held = context.api.member_permissions(context.guild_id, context.author_id, context.channel_id)
            for permission in permissions:
                if not held.has(permission):
                    raise CheckFailure(f"user {context.author_id} lacks {permission.name}")
            handler(context)

        guarded.__name__ = getattr(handler, "__name__", "command")
        guarded.performs_permission_check = True  # type: ignore[attr-defined]
        return guarded

    return decorate


@dataclass
class CommandSpec:
    name: str
    handler: CommandHandler
    description: str = ""


class BotRuntime:
    """Runs one bot account: command dispatch plus raw message listeners."""

    def __init__(
        self,
        platform: DiscordPlatform,
        bot_user_id: int,
        prefix: str = "!",
        internet: VirtualInternet | None = None,
    ) -> None:
        self.platform = platform
        self.bot_user_id = bot_user_id
        self.prefix = prefix
        self.api = BotApiClient(platform, bot_user_id, internet=internet)
        self.commands: dict[str, CommandSpec] = {}
        self.listeners: list[MessageListener] = []
        self.tick_handlers: list[Callable[["BotRuntime"], None]] = []
        self.errors: list[tuple[str, Exception]] = []
        self.invocations = 0
        self._started = False
        self._unsubscribe: Callable[[], None] | None = None

    # -- registration --------------------------------------------------------

    def command(self, name: str, description: str = "") -> Callable[[CommandHandler], CommandHandler]:
        def register(handler: CommandHandler) -> CommandHandler:
            self.commands[name] = CommandSpec(name=name, handler=handler, description=description)
            return handler

        return register

    def add_listener(self, listener: MessageListener) -> None:
        """Raw MESSAGE_CREATE listener (what invasive bots use)."""
        self.listeners.append(listener)

    def add_tick_handler(self, handler: Callable[["BotRuntime"], None]) -> None:
        """Background work driven by the passage of time, not by messages.

        Real bots run their own schedulers on the developer's server; the
        simulator surfaces that as explicit ticks (the honeypot experiment
        ticks every runtime once per observation slice).
        """
        self.tick_handlers.append(handler)

    def tick(self) -> None:
        """Run background handlers once (errors recorded, not raised)."""
        for handler in list(self.tick_handlers):
            try:
                handler(self)
            except GuildError as error:
                self.errors.append(("tick", error))

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Connect to the gateway (idempotent)."""
        if self._started:
            return
        self._unsubscribe = self.platform.subscribe_bot(self.bot_user_id, self._on_event)
        self._started = True

    def stop(self) -> None:
        """Disconnect from the gateway (idempotent).

        Used by the supervision layer after a quarantine: a runtime whose
        handler crashed or flooded must never receive another event.
        """
        if not self._started:
            return
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._started = False

    def _on_event(self, event: Event) -> None:
        message: Message = event.payload["message"]
        for listener in self.listeners:
            try:
                listener(self, message)
            except GuildError as error:
                self.errors.append(("listener", error))
        if message.content.startswith(self.prefix):
            self._dispatch_command(message)

    def _dispatch_command(self, message: Message) -> None:
        body = message.content[len(self.prefix) :]
        parts = body.split()
        if not parts:
            return
        name, args = parts[0].lower(), parts[1:]
        spec = self.commands.get(name)
        if spec is None:
            return
        self.invocations += 1
        context = CommandContext(bot=self, api=self.api, message=message, args=args)
        # The API carries the invoking user for the duration of the command:
        # platforms with a runtime enforcer key their checks on this.
        self.api.acting_for = message.author_id
        try:
            spec.handler(context)
        except CheckFailure as error:
            self.errors.append((name, error))
            try:
                context.reply(f"You do not have permission to use {self.prefix}{name}.")
            except GuildError:
                pass
        except GuildError as error:
            self.errors.append((name, error))
        finally:
            self.api.acting_for = None
