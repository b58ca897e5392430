"""Discord's permission bitfield, faithfully reproduced.

Bit positions follow the Discord developer documentation the paper cites
([20], discord.com/developers/docs/topics/permissions) as of the paper's
measurement window (2022).  ``ADMINISTRATOR`` semantics — "allows all
permissions and bypasses channel permission overwrites" — are implemented in
:func:`compute_channel_permissions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntFlag
from typing import Iterable, Iterator


class Permission(IntFlag):
    """Individual permission flags (bit positions match Discord's API)."""

    CREATE_INSTANT_INVITE = 1 << 0
    KICK_MEMBERS = 1 << 1
    BAN_MEMBERS = 1 << 2
    ADMINISTRATOR = 1 << 3
    MANAGE_CHANNELS = 1 << 4
    MANAGE_GUILD = 1 << 5
    ADD_REACTIONS = 1 << 6
    VIEW_AUDIT_LOG = 1 << 7
    PRIORITY_SPEAKER = 1 << 8
    STREAM = 1 << 9
    VIEW_CHANNEL = 1 << 10
    SEND_MESSAGES = 1 << 11
    SEND_TTS_MESSAGES = 1 << 12
    MANAGE_MESSAGES = 1 << 13
    EMBED_LINKS = 1 << 14
    ATTACH_FILES = 1 << 15
    READ_MESSAGE_HISTORY = 1 << 16
    MENTION_EVERYONE = 1 << 17
    USE_EXTERNAL_EMOJIS = 1 << 18
    VIEW_GUILD_INSIGHTS = 1 << 19
    CONNECT = 1 << 20
    SPEAK = 1 << 21
    MUTE_MEMBERS = 1 << 22
    DEAFEN_MEMBERS = 1 << 23
    MOVE_MEMBERS = 1 << 24
    USE_VAD = 1 << 25
    CHANGE_NICKNAME = 1 << 26
    MANAGE_NICKNAMES = 1 << 27
    MANAGE_ROLES = 1 << 28
    MANAGE_WEBHOOKS = 1 << 29
    MANAGE_EMOJIS_AND_STICKERS = 1 << 30
    USE_APPLICATION_COMMANDS = 1 << 31
    REQUEST_TO_SPEAK = 1 << 32
    MANAGE_EVENTS = 1 << 33
    MANAGE_THREADS = 1 << 34
    CREATE_PUBLIC_THREADS = 1 << 35
    CREATE_PRIVATE_THREADS = 1 << 36
    USE_EXTERNAL_STICKERS = 1 << 37
    SEND_MESSAGES_IN_THREADS = 1 << 38
    USE_EMBEDDED_ACTIVITIES = 1 << 39
    MODERATE_MEMBERS = 1 << 40


#: Every defined permission OR-ed together.
ALL_PERMISSIONS_VALUE = 0
for _flag in Permission:
    ALL_PERMISSIONS_VALUE |= _flag.value

#: Each defined bit's member, keyed by the bit as a plain int.  The set
#: queries below read bits through ``_value_`` and this table because
#: iterating ``Permission`` and reading ``Enum.value`` go through enum
#: descriptors: walking all 41 members made every ``flags()`` call cost
#: tens of microseconds, however few bits were set.
_FLAG_BY_BIT: dict[int, Permission] = {flag._value_: flag for flag in Permission}
_ADMINISTRATOR_BIT = Permission.ADMINISTRATOR._value_


#: Human-readable labels exactly as they appear on install screens and in
#: the paper's Figure 3 (e.g. VIEW_CHANNEL is surfaced as "read messages").
DISPLAY_NAMES: dict[Permission, str] = {
    Permission.CREATE_INSTANT_INVITE: "create invite",
    Permission.KICK_MEMBERS: "kick members",
    Permission.BAN_MEMBERS: "ban members",
    Permission.ADMINISTRATOR: "administrator",
    Permission.MANAGE_CHANNELS: "manage channels",
    Permission.MANAGE_GUILD: "manage server",
    Permission.ADD_REACTIONS: "add reactions",
    Permission.VIEW_AUDIT_LOG: "view audit log",
    Permission.PRIORITY_SPEAKER: "priority speaker",
    Permission.STREAM: "video",
    Permission.VIEW_CHANNEL: "read messages",
    Permission.SEND_MESSAGES: "send messages",
    Permission.SEND_TTS_MESSAGES: "send tts messages",
    Permission.MANAGE_MESSAGES: "manage messages",
    Permission.EMBED_LINKS: "embed links",
    Permission.ATTACH_FILES: "attach files",
    Permission.READ_MESSAGE_HISTORY: "read message history",
    Permission.MENTION_EVERYONE: "mention @everyone",
    Permission.USE_EXTERNAL_EMOJIS: "use external emojis",
    Permission.VIEW_GUILD_INSIGHTS: "view guild insights",
    Permission.CONNECT: "connect",
    Permission.SPEAK: "speak",
    Permission.MUTE_MEMBERS: "mute members",
    Permission.DEAFEN_MEMBERS: "deafen members",
    Permission.MOVE_MEMBERS: "move members",
    Permission.USE_VAD: "use voice activity",
    Permission.CHANGE_NICKNAME: "change nickname",
    Permission.MANAGE_NICKNAMES: "manage nicknames",
    Permission.MANAGE_ROLES: "manage roles",
    Permission.MANAGE_WEBHOOKS: "manage webhooks",
    Permission.MANAGE_EMOJIS_AND_STICKERS: "manage emojis and stickers",
    Permission.USE_APPLICATION_COMMANDS: "use application commands",
    Permission.REQUEST_TO_SPEAK: "request to speak",
    Permission.MANAGE_EVENTS: "manage events",
    Permission.MANAGE_THREADS: "manage threads",
    Permission.CREATE_PUBLIC_THREADS: "create public threads",
    Permission.CREATE_PRIVATE_THREADS: "create private threads",
    Permission.USE_EXTERNAL_STICKERS: "use external stickers",
    Permission.SEND_MESSAGES_IN_THREADS: "send messages in threads",
    Permission.USE_EMBEDDED_ACTIVITIES: "use embedded activities",
    Permission.MODERATE_MEMBERS: "moderate members",
}

_BY_DISPLAY_NAME = {label: flag for flag, label in DISPLAY_NAMES.items()}
_BY_API_NAME = {flag.name: flag for flag in Permission}


def permission_from_name(name: str) -> Permission:
    """Resolve an API name (``SEND_MESSAGES``) or display name ("send messages")."""
    key = name.strip()
    if key.upper() in _BY_API_NAME:
        return _BY_API_NAME[key.upper()]
    if key.lower() in _BY_DISPLAY_NAME:
        return _BY_DISPLAY_NAME[key.lower()]
    raise KeyError(f"unknown permission: {name!r}")


class Permissions:
    """An immutable permission *set* backed by the bitfield integer.

    This is the value that travels through invite URLs (``permissions=8``
    requests administrator), role definitions and overwrite math.
    """

    __slots__ = ("value",)

    def __init__(self, value: "int | Permission | Permissions" = 0) -> None:
        if isinstance(value, Permissions):
            value = value.value
        object.__setattr__(self, "value", int(value) & ALL_PERMISSIONS_VALUE)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permissions is immutable")

    def __reduce__(self):
        # Rebuild through ``__init__``: the default slot-state restore
        # would go through the ``__setattr__`` that refuses every write.
        return (Permissions, (self.value,))

    # -- constructors -------------------------------------------------------

    @classmethod
    def none(cls) -> "Permissions":
        return cls(0)

    @classmethod
    def all(cls) -> "Permissions":
        return cls(ALL_PERMISSIONS_VALUE)

    @classmethod
    def administrator(cls) -> "Permissions":
        return cls(Permission.ADMINISTRATOR)

    @classmethod
    def default_everyone(cls) -> "Permissions":
        """The baseline the paper describes for the implicit @everyone role."""
        return cls.of(
            Permission.VIEW_CHANNEL,
            Permission.SEND_MESSAGES,
            Permission.READ_MESSAGE_HISTORY,
            Permission.ADD_REACTIONS,
            Permission.CONNECT,
            Permission.SPEAK,
            Permission.USE_VAD,
            Permission.CHANGE_NICKNAME,
            Permission.CREATE_INSTANT_INVITE,
            Permission.EMBED_LINKS,
            Permission.ATTACH_FILES,
            Permission.USE_APPLICATION_COMMANDS,
        )

    @classmethod
    def of(cls, *flags: Permission) -> "Permissions":
        value = 0
        for flag in flags:
            value |= flag._value_
        return cls(value)

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Permissions":
        value = 0
        for name in names:
            value |= permission_from_name(name)._value_
        return cls(value)

    # -- queries ---------------------------------------------------------------

    def has(self, flag: Permission) -> bool:
        """True if the flag is present *or* ADMINISTRATOR is present."""
        value = self.value
        return bool(value & _ADMINISTRATOR_BIT or value & flag._value_)

    def has_exactly(self, flag: Permission) -> bool:
        """True only if the flag's own bit is set (no administrator shortcut)."""
        return bool(self.value & flag._value_)

    @property
    def is_administrator(self) -> bool:
        return bool(self.value & _ADMINISTRATOR_BIT)

    def flags(self) -> list[Permission]:
        """The individually-set flags, lowest bit first.

        The canonical ``Permission`` members themselves, in the order
        iterating ``Permission`` yields them; only the set bits are visited.
        """
        found = []
        rest = self.value
        while rest:
            bit = rest & -rest
            found.append(_FLAG_BY_BIT[bit])
            rest ^= bit
        return found

    def display_names(self) -> list[str]:
        """Display labels for the set flags, as a consent screen shows them."""
        return [DISPLAY_NAMES[flag] for flag in self.flags()]

    def redundant_with_administrator(self) -> list[Permission]:
        """Flags that are redundant because ADMINISTRATOR is also requested.

        The paper flags this pattern ("asking for anything in addition to
        admin is redundant") as a signal the developer misunderstands the
        permission system.
        """
        if not self.is_administrator:
            return []
        return [flag for flag in self.flags() if flag is not Permission.ADMINISTRATOR]

    # -- algebra ------------------------------------------------------------------

    def union(self, other: "Permissions | Permission | int") -> "Permissions":
        return Permissions(self.value | _bits(other))

    def intersection(self, other: "Permissions | Permission | int") -> "Permissions":
        return Permissions(self.value & _bits(other))

    def difference(self, other: "Permissions | Permission | int") -> "Permissions":
        return Permissions(self.value & ~_bits(other))

    def is_subset(self, other: "Permissions | Permission | int") -> bool:
        return (self.value & _bits(other)) == self.value

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __contains__(self, flag: Permission) -> bool:
        return self.has(flag)

    def __iter__(self) -> Iterator[Permission]:
        return iter(self.flags())

    def __len__(self) -> int:
        return len(self.flags())

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Permissions):
            return self.value == other.value
        if isinstance(other, (int, Permission)):
            return self.value == int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Permissions", self.value))

    def __repr__(self) -> str:
        names = ", ".join(flag.name or "?" for flag in self.flags())
        return f"Permissions({self.value}: {names})"


def _bits(operand: "Permissions | Permission | int") -> int:
    """An algebra operand's bits as a plain int, without wrapping it.

    An int operand may carry bits outside the defined flags.  They cannot
    reach a result: ``self.value`` holds none, so only a union could pass
    them on, and its result goes through the constructor's mask.
    """
    return operand.value if isinstance(operand, Permissions) else int(operand)


#: Convenience constant used across the ecosystem generator.
ALL_PERMISSIONS = Permissions.all()


@dataclass(frozen=True)
class PermissionOverwrite:
    """A channel-level allow/deny pair targeting a role or member id."""

    target_id: int
    allow: Permissions = field(default_factory=Permissions.none)
    deny: Permissions = field(default_factory=Permissions.none)

    def apply(self, base: Permissions) -> Permissions:
        return Permissions(_overwrite(base.value, self.allow.value, self.deny.value))


def compute_base_permissions(member_role_permissions: Iterable[Permissions], is_owner: bool = False) -> Permissions:
    """Guild-level permissions: union of the member's role permissions.

    Owners and administrators resolve to :meth:`Permissions.all`, matching
    Discord's documented algorithm.
    """
    return Permissions(_base_bits((permissions.value for permissions in member_role_permissions), is_owner))


def compute_channel_permissions(
    base: Permissions,
    everyone_overwrite: PermissionOverwrite | None,
    role_overwrites: Iterable[PermissionOverwrite],
    member_overwrite: PermissionOverwrite | None,
) -> Permissions:
    """Channel-level permissions per Discord's documented overwrite order.

    ADMINISTRATOR bypasses all overwrites — the property the paper calls out
    when noting that 54.86% of bots request it.
    """
    return Permissions(_channel_bits(base.value, everyone_overwrite, role_overwrites, member_overwrite))


# The resolution itself, on plain ints, shared with ``Guild``: reading the
# sets' ``value`` spares the allocation of every intermediate set.


def _base_bits(role_values: Iterable[int], is_owner: bool = False) -> int:
    """Every bit for the owner or when a role grants ADMINISTRATOR, else
    the union of the roles' bits."""
    if is_owner:
        return ALL_PERMISSIONS_VALUE
    value = 0
    for role_value in role_values:
        value |= role_value
    return ALL_PERMISSIONS_VALUE if value & _ADMINISTRATOR_BIT else value


def _channel_bits(
    value: int,
    everyone_overwrite: PermissionOverwrite | None,
    role_overwrites: Iterable[PermissionOverwrite],
    member_overwrite: PermissionOverwrite | None,
) -> int:
    """ADMINISTRATOR bypasses every overwrite; otherwise the @everyone
    overwrite, the union of the role overwrites, then the member overwrite."""
    if value & _ADMINISTRATOR_BIT:
        return ALL_PERMISSIONS_VALUE
    if everyone_overwrite is not None:
        value = _overwrite(value, everyone_overwrite.allow.value, everyone_overwrite.deny.value)
    allow = deny = 0
    for overwrite in role_overwrites:
        allow |= overwrite.allow.value
        deny |= overwrite.deny.value
    value = _overwrite(value, allow, deny)
    if member_overwrite is not None:
        value = _overwrite(value, member_overwrite.allow.value, member_overwrite.deny.value)
    return value


def _overwrite(value: int, allow: int, deny: int) -> int:
    """One overwrite step: the denied bits cleared, then the allowed set."""
    return (value & ~deny) | allow
