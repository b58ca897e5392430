"""Guilds: roles, members, channels, and the permission hierarchy.

Implements the five hierarchy rules the paper lists in Section 4.1:

i.   an actor can grant roles of a lower position than its own highest role;
ii.  an actor can edit roles of a lower position, but can only grant
     permissions it itself has;
iii. an actor can only re-sort roles lower than its highest role;
iv.  kick / ban / nickname-edit only work on targets whose highest role is
     lower than the actor's highest role;
v.   otherwise permissions do not obey the role hierarchy.

The guild owner bypasses hierarchy checks, matching Discord.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.discordsim.models import Channel, ChannelType, Member, Role, User
from repro.discordsim.permissions import (
    Permission,
    PermissionOverwrite,
    Permissions,
    _base_bits,
    _channel_bits,
)
from repro.discordsim.snowflake import SnowflakeGenerator


class GuildError(Exception):
    """Base class for guild-level failures."""


class PermissionDenied(GuildError):
    """The actor lacks a required permission bit."""


class HierarchyError(GuildError):
    """The action violates the role hierarchy (rules i–iv)."""


class UnknownEntityError(GuildError):
    """Referenced member/role/channel does not exist in this guild."""


@dataclass
class AuditLogEntry:
    """One audit-log record (visible with VIEW_AUDIT_LOG)."""

    time: float
    actor_id: int
    action: str
    target: str
    detail: str = ""


@dataclass
class BanEntry:
    user_id: int
    reason: str
    banned_by: int
    time: float


class Guild:
    """A Discord guild: role-based access control over channels."""

    def __init__(
        self,
        guild_id: int,
        name: str,
        owner: User,
        snowflakes: SnowflakeGenerator,
        private: bool = True,
    ) -> None:
        self.guild_id = guild_id
        self.name = name
        self.owner_id = owner.user_id
        self.private = private
        self._snowflakes = snowflakes
        self.roles: dict[int, Role] = {}
        self.members: dict[int, Member] = {}
        self.channels: dict[int, Channel] = {}
        self.audit_log: list[AuditLogEntry] = []
        self.bans: dict[int, BanEntry] = {}
        self.everyone_role = Role(
            role_id=snowflakes.next_id(),
            name="@everyone",
            permissions=Permissions.default_everyone(),
            position=0,
        )
        self.roles[self.everyone_role.role_id] = self.everyone_role
        self._admit(owner)

    # -- membership ----------------------------------------------------------

    def _admit(self, user: User) -> Member:
        member = Member(user=user, role_ids=[], joined_at=self._snowflakes.clock.now())
        self.members[user.user_id] = member
        user.guild_ids.add(self.guild_id)
        return member

    def add_member(self, user: User) -> Member:
        """Admit a user.  Banned users are refused."""
        if user.user_id in self.bans:
            raise PermissionDenied(f"user {user.user_id} is banned from {self.name}")
        if user.user_id in self.members:
            return self.members[user.user_id]
        member = self._admit(user)
        self._audit(user.user_id, "member.join", str(user.user_id))
        return member

    def remove_member(self, user_id: int) -> None:
        member = self.members.pop(user_id, None)
        if member is not None:
            member.user.guild_ids.discard(self.guild_id)

    def member(self, user_id: int) -> Member:
        try:
            return self.members[user_id]
        except KeyError:
            raise UnknownEntityError(f"user {user_id} not in guild {self.name}") from None

    def bot_members(self) -> list[Member]:
        return [member for member in self.members.values() if member.user.is_bot]

    # -- roles -----------------------------------------------------------------

    def role(self, role_id: int) -> Role:
        try:
            return self.roles[role_id]
        except KeyError:
            raise UnknownEntityError(f"role {role_id} not in guild {self.name}") from None

    def create_role(
        self,
        name: str,
        permissions: Permissions,
        actor_id: int | None = None,
        managed: bool = False,
    ) -> Role:
        """Create a role at the top of the stack (below nothing).

        When ``actor_id`` is given, the actor needs MANAGE_ROLES and — per
        rule ii — cannot mint permissions it does not have.
        """
        if actor_id is not None and actor_id != self.owner_id:
            actor_permissions = self.base_permissions(actor_id)
            if not actor_permissions.has(Permission.MANAGE_ROLES):
                raise PermissionDenied("creating a role requires MANAGE_ROLES")
            if not actor_permissions.is_administrator and not permissions.is_subset(actor_permissions):
                raise HierarchyError("cannot create a role with permissions the actor lacks")
        position = max(role.position for role in self.roles.values()) + 1
        role = Role(
            role_id=self._snowflakes.next_id(),
            name=name,
            permissions=permissions,
            position=position,
            managed=managed,
        )
        self.roles[role.role_id] = role
        self._audit(actor_id or self.owner_id, "role.create", name)
        return role

    def top_role(self, user_id: int) -> Role:
        """The member's highest-positioned role (@everyone if none assigned)."""
        member = self.member(user_id)
        assigned = [self.roles[role_id] for role_id in member.role_ids if role_id in self.roles]
        if not assigned:
            return self.everyone_role
        return max(assigned, key=lambda role: role.position)

    def assign_role(self, actor_id: int, target_id: int, role_id: int) -> None:
        """Rule i: grant a role positioned below the actor's highest role."""
        role = self.role(role_id)
        target = self.member(target_id)
        if actor_id != self.owner_id:
            if not self.base_permissions(actor_id).has(Permission.MANAGE_ROLES):
                raise PermissionDenied("assigning roles requires MANAGE_ROLES")
            if role.position >= self.top_role(actor_id).position:
                raise HierarchyError("rule i: can only grant roles below the actor's highest role")
        if role.role_id not in target.role_ids:
            target.role_ids.append(role.role_id)
        self._audit(actor_id, "role.assign", f"{role.name} -> {target.display_name}")

    def edit_role(self, actor_id: int, role_id: int, new_permissions: Permissions) -> None:
        """Rule ii: edit lower roles; grant only permissions the actor has."""
        role = self.role(role_id)
        if actor_id != self.owner_id:
            actor_permissions = self.base_permissions(actor_id)
            if not actor_permissions.has(Permission.MANAGE_ROLES):
                raise PermissionDenied("editing roles requires MANAGE_ROLES")
            if role.position >= self.top_role(actor_id).position:
                raise HierarchyError("rule ii: can only edit roles below the actor's highest role")
            granted = new_permissions - role.permissions
            if not actor_permissions.is_administrator and not granted.is_subset(actor_permissions):
                raise HierarchyError("rule ii: can only grant permissions the actor has")
        role.permissions = new_permissions
        self._audit(actor_id, "role.edit", role.name)

    def delete_role(self, actor_id: int, role_id: int) -> None:
        """Delete a role (rule ii's position constraint applies).

        The role is unassigned from every member; @everyone and managed
        bot roles cannot be deleted this way.
        """
        role = self.role(role_id)
        if role is self.everyone_role:
            raise HierarchyError("@everyone cannot be deleted")
        if role.managed:
            raise HierarchyError("managed bot roles are removed by uninstalling the bot")
        if actor_id != self.owner_id:
            if not self.base_permissions(actor_id).has(Permission.MANAGE_ROLES):
                raise PermissionDenied("deleting roles requires MANAGE_ROLES")
            if role.position >= self.top_role(actor_id).position:
                raise HierarchyError("rule ii: can only delete roles below the actor's highest role")
        for member in self.members.values():
            if role_id in member.role_ids:
                member.role_ids.remove(role_id)
        del self.roles[role_id]
        self._audit(actor_id, "role.delete", role.name)

    def move_role(self, actor_id: int, role_id: int, new_position: int) -> None:
        """Rule iii: re-sort only roles below the actor's highest role."""
        role = self.role(role_id)
        if new_position < 1:
            raise HierarchyError("positions below 1 are reserved for @everyone")
        if actor_id != self.owner_id:
            if not self.base_permissions(actor_id).has(Permission.MANAGE_ROLES):
                raise PermissionDenied("moving roles requires MANAGE_ROLES")
            top = self.top_role(actor_id).position
            if role.position >= top or new_position >= top:
                raise HierarchyError("rule iii: can only sort roles below the actor's highest role")
        role.position = new_position
        self._audit(actor_id, "role.move", f"{role.name} -> {new_position}")

    # -- moderation (rule iv) ------------------------------------------------

    def _check_moderation(self, actor_id: int, target_id: int, required: Permission, action: str) -> None:
        if target_id == self.owner_id:
            raise HierarchyError(f"cannot {action} the guild owner")
        if actor_id == self.owner_id:
            return
        if not self.base_permissions(actor_id).has(required):
            raise PermissionDenied(f"{action} requires {required.name}")
        if self.top_role(target_id).position >= self.top_role(actor_id).position:
            raise HierarchyError(f"rule iv: target's highest role is not below the actor's for {action}")

    def kick(self, actor_id: int, target_id: int, reason: str = "") -> None:
        self.member(target_id)
        self._check_moderation(actor_id, target_id, Permission.KICK_MEMBERS, "kick")
        self.remove_member(target_id)
        self._audit(actor_id, "member.kick", str(target_id), reason)

    def ban(self, actor_id: int, target_id: int, reason: str = "") -> None:
        self.member(target_id)
        self._check_moderation(actor_id, target_id, Permission.BAN_MEMBERS, "ban")
        self.bans[target_id] = BanEntry(
            user_id=target_id, reason=reason, banned_by=actor_id, time=self._snowflakes.clock.now()
        )
        self.remove_member(target_id)
        self._audit(actor_id, "member.ban", str(target_id), reason)

    def unban(self, actor_id: int, target_id: int) -> None:
        """Lift a ban (requires BAN_MEMBERS; no hierarchy check — the
        target is not a member, so rule iv has nothing to compare)."""
        if target_id not in self.bans:
            raise UnknownEntityError(f"user {target_id} is not banned")
        if actor_id != self.owner_id and not self.base_permissions(actor_id).has(Permission.BAN_MEMBERS):
            raise PermissionDenied("unban requires BAN_MEMBERS")
        del self.bans[target_id]
        self._audit(actor_id, "member.unban", str(target_id))

    def set_nickname(self, actor_id: int, target_id: int, nickname: str | None) -> None:
        target = self.member(target_id)
        if actor_id == target_id:
            if actor_id != self.owner_id and not self.base_permissions(actor_id).has(Permission.CHANGE_NICKNAME):
                raise PermissionDenied("changing own nickname requires CHANGE_NICKNAME")
        else:
            self._check_moderation(actor_id, target_id, Permission.MANAGE_NICKNAMES, "edit nickname of")
        target.nickname = nickname
        self._audit(actor_id, "member.nickname", str(target_id), nickname or "")

    # -- channels -----------------------------------------------------------

    def create_channel(
        self,
        name: str,
        type: ChannelType = ChannelType.TEXT,
        actor_id: int | None = None,
    ) -> Channel:
        if actor_id is not None and actor_id != self.owner_id:
            if not self.base_permissions(actor_id).has(Permission.MANAGE_CHANNELS):
                raise PermissionDenied("creating channels requires MANAGE_CHANNELS")
        channel = Channel(
            channel_id=self._snowflakes.next_id(),
            guild_id=self.guild_id,
            name=name,
            type=type,
        )
        self.channels[channel.channel_id] = channel
        self._audit(actor_id or self.owner_id, "channel.create", name)
        return channel

    def channel(self, channel_id: int) -> Channel:
        try:
            return self.channels[channel_id]
        except KeyError:
            raise UnknownEntityError(f"channel {channel_id} not in guild {self.name}") from None

    def text_channels(self) -> list[Channel]:
        return [channel for channel in self.channels.values() if channel.type is ChannelType.TEXT]

    # -- permission resolution ----------------------------------------------------

    def base_permissions(self, user_id: int) -> Permissions:
        """Guild-level permissions for a member (Discord's algorithm)."""
        return Permissions(self._base_bits(self.member(user_id), user_id))

    def permissions_in(self, user_id: int, channel_id: int) -> Permissions:
        """Channel-level permissions after overwrites.

        The same resolution as :func:`compute_channel_permissions` over
        :meth:`base_permissions`, run on plain ints with one member lookup
        and one ``Permissions`` built at the end.  Nothing is cached:
        ``role_ids`` and ``overwrites`` are read on every call, so mutating
        them directly is always seen.
        """
        member = self.member(user_id)
        overwrites = self.channel(channel_id).overwrites
        value = self._base_bits(member, user_id)
        if overwrites:  # none leave the base as it is
            value = _channel_bits(
                value,
                overwrites.get(self.everyone_role.role_id),
                [overwrites[role_id] for role_id in member.role_ids if role_id in overwrites],
                overwrites.get(user_id),
            )
        return Permissions(value)

    def _base_bits(self, member: Member, user_id: int) -> int:
        roles = self.roles
        role_values = [roles[role_id].permissions.value for role_id in member.role_ids if role_id in roles]
        role_values.append(self.everyone_role.permissions.value)
        return _base_bits(role_values, user_id == self.owner_id)

    def set_channel_overwrite(self, actor_id: int, channel_id: int, overwrite: PermissionOverwrite) -> None:
        if actor_id != self.owner_id and not self.base_permissions(actor_id).has(Permission.MANAGE_ROLES):
            raise PermissionDenied("editing overwrites requires MANAGE_ROLES")
        self.channel(channel_id).set_overwrite(overwrite)
        self._audit(actor_id, "channel.overwrite", str(channel_id))

    # -- audit -------------------------------------------------------------------

    def _audit(self, actor_id: int, action: str, target: str, detail: str = "") -> None:
        self.audit_log.append(
            AuditLogEntry(
                time=self._snowflakes.clock.now(),
                actor_id=actor_id,
                action=action,
                target=target,
                detail=detail,
            )
        )

    def read_audit_log(self, actor_id: int) -> list[AuditLogEntry]:
        if actor_id != self.owner_id and not self.base_permissions(actor_id).has(Permission.VIEW_AUDIT_LOG):
            raise PermissionDenied("reading the audit log requires VIEW_AUDIT_LOG")
        return list(self.audit_log)
