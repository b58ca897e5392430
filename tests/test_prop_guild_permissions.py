"""Guild permission resolution against the Permissions-object algebra (hypothesis).

``Guild.base_permissions``, ``Guild.permissions_in`` and the public
``compute_*`` functions resolve on plain ints.  The reference below keeps
the earlier resolution verbatim: every step wraps its operand in a new
``Permissions`` and returns another, and the guild methods gather lists of
role sets and overwrites before combining them.  Random guilds cover an
owner, @everyone bits, roles with ADMINISTRATOR among their bits, members
holding role subsets (some deleted afterwards, some re-appended to
``role_ids`` directly, as installs do), and channels whose overwrites'
allow and deny bits overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.discordsim.guild import Guild, UnknownEntityError
from repro.discordsim.models import User
from repro.discordsim.permissions import (
    ALL_PERMISSIONS_VALUE,
    Permission,
    PermissionOverwrite,
    Permissions,
    compute_base_permissions,
    compute_channel_permissions,
)
from repro.discordsim.snowflake import SnowflakeGenerator
from repro.web.network import VirtualClock

ADMIN = Permission.ADMINISTRATOR.value
SEND = Permission.SEND_MESSAGES.value
NOT_A_MEMBER = 1
NOT_A_CHANNEL = 2

# -- the reference: the Permissions-object algebra, verbatim ---------------------


def ref_union(a: Permissions, b) -> Permissions:
    return Permissions(a.value | Permissions(b).value)


def ref_intersection(a: Permissions, b) -> Permissions:
    return Permissions(a.value & Permissions(b).value)


def ref_difference(a: Permissions, b) -> Permissions:
    return Permissions(a.value & ~Permissions(b).value)


def ref_is_subset(a: Permissions, b) -> bool:
    other_value = Permissions(b).value
    return (a.value & other_value) == a.value


def ref_apply(overwrite: PermissionOverwrite, base: Permissions) -> Permissions:
    return ref_union(ref_difference(base, overwrite.deny), overwrite.allow)


def ref_compute_base(member_role_permissions, is_owner: bool = False) -> Permissions:
    if is_owner:
        return Permissions.all()
    combined = Permissions.none()
    for role_permissions in member_role_permissions:
        combined = ref_union(combined, role_permissions)
    if combined.is_administrator:
        return Permissions.all()
    return combined


def ref_compute_channel(base, everyone_overwrite, role_overwrites, member_overwrite) -> Permissions:
    if base.is_administrator:
        return Permissions.all()
    current = base
    if everyone_overwrite is not None:
        current = ref_apply(everyone_overwrite, current)
    allow = Permissions.none()
    deny = Permissions.none()
    for overwrite in role_overwrites:
        allow = ref_union(allow, overwrite.allow)
        deny = ref_union(deny, overwrite.deny)
    current = ref_union(ref_difference(current, deny), allow)
    if member_overwrite is not None:
        current = ref_apply(member_overwrite, current)
    return current


def ref_base_inputs(guild: Guild, user_id: int) -> list[Permissions]:
    member = guild.member(user_id)
    role_permissions = [guild.everyone_role.permissions]
    role_permissions += [guild.roles[role_id].permissions for role_id in member.role_ids if role_id in guild.roles]
    return role_permissions


def ref_base_permissions(guild: Guild, user_id: int) -> Permissions:
    return ref_compute_base(ref_base_inputs(guild, user_id), is_owner=user_id == guild.owner_id)


def ref_channel_inputs(guild: Guild, user_id: int, channel_id: int):
    member = guild.member(user_id)
    channel = guild.channel(channel_id)
    everyone_overwrite = channel.overwrites.get(guild.everyone_role.role_id)
    role_overwrites = [channel.overwrites[role_id] for role_id in member.role_ids if role_id in channel.overwrites]
    member_overwrite = channel.overwrites.get(user_id)
    return everyone_overwrite, role_overwrites, member_overwrite


def ref_permissions_in(guild: Guild, user_id: int, channel_id: int) -> Permissions:
    guild.member(user_id)
    guild.channel(channel_id)
    base = ref_base_permissions(guild, user_id)
    return ref_compute_channel(base, *ref_channel_inputs(guild, user_id, channel_id))


# -- random guilds -------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """Overwrites as ``(target, allow, deny)``; targets index the spec's
    roles (``("role", i)``) or holders (``("member", j)``, 0 = owner)."""

    everyone: tuple[int, int] | None = None
    overwrites: tuple[tuple[tuple[str, int], int, int], ...] = ()


@dataclass(frozen=True)
class GuildSpec:
    everyone: int
    roles: tuple[int, ...] = ()
    #: Role indices each non-owner member is assigned, in order.
    members: tuple[tuple[int, ...], ...] = ()
    #: Role indices the owner holds (assigned like any member's).
    owner_roles: tuple[int, ...] = ()
    #: Role indices deleted after assignment (their overwrites stay).
    deleted: tuple[int, ...] = ()
    #: ``(holder, role)`` pairs appended to ``role_ids`` directly after the
    #: deletions: duplicates and deleted roles included.
    direct: tuple[tuple[int, int], ...] = ()
    channels: tuple[ChannelSpec, ...] = (ChannelSpec(),)


def build(spec: GuildSpec) -> tuple[Guild, list[int], list[int]]:
    """The guild, its holders' user ids (owner first) and its channel ids."""
    clock = VirtualClock()
    snowflakes = SnowflakeGenerator(clock)
    owner = User(user_id=snowflakes.next_id(), name="owner")
    guild = Guild(snowflakes.next_id(), "g", owner, snowflakes)
    guild.edit_role(owner.user_id, guild.everyone_role.role_id, Permissions(spec.everyone))
    roles = [guild.create_role(f"r{index}", Permissions(value)) for index, value in enumerate(spec.roles)]
    holders = [owner.user_id]
    for index, _ in enumerate(spec.members):
        user = User(user_id=snowflakes.next_id(), name=f"m{index}")
        guild.add_member(user)
        holders.append(user.user_id)
    for holder, role_indices in zip(holders, (spec.owner_roles, *spec.members)):
        for role_index in role_indices:
            guild.assign_role(owner.user_id, holder, roles[role_index].role_id)
    channel_ids = []
    for channel_spec in spec.channels:
        channel = guild.create_channel(f"c{len(channel_ids)}")
        channel_ids.append(channel.channel_id)
        if channel_spec.everyone is not None:
            allow, deny = channel_spec.everyone
            guild.set_channel_overwrite(
                owner.user_id,
                channel.channel_id,
                PermissionOverwrite(guild.everyone_role.role_id, Permissions(allow), Permissions(deny)),
            )
        for (kind, index), allow, deny in channel_spec.overwrites:
            target = roles[index].role_id if kind == "role" else holders[index]
            guild.set_channel_overwrite(
                owner.user_id, channel.channel_id, PermissionOverwrite(target, Permissions(allow), Permissions(deny))
            )
    for role_index in spec.deleted:
        guild.delete_role(owner.user_id, roles[role_index].role_id)
    for holder_index, role_index in spec.direct:
        guild.members[holders[holder_index]].role_ids.append(roles[role_index].role_id)
    return guild, holders, channel_ids


bits = st.integers(min_value=0, max_value=ALL_PERMISSIONS_VALUE)
#: Role and @everyone bits: ADMINISTRATOR in about one draw of four, so
#: most members still reach the overwrite algebra.
role_bits = st.tuples(bits, st.sampled_from([0, 0, 0, ADMIN])).map(lambda pair: (pair[0] & ~ADMIN) | pair[1])


@st.composite
def allow_deny(draw) -> tuple[int, int]:
    """An overwrite's bits; allow is drawn to share bits with deny often."""
    deny = draw(bits)
    allow = draw(bits) | (deny & draw(bits))
    return allow, deny


@st.composite
def guild_specs(draw) -> GuildSpec:
    roles = tuple(draw(st.lists(role_bits, max_size=5)))
    role_index = st.integers(0, len(roles) - 1) if roles else st.nothing()
    role_subsets = st.lists(role_index, unique=True, max_size=len(roles))
    members = tuple(tuple(subset) for subset in draw(st.lists(role_subsets, max_size=4)))
    holder_index = st.integers(0, len(members))
    channels = []
    for _ in range(draw(st.integers(1, 3))):
        targets = st.one_of(
            st.tuples(st.just("role"), role_index) if roles else st.nothing(),
            st.tuples(st.just("member"), holder_index),
        )
        overwrites = draw(st.lists(st.tuples(targets, allow_deny()).map(lambda t: (t[0], *t[1])), max_size=4))
        channels.append(ChannelSpec(everyone=draw(st.none() | allow_deny()), overwrites=tuple(overwrites)))
    return GuildSpec(
        everyone=draw(role_bits),
        roles=roles,
        members=members,
        owner_roles=tuple(draw(role_subsets)),
        deleted=tuple(draw(st.lists(role_index, unique=True, max_size=len(roles)))) if roles else (),
        direct=tuple(draw(st.lists(st.tuples(holder_index, role_index), max_size=3))) if roles else (),
        channels=tuple(channels),
    )


DEFAULT_EVERYONE = Permissions.default_everyone().value

#: The owner, denied everything by a member overwrite and by @everyone's.
OWNER_UNDER_DENY_ALL = GuildSpec(
    everyone=DEFAULT_EVERYONE,
    channels=(
        ChannelSpec(everyone=(0, ALL_PERMISSIONS_VALUE), overwrites=((("member", 0), 0, ALL_PERMISSIONS_VALUE),)),
    ),
)
#: ADMINISTRATOR held only through a role, under a member deny-all overwrite.
ADMIN_ROLE_UNDER_MEMBER_DENY_ALL = GuildSpec(
    everyone=DEFAULT_EVERYONE,
    roles=(ADMIN,),
    members=((0,),),
    channels=(ChannelSpec(overwrites=((("member", 1), 0, ALL_PERMISSIONS_VALUE),)),),
)
#: A role overwrite denies SEND_MESSAGES; the member overwrite re-allows it.
MEMBER_REALLOWS_ROLE_DENY = GuildSpec(
    everyone=DEFAULT_EVERYONE,
    roles=(Permission.MANAGE_MESSAGES.value,),
    members=((0,),),
    channels=(ChannelSpec(overwrites=((("role", 0), 0, SEND), (("member", 1), SEND, 0))),),
)
#: A deleted role put back into ``role_ids`` directly: its bits are gone
#: from the base, but the overwrite left on the channel still applies.
DELETED_ROLE_HELD_DIRECTLY = GuildSpec(
    everyone=DEFAULT_EVERYONE,
    roles=(Permission.MANAGE_MESSAGES.value,),
    members=((0,),),
    deleted=(0,),
    direct=((1, 0),),
    channels=(ChannelSpec(overwrites=((("role", 0), 0, SEND),)),),
)


class TestGuildResolution:
    @given(guild_specs())
    @example(OWNER_UNDER_DENY_ALL)
    @example(ADMIN_ROLE_UNDER_MEMBER_DENY_ALL)
    @example(MEMBER_REALLOWS_ROLE_DENY)
    @example(DELETED_ROLE_HELD_DIRECTLY)
    @settings(max_examples=300)
    def test_guild_methods_match_reference(self, spec):
        guild, holders, channel_ids = build(spec)
        for user_id in holders:
            assert guild.base_permissions(user_id).value == ref_base_permissions(guild, user_id).value
            for channel_id in channel_ids:
                got = guild.permissions_in(user_id, channel_id)
                assert type(got) is Permissions
                assert got.value == ref_permissions_in(guild, user_id, channel_id).value

    @given(guild_specs())
    @example(OWNER_UNDER_DENY_ALL)
    @example(ADMIN_ROLE_UNDER_MEMBER_DENY_ALL)
    @example(MEMBER_REALLOWS_ROLE_DENY)
    @example(DELETED_ROLE_HELD_DIRECTLY)
    @settings(max_examples=150)
    def test_compute_functions_match_reference(self, spec):
        guild, holders, channel_ids = build(spec)
        for user_id in holders:
            inputs = ref_base_inputs(guild, user_id)
            for is_owner in (False, True):
                got = compute_base_permissions(iter(inputs), is_owner=is_owner)
                assert got.value == ref_compute_base(inputs, is_owner=is_owner).value
            base = ref_base_permissions(guild, user_id)
            for channel_id in channel_ids:
                everyone, roles, member = ref_channel_inputs(guild, user_id, channel_id)
                got = compute_channel_permissions(base, everyone, iter(roles), member)
                assert got.value == ref_compute_channel(base, everyone, roles, member).value

    def test_examples_resolve_as_discord_documents(self):
        guild, holders, (channel_id,) = build(OWNER_UNDER_DENY_ALL)
        assert guild.permissions_in(holders[0], channel_id).value == ALL_PERMISSIONS_VALUE
        guild, holders, (channel_id,) = build(ADMIN_ROLE_UNDER_MEMBER_DENY_ALL)
        assert guild.permissions_in(holders[1], channel_id).value == ALL_PERMISSIONS_VALUE
        guild, holders, (channel_id,) = build(MEMBER_REALLOWS_ROLE_DENY)
        assert guild.permissions_in(holders[1], channel_id).has_exactly(Permission.SEND_MESSAGES)
        guild, holders, (channel_id,) = build(DELETED_ROLE_HELD_DIRECTLY)
        assert not guild.base_permissions(holders[1]).has_exactly(Permission.MANAGE_MESSAGES)
        assert not guild.permissions_in(holders[1], channel_id).has_exactly(Permission.SEND_MESSAGES)

    @given(guild_specs(), st.sampled_from([NOT_A_MEMBER, NOT_A_CHANNEL, NOT_A_MEMBER | NOT_A_CHANNEL]))
    @settings(max_examples=40)
    def test_unknown_entities_raise_as_the_reference_does(self, spec, missing):
        guild, holders, channel_ids = build(spec)
        user_id = 1 if missing & NOT_A_MEMBER else holders[-1]
        channel_id = 2 if missing & NOT_A_CHANNEL else channel_ids[0]
        with pytest.raises(UnknownEntityError) as expected:
            ref_permissions_in(guild, user_id, channel_id)
        with pytest.raises(UnknownEntityError) as got:
            guild.permissions_in(user_id, channel_id)
        assert str(got.value) == str(expected.value)
        if missing & NOT_A_MEMBER:
            with pytest.raises(UnknownEntityError, match="not in guild"):
                guild.base_permissions(user_id)


class TestComputeOnArbitraryInputs:
    """The public functions on inputs no guild produces: an administrator
    base that is not every bit, and overwrites in any combination."""

    @given(
        bits,
        st.none() | allow_deny(),
        st.lists(allow_deny(), max_size=4),
        st.none() | allow_deny(),
    )
    @example(ADMIN, (0, ALL_PERMISSIONS_VALUE), [], (0, ALL_PERMISSIONS_VALUE))
    @example(DEFAULT_EVERYONE, None, [(0, SEND)], (SEND, 0))
    def test_compute_channel_matches_reference(self, base_bits, everyone, roles, member):
        def overwrite(pair, target):
            return None if pair is None else PermissionOverwrite(target, Permissions(pair[0]), Permissions(pair[1]))

        base = Permissions(base_bits)
        everyone_overwrite = overwrite(everyone, 1)
        role_overwrites = [overwrite(pair, 10 + index) for index, pair in enumerate(roles)]
        member_overwrite = overwrite(member, 2)
        got = compute_channel_permissions(base, everyone_overwrite, role_overwrites, member_overwrite)
        want = ref_compute_channel(base, everyone_overwrite, role_overwrites, member_overwrite)
        assert got.value == want.value
        for single in (everyone_overwrite, member_overwrite, *role_overwrites):
            if single is not None:
                assert single.apply(base).value == ref_apply(single, base).value


operands = st.one_of(
    st.builds(Permissions, bits),
    st.sampled_from(list(Permission)),
    bits,
    # Bits past the defined flags: the constructor's mask must drop them.
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


class TestAlgebraOperands:
    """The set operations read an operand's bits without wrapping it, for
    every operand type the wrapping accepted."""

    @given(st.builds(Permissions, bits), operands)
    @example(Permissions(ALL_PERMISSIONS_VALUE), 1 << 63)
    @example(Permissions(0), Permission.ADMINISTRATOR)
    def test_operations_match_wrapping(self, a, b):
        assert a.union(b).value == ref_union(a, b).value
        assert a.intersection(b).value == ref_intersection(a, b).value
        assert a.difference(b).value == ref_difference(a, b).value
        assert a.is_subset(b) is ref_is_subset(a, b)
        assert (a | b).value == ref_union(a, b).value
        assert (a - b).value == ref_difference(a, b).value
