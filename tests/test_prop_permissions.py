"""Property-based tests for the permission algebra (hypothesis)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.discordsim.permissions import (
    ALL_PERMISSIONS_VALUE,
    Permission,
    PermissionOverwrite,
    Permissions,
    compute_base_permissions,
    compute_channel_permissions,
)

permission_values = st.integers(min_value=0, max_value=ALL_PERMISSIONS_VALUE)
permission_sets = st.builds(Permissions, permission_values)
flags = st.sampled_from(list(Permission))


class TestAlgebraLaws:
    @given(permission_sets, permission_sets)
    def test_union_commutative(self, a, b):
        assert (a | b) == (b | a)

    @given(permission_sets, permission_sets, permission_sets)
    def test_union_associative(self, a, b, c):
        assert ((a | b) | c) == (a | (b | c))

    @given(permission_sets)
    def test_union_idempotent(self, a):
        assert (a | a) == a

    @given(permission_sets, permission_sets)
    def test_intersection_subset_of_both(self, a, b):
        both = a & b
        assert both.is_subset(a) and both.is_subset(b)

    @given(permission_sets, permission_sets)
    def test_difference_disjoint_from_subtrahend(self, a, b):
        assert ((a - b) & b) == Permissions.none()

    @given(permission_sets, permission_sets)
    def test_difference_union_restores_superset(self, a, b):
        assert ((a - b) | (a & b)) == a

    @given(permission_sets)
    def test_subset_reflexive(self, a):
        assert a.is_subset(a)

    @given(permission_sets, permission_sets, permission_sets)
    def test_subset_transitive(self, a, b, c):
        if a.is_subset(b) and b.is_subset(c):
            assert a.is_subset(c)

    @given(permission_sets)
    def test_none_is_bottom_all_is_top(self, a):
        assert Permissions.none().is_subset(a)
        assert a.is_subset(Permissions.all())


class TestFlagsRoundtrip:
    @given(permission_sets)
    def test_flags_reconstruct_value(self, a):
        assert Permissions.of(*a.flags()) == a

    @given(permission_sets)
    def test_display_names_roundtrip(self, a):
        assert Permissions.from_names(a.display_names()) == a

    @given(permission_sets, flags)
    def test_has_exactly_matches_bit(self, a, flag):
        assert a.has_exactly(flag) == bool(a.value & flag.value)

    @given(permission_sets, flags)
    def test_admin_implies_has(self, a, flag):
        if a.is_administrator:
            assert a.has(flag)

    @given(permission_sets)
    def test_len_equals_popcount(self, a):
        assert len(a) == bin(a.value).count("1")


def reference_flags(value: int) -> list[Permission]:
    """The enum walk ``Permissions.flags()`` replaced: every member, in
    iteration order, whose bit is set."""
    return [flag for flag in Permission if value & flag.value]


class TestFlagsAgainstEnumWalk:
    """The set-bit walk and the plain-int queries agree with the enum walk
    and ``flag.value`` reads on every value, down to member identity."""

    @given(permission_values)
    @example(0)
    @example(ALL_PERMISSIONS_VALUE)
    @example(Permission.ADMINISTRATOR.value)
    @example(Permission.MODERATE_MEMBERS.value)
    def test_flags_match_reference_in_order_and_identity(self, value):
        walked = Permissions(value).flags()
        reference = reference_flags(value)
        assert len(walked) == len(reference)
        assert all(got is want for got, want in zip(walked, reference))
        assert [flag.value for flag in walked] == sorted(flag.value for flag in walked)

    @given(permission_values, flags)
    @example(0, Permission.ADMINISTRATOR)
    @example(ALL_PERMISSIONS_VALUE, Permission.MODERATE_MEMBERS)
    @example(Permission.ADMINISTRATOR.value, Permission.SEND_MESSAGES)
    @example(Permission.MODERATE_MEMBERS.value, Permission.MODERATE_MEMBERS)
    def test_queries_match_value_reads(self, value, flag):
        permissions = Permissions(value)
        admin = bool(value & Permission.ADMINISTRATOR.value)
        assert permissions.is_administrator is admin
        assert permissions.has_exactly(flag) is bool(value & flag.value)
        assert permissions.has(flag) is (admin or bool(value & flag.value))


class TestOverwriteProperties:
    @given(permission_sets, permission_sets, permission_sets)
    def test_overwrite_allow_wins_over_deny(self, base, deny, allow):
        overwrite = PermissionOverwrite(target_id=1, allow=allow, deny=deny)
        result = overwrite.apply(base)
        assert allow.is_subset(result)

    @given(permission_sets, permission_sets)
    def test_pure_deny_removes(self, base, deny):
        overwrite = PermissionOverwrite(target_id=1, deny=deny)
        assert (overwrite.apply(base) & deny) == Permissions.none()

    @given(st.lists(permission_sets, max_size=5))
    def test_base_is_union_of_roles(self, roles):
        base = compute_base_permissions(roles)
        for role in roles:
            if not base.is_administrator:
                assert role.is_subset(base)

    @given(permission_sets, permission_sets, permission_sets)
    @settings(max_examples=60)
    def test_admin_base_ignores_overwrites(self, deny_a, deny_b, allow):
        everyone = PermissionOverwrite(target_id=1, deny=deny_a)
        member = PermissionOverwrite(target_id=2, deny=deny_b, allow=allow)
        result = compute_channel_permissions(Permissions.administrator(), everyone, [], member)
        assert result == Permissions.all()

    @given(permission_sets)
    def test_no_overwrites_is_identity(self, base):
        if not base.is_administrator:
            assert compute_channel_permissions(base, None, [], None) == base
