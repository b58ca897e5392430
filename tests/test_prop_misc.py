"""Property-based tests: URLs, DOM, snowflakes, policies, tokens, invites."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discordsim.oauth import build_invite_url, parse_invite_url
from repro.discordsim.permissions import ALL_PERMISSIONS_VALUE, Permissions
from repro.discordsim.snowflake import SnowflakeGenerator, snowflake_timestamp_ms
from repro.ecosystem.policies import PolicySpec, render_policy
from repro.honeypot.tokens import TokenFactory, TokenKind
from repro.traceability.analyzer import TraceabilityAnalyzer
from repro.traceability.keywords import CATEGORIES, categories_in_text
from repro.web.dom import parse_html
from repro.web.http import Url
from repro.web.network import VirtualClock

host_names = st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z]{2,5}){1,2}", fullmatch=True)
path_segments = st.lists(st.from_regex(r"[a-zA-Z0-9_-]{1,8}", fullmatch=True), max_size=4)


class TestUrlProperties:
    @given(host_names, path_segments)
    def test_parse_str_roundtrip(self, host, segments):
        raw = f"https://{host}/" + "/".join(segments)
        assert str(Url.parse(raw)) == raw

    @given(host_names, st.dictionaries(st.from_regex(r"[a-z]{1,6}", fullmatch=True), st.from_regex(r"[a-z0-9]{0,6}", fullmatch=True), max_size=4))
    def test_with_params_preserves_all(self, host, params):
        url = Url.parse(f"https://{host}/x").with_params(**params)
        decoded = url.query_params()
        for key, value in params.items():
            assert decoded[key] == value

    @given(host_names)
    def test_join_self_absolute(self, host):
        base = Url.parse(f"https://{host}/a/b")
        absolute = f"https://{host}/c"
        assert str(base.join(absolute)) == absolute


class TestDomProperties:
    texts = st.text(alphabet=st.characters(blacklist_characters="<>&\x00", blacklist_categories=("Cs",)), max_size=40)

    @given(texts)
    def test_text_content_preserved(self, content):
        doc = parse_html(f"<p>{content}</p>")
        normalized = " ".join(content.split())
        assert doc.select_one("p").text == normalized

    @given(st.lists(texts, min_size=1, max_size=8))
    def test_list_items_in_order(self, items):
        markup = "<ul>" + "".join(f"<li>{item}</li>" for item in items) + "</ul>"
        doc = parse_html(markup)
        parsed = [node.text for node in doc.select("ul li")]
        assert parsed == [" ".join(item.split()) for item in items]

    @given(st.integers(min_value=1, max_value=12))
    def test_nesting_depth_preserved(self, depth):
        markup = "<div>" * depth + "<span>leaf</span>" + "</div>" * depth
        doc = parse_html(markup)
        assert len(doc.select("div")) == depth
        assert doc.select_one("span").text == "leaf"


class TestSnowflakeProperties:
    @given(st.lists(st.floats(min_value=0.0001, max_value=10.0), min_size=1, max_size=50))
    def test_strictly_increasing(self, deltas):
        clock = VirtualClock()
        generator = SnowflakeGenerator(clock)
        previous = generator.next_id()
        for delta in deltas:
            clock.advance(delta)
            current = generator.next_id()
            assert current > previous
            assert snowflake_timestamp_ms(current) >= snowflake_timestamp_ms(previous)
            previous = current

    @given(st.integers(min_value=1, max_value=200))
    def test_burst_uniqueness(self, count):
        generator = SnowflakeGenerator(VirtualClock())
        ids = [generator.next_id() for _ in range(count)]
        assert len(set(ids)) == count


class TestInviteProperties:
    @given(st.integers(min_value=1, max_value=10**18), st.integers(min_value=0, max_value=ALL_PERMISSIONS_VALUE))
    def test_roundtrip(self, client_id, bits):
        permissions = Permissions(bits)
        invite = parse_invite_url(build_invite_url(client_id, permissions))
        assert invite.client_id == client_id
        assert invite.permissions == permissions


class TestPolicyProperties:
    category_sets = st.sets(st.sampled_from(CATEGORIES), min_size=1, max_size=4).map(frozenset)

    @given(category_sets, st.booleans(), st.booleans(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150)
    def test_detection_equals_ground_truth(self, categories, generic, tailored, seed):
        spec = PolicySpec(present=True, categories=categories, generic=generic, tailored=tailored)
        text = render_policy(spec, "PropBot", random.Random(seed))
        assert categories_in_text(text) == categories

    @given(category_sets, st.integers(min_value=0, max_value=10_000))
    def test_classification_consistent(self, categories, seed):
        spec = PolicySpec(present=True, categories=categories)
        text = render_policy(spec, "PropBot", random.Random(seed))
        predicted, _ = TraceabilityAnalyzer().classify_text(text)
        assert predicted.value == spec.expected_class


class TestTokenProperties:
    @given(st.lists(st.tuples(st.sampled_from(list(TokenKind)), st.text(min_size=1, max_size=10)), min_size=1, max_size=60))
    def test_ids_unique_across_kinds_and_contexts(self, requests):
        factory = TokenFactory()
        ids = [factory.mint(kind, context).token_id for kind, context in requests]
        assert len(set(ids)) == len(ids)

    @given(st.sampled_from(list(TokenKind)), st.text(min_size=1, max_size=20))
    def test_trigger_url_contains_id(self, kind, context):
        token = TokenFactory().mint(kind, context)
        assert token.token_id in token.trigger_url
        assert token.trigger_url.startswith("https://canary.sim/t/")


class TestRiskProperties:
    from repro.analysis.risk import risk_score as _risk_score

    @given(st.integers(min_value=0, max_value=ALL_PERMISSIONS_VALUE))
    def test_risk_bounded(self, bits):
        from repro.analysis.risk import risk_score

        assert 0.0 <= risk_score(Permissions(bits)) <= 1.0

    @given(st.integers(min_value=0, max_value=ALL_PERMISSIONS_VALUE), st.integers(min_value=0, max_value=ALL_PERMISSIONS_VALUE))
    def test_risk_monotone_under_union(self, a_bits, b_bits):
        from repro.analysis.risk import risk_score

        a = Permissions(a_bits)
        combined = a | Permissions(b_bits)
        assert risk_score(combined) >= risk_score(a)

    @given(st.integers(min_value=0, max_value=ALL_PERMISSIONS_VALUE), st.lists(st.sampled_from(["music", "moderation", "fun"]), max_size=3))
    def test_over_privilege_bounded(self, bits, tags):
        from repro.analysis.risk import over_privilege_index

        assert 0.0 <= over_privilege_index(Permissions(bits), tags) <= 1.0

    @given(st.lists(st.sampled_from(["music", "moderation", "logging", "welcome"]), max_size=4))
    def test_more_tags_never_increase_over_privilege(self, tags):
        from repro.analysis.risk import over_privilege_index
        from repro.discordsim.permissions import Permission

        permissions = Permissions.of(Permission.KICK_MEMBERS, Permission.CONNECT, Permission.MANAGE_ROLES)
        wide = over_privilege_index(permissions, tags + ["moderation"])
        narrow = over_privilege_index(permissions, tags)
        assert wide <= narrow
