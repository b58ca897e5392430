"""The verdict cache's hit path: stored bodies and freshness by the fingerprint's inputs.

A fresh ``/vet`` hit answers with the body its entry's first fresh hit
encoded, and ``VerdictCache.lookup`` compares the fingerprint's inputs
before it digests.  Both are derived state kept on the ``CacheEntry``, so
these tests pin that the answers are the ones the verdict and the
fingerprint alone decide: the same bytes as encoding the hit afresh, fresh
exactly when ``bot_fingerprint`` is unchanged, and nothing derived in the
entry's dict, equality, repr or the ``--state`` snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discordsim.oauth import OAuthScope
from repro.discordsim.permissions import Permission, Permissions
from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
from repro.ecosystem.repos import RepoKind
from repro.serving import ServicePolicy, VerdictCache, VettingService
from repro.serving.cache import CacheEntry, bot_fingerprint
from repro.web.http import Request, Url
from repro.web.network import VirtualClock, VirtualInternet

ECOSYSTEM = generate_ecosystem(EcosystemConfig(n_bots=40, seed=31, honeypot_window=10))
BOT = next(bot for bot in ECOSYSTEM.bots if bot.github is not None and bot.website_host is not None)


def build_service(bot, latency: float = 0.05, state_path: Path | None = None) -> VettingService:
    """A service whose clock stays at 0, so a hit's latency is its lookup cost exactly."""
    internet = VirtualInternet(VirtualClock(), seed=3)
    policy = ServicePolicy(warmup=0.0, cache_lookup_cost=latency)
    return VettingService(internet, [bot], policy=policy, seed=3, state_path=state_path)


def vet(service: VettingService, name: str) -> str:
    """One ``GET /vet/{name}`` delivered to the service, as the network delivers it."""
    response = service.handle(Request("GET", Url.parse(f"https://{service.hostname}/vet/{name}")))
    assert response.status == 200
    return response.body


def hit_bytes(payload: dict, latency: float) -> str:
    return json.dumps({**payload, "cache": "hit", "stale": False, "virtual_latency": latency}, sort_keys=True)


# -- the bytes a fresh hit returns ---------------------------------------------

words = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
stage_states = st.sampled_from(["completed", "skipped", "degraded", "not_run", "not_applicable"])


@st.composite
def verdicts(draw, name: str = BOT.name) -> dict:
    return {
        "bot": name,
        "approved": draw(st.booleans()),
        "reasons": draw(st.lists(words, max_size=4)),
        "degraded": draw(st.booleans()),
        "stale": False,
        "stages": draw(st.dictionaries(st.sampled_from(["static", "traceability", "code", "honeypot"]), stage_states)),
        "evidence": draw(st.dictionaries(words, words, max_size=3)),
        "vetted_at": draw(st.floats(min_value=0, max_value=1e7, allow_nan=False)),
    }


latencies = st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False).map(lambda value: round(value, 6))


@settings(max_examples=60, deadline=None)
@given(stored=verdicts(), revetted=verdicts(), latency=latencies, other_latency=latencies)
def test_a_fresh_hit_returns_the_bytes_of_encoding_it_afresh(stored, revetted, latency, other_latency):
    revetted["degraded"] = False  # the service caches only full verdicts
    with tempfile.TemporaryDirectory() as directory:
        state = Path(directory) / "gate.json"
        service = build_service(BOT, latency, state_path=state)
        service.cache.store(BOT, stored, now=0.0)
        first = vet(service, BOT.name)
        assert first == hit_bytes(stored, latency)
        assert vet(service, BOT.name) == first  # served from the stored body
        assert service.metrics.served == 2
        assert service.metrics.latency["/vet"].to_dict()["count"] == 2

        # Another lookup cost: the body carries the new latency.
        service.policy = dataclasses.replace(service.policy, cache_lookup_cost=other_latency)
        assert vet(service, BOT.name) == hit_bytes(stored, other_latency)
        service.policy = dataclasses.replace(service.policy, cache_lookup_cost=latency)
        assert vet(service, BOT.name) == hit_bytes(stored, latency)

        # An update supersedes the entry; the re-vet stores a new one.
        service.update_bot(BOT)
        service._vet_bot = lambda bot, budget: (dict(revetted), bot_fingerprint(bot))
        assert json.loads(vet(service, BOT.name))["cache"] == "revalidated"
        assert vet(service, BOT.name) == hit_bytes(revetted, latency)
        assert vet(service, BOT.name) == hit_bytes(revetted, latency)

        # A --state round trip restores the verdict, not the stored body.
        service.shutdown()
        reborn = build_service(BOT, latency, state_path=state)
        assert reborn.cache.entries[BOT.name].hit_body is None
        assert vet(reborn, BOT.name) == hit_bytes(revetted, latency)
        assert vet(reborn, BOT.name) == hit_bytes(revetted, latency)


# -- freshness of a profile edited in place ------------------------------------


def fresh_bot():
    """A private copy of ``BOT`` whose lists and repo spec can be edited in place."""
    bot = dataclasses.replace(BOT, tags=["music", "moderation", "fun"], github=dataclasses.replace(BOT.github))
    bot.github.kind = RepoKind.VALID_CODE
    return bot


EDITS = {
    "tags reordered": (lambda bot: bot.tags.reverse(), True),
    "tag added": (lambda bot: bot.tags.append("economy"), False),
    "permissions": (
        lambda bot: setattr(bot, "permissions", Permissions(bot.permissions.value ^ Permission.KICK_MEMBERS.value)),
        False,
    ),
    "scopes": (lambda bot: setattr(bot, "scopes", tuple(bot.scopes) + (OAuthScope.EMAIL,)), False),
    "policy categories": (
        lambda bot: setattr(bot, "policy", dataclasses.replace(
            bot.policy, categories=frozenset(bot.policy.categories) ^ {"share"})), False,
    ),
    "website host": (lambda bot: setattr(bot, "website_host", "elsewhere.botsite.sim"), False),
    "github spec": (lambda bot: setattr(bot.github, "owner", bot.github.owner + "x"), False),
    "github kind": (lambda bot: setattr(bot.github, "kind", RepoKind.INVALID_LINK), False),
    "description only": (lambda bot: setattr(bot, "description", "rewritten"), True),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_edited_profile_is_fresh_exactly_when_its_fingerprint_is_unchanged(edit):
    bot = fresh_bot()
    service = build_service(bot)
    service._vet_bot = lambda profile, budget: (
        {"bot": profile.name, "approved": True, "degraded": False}, bot_fingerprint(profile))
    assert json.loads(vet(service, bot.name))["cache"] == "miss"
    assert json.loads(vet(service, bot.name))["cache"] == "hit"
    before = bot_fingerprint(bot)
    change, stays_fresh = EDITS[edit]
    change(bot)
    assert (bot_fingerprint(bot) == before) is stays_fresh
    answer = json.loads(vet(service, bot.name))["cache"]
    assert answer == ("hit" if stays_fresh else "revalidated")
    assert json.loads(vet(service, bot.name))["cache"] == "hit"


fields = st.sampled_from(["tags", "permissions", "scopes", "categories", "website", "github"])


@settings(max_examples=80, deadline=None)
@given(edits=st.lists(st.tuples(fields, st.integers(0, 3)), min_size=1, max_size=12))
def test_lookup_is_fresh_exactly_when_the_digest_matches(edits):
    """Random in-place edits, reverts included: ``lookup`` agrees with the digest every time."""
    bot = fresh_bot()
    original = dataclasses.replace(bot, tags=list(bot.tags), github=dataclasses.replace(bot.github))
    cache = VerdictCache()
    cache.store(bot, {"bot": bot.name}, now=0.0)
    stored = cache.entries[bot.name].fingerprint
    for field, choice in edits:
        if field == "tags":
            [bot.tags.reverse, bot.tags.sort, lambda: bot.tags.append("fun"), lambda: bot.tags.__setitem__(
                slice(None), original.tags)][choice]()
        elif field == "permissions":
            bot.permissions = Permissions(original.permissions.value ^ (choice & 1) << 3)
        elif field == "scopes":
            bot.scopes = tuple(original.scopes) + ((OAuthScope.EMAIL,) if choice & 1 else ())
        elif field == "categories":
            extra = frozenset({"share"} if choice & 1 else ())
            bot.policy = dataclasses.replace(original.policy, categories=original.policy.categories | extra)
        elif field == "website":
            bot.website_host = [original.website_host, None, "other.botsite.sim", original.website_host][choice]
        else:
            bot.github.owner = original.github.owner + ("x" * (choice & 1))
        found = cache.lookup(bot, now=1.0)
        assert found[0] == ("fresh" if bot_fingerprint(bot) == stored else "stale")


# -- nothing derived leaks -----------------------------------------------------


def test_derived_fields_stay_out_of_dicts_equality_repr_and_snapshots():
    bot = fresh_bot()
    cache = VerdictCache()
    cache.store(bot, {"bot": bot.name, "approved": True}, now=2.5)
    entry = cache.entries[bot.name]
    plain = CacheEntry(payload={"bot": bot.name, "approved": True}, fingerprint=entry.fingerprint, stored_at=2.5)
    bot.tags.reverse()
    assert cache.lookup(bot, now=3.0)[0] == "fresh"
    entry.hit_body = (0.05, "{}")
    assert entry.inputs is not None
    expected = {
        "payload": {"bot": bot.name, "approved": True},
        "fingerprint": bot_fingerprint(bot),
        "stored_at": 2.5,
        "superseded": False,
    }
    assert entry.to_dict() == expected
    assert entry == plain
    assert repr(entry) == repr(plain)
    assert "inputs" not in repr(entry) and "hit_body" not in repr(entry)
    assert cache.state_dict() == {
        "entries": {bot.name: expected},
        "counters": {"hits": 1, "stale_hits": 0, "misses": 0, "invalidations": 0, "evictions": 0},
    }
    restored = VerdictCache()
    restored.restore_state(json.loads(json.dumps(cache.state_dict())))
    assert restored.entries[bot.name] == entry
    assert restored.entries[bot.name].inputs is None
    assert restored.entries[bot.name].hit_body is None
    assert restored.lookup(bot, now=3.0)[0] == "fresh"
    assert restored.state_dict()["entries"] == cache.state_dict()["entries"]
