"""Verdict cache with update invalidation and stale-while-revalidate.

A verdict is cached against a *fingerprint* of the submission it reviewed
— permissions, scopes, policy, repo link, tags.  When the listing changes
(the longitudinal escalation case: a sleeper quietly requesting more
permissions), the fingerprint changes and the cached verdict is no longer
*fresh*: the next request forces a re-vet.  Under brownout the service may
still serve the superseded verdict explicitly marked ``stale=True`` while
the refresh happens — an honest degraded answer instead of a failure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.ecosystem.generator import BotProfile


def fingerprint_inputs(bot: BotProfile) -> tuple:
    """The ten values :func:`bot_fingerprint` digests, copied out of ``bot``.

    Nothing else of the profile reaches the digest, so two profiles with
    equal inputs have equal fingerprints: every input is a string, an
    int, a bool, an enum member, ``None`` or an immutable collection of
    these, whose text follows from its value.  Tags and scopes are copied
    into tuples, so later edits of the profile cannot reach a recorded
    copy.
    """
    policy = bot.policy
    return (
        bot.name,
        bot.permissions.value,
        tuple(bot.scopes),
        bot.invite_status,
        tuple(bot.tags),
        policy.present,
        frozenset(policy.categories),
        policy.link_valid,
        bot.github_url,
        bot.website_host,
    )


def bot_fingerprint(bot: BotProfile) -> str:
    """A stable digest of everything vetting actually reviews."""
    (name, permissions, scopes, invite_status, tags, present, categories, link_valid, github_url,
     website_host) = fingerprint_inputs(bot)
    material = "|".join(
        (
            name,
            str(permissions),
            ",".join(scope.value for scope in scopes),
            invite_status.value,
            str(sorted(tags)),
            str(present),
            str(sorted(categories)),
            str(link_valid),
            github_url or "",
            website_host or "",
        )
    )
    return f"{zlib.crc32(material.encode('utf-8')):08x}"


@dataclass
class CacheEntry:
    """One cached verdict plus the metadata freshness decisions need."""

    payload: dict[str, Any]
    fingerprint: str
    stored_at: float
    #: Set when the directory learned of an update whose re-vet has not
    #: completed yet (the stale-while-revalidate window).
    superseded: bool = False
    #: Derived, so never persisted, compared or shown: the fingerprint's
    #: inputs when the entry was stored or last matched (``None`` after a
    #: restore, which carries only the digest) ...
    inputs: tuple | None = field(default=None, init=False, repr=False, compare=False)
    #: ... and the fresh-hit response body with the ``virtual_latency`` it
    #: carries, encoded at the first fresh hit.
    hit_body: tuple[float, str] | None = field(default=None, init=False, repr=False, compare=False)

    def matches(self, bot: BotProfile) -> bool:
        """Whether ``bot`` still has this entry's fingerprint.

        Compares the fingerprint's inputs with the recorded ones and
        digests only when they differ; a digest that still matches (tags
        reordered, say) records the new inputs.
        """
        inputs = fingerprint_inputs(bot)
        if inputs == self.inputs:
            return True
        if bot_fingerprint(bot) != self.fingerprint:
            return False
        self.inputs = inputs
        return True

    def to_dict(self) -> dict[str, Any]:
        return {
            "payload": dict(self.payload),
            "fingerprint": self.fingerprint,
            "stored_at": self.stored_at,
            "superseded": self.superseded,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "CacheEntry":
        return cls(
            payload=dict(raw["payload"]),
            fingerprint=raw["fingerprint"],
            stored_at=raw["stored_at"],
            superseded=raw.get("superseded", False),
        )


@dataclass
class VerdictCache:
    """Bounded verdict store keyed by bot name.

    ``lookup`` classifies an entry as ``"fresh"`` (fingerprint matches and
    TTL not expired), ``"stale"`` (superseded by an update or past TTL —
    servable only as an explicitly-marked stale answer), or a miss
    (``None``).  Eviction is LRU: every lookup hit refreshes the entry's
    recency (dict order is the recency order), and past ``max_entries``
    the least-recently-used entry is evicted and counted — under pressure
    the cache sheds cold verdicts, never the hottest one that merely
    happened to be stored first.
    """

    ttl: float = 7 * 86_400.0
    max_entries: int = 10_000
    entries: dict[str, CacheEntry] = field(default_factory=dict)
    hits: int = 0
    stale_hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    def lookup(self, bot: BotProfile, now: float) -> tuple[str, CacheEntry] | None:
        entry = self.entries.get(bot.name)
        if entry is None:
            self.misses += 1
            return None
        # LRU refresh: a stale hit counts too — a verdict being served (even
        # marked stale) is still hotter than one nobody asks about.
        self.entries[bot.name] = self.entries.pop(bot.name)
        fresh = not entry.superseded and now - entry.stored_at < self.ttl and entry.matches(bot)
        if fresh:
            self.hits += 1
            return ("fresh", entry)
        return ("stale", entry)

    def count_stale_hit(self) -> None:
        self.stale_hits += 1

    def store(
        self, bot: BotProfile, payload: dict[str, Any], now: float, fingerprint: str | None = None
    ) -> CacheEntry:
        """Cache ``payload`` for ``bot``; ``fingerprint`` is its digest if already computed."""
        if fingerprint is None:
            fingerprint = bot_fingerprint(bot)
        entry = CacheEntry(payload=dict(payload), fingerprint=fingerprint, stored_at=now)
        entry.inputs = fingerprint_inputs(bot)
        if bot.name in self.entries:
            # Re-store refreshes recency as well as content.
            del self.entries[bot.name]
        elif len(self.entries) >= self.max_entries:
            coldest = next(iter(self.entries))
            del self.entries[coldest]
            self.evictions += 1
        self.entries[bot.name] = entry
        return entry

    def invalidate(self, bot_name: str) -> bool:
        """Mark a bot's verdict superseded (listing updated); True if cached."""
        entry = self.entries.get(bot_name)
        if entry is None:
            return False
        entry.superseded = True
        self.invalidations += 1
        return True

    def __len__(self) -> int:
        return len(self.entries)

    # -- restart support ----------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {
            "entries": {name: entry.to_dict() for name, entry in self.entries.items()},
            "counters": {
                "hits": self.hits,
                "stale_hits": self.stale_hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            },
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.entries = {name: CacheEntry.from_dict(raw) for name, raw in state.get("entries", {}).items()}
        counters = state.get("counters", {})
        for name in ("hits", "stale_hits", "misses", "invalidations", "evictions"):
            setattr(self, name, counters.get(name, 0))
