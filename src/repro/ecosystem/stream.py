"""Rank-addressable streaming population: any bot in O(1), any slice lazily.

The original generator walked one shared RNG through the whole population,
sorted by votes, and fixed the honeypot ground truth at the end — every bot
depended on every draw before it, so the population could only exist fully
materialized.  This module redefines the population so that **rank order is
generation order**:

* every bot's attribute draws come from small per-rank RNG streams seeded
  with sha256 of ``(seed, stream-name, rank)``, so bot *k* is computable
  without touching bots ``0..k-1``; a stream object reseeds one scratch RNG
  per attribute stream instead of building a fresh one;
* vote counts come from the log-normal inverse CDF evaluated at rank
  quantiles, so the population is sorted by votes *by construction* while
  preserving the paper-calibrated marginal distribution;
* bot names embed their rank as a trailing integer, making every derived
  artifact (listing id, client id, website hostname, repo name) decodable
  back to a rank in O(1) — the virtual sites resolve content lazily instead
  of holding eager per-bot dictionaries;
* developers are assigned *block-locally*: each :data:`BLOCK`-rank window
  samples its own developer set from the Table 1 weights, so resolving an
  owner touches one block, never the whole population;
* the Melonian plant and its top-window behavior guarantee are a small
  per-seed overlay computed from the pinned most-voted window.

:func:`repro.ecosystem.generator.generate_ecosystem` simply materializes
this stream, which is what makes streamed and materialized runs
byte-identical: there is only one definition of the population.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate
from statistics import NormalDist
from typing import Callable, Iterator

from repro.discordsim import behaviors
from repro.discordsim.oauth import OAuthScope, build_invite_url
from repro.discordsim.permissions import Permission, Permissions, permission_from_name
from repro.ecosystem import names as naming
from repro.ecosystem.distributions import DEFAULT_TARGETS, PopulationTargets, Targets, TraceabilityTargets
from repro.ecosystem.policies import PolicySpec, render_policy, sample_policy_spec
from repro.ecosystem.repos import RepoKind, RepoSpec, generate_repo

_CLIENT_ID_BASE = 100_000_000_000_000_000

#: Ranks per developer block.  Developer identity is a function of
#: ``(seed, rank // BLOCK)`` alone, so owner pages resolve in O(BLOCK).
BLOCK = 512

#: Invasive-behaviour rate outside the most-voted (honeypot) sample.
BACKGROUND_INVASIVE_RATE = 0.004

_NORMAL = NormalDist()


class InviteStatus(Enum):
    """What happens when the scraper follows the bot's invite link."""

    VALID = "valid"
    MALFORMED = "malformed"  # unparseable OAuth URL
    REMOVED = "removed"  # application deleted -> 404
    SLOW_REDIRECT = "slow_redirect"  # redirect chain that times out


@dataclass
class Developer:
    """One third-party developer account."""

    tag: str
    uses_platform: str | None = None  # third-party dev platform, if any
    bot_indices: list[int] = field(default_factory=list)

    @property
    def bot_count(self) -> int:
        return len(self.bot_indices)


@dataclass
class BotProfile:
    """Ground truth for one listed chatbot."""

    index: int
    client_id: int
    name: str
    developer_tag: str
    tags: list[str]
    description: str
    guild_count: int
    votes: int
    invite_status: InviteStatus
    permissions: Permissions
    scopes: tuple[OAuthScope, ...]
    website_host: str | None
    policy: PolicySpec
    policy_text: str
    github: RepoSpec | None
    behavior: str
    built_with: str | None = None

    @property
    def invite_url(self) -> str:
        """The invite URL shown on the listing page."""
        if self.invite_status is InviteStatus.MALFORMED:
            return f"https://discord.sim/oauth2/authorize?client_id=&permissions=oops&scope=bot&bot={self.index}"
        return build_invite_url(self.client_id, self.permissions, scopes=self.scopes)

    @property
    def has_valid_permissions(self) -> bool:
        return self.invite_status is InviteStatus.VALID

    @property
    def website_url(self) -> str | None:
        return f"https://{self.website_host}/" if self.website_host else None

    @property
    def github_url(self) -> str | None:
        if self.github is None:
            return None
        if self.github.kind is RepoKind.INVALID_LINK:
            return f"https://github.sim/{self.github.owner}/{self.github.name}-deleted"
        return self.github.url

    @property
    def is_invasive(self) -> bool:
        return self.behavior in behaviors.INVASIVE_BEHAVIORS


@dataclass
class EcosystemConfig:
    """Knobs for population generation."""

    n_bots: int = 20_915
    seed: int = 2022
    targets: Targets = field(default_factory=lambda: DEFAULT_TARGETS)
    #: Size of the most-voted window that must contain exactly one invasive
    #: bot (the Melonian plant).  Clamped to n_bots.
    honeypot_window: int = 500


# ---------------------------------------------------------------------------
# Per-rank derivation
# ---------------------------------------------------------------------------


def _stream_seed(seed: int, stream: str, rank: int) -> int:
    """The seed of one attribute stream of one rank: 128 bits of sha256."""
    digest = hashlib.sha256(f"{seed}:{stream}:{rank}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def _derive_rng(seed: int, stream: str, rank: int) -> random.Random:
    """A fresh RNG for a one-off stream: a developer block, or the plant."""
    return random.Random(_stream_seed(seed, stream, rank))


def votes_at(config: EcosystemConfig, rank: int) -> int:
    """Log-normal vote count at a rank quantile — non-increasing in rank."""
    population = config.targets.population
    quantile = 1.0 - (rank + 0.5) / max(config.n_bots, 1)
    z = _NORMAL.inv_cdf(quantile)
    votes = int(10 ** (population.vote_count_log10_mean + population.vote_count_log10_sigma * z))
    return min(votes, population.max_vote_count)


def _trace_draws(rng: random.Random, trace: TraceabilityTargets) -> tuple[bool, bool, bool]:
    """The trace stream's first three draws: website, policy link, valid link.

    The one definition :func:`_sample_presence` and
    :meth:`EcosystemStream.policy_eligible_at` share, so the probe cannot
    drift from the profiles it predicts.
    """
    has_website = rng.random() < trace.website_fraction
    policy_present = has_website and rng.random() < trace.policy_link_given_website
    link_valid = policy_present and rng.random() < trace.valid_policy_given_link
    return has_website, policy_present, link_valid


def rank_suffix_of(text: str) -> int | None:
    """Decode the trailing rank integer a generated name carries, if any."""
    digits = 0
    for char in reversed(text):
        if char.isdigit():
            digits += 1
        else:
            break
    if not digits:
        return None
    return int(text[len(text) - digits:])


def owner_block_of(owner: str) -> tuple[int, int] | None:
    """Decode a GitHub owner name back to ``(block, developer_index)``."""
    tail = rank_suffix_of(owner)
    if tail is None:
        return None
    head = owner[: len(owner) - len(str(tail))]
    if not head.endswith("x"):
        return None
    block = rank_suffix_of(head[:-1])
    if block is None:
        return None
    return block, tail


# ---------------------------------------------------------------------------
# Attribute samplers (per-rank RNG streams)
# ---------------------------------------------------------------------------


_INVITE_STATUS_BY_KIND = {
    "malformed_link": InviteStatus.MALFORMED,
    "removed": InviteStatus.REMOVED,
    "slow_redirect": InviteStatus.SLOW_REDIRECT,
}

_REPO_KIND_BY_INVALID_LINK = {
    "user_profile": RepoKind.USER_PROFILE,
    "no_repositories": RepoKind.NO_REPOSITORIES,
    "no_public_repositories": RepoKind.NO_PUBLIC_REPOSITORIES,
    "invalid_link": RepoKind.INVALID_LINK,
}


def _cumulative(shares: dict, outcome=None) -> tuple[list, list[float]]:
    """``(population, cum_weights)`` for ``choices`` over a share table.

    ``choices(population, weights=w)`` builds ``w``'s running sum on every
    call and then draws exactly as ``choices(population, cum_weights=c)``
    does with ``c`` that sum, so the table is summed once.  ``outcome`` maps
    each key to the value the draw returns.
    """
    keys = list(shares)
    population = keys if outcome is None else [outcome[key] for key in keys]
    return population, list(accumulate(shares[key] for key in keys))


class _SamplingTables:
    """The per-draw constants of one :class:`Targets`, each built on first use.

    Every draw reads the same floats, in the same order, as a draw that
    recomputed them from the targets; only the recomputation is gone.  A
    stream that never draws a permission (a probe-only one, as a streamed
    run's set-up is) never builds the permission table.
    """

    def __init__(self, targets: Targets) -> None:
        self.targets = targets

    @cached_property
    def permission_bits(self) -> tuple[tuple[float, int], ...]:
        """``(probability, bit)`` per Fig. 3 permission, in the targets' order."""
        return tuple(
            (percent / 100.0, permission_from_name(display_name)._value_)
            for display_name, percent in self.targets.fig3.percentages.items()
        )

    @cached_property
    def extra_scopes(self) -> tuple[tuple[float, OAuthScope], ...]:
        return tuple(
            (rate, OAuthScope(scope_name)) for scope_name, rate in self.targets.population.extra_scope_rates.items()
        )

    @cached_property
    def invalid_invite(self) -> tuple[list[InviteStatus], list[float]]:
        return _cumulative(self.targets.population.invalid_breakdown, _INVITE_STATUS_BY_KIND)

    @cached_property
    def language(self) -> tuple[list[str], list[float]]:
        return _cumulative(self.targets.code.language_shares)

    @cached_property
    def invalid_link(self) -> tuple[list[RepoKind], list[float]]:
        return _cumulative(self.targets.code.invalid_link_breakdown, _REPO_KIND_BY_INVALID_LINK)

    @cached_property
    def benign_behavior(self) -> tuple[list[str], list[float]]:
        return _cumulative(self.targets.honeypot.benign_behavior_weights)


def _sample_listing(rng: random.Random, rank: int) -> tuple[str, list[str], str]:
    """The name stream: base name, tags and description."""
    name = rng.choice(naming.BOT_ADJECTIVES) + rng.choice(naming.BOT_NOUNS) + rng.choice(naming.BOT_SUFFIXES) + str(rank)
    tags = naming.bot_tags(rng)
    return name, tags, naming.bot_description(rng, name, tags)


def _sample_invite_status(rng: random.Random, tables: _SamplingTables) -> InviteStatus:
    """The invite stream."""
    if rng.random() < tables.targets.population.valid_permission_fraction:
        return InviteStatus.VALID
    statuses, cum_weights = tables.invalid_invite
    return rng.choices(statuses, cum_weights=cum_weights)[0]


def _sample_grant(rng: random.Random, tables: _SamplingTables) -> tuple[Permissions, tuple[OAuthScope, ...]]:
    """The perm stream of a bot whose invite works: its Fig. 3 permissions,
    then the bot scope plus sampled extra scopes."""
    draw = rng.random
    value = 0
    for probability, bit in tables.permission_bits:
        if draw() < probability:
            value |= bit
    scopes = [OAuthScope.BOT]
    for rate, scope in tables.extra_scopes:
        if draw() < rate:
            scopes.append(scope)
    return Permissions(value), tuple(scopes)


def _sample_guild_count(rng: random.Random, population: PopulationTargets) -> int:
    """The counts stream: a log-normal guild count (it caches a second normal)."""
    guild_count = int(10 ** rng.gauss(population.guild_count_log10_mean, population.guild_count_log10_sigma))
    return min(guild_count, population.max_guild_count)


def _sample_presence(
    rng: random.Random,
    trace: TraceabilityTargets,
    name: str,
) -> tuple[str | None, PolicySpec, str]:
    """The trace stream: website host, policy spec and policy text."""
    has_website, policy_present, link_valid = _trace_draws(rng, trace)
    website_host = f"{name.lower()}.botsite.sim" if has_website else None
    policy = sample_policy_spec(
        rng,
        present=policy_present,
        link_valid=link_valid,
        complete_fraction=trace.complete_fraction,
        categories_mentioned_weights=trace.categories_mentioned_weights,
        generic_reuse_fraction=trace.generic_reuse_fraction,
    )
    policy_text = render_policy(policy, name, rng) if policy.present and policy.link_valid else ""
    return website_host, policy, policy_text


def _sample_github(
    rng: random.Random,
    tables: _SamplingTables,
    owner: str,
    bot_name: str,
) -> RepoSpec | None:
    """The code stream."""
    code = tables.targets.code
    if rng.random() >= code.github_link_fraction:
        return None
    if rng.random() < code.valid_repo_given_link:
        languages, cum_weights = tables.language
        choice = rng.choices(languages, cum_weights=cum_weights)[0]
        if choice == "readme_only":
            return generate_repo(RepoKind.README_ONLY, owner, bot_name, None, False, rng)
        check_rate = code.check_rate_by_language.get(choice, 0.0)
        has_check = rng.random() < check_rate
        return generate_repo(RepoKind.VALID_CODE, owner, bot_name, choice, has_check, rng)
    kinds, cum_weights = tables.invalid_link
    kind = rng.choices(kinds, cum_weights=cum_weights)[0]
    return generate_repo(kind, owner, bot_name, None, False, rng)


def _sample_behavior(rng: random.Random, tables: _SamplingTables, benign_only: bool) -> str:
    """The behavior stream."""
    if not benign_only and rng.random() < BACKGROUND_INVASIVE_RATE:
        return rng.choice((behaviors.EXFILTRATOR, behaviors.NOSY_OPERATOR))
    kinds, cum_weights = tables.benign_behavior
    return rng.choices(kinds, cum_weights=cum_weights)[0]


# ---------------------------------------------------------------------------
# Developer blocks
# ---------------------------------------------------------------------------


def developers_for_block(config: EcosystemConfig, block: int) -> tuple[list[Developer], list[Developer]]:
    """Generate one block's developers and the per-rank assignment.

    Returns ``(developers, slots)`` where ``slots[offset]`` is the developer
    of rank ``block * BLOCK + offset``.  Deterministic in ``(seed, block)``.
    """
    start = block * BLOCK
    size = min(BLOCK, config.n_bots - start)
    if size <= 0:
        return [], []
    rng = _derive_rng(config.seed, "devblock", block)
    counts, weights = config.targets.population.developer_count_weights()
    cum_weights = list(accumulate(weights))
    fraction = config.targets.population.third_party_platform_fraction
    developers: list[Developer] = []
    quotas: list[int] = []
    covered = 0
    while covered < size:
        quota = min(rng.choices(counts, cum_weights=cum_weights)[0], size - covered)
        platform = rng.choice(naming.THIRD_PARTY_PLATFORMS) if rng.random() < fraction else None
        base = rng.choice(naming.DEVELOPER_NAMES)
        tag = f"{base}{block}x{len(developers)}#{rng.randint(1000, 9999)}"
        developers.append(Developer(tag=tag, uses_platform=platform))
        quotas.append(quota)
        covered += quota
    slots: list[Developer] = []
    for developer, quota in zip(developers, quotas):
        slots.extend([developer] * quota)
    rng.shuffle(slots)
    for offset, developer in enumerate(slots):
        developer.bot_indices.append(start + offset)
    return developers, slots


def block_count(config: EcosystemConfig) -> int:
    return (config.n_bots + BLOCK - 1) // BLOCK


# ---------------------------------------------------------------------------
# The Melonian overlay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MelonianOverlay:
    """The pinned top-window ground truth: one planted invasive bot."""

    rank: int
    guild_count: int

    @classmethod
    def compute(
        cls,
        config: EcosystemConfig,
        invite_status_at: Callable[[int], InviteStatus],
    ) -> "MelonianOverlay | None":
        """The plant for ``config``; ``invite_status_at`` is the stream's invite probe."""
        window = min(config.honeypot_window, config.n_bots)
        if window <= 0:
            return None
        # Prefer a bot whose invite actually works; the planted bot must be
        # installable and able to read channels for the incident to occur.
        candidates = [rank for rank in range(window) if invite_status_at(rank) is InviteStatus.VALID]
        rng = _derive_rng(config.seed, "melonian", 0)
        rank = rng.choice(candidates) if candidates else rng.randrange(window)
        return cls(rank=rank, guild_count=rng.randint(5, 30))  # "present in a few guilds"


# ---------------------------------------------------------------------------
# The stream
# ---------------------------------------------------------------------------


class EcosystemStream:
    """Deterministic lazy view of the population defined by one config.

    ``bot_at(rank)`` is O(BLOCK) worst-case (developer-block resolution,
    LRU-cached so sequential scans amortize to O(1) per bot); ``iter_bots``
    yields any rank range without materializing anything else.

    Every per-rank stream draws from one scratch RNG, reseeded through
    ``Random.seed`` before the stream's first draw; ``Random.seed`` also
    drops the normal that ``gauss`` caches, so no state crosses from one
    stream or call to the next.  A stream's draws end before the next one
    is reseeded, so ``bot_at`` and the probes are not re-entrant: one
    stream object serves one thread.
    """

    def __init__(self, config: EcosystemConfig, block_cache: int = 8) -> None:
        self.config = config
        # Reseeded before every use; the constant seed only spares the
        # urandom read an unseeded Random makes.
        self._rng = random.Random(0)
        self._tables = _SamplingTables(config.targets)
        self.overlay = MelonianOverlay.compute(config, self.invite_status_at)
        self._window = min(config.honeypot_window, config.n_bots)
        self._block_cache: OrderedDict[int, tuple[list[Developer], list[Developer]]] = OrderedDict()
        self._block_cache_size = max(block_cache, 2)

    def __len__(self) -> int:
        return self.config.n_bots

    # -- developers --------------------------------------------------------

    def block(self, block: int) -> tuple[list[Developer], list[Developer]]:
        cached = self._block_cache.get(block)
        if cached is not None:
            self._block_cache.move_to_end(block)
            return cached
        entry = developers_for_block(self.config, block)
        self._block_cache[block] = entry
        while len(self._block_cache) > self._block_cache_size:
            self._block_cache.popitem(last=False)
        return entry

    def developer_at(self, rank: int) -> Developer:
        _, slots = self.block(rank // BLOCK)
        return slots[rank % BLOCK]

    def iter_developers(self) -> Iterator[Developer]:
        for block in range(block_count(self.config)):
            developers, _ = self.block(block)
            yield from developers

    # -- bots --------------------------------------------------------------

    def _reseed(self, stream: str, rank: int) -> random.Random:
        """The scratch RNG, reseeded for one attribute stream of one rank."""
        rng = self._rng
        rng.seed(_stream_seed(self.config.seed, stream, rank))
        return rng

    def invite_status_at(self, rank: int) -> InviteStatus:
        """O(1) probe: the rank's invite status before the plant's overlay."""
        return _sample_invite_status(self._reseed("invite", rank), self._tables)

    def policy_eligible_at(self, rank: int) -> bool:
        """O(1) probe: whether ``bot_at(rank).policy`` is present with a valid link.

        The manual-review population's predicate, answered from at most three
        draws of the rank's trace stream instead of a whole profile.  The
        Melonian overlay leaves the policy alone, so the plant's rank needs no
        special case.
        """
        _, present, link_valid = _trace_draws(self._reseed("trace", rank), self.config.targets.traceability)
        return present and link_valid

    def bot_at(self, rank: int) -> BotProfile:
        if not 0 <= rank < self.config.n_bots:
            raise IndexError(rank)
        config = self.config
        tables = self._tables
        developer = self.developer_at(rank)
        name, tags, description = _sample_listing(self._reseed("name", rank), rank)
        invite_status = self.invite_status_at(rank)
        if invite_status is InviteStatus.VALID:
            permissions, scopes = _sample_grant(self._reseed("perm", rank), tables)
        else:
            permissions, scopes = Permissions.none(), (OAuthScope.BOT,)
        guild_count = _sample_guild_count(self._reseed("counts", rank), config.targets.population)
        website_host, policy, policy_text = _sample_presence(
            self._reseed("trace", rank), config.targets.traceability, name
        )
        owner = developer.tag.split("#")[0]
        github = _sample_github(self._reseed("code", rank), tables, owner, name)
        behavior = _sample_behavior(self._reseed("behavior", rank), tables, benign_only=rank < self._window)

        profile = BotProfile(
            index=rank,
            client_id=_CLIENT_ID_BASE + rank,
            name=name,
            developer_tag=developer.tag,
            tags=tags,
            description=description,
            guild_count=guild_count,
            votes=votes_at(config, rank),
            invite_status=invite_status,
            permissions=permissions,
            scopes=scopes,
            website_host=website_host,
            policy=policy,
            policy_text=policy_text,
            github=github,
            behavior=behavior,
            built_with=developer.uses_platform,
        )
        overlay = self.overlay
        if overlay is not None and rank == overlay.rank:
            # The plant keeps its base-name-derived artifacts (website host,
            # repo, description) exactly like the original renamed bot did.
            profile.name = naming.MELONIAN
            profile.behavior = behaviors.NOSY_OPERATOR
            profile.guild_count = overlay.guild_count
            profile.invite_status = InviteStatus.VALID
            profile.permissions = profile.permissions | Permissions.of(
                Permission.VIEW_CHANNEL,
                Permission.READ_MESSAGE_HISTORY,
                Permission.SEND_MESSAGES,
            )
        return profile

    def iter_bots(self, start: int = 0, count: int | None = None) -> Iterator[BotProfile]:
        if start < 0:
            raise ValueError("start must be >= 0")
        stop = self.config.n_bots if count is None else min(start + count, self.config.n_bots)
        for rank in range(start, stop):
            yield self.bot_at(rank)

    def iter_chunks(self, chunk_size: int, start: int = 0, count: int | None = None) -> Iterator[list[BotProfile]]:
        """Fixed-size batches of :meth:`iter_bots` (last batch may be short)."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        batch: list[BotProfile] = []
        for bot in self.iter_bots(start, count):
            batch.append(bot)
            if len(batch) == chunk_size:
                yield batch
                batch = []
        if batch:
            yield batch


def iter_bots(
    seed: int = 2022,
    start: int = 0,
    count: int | None = None,
    *,
    n_bots: int = 20_915,
    config: EcosystemConfig | None = None,
) -> Iterator[BotProfile]:
    """Yield bots ``start .. start+count`` of the population for ``seed``.

    The module-level convenience form of :meth:`EcosystemStream.iter_bots`;
    bots are byte-identical to the corresponding slice of
    :func:`repro.ecosystem.generator.generate_ecosystem`.
    """
    stream = EcosystemStream(config or EcosystemConfig(n_bots=n_bots, seed=seed))
    return stream.iter_bots(start, count)


# ---------------------------------------------------------------------------
# Ecosystem views (materialized and streaming share one population)
# ---------------------------------------------------------------------------


class _LazyBots:
    """Sequence protocol over the stream with a bounded LRU profile cache."""

    def __init__(self, stream: EcosystemStream, cache_size: int = 4096) -> None:
        self._stream = stream
        self._cache: OrderedDict[int, BotProfile] = OrderedDict()
        self._cache_size = max(cache_size, 16)

    def __len__(self) -> int:
        return len(self._stream)

    def __iter__(self) -> Iterator[BotProfile]:
        return self._stream.iter_bots()

    def __getitem__(self, rank):
        if isinstance(rank, slice):
            return [self[index] for index in range(*rank.indices(len(self)))]
        if rank < 0:
            rank += len(self)
        cached = self._cache.get(rank)
        if cached is not None:
            self._cache.move_to_end(rank)
            return cached
        profile = self._stream.bot_at(rank)
        self._cache[rank] = profile
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return profile


def resolve_by_name(bots, overlay: MelonianOverlay | None, name: str) -> BotProfile | None:
    """O(1) name lookup: rank-suffix decode plus the Melonian special case."""
    if name == naming.MELONIAN:
        if overlay is None:
            return None
        return bots[overlay.rank]
    rank = rank_suffix_of(name)
    if rank is None or not 0 <= rank < len(bots):
        return None
    bot = bots[rank]
    return bot if bot.name == name else None


def resolve_by_client_id(bots, client_id: int) -> BotProfile | None:
    """O(1) client-id lookup: ranks and client ids are offset by a constant."""
    rank = client_id - _CLIENT_ID_BASE
    if not 0 <= rank < len(bots):
        return None
    return bots[rank]


@dataclass
class Ecosystem:
    """The generated population plus lookup helpers."""

    config: EcosystemConfig
    bots: list[BotProfile]  # sorted by votes, descending (the "top list")
    developers: dict[str, Developer]
    #: The Melonian plant's position, shared with the streaming view so
    #: name lookups stay O(1) in both representations.
    overlay: MelonianOverlay | None = None

    def bot_by_name(self, name: str) -> BotProfile | None:
        found = resolve_by_name(self.bots, self.overlay, name)
        if found is not None or self.overlay is not None:
            return found
        for bot in self.bots:  # populations not built by the stream (tests)
            if bot.name == name:
                return bot
        return None

    def bot_by_client_id(self, client_id: int) -> BotProfile | None:
        found = resolve_by_client_id(self.bots, client_id)
        if found is not None and found.client_id == client_id:
            return found
        for bot in self.bots:
            if bot.client_id == client_id:
                return bot
        return None

    def top_voted(self, count: int) -> list[BotProfile]:
        return self.bots[:count]

    def with_valid_permissions(self) -> list[BotProfile]:
        return [bot for bot in self.bots if bot.has_valid_permissions]

    def websites(self) -> list[BotProfile]:
        return [bot for bot in self.bots if bot.website_host]

    def github_linked(self) -> list[BotProfile]:
        return [bot for bot in self.bots if bot.github is not None]


class StreamingEcosystem:
    """Drop-in :class:`Ecosystem` facade that never materializes the bots.

    ``bots`` supports ``len()`` / indexing / iteration through a bounded LRU
    cache; lookup helpers decode ranks instead of scanning.  The filter
    helpers (``with_valid_permissions`` …) still return real lists — they
    exist for API compatibility and small populations; the streamed
    pipeline never calls them.
    """

    def __init__(self, config: EcosystemConfig, cache_size: int = 4096) -> None:
        self.config = config
        self.stream = EcosystemStream(config)
        self.bots = _LazyBots(self.stream, cache_size=cache_size)
        self._top: list[BotProfile] = []

    @property
    def overlay(self) -> MelonianOverlay | None:
        return self.stream.overlay

    @property
    def developers(self) -> dict[str, Developer]:
        """Materialized developer map — O(n); for compatibility only."""
        return {dev.tag: dev for dev in self.stream.iter_developers()}

    def bot_by_name(self, name: str) -> BotProfile | None:
        return resolve_by_name(self.bots, self.stream.overlay, name)

    def bot_by_client_id(self, client_id: int) -> BotProfile | None:
        return resolve_by_client_id(self.bots, client_id)

    def top_voted(self, count: int) -> list[BotProfile]:
        """The ``count`` most-voted bots (votes are non-increasing in rank).

        The returned prefix is *pinned*: the honeypot sample must be the
        same object graph every call, because adversarial planting mutates
        ``bot.behavior`` on it and a freshly streamed instance would lose
        that mutation.  A pipeline pins at most its honeypot sample size —
        a bounded prefix, not the population.
        """
        count = min(max(count, 0), len(self.bots))
        while len(self._top) < count:
            self._top.append(self.bots[len(self._top)])
        return self._top[:count]

    def with_valid_permissions(self) -> list[BotProfile]:
        return [bot for bot in self.bots if bot.has_valid_permissions]

    def websites(self) -> list[BotProfile]:
        return [bot for bot in self.bots if bot.website_host]

    def github_linked(self) -> list[BotProfile]:
        return [bot for bot in self.bots if bot.github is not None]


def generate_ecosystem(config: EcosystemConfig | None = None) -> Ecosystem:
    """Materialize the full population deterministically from ``config.seed``.

    Equivalent, bot for bot, to ``list(EcosystemStream(config).iter_bots())``
    — the streamed and materialized representations cannot drift because
    they are produced by the same per-rank definition.
    """
    config = config or EcosystemConfig()
    # A block cache that holds every block: the developer map below walks
    # the blocks the bots already generated, and keeps them all anyway.
    stream = EcosystemStream(config, block_cache=block_count(config))
    bots = list(stream.iter_bots())
    developers = {dev.tag: dev for dev in stream.iter_developers()}
    return Ecosystem(config=config, bots=bots, developers=developers, overlay=stream.overlay)


def _generate_bot(
    index: int,
    name: str,
    developer: Developer,
    tags: list[str],
    rng: random.Random,
    tables: _SamplingTables,
) -> BotProfile:
    """Sequential-RNG bot builder kept for epoch evolution's fresh entrants.

    Evolved snapshots are materialized mutations, not stream-addressable
    populations, so their new bots draw from the caller's shared RNG the way
    the original generator did, through the stream's samplers: invite, perm,
    guild count, votes, trace, code and description, in that order.
    """
    targets = tables.targets
    invite_status = _sample_invite_status(rng, tables)
    if invite_status is InviteStatus.VALID:
        permissions, scopes = _sample_grant(rng, tables)
    else:
        permissions, scopes = Permissions.none(), (OAuthScope.BOT,)
    population = targets.population
    guild_count = _sample_guild_count(rng, population)
    votes = min(
        int(10 ** rng.gauss(population.vote_count_log10_mean, population.vote_count_log10_sigma)),
        population.max_vote_count,
    )
    website_host, policy, policy_text = _sample_presence(rng, targets.traceability, name)
    github = _sample_github(rng, tables, developer.tag.split("#")[0], name)

    return BotProfile(
        index=index,
        client_id=_CLIENT_ID_BASE + index,
        name=name,
        developer_tag=developer.tag,
        tags=tags,
        description=naming.bot_description(rng, name, tags),
        guild_count=guild_count,
        votes=votes,
        invite_status=invite_status,
        permissions=permissions,
        scopes=scopes,
        website_host=website_host,
        policy=policy,
        policy_text=policy_text,
        github=github,
        behavior=behaviors.BENIGN,
        built_with=developer.uses_platform,
    )
