"""Rank-addressable streaming population: any bot in O(1), any slice lazily.

The original generator walked one shared RNG through the whole population,
sorted by votes, and fixed the honeypot ground truth at the end — every bot
depended on every draw before it, so the population could only exist fully
materialized.  This module redefines the population so that **rank order is
generation order**:

* every bot's attribute draws come from small per-rank RNG streams derived
  with sha256 from ``(seed, stream-name, rank)``, so bot *k* is computable
  without touching bots ``0..k-1``;
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
from statistics import NormalDist
from typing import Iterator

from repro.discordsim import behaviors
from repro.discordsim.oauth import OAuthScope, build_invite_url
from repro.discordsim.permissions import Permission, Permissions, permission_from_name
from repro.ecosystem import names as naming
from repro.ecosystem.distributions import DEFAULT_TARGETS, Targets, TraceabilityTargets
from repro.ecosystem.policies import PolicySpec, render_policy, sample_policy_spec
from repro.ecosystem.repos import RepoKind, RepoSpec, generate_repo

_CLIENT_ID_BASE = 100_000_000_000_000_000

#: Ranks per developer block.  Developer identity is a function of
#: ``(seed, rank // BLOCK)`` alone, so owner pages resolve in O(BLOCK).
BLOCK = 512

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
    #: Invasive-behaviour rate outside the most-voted (honeypot) sample.
    background_invasive_rate: float = 0.004
    #: Size of the most-voted window that must contain exactly one invasive
    #: bot (the Melonian plant).  Clamped to n_bots.
    honeypot_window: int = 500


# ---------------------------------------------------------------------------
# Per-rank derivation
# ---------------------------------------------------------------------------


def _derive_rng(seed: int, stream: str, rank: int) -> random.Random:
    """An independent RNG for one attribute stream of one rank."""
    digest = hashlib.sha256(f"{seed}:{stream}:{rank}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def votes_at(config: EcosystemConfig, rank: int) -> int:
    """Log-normal vote count at a rank quantile — non-increasing in rank."""
    population = config.targets.population
    quantile = 1.0 - (rank + 0.5) / max(config.n_bots, 1)
    z = _NORMAL.inv_cdf(quantile)
    votes = int(10 ** (population.vote_count_log10_mean + population.vote_count_log10_sigma * z))
    return min(votes, population.max_vote_count)


def invite_status_at(config: EcosystemConfig, rank: int) -> InviteStatus:
    """O(1) probe used by the Melonian overlay and the invite pages."""
    return _sample_invite_status(_derive_rng(config.seed, "invite", rank), config.targets)


def _trace_draws(rng: random.Random, trace: TraceabilityTargets) -> tuple[bool, bool, bool]:
    """The trace stream's first three draws: website, policy link, valid link.

    The one definition :meth:`EcosystemStream.bot_at` and
    :func:`policy_eligible_at` share, so the probe cannot drift from the
    profiles it predicts.
    """
    has_website = rng.random() < trace.website_fraction
    policy_present = has_website and rng.random() < trace.policy_link_given_website
    link_valid = policy_present and rng.random() < trace.valid_policy_given_link
    return has_website, policy_present, link_valid


def policy_eligible_at(config: EcosystemConfig, rank: int) -> bool:
    """O(1) probe: whether ``bot_at(rank).policy`` is present with a valid link.

    The manual-review population's predicate, answered from at most three
    draws of the rank's trace stream instead of a whole profile.  The
    Melonian overlay leaves the policy alone, so the plant's rank needs no
    special case.
    """
    _, present, link_valid = _trace_draws(_derive_rng(config.seed, "trace", rank), config.targets.traceability)
    return present and link_valid


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


def _sample_permissions(rng: random.Random, targets: Targets) -> Permissions:
    value = Permissions.none()
    for display_name, percent in targets.fig3.percentages.items():
        if rng.random() < percent / 100.0:
            value = value | permission_from_name(display_name)
    return value


def _sample_scopes(rng: random.Random, targets: Targets) -> tuple[OAuthScope, ...]:
    """The bot scope always, plus sampled extras."""
    scopes = [OAuthScope.BOT]
    for scope_name, rate in targets.population.extra_scope_rates.items():
        if rng.random() < rate:
            scopes.append(OAuthScope(scope_name))
    return tuple(scopes)


def _sample_invite_status(rng: random.Random, targets: Targets) -> InviteStatus:
    if rng.random() < targets.population.valid_permission_fraction:
        return InviteStatus.VALID
    breakdown = targets.population.invalid_breakdown
    kinds = list(breakdown)
    status = rng.choices(kinds, weights=[breakdown[kind] for kind in kinds], k=1)[0]
    return {
        "malformed_link": InviteStatus.MALFORMED,
        "removed": InviteStatus.REMOVED,
        "slow_redirect": InviteStatus.SLOW_REDIRECT,
    }[status]


def _sample_github(
    rng: random.Random,
    targets: Targets,
    owner: str,
    bot_name: str,
) -> RepoSpec | None:
    code = targets.code
    if rng.random() >= code.github_link_fraction:
        return None
    if rng.random() < code.valid_repo_given_link:
        languages = list(code.language_shares)
        weights = [code.language_shares[language] for language in languages]
        choice = rng.choices(languages, weights=weights, k=1)[0]
        if choice == "readme_only":
            return generate_repo(RepoKind.README_ONLY, owner, bot_name, None, False, rng)
        check_rate = code.check_rate_by_language.get(choice, 0.0)
        has_check = rng.random() < check_rate
        return generate_repo(RepoKind.VALID_CODE, owner, bot_name, choice, has_check, rng)
    breakdown = code.invalid_link_breakdown
    kinds = list(breakdown)
    kind_name = rng.choices(kinds, weights=[breakdown[kind] for kind in kinds], k=1)[0]
    kind = {
        "user_profile": RepoKind.USER_PROFILE,
        "no_repositories": RepoKind.NO_REPOSITORIES,
        "no_public_repositories": RepoKind.NO_PUBLIC_REPOSITORIES,
        "invalid_link": RepoKind.INVALID_LINK,
    }[kind_name]
    return generate_repo(kind, owner, bot_name, None, False, rng)


def _sample_behavior(rng: random.Random, config: EcosystemConfig, benign_only: bool) -> str:
    if not benign_only and rng.random() < config.background_invasive_rate:
        return rng.choice((behaviors.EXFILTRATOR, behaviors.NOSY_OPERATOR))
    weights = config.targets.honeypot.benign_behavior_weights
    kinds = list(weights)
    return rng.choices(kinds, weights=[weights[kind] for kind in kinds], k=1)[0]


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
    fraction = config.targets.population.third_party_platform_fraction
    developers: list[Developer] = []
    quotas: list[int] = []
    covered = 0
    while covered < size:
        quota = min(rng.choices(counts, weights=weights, k=1)[0], size - covered)
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
    def compute(cls, config: EcosystemConfig) -> "MelonianOverlay | None":
        window = min(config.honeypot_window, config.n_bots)
        if window <= 0:
            return None
        rng = _derive_rng(config.seed, "melonian", 0)
        # Prefer a bot whose invite actually works; the planted bot must be
        # installable and able to read channels for the incident to occur.
        candidates = [
            rank for rank in range(window) if invite_status_at(config, rank) is InviteStatus.VALID
        ]
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
    """

    def __init__(self, config: EcosystemConfig, block_cache: int = 8) -> None:
        self.config = config
        self.overlay = MelonianOverlay.compute(config)
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

    def bot_at(self, rank: int) -> BotProfile:
        if not 0 <= rank < self.config.n_bots:
            raise IndexError(rank)
        config = self.config
        targets = config.targets
        seed = config.seed
        developer = self.developer_at(rank)

        rng_name = _derive_rng(seed, "name", rank)
        name = (
            rng_name.choice(naming.BOT_ADJECTIVES)
            + rng_name.choice(naming.BOT_NOUNS)
            + rng_name.choice(naming.BOT_SUFFIXES)
            + str(rank)
        )
        tags = naming.bot_tags(rng_name)
        description = naming.bot_description(rng_name, name, tags)

        invite_status = invite_status_at(config, rank)
        rng_perm = _derive_rng(seed, "perm", rank)
        if invite_status is InviteStatus.VALID:
            permissions = _sample_permissions(rng_perm, targets)
            scopes = _sample_scopes(rng_perm, targets)
        else:
            permissions = Permissions.none()
            scopes = (OAuthScope.BOT,)

        rng_counts = _derive_rng(seed, "counts", rank)
        population = targets.population
        guild_count = int(10 ** rng_counts.gauss(population.guild_count_log10_mean, population.guild_count_log10_sigma))
        guild_count = min(guild_count, population.max_guild_count)
        votes = votes_at(config, rank)

        trace = targets.traceability
        rng_trace = _derive_rng(seed, "trace", rank)
        has_website, policy_present, link_valid = _trace_draws(rng_trace, trace)
        website_host = f"{name.lower()}.botsite.sim" if has_website else None
        policy = sample_policy_spec(
            rng_trace,
            present=policy_present,
            link_valid=link_valid,
            complete_fraction=trace.complete_fraction,
            categories_mentioned_weights=trace.categories_mentioned_weights,
            generic_reuse_fraction=trace.generic_reuse_fraction,
        )
        policy_text = render_policy(policy, name, rng_trace) if policy.present and policy.link_valid else ""

        owner = developer.tag.split("#")[0]
        github = _sample_github(_derive_rng(seed, "code", rank), targets, owner, name)

        rng_behavior = _derive_rng(seed, "behavior", rank)
        behavior = _sample_behavior(rng_behavior, config, benign_only=rank < self._window)

        profile = BotProfile(
            index=rank,
            client_id=_CLIENT_ID_BASE + rank,
            name=name,
            developer_tag=developer.tag,
            tags=tags,
            description=description,
            guild_count=guild_count,
            votes=votes,
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
    stream = EcosystemStream(config, block_cache=4)
    bots = list(stream.iter_bots())
    developers = {dev.tag: dev for dev in stream.iter_developers()}
    return Ecosystem(config=config, bots=bots, developers=developers, overlay=stream.overlay)


def _generate_bot(
    index: int,
    name: str,
    developer: Developer,
    tags: list[str],
    rng: random.Random,
    targets: Targets,
) -> BotProfile:
    """Sequential-RNG bot builder kept for epoch evolution's fresh entrants.

    Evolved snapshots are materialized mutations, not stream-addressable
    populations, so their new bots draw from the caller's shared RNG the way
    the original generator did.
    """
    invite_status = _sample_invite_status(rng, targets)
    permissions = _sample_permissions(rng, targets) if invite_status is InviteStatus.VALID else Permissions.none()
    scopes = _sample_scopes(rng, targets) if invite_status is InviteStatus.VALID else (OAuthScope.BOT,)
    population = targets.population
    guild_count = int(10 ** rng.gauss(population.guild_count_log10_mean, population.guild_count_log10_sigma))
    guild_count = min(guild_count, population.max_guild_count)
    votes = min(
        int(10 ** rng.gauss(population.vote_count_log10_mean, population.vote_count_log10_sigma)),
        population.max_vote_count,
    )

    trace = targets.traceability
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
    github = _sample_github(rng, targets, developer.tag.split("#")[0], name)

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
