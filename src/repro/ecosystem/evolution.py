"""Ecosystem evolution: snapshots of a changing bot population.

Two of the paper's observations motivate temporal measurement: permissions
"can also be changed at any time after the chatbot is installed", and the
authors' own future work is a longitudinal large-scale study (as they did
for Alexa skills "across three years").  This module evolves an ecosystem
snapshot by one epoch: bots get delisted, new bots appear, some escalate
their requested permissions, some adopt privacy policies, some invites rot.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.discordsim.permissions import Permissions, permission_from_name
from repro.ecosystem import names as naming
from repro.ecosystem.generator import (
    BotProfile,
    Developer,
    Ecosystem,
    InviteStatus,
    _generate_bot,
)
from repro.ecosystem.policies import render_policy, sample_policy_spec
from repro.ecosystem.stream import _SamplingTables


@dataclass
class EvolutionConfig:
    """Per-epoch churn rates (an epoch ≈ one measurement interval)."""

    removal_rate: float = 0.04
    new_bot_rate: float = 0.06
    permission_escalation_rate: float = 0.03
    permission_reduction_rate: float = 0.005
    policy_adoption_rate: float = 0.02
    invite_breakage_rate: float = 0.01
    #: How many permissions an escalating bot adds.
    escalation_size: tuple[int, int] = (1, 3)


@dataclass
class EvolutionLog:
    """What changed in one epoch (ground truth for longitudinal analysis)."""

    removed: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    escalated: dict[str, list[str]] = field(default_factory=dict)  # name -> new display names
    reduced: list[str] = field(default_factory=list)
    policy_adopters: list[str] = field(default_factory=list)
    invites_broken: list[str] = field(default_factory=list)


def evolve_ecosystem(
    ecosystem: Ecosystem,
    config: EvolutionConfig | None = None,
    seed: int = 1,
) -> tuple[Ecosystem, EvolutionLog]:
    """Produce the next snapshot.  The input ecosystem is left untouched."""
    config = config or EvolutionConfig()
    rng = random.Random(seed)
    log = EvolutionLog()
    targets = ecosystem.config.targets

    survivors: list[BotProfile] = []
    taken_names = {bot.name for bot in ecosystem.bots}
    for bot in ecosystem.bots:
        if rng.random() < config.removal_rate:
            log.removed.append(bot.name)
            continue
        clone = dataclasses.replace(bot)
        if clone.invite_status is InviteStatus.VALID:
            roll = rng.random()
            if roll < config.permission_escalation_rate:
                clone.permissions, added = _escalate(clone.permissions, targets, config, rng)
                if added:
                    log.escalated[clone.name] = added
            elif roll < config.permission_escalation_rate + config.permission_reduction_rate:
                clone.permissions = _reduce(clone.permissions, rng)
                log.reduced.append(clone.name)
            if rng.random() < config.invite_breakage_rate:
                clone.invite_status = rng.choice((InviteStatus.REMOVED, InviteStatus.MALFORMED))
                log.invites_broken.append(clone.name)
        if not clone.policy.present and clone.website_host and rng.random() < config.policy_adoption_rate:
            trace = targets.traceability
            clone.policy = sample_policy_spec(
                rng,
                present=True,
                link_valid=True,
                complete_fraction=trace.complete_fraction,
                categories_mentioned_weights=trace.categories_mentioned_weights,
                generic_reuse_fraction=trace.generic_reuse_fraction,
            )
            clone.policy_text = render_policy(clone.policy, clone.name, rng)
            log.policy_adopters.append(clone.name)
        survivors.append(clone)

    # Fresh entrants, appended with fresh client ids above the old range.
    developers = dict(ecosystem.developers)
    dev_tags = set(developers)
    new_count = int(len(ecosystem.bots) * config.new_bot_rate)
    tables = _SamplingTables(targets)
    next_client_id = max((bot.client_id for bot in ecosystem.bots), default=0) + 1
    for offset in range(new_count):
        developer = Developer(tag=naming.developer_tag(rng, dev_tags))
        developers[developer.tag] = developer
        name = naming.bot_name(rng, taken_names)
        bot = _generate_bot(
            index=len(survivors) + offset,
            name=name,
            developer=developer,
            tags=naming.bot_tags(rng),
            rng=rng,
            tables=tables,
        )
        bot.client_id = next_client_id
        next_client_id += 1
        survivors.append(bot)
        log.added.append(name)

    survivors.sort(key=lambda bot: bot.votes, reverse=True)
    for rank, bot in enumerate(survivors):
        bot.index = rank
    return Ecosystem(config=ecosystem.config, bots=survivors, developers=developers), log


def _escalate(
    permissions: Permissions,
    targets,
    config: EvolutionConfig,
    rng: random.Random,
) -> tuple[Permissions, list[str]]:
    """Add 1–3 permissions, sampled by their ecosystem popularity."""
    candidates = [
        name for name in targets.fig3.percentages if not permissions.has_exactly(permission_from_name(name))
    ]
    if not candidates:
        return permissions, []
    count = rng.randint(*config.escalation_size)
    weights = [targets.fig3.percentages[name] for name in candidates]
    added: list[str] = []
    for _ in range(min(count, len(candidates))):
        choice = rng.choices(candidates, weights=weights, k=1)[0]
        position = candidates.index(choice)
        candidates.pop(position)
        weights.pop(position)
        permissions = permissions | permission_from_name(choice)
        added.append(choice)
    return permissions, added


def _reduce(permissions: Permissions, rng: random.Random) -> Permissions:
    flags = permissions.flags()
    if not flags:
        return permissions
    victim = rng.choice(flags)
    return permissions - Permissions.of(victim)
