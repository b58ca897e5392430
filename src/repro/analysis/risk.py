"""Permission risk scoring and over-privilege analysis.

The paper's conclusion targets "over-privileged chatbots that collect
sensitive information or are endowed with excessive capabilities".  This
module operationalises that: a per-permission risk weight (in the spirit of
the quantitative Android-permission risk literature the paper cites), a
per-bot risk score, and an *over-privilege index* comparing what a bot
requests against what its declared purpose (listing tags) plausibly needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.discordsim.permissions import Permission, Permissions
from repro.scraper.topgg import ScrapedBot

#: Risk weight per permission (0 = harmless, 10 = guild takeover).
RISK_WEIGHTS: dict[Permission, int] = {
    Permission.ADMINISTRATOR: 10,
    Permission.MANAGE_GUILD: 8,
    Permission.MANAGE_ROLES: 8,
    Permission.MANAGE_WEBHOOKS: 7,
    Permission.BAN_MEMBERS: 7,
    Permission.KICK_MEMBERS: 6,
    Permission.MANAGE_CHANNELS: 6,
    Permission.MANAGE_MESSAGES: 5,
    Permission.MANAGE_NICKNAMES: 4,
    Permission.MENTION_EVERYONE: 4,
    Permission.VIEW_AUDIT_LOG: 4,
    Permission.MODERATE_MEMBERS: 5,
    Permission.MANAGE_THREADS: 4,
    Permission.MANAGE_EVENTS: 3,
    Permission.MANAGE_EMOJIS_AND_STICKERS: 2,
    Permission.READ_MESSAGE_HISTORY: 4,
    Permission.VIEW_CHANNEL: 3,
    Permission.VIEW_GUILD_INSIGHTS: 3,
    Permission.MOVE_MEMBERS: 3,
    Permission.MUTE_MEMBERS: 3,
    Permission.DEAFEN_MEMBERS: 3,
    Permission.SEND_TTS_MESSAGES: 2,
    Permission.ATTACH_FILES: 2,
    Permission.EMBED_LINKS: 1,
    Permission.SEND_MESSAGES: 1,
    Permission.ADD_REACTIONS: 1,
    Permission.CREATE_INSTANT_INVITE: 2,
    Permission.CHANGE_NICKNAME: 1,
    Permission.CONNECT: 2,
    Permission.SPEAK: 1,
    Permission.STREAM: 1,
    Permission.USE_VAD: 1,
    Permission.PRIORITY_SPEAKER: 1,
    Permission.USE_EXTERNAL_EMOJIS: 1,
    Permission.USE_EXTERNAL_STICKERS: 1,
    Permission.USE_APPLICATION_COMMANDS: 1,
    Permission.REQUEST_TO_SPEAK: 1,
    Permission.CREATE_PUBLIC_THREADS: 1,
    Permission.CREATE_PRIVATE_THREADS: 2,
    Permission.SEND_MESSAGES_IN_THREADS: 1,
    Permission.USE_EMBEDDED_ACTIVITIES: 1,
}

#: What a bot with a given listing tag plausibly needs.
TAG_PERMISSION_PROFILES: dict[str, frozenset[Permission]] = {
    "moderation": frozenset(
        {
            Permission.KICK_MEMBERS,
            Permission.BAN_MEMBERS,
            Permission.MANAGE_MESSAGES,
            Permission.MANAGE_NICKNAMES,
            Permission.MODERATE_MEMBERS,
            Permission.VIEW_AUDIT_LOG,
        }
    ),
    "music": frozenset({Permission.CONNECT, Permission.SPEAK, Permission.USE_VAD, Permission.PRIORITY_SPEAKER}),
    "logging": frozenset({Permission.READ_MESSAGE_HISTORY, Permission.VIEW_AUDIT_LOG}),
    "welcome": frozenset({Permission.MANAGE_NICKNAMES, Permission.MANAGE_ROLES}),
    "leveling": frozenset({Permission.MANAGE_ROLES}),
    "roleplay": frozenset({Permission.MANAGE_ROLES}),
    "giveaways": frozenset({Permission.MENTION_EVERYONE, Permission.ADD_REACTIONS}),
    "polls": frozenset({Permission.ADD_REACTIONS, Permission.EMBED_LINKS}),
}

#: Permissions any interactive chatbot is assumed to need.
BASELINE_PERMISSIONS: frozenset[Permission] = frozenset(
    {
        Permission.VIEW_CHANNEL,
        Permission.SEND_MESSAGES,
        Permission.EMBED_LINKS,
        Permission.READ_MESSAGE_HISTORY,
        Permission.ADD_REACTIONS,
        Permission.ATTACH_FILES,
        Permission.USE_EXTERNAL_EMOJIS,
        Permission.USE_APPLICATION_COMMANDS,
    }
)

_MAX_SCORE = float(sum(RISK_WEIGHTS.values()))


def risk_score(permissions: Permissions) -> float:
    """Normalised risk in [0, 1].  ADMINISTRATOR alone maxes the score,
    matching its "allows all permissions" semantics."""
    if permissions.is_administrator:
        return 1.0
    raw = sum(RISK_WEIGHTS.get(flag, 1) for flag in permissions.flags())
    return min(raw / _MAX_SCORE, 1.0)


def expected_permissions(tags: tuple[str, ...] | list[str]) -> frozenset[Permission]:
    """The permission envelope a bot's declared purpose justifies."""
    needed = set(BASELINE_PERMISSIONS)
    for tag in tags:
        needed |= TAG_PERMISSION_PROFILES.get(tag, frozenset())
    return frozenset(needed)


def excess_permissions(permissions: Permissions, tags: tuple[str, ...] | list[str]) -> list[Permission]:
    """Requested permissions that the declared purpose does not justify."""
    envelope = expected_permissions(tags)
    return [flag for flag in permissions.flags() if flag not in envelope]


def over_privilege_index(permissions: Permissions, tags: tuple[str, ...] | list[str]) -> float:
    """Share of the requested risk budget that is unjustified, in [0, 1]."""
    requested = permissions.flags()
    if not requested:
        return 0.0
    if permissions.is_administrator:
        return 1.0  # admin always exceeds any tag profile
    excess = excess_permissions(permissions, tags)
    requested_risk = sum(RISK_WEIGHTS.get(flag, 1) for flag in requested)
    excess_risk = sum(RISK_WEIGHTS.get(flag, 1) for flag in excess)
    return excess_risk / requested_risk if requested_risk else 0.0


@dataclass
class RiskSummary:
    """Population-level risk aggregates over scraped bots."""

    scores: list[float] = field(default_factory=list)
    over_privilege: list[float] = field(default_factory=list)
    high_risk_names: list[str] = field(default_factory=list)

    HIGH_RISK_THRESHOLD = 0.5

    @classmethod
    def from_bots(cls, bots: Iterable[ScrapedBot]) -> "RiskSummary":
        summary = cls()
        for bot in bots:
            summary.add(bot)
        return summary

    def add(self, bot: ScrapedBot) -> None:
        """Score one scraped bot (bots without valid permissions are skipped)."""
        if not bot.has_valid_permissions:
            return
        permissions = bot.permissions
        score = risk_score(permissions)
        self.scores.append(score)
        self.over_privilege.append(over_privilege_index(permissions, bot.tags))
        if score >= self.HIGH_RISK_THRESHOLD:
            self.high_risk_names.append(bot.name)

    @property
    def mean_risk(self) -> float:
        return sum(self.scores) / len(self.scores) if self.scores else 0.0

    @property
    def mean_over_privilege(self) -> float:
        return sum(self.over_privilege) / len(self.over_privilege) if self.over_privilege else 0.0

    @property
    def high_risk_fraction(self) -> float:
        return len(self.high_risk_names) / len(self.scores) if self.scores else 0.0

    def percentile(self, q: float) -> float:
        """Risk-score percentile (q in [0, 100])."""
        if not self.scores:
            return 0.0
        ordered = sorted(self.scores)
        index = min(int(round(q / 100.0 * (len(ordered) - 1))), len(ordered) - 1)
        return ordered[index]
