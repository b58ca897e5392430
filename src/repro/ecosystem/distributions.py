"""Paper-calibrated target distributions.

Every number here is traceable to the paper:

- Figure 3 gives the permission-request distribution.  Only two bars are
  stated numerically in the text (SEND_MESSAGES 59.18%, ADMINISTRATOR
  54.86%); the remaining bar heights are *estimated from the figure* and
  marked as such.  Benchmarks treat the two exact values as hard targets and
  the estimates as shape targets.
- Table 1 gives the bots-per-developer distribution verbatim.
- Table 2 gives traceability rates (37.27% website, 4.35% policy link,
  4.33% valid policy).
- Section 4.2 "Code Analysis" gives GitHub-link (23.86%), valid-repo
  (60.46%), language-share (JS 41% / Python 32%) and check-API rates
  (JS 72.97%, Python 2.65%).
- The honeypot campaign: 500 bots tested, 5 personas, 4 token types,
  25 feed messages, exactly 1 trigger (URL + Word doc, bot "Melonian").
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _fig3_defaults() -> dict[str, float]:
    """Percent of valid-permission bots requesting each permission.

    The first two entries are exact (quoted in the text); the rest are
    estimated from the Figure 3 bar chart and documented as estimates in
    DESIGN.md.  Keys are install-screen display names.
    """
    return {
        "send messages": 59.18,  # exact, Section 4.2
        "administrator": 54.86,  # exact, Section 4.2
        "embed links": 35.0,
        "read messages": 33.0,
        "attach files": 28.0,
        "read message history": 26.0,
        "add reactions": 24.0,
        "manage messages": 22.0,
        "use external emojis": 16.0,
        "manage roles": 15.0,
        "connect": 14.0,
        "speak": 13.5,
        "kick members": 12.0,
        "ban members": 11.0,
        "manage channels": 10.0,
        "manage nicknames": 8.0,
        "mention @everyone": 7.5,
        "create invite": 7.0,
        "change nickname": 6.5,
        "manage server": 6.0,
        "view audit log": 5.5,
        "manage webhooks": 5.0,
        "use voice activity": 4.5,
        "send tts messages": 4.0,
        "manage emojis and stickers": 3.5,
    }


@dataclass
class Fig3Targets:
    """Permission-request marginals (percent of bots with valid permissions)."""

    percentages: dict[str, float] = field(default_factory=_fig3_defaults)

    #: The two values the text quotes exactly (used as hard benchmark targets).
    EXACT: tuple[str, ...] = ("send messages", "administrator")

    def probability(self, display_name: str) -> float:
        return self.percentages[display_name] / 100.0


@dataclass
class PopulationTargets:
    """Headline population numbers (Section 4.2, Table 1)."""

    total_bots: int = 20_915
    valid_permission_fraction: float = 15_525 / 20_915  # ~74%
    #: Breakdown of the invalid 26%: malformed invite links, bots that have
    #: been removed (404), and slow redirect chains that time out.
    invalid_breakdown: dict[str, float] = field(
        default_factory=lambda: {"malformed_link": 0.40, "removed": 0.40, "slow_redirect": 0.20}
    )
    #: Table 1, verbatim: developers by number of published bots.
    developers_by_bot_count: dict[int, int] = field(
        default_factory=lambda: {1: 11_070, 2: 1_089, 3: 185, 4: 50, 5: 19, 6: 6, 7: 4, 8: 2, 11: 1, 12: 1}
    )
    #: Fraction of developers using third-party dev platforms (botghost.com
    #: etc.); the paper notes their presence without quantifying — estimate.
    third_party_platform_fraction: float = 0.12
    #: Extra OAuth scopes requested alongside the mandatory ``bot`` scope
    #: ("some Discord chatbots may also request additional scopes ... extra
    #: user data as well as other privileges").  Rates are estimates; the
    #: whitelisted/testing-only scopes cannot appear on public invites.
    extra_scope_rates: dict[str, float] = field(
        default_factory=lambda: {
            "applications.commands": 0.55,
            "identify": 0.08,
            "guilds": 0.05,
            "email": 0.03,
            "guilds.join": 0.02,
        }
    )
    #: Guild-count distribution: log-scale heavy tail, max ~3M (paper: tested
    #: bots ranged 3M..25 guilds; population includes 0-guild dead bots).
    guild_count_log10_mean: float = 1.3
    guild_count_log10_sigma: float = 1.1
    max_guild_count: int = 3_000_000
    #: Vote counts (top.gg votes), range 876K..6 for the tested sample.
    vote_count_log10_mean: float = 1.0
    vote_count_log10_sigma: float = 1.2
    max_vote_count: int = 876_000

    def developer_count_weights(self) -> tuple[list[int], list[float]]:
        counts = sorted(self.developers_by_bot_count)
        total = sum(self.developers_by_bot_count.values())
        return counts, [self.developers_by_bot_count[count] / total for count in counts]


@dataclass
class TraceabilityTargets:
    """Table 2 rates, expressed as conditional probabilities for generation."""

    website_fraction: float = 5_786 / 15_525  # 37.27%
    policy_link_given_website: float = 676 / 5_786  # -> 4.35% overall
    valid_policy_given_link: float = 673 / 676  # -> 4.33% overall
    #: Keyword-category mix for *present* policies.  The paper found zero
    #: complete policies; present ones are partial (generic, reused).
    complete_fraction: float = 0.0
    #: Among partial policies, how many of the four practices get disclosed.
    categories_mentioned_weights: dict[int, float] = field(
        default_factory=lambda: {1: 0.35, 2: 0.40, 3: 0.25}
    )
    #: Fraction of present policies that are verbatim-reused generic text.
    generic_reuse_fraction: float = 0.6


@dataclass
class CodeAnalysisTargets:
    """Section 4.2 code-analysis rates."""

    github_link_fraction: float = 3_705 / 15_525  # 23.86%
    valid_repo_given_link: float = 2_240 / 3_705  # 60.46%
    #: Invalid-link breakdown: user profiles, empty accounts, private-only,
    #: dead links (enumerated in the paper, shares estimated).
    invalid_link_breakdown: dict[str, float] = field(
        default_factory=lambda: {
            "user_profile": 0.35,
            "no_repositories": 0.25,
            "no_public_repositories": 0.20,
            "invalid_link": 0.20,
        }
    )
    #: Language shares among valid repos (JS 41%, Python 32%; remainder split
    #: across other languages and README-only repos with no source).
    language_shares: dict[str, float] = field(
        default_factory=lambda: {
            "JavaScript": 0.41,
            "Python": 0.32,
            "TypeScript": 0.08,
            "Java": 0.05,
            "Go": 0.04,
            "C#": 0.04,
            "Rust": 0.03,
            "readme_only": 0.03,
        }
    )
    #: Fraction of repos (per language) containing a permission-check API.
    check_rate_by_language: dict[str, float] = field(
        default_factory=lambda: {"JavaScript": 675 / 925, "Python": 19 / 718}
    )


@dataclass
class HoneypotTargets:
    """Dynamic-analysis calibration (Section 4.2).

    The campaign's own sizes are constants where the campaign reads them:
    ``PERSONAS_PER_GUILD`` and ``FEED_MESSAGES`` in
    :mod:`repro.honeypot.environment`.
    """

    #: Mix of non-invasive behaviours for the remainder of the population.
    benign_behavior_weights: dict[str, float] = field(
        default_factory=lambda: {
            "benign": 0.45,
            "moderation_unchecked": 0.30,
            "moderation_checked": 0.15,
            "link_preview": 0.10,
        }
    )


@dataclass
class Targets:
    """All calibration targets bundled together."""

    population: PopulationTargets = field(default_factory=PopulationTargets)
    fig3: Fig3Targets = field(default_factory=Fig3Targets)
    traceability: TraceabilityTargets = field(default_factory=TraceabilityTargets)
    code: CodeAnalysisTargets = field(default_factory=CodeAnalysisTargets)
    honeypot: HoneypotTargets = field(default_factory=HoneypotTargets)


DEFAULT_TARGETS = Targets()
