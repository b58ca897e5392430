"""A marketplace vetting pipeline — the paper's proposed mitigation.

Section 7: "Adopting stricter scrutiny when developers collect data and a
continuous rigorous vetting process by the platform's provider could help
mitigate risks."  This module is that vetting process, built from the
measurement components themselves:

1. **Permission review** — risk score and over-privilege vs the declared
   purpose (listing tags); administrator redundancy is called out.
2. **Disclosure review** — data-granting permissions demand a privacy
   policy that at least discloses collection.
3. **Code review** — when source is available, privileged commands without
   user-permission checks are flagged (re-delegation risk).
4. **Dynamic review** — a short canary-token honeypot run in a sandbox
   platform before listing.

The tests and benchmark also demonstrate the *limits* the paper's threat
model implies: a sleeper that behaves during review sails through, which is
why the vetting must be "continuous" — re-review on permission changes
(see :mod:`repro.analysis.longitudinal`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.risk import over_privilege_index, risk_score
from repro.codeanalysis.analyzer import CodeAnalyzer
from repro.discordsim import behaviors
from repro.discordsim.permissions import Permission
from repro.discordsim.platform import DiscordPlatform
from repro.ecosystem.generator import BotProfile
from repro.honeypot.experiment import HoneypotExperiment
from repro.traceability.analyzer import DATA_PERMISSIONS
from repro.web.network import VirtualInternet


#: The largest share of a submission's requested risk its tags may leave
#: unjustified.
MAX_OVER_PRIVILEGE = 0.5


@dataclass
class VettingPolicy:
    """What the reviewing platform demands of a submission."""

    run_dynamic_review: bool = True
    dynamic_observation: float = 86_400.0


@dataclass
class VettingVerdict:
    bot_name: str
    approved: bool
    reasons: list[str] = field(default_factory=list)
    #: Stages the reviewer skipped (deadline/bulkhead pressure in serving
    #: mode); a verdict with skipped stages is *partial*, not wrong.
    skipped_stages: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.skipped_stages)


@dataclass
class VettingReport:
    verdicts: list[VettingVerdict] = field(default_factory=list)

    @property
    def approved(self) -> list[VettingVerdict]:
        return [verdict for verdict in self.verdicts if verdict.approved]

    @property
    def rejected(self) -> list[VettingVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.approved]

    def rejection_reasons(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for verdict in self.rejected:
            for reason in verdict.reasons:
                key = reason.split(":")[0]
                histogram[key] = histogram.get(key, 0) + 1
        return histogram


class VettingPipeline:
    """Review submissions with static + dynamic analysis."""

    def __init__(self, policy: VettingPolicy | None = None, seed: int = 1) -> None:
        self.policy = policy or VettingPolicy()
        self.seed = seed
        self._code_analyzer = CodeAnalyzer()

    # -- individual reviews ---------------------------------------------------

    def review(self, bot: BotProfile) -> VettingVerdict:
        """Full review of one submission."""
        verdict = VettingVerdict(bot_name=bot.name, approved=True)
        if not bot.has_valid_permissions:
            verdict.approved = False
            verdict.reasons.append("broken submission: invite link does not resolve")
            return verdict
        self._review_permissions(bot, verdict)
        self._review_disclosure(bot, verdict)
        self._review_code(bot, verdict)
        if verdict.approved and self.policy.run_dynamic_review:
            self._review_dynamic(bot, verdict)
        return verdict

    def vet_population(self, bots: list[BotProfile]) -> VettingReport:
        report = VettingReport()
        for bot in bots:
            report.verdicts.append(self.review(bot))
        return report

    # -- per-stage entry points (the serving layer drives these individually,
    # -- each under its own slice of a request's deadline budget) -------------

    def review_static(self, bot: BotProfile, verdict: VettingVerdict) -> None:
        """Permission + disclosure review: cheap, in-process, always runs."""
        self._review_permissions(bot, verdict)
        self._review_disclosure(bot, verdict)

    def review_code(self, bot: BotProfile, verdict: VettingVerdict) -> None:
        self._review_code(bot, verdict)

    def review_dynamic(
        self, bot: BotProfile, verdict: VettingVerdict, observation: float | None = None
    ) -> float:
        """Sandbox honeypot review; returns sandbox virtual seconds consumed."""
        return self._review_dynamic(bot, verdict, observation=observation)

    # -- stages ------------------------------------------------------------------

    def _review_permissions(self, bot: BotProfile, verdict: VettingVerdict) -> None:
        over_privilege = over_privilege_index(bot.permissions, bot.tags)
        if over_privilege > MAX_OVER_PRIVILEGE:
            verdict.approved = False
            verdict.reasons.append(
                f"over-privileged: {over_privilege:.2f} of the requested risk "
                f"(score {risk_score(bot.permissions):.2f}) is unjustified by tags {list(bot.tags)}"
            )
        if bot.permissions.redundant_with_administrator():
            verdict.approved = False
            verdict.reasons.append(
                "permission misuse: administrator requested alongside redundant permissions"
            )

    def _review_disclosure(self, bot: BotProfile, verdict: VettingVerdict) -> None:
        exposed = [
            data_type
            for permission, data_type in DATA_PERMISSIONS.items()
            if bot.permissions.has(permission)
        ]
        has_policy = bot.policy.present and bot.policy.link_valid
        if exposed and not has_policy:
            verdict.approved = False
            verdict.reasons.append(
                f"undisclosed data access: requests {sorted(set(exposed))} with no privacy policy"
            )

    def _review_code(self, bot: BotProfile, verdict: VettingVerdict) -> None:
        if bot.github is None or not bot.github.has_source_code:
            return  # nothing to review — the paper's visibility limit
        analysis = self._code_analyzer.analyze_repo(
            bot.name, bot.github.files, main_language=bot.github.language
        )
        moderation_power = any(
            bot.permissions.has(flag)
            for flag in (Permission.KICK_MEMBERS, Permission.BAN_MEMBERS, Permission.MANAGE_MESSAGES)
        )
        if analysis.analyzed and not analysis.performs_check and moderation_power:
            verdict.approved = False
            verdict.reasons.append(
                "re-delegation risk: privileged commands without user-permission checks"
            )

    def _review_dynamic(
        self, bot: BotProfile, verdict: VettingVerdict, observation: float | None = None
    ) -> float:
        """Sandbox honeypot: one guild, tokens, short observation.

        Returns the virtual seconds the sandbox consumed, so a serving-side
        caller can charge the request's deadline budget with the real cost.
        """
        platform = DiscordPlatform(captcha_seed=self.seed)
        internet = VirtualInternet(platform.clock, seed=self.seed)
        experiment = HoneypotExperiment(platform, internet, seed=self.seed)
        report = experiment.run(
            [bot],
            observation_window=observation if observation is not None else self.policy.dynamic_observation,
            reuse_personas=False,
        )
        flagged = report.flagged_bots
        if flagged:
            verdict.approved = False
            kinds = ", ".join(sorted(kind.value for kind in flagged[0].trigger_kinds))
            verdict.reasons.append(f"dynamic review: unauthorized token access ({kinds})")
        elif report.install_failures:
            verdict.approved = False
            verdict.reasons.append("dynamic review: bot could not be installed in the sandbox")
        return platform.clock.now()


def ground_truth_evasions(report: VettingReport, bots: list[BotProfile]) -> list[str]:
    """Approved bots that are, per ground truth, invasive (vetting misses)."""
    by_name = {bot.name: bot for bot in bots}
    return [
        verdict.bot_name
        for verdict in report.approved
        if by_name[verdict.bot_name].behavior in behaviors.INVASIVE_BEHAVIORS
    ]
