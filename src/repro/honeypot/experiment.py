"""The honeypot campaign: test a bot sample end to end.

For every bot in the sample: provision an isolated guild named after it,
install the bot, attach its (ground-truth) behaviour runtime, post the feed
and the four canary tokens, let the world run, then attribute any token
triggers back to bots by guild name — including post-trigger message
forensics (the "wtf is this bro" moment).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.discordsim import behaviors
from repro.discordsim.bot import BotRuntime
from repro.discordsim.platform import DiscordPlatform, InstallError
from repro.ecosystem.generator import BotProfile
from repro.honeypot.console import CanaryConsole, TriggerRecord
from repro.honeypot.environment import FEED_MESSAGES, PERSONAS_PER_GUILD, GuildEnvironment, provision_environment
from repro.honeypot.tokens import TokenFactory, TokenKind
from repro.web.captcha import CaptchaError, TwoCaptchaClient
from repro.web.http import Response
from repro.web.network import ConnectionFailedError, NetworkError, UnknownHostError, VirtualInternet
from repro.web.server import VirtualHost

#: Attacker-side collector infrastructure used by exfiltrating bots.
EXFIL_HOSTNAME = "collector.evil.sim"

#: The paper's day of observation.
OBSERVATION_WINDOW = 86_400.0


def _fault_host(error: BaseException) -> str:
    """Best-effort host attribution for a transport failure."""
    if isinstance(error, (UnknownHostError, ConnectionFailedError)) and error.args:
        return str(error.args[0]).split(" ")[0]
    return "<platform>"


@dataclass
class BotTestOutcome:
    """One bot's result in the campaign."""

    bot_name: str
    behavior: str  # ground truth, never visible to the detector
    installed: bool
    tokens_deployed: int = 0
    trigger_kinds: frozenset[TokenKind] = frozenset()
    suspicious_messages: tuple[str, ...] = ()
    functionality_explained: bool = False
    #: Set by the supervision layer: the bot's runtime crashed, flooded the
    #: gateway, or stalled the clock, and its test was abandoned mid-way.
    quarantined: bool = False
    quarantine_reason: str = ""

    @property
    def triggered(self) -> bool:
        return bool(self.trigger_kinds)

    @property
    def flagged(self) -> bool:
        """Detector verdict: triggered and not explained by functionality.

        A quarantined bot is never flagged — its test was cut short, so
        the campaign has no complete observation to judge it on.
        """
        return self.triggered and not self.functionality_explained and not self.quarantined


@dataclass
class HoneypotReport:
    """Campaign-level results plus detection quality vs ground truth."""

    outcomes: list[BotTestOutcome] = field(default_factory=list)
    triggers: list[TriggerRecord] = field(default_factory=list)
    manual_verifications: int = 0
    install_failures: int = 0
    captcha_cost: float = 0.0

    @property
    def bots_tested(self) -> int:
        return len(self.outcomes)

    @property
    def bots_quarantined(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.quarantined)

    @property
    def bots_processed(self) -> int:
        """Outcomes the campaign fully observed (quarantines excluded)."""
        return self.bots_tested - self.bots_quarantined

    @property
    def quarantined_bots(self) -> list[BotTestOutcome]:
        return [outcome for outcome in self.outcomes if outcome.quarantined]

    @property
    def flagged_bots(self) -> list[BotTestOutcome]:
        return [outcome for outcome in self.outcomes if outcome.flagged]

    # -- detection quality (uses ground-truth behaviour labels) -------------

    @property
    def true_positives(self) -> int:
        return sum(1 for o in self.outcomes if o.flagged and o.behavior in behaviors.INVASIVE_BEHAVIORS)

    @property
    def false_positives(self) -> int:
        return sum(1 for o in self.outcomes if o.flagged and o.behavior not in behaviors.INVASIVE_BEHAVIORS)

    @property
    def false_negatives(self) -> int:
        return sum(1 for o in self.outcomes if not o.flagged and o.behavior in behaviors.INVASIVE_BEHAVIORS)

    @property
    def precision(self) -> float:
        flagged = self.true_positives + self.false_positives
        return self.true_positives / flagged if flagged else 1.0

    @property
    def recall(self) -> float:
        invasive = self.true_positives + self.false_negatives
        return self.true_positives / invasive if invasive else 1.0


@dataclass
class _ProvisionedTest:
    """Internal: one successfully provisioned guild awaiting observation."""

    bot: BotProfile
    environment: GuildEnvironment
    runtime: BotRuntime | None
    bot_user_id: int
    armed_at: float


class HoneypotExperiment:
    """Run the dynamic-analysis campaign over a bot sample."""

    def __init__(
        self,
        platform: DiscordPlatform,
        internet: VirtualInternet,
        solver: TwoCaptchaClient | None = None,
        seed: int = 4242,
    ) -> None:
        self.platform = platform
        self.internet = internet
        self.console = CanaryConsole()
        self.console.register(internet)
        self.factory = TokenFactory()
        self.solver = solver or TwoCaptchaClient(internet.clock, seed=seed)
        self._seed = seed
        self._rng = random.Random(seed)
        self._register_exfil_collector()

    def _bot_rng(self, bot: BotProfile) -> random.Random:
        """Provisioning randomness keyed by ``(campaign seed, client id)``.

        Each bot draws from its own stream so one bot's early abort (a
        quarantine mid-feed) cannot shift any other bot's draws — the
        isolation the per-guild methodology promises, applied to the RNG.
        String seeds hash via sha512, stable across processes.
        """
        return random.Random(f"{self._seed}:{bot.client_id}")

    def _register_exfil_collector(self) -> None:
        """The attacker's collection endpoint (exfiltrators post here)."""
        collector = VirtualHost(EXFIL_HOSTNAME)
        collector.add_route("/collect", lambda request: Response.text("ok"))
        self.internet.register(EXFIL_HOSTNAME, collector)

    # -- campaign ------------------------------------------------------------

    def run(
        self,
        sample: list[BotProfile],
        personas_per_guild: int = PERSONAS_PER_GUILD,
        feed_messages: int = FEED_MESSAGES,
        observation_window: float = OBSERVATION_WINDOW,
        posts_during_observation: int = 4,
        reuse_personas: bool = True,
        operator_activity_threshold: int = 10,
        feed_source=None,
        fault_sink=None,
        supervisor=None,
        unit_sink=None,
    ) -> HoneypotReport:
        """Test every bot in ``sample`` in its own guild.

        With ``reuse_personas`` (the paper's setup: 5 virtual users joining
        every honeypot guild), the anti-abuse flag fires as the accounts
        rack up joins, and the "manual" mobile verification count climbs.

        ``operator_activity_threshold``: a nosy operator only bothers
        skimming a guild that *looks* lived-in (at least this many
        messages) — which is exactly why the honeypot needs its
        conversational feed.  Set to 0 to model a reckless operator.

        ``fault_sink(host, error, bots_skipped, detail)``: with it set,
        transport failures during provisioning skip the bot (reported, not
        crashed) and failures inside a bot's backend tick are absorbed —
        the campaign always completes and stays honest about what it lost.

        ``supervisor`` (a :class:`~repro.core.supervision.BotSupervisor`)
        wraps every per-bot unit of work — provisioning, backend ticks,
        operator inspections — in an exception firewall with an event
        budget and a virtual-time deadline.  A bot that crashes, floods or
        stalls is quarantined: its runtime is disconnected, it gets a
        degraded outcome with the quarantine reason, and the campaign
        continues undisturbed (transport faults still flow to
        ``fault_sink`` as before).

        ``unit_sink(outcome)`` is called once per settled
        :class:`BotTestOutcome`, the moment it lands in the report — the
        write-ahead journal uses it to mark per-bot campaign progress.
        """
        report = HoneypotReport()

        def settle(outcome: BotTestOutcome) -> None:
            report.outcomes.append(outcome)
            if unit_sink is not None:
                unit_sink(outcome)

        spent_before = self.solver.total_spent
        shared_personas = None
        if reuse_personas:
            from repro.honeypot.personas import create_personas

            shared_personas = create_personas(self.platform, personas_per_guild, self._rng)

        # Phase 1: provision every guild (install bot, attach runtime, post
        # feed + tokens).  Automated invasive bots trigger during this phase
        # the moment content lands in front of their listeners.
        provisioned: list[_ProvisionedTest] = []
        for bot in sample:
            runtime_sink: list[BotRuntime] = []

            def provision(bot=bot, runtime_sink=runtime_sink):
                return self._provision_bot(
                    bot,
                    personas_per_guild,
                    feed_messages,
                    personas=shared_personas,
                    feed_source=feed_source,
                    runtime_sink=runtime_sink,
                )

            try:
                if supervisor is None:
                    test = provision()
                else:
                    outcome = supervisor.run(
                        bot.name, provision, cleanup=lambda sink=runtime_sink: self._halt_runtimes(sink)
                    )
                    if outcome.quarantined:
                        settle(self._quarantine_outcome(bot, outcome.record, installed=bool(runtime_sink)))
                        continue
                    test = outcome.value
            except NetworkError as error:
                if fault_sink is None:
                    raise
                fault_sink(_fault_host(error), error, 1, f"honeypot provisioning abandoned for {bot.name}")
                continue
            if test is None:
                settle(BotTestOutcome(bot_name=bot.name, behavior=bot.behavior, installed=False))
            else:
                provisioned.append(test)

        # Phase 2: observation window.  Time passes in slices; nosy
        # operators drop in partway through, as Melonian's did.
        slices = max(posts_during_observation, 1)
        for step in range(slices):
            self.internet.clock.sleep(observation_window / slices)
            # Bots run their own backend schedulers; give each a tick.
            for test in list(provisioned):
                if test.runtime is None:
                    continue
                try:
                    if supervisor is None:
                        test.runtime.tick()
                    else:
                        outcome = supervisor.run(test.bot.name, test.runtime.tick, cleanup=test.runtime.stop)
                        if outcome.quarantined:
                            provisioned.remove(test)
                            settle(self._quarantine_outcome(test.bot, outcome.record, installed=True))
                except NetworkError as error:
                    # An exfiltrator losing its collector is the *attacker's*
                    # problem; the campaign records it and moves on.
                    if fault_sink is None:
                        raise
                    fault_sink(_fault_host(error), error, 0, f"backend tick failed for {test.bot.name}")
            if step == slices // 2:
                for test in list(provisioned):
                    if test.bot.behavior != behaviors.NOSY_OPERATOR or test.runtime is None:
                        continue
                    guild = test.environment.guild
                    activity = sum(len(channel.messages) for channel in guild.text_channels())
                    if activity >= operator_activity_threshold:

                        def inspect(test=test, guild=guild):
                            behaviors.operator_inspection(test.runtime, guild.guild_id, self._rng)

                        try:
                            if supervisor is None:
                                inspect()
                            else:
                                outcome = supervisor.run(test.bot.name, inspect, cleanup=test.runtime.stop)
                                if outcome.quarantined:
                                    provisioned.remove(test)
                                    settle(self._quarantine_outcome(test.bot, outcome.record, installed=True))
                        except NetworkError as error:
                            if fault_sink is None:
                                raise
                            fault_sink(_fault_host(error), error, 0, f"operator inspection failed for {test.bot.name}")

        # Phase 3: attribution by guild name (the paper's identifier scheme).
        for test in provisioned:
            settle(self._attribute(test))

        # Outcomes settle in phases (broken invites and quarantines during
        # provisioning, survivors at attribution), but the report promises
        # sampling order.
        order = {bot.name: index for index, bot in enumerate(sample)}
        report.outcomes.sort(key=lambda outcome: order.get(outcome.bot_name, len(order)))

        report.triggers = list(self.console.triggers)
        report.captcha_cost = self.solver.total_spent - spent_before
        if shared_personas is not None:
            report.manual_verifications = shared_personas.manual_verifications
        else:
            report.manual_verifications = sum(
                test.environment.personas.manual_verifications for test in provisioned
            )
        report.install_failures = sum(
            1 for outcome in report.outcomes if not outcome.installed and not outcome.quarantined
        )
        return report

    @staticmethod
    def _halt_runtimes(runtimes: list[BotRuntime]) -> None:
        """Disconnect quarantined runtimes so they never see another event."""
        for runtime in runtimes:
            runtime.stop()

    @staticmethod
    def _quarantine_outcome(bot: BotProfile, record, installed: bool) -> BotTestOutcome:
        return BotTestOutcome(
            bot_name=bot.name,
            behavior=bot.behavior,
            installed=installed,
            quarantined=True,
            quarantine_reason=record.reason,
        )

    def _provision_bot(
        self,
        bot: BotProfile,
        personas_per_guild: int,
        feed_messages: int,
        personas=None,
        feed_source=None,
        runtime_sink: "list[BotRuntime] | None" = None,
    ) -> "_ProvisionedTest | None":
        from repro.ecosystem.generator import InviteStatus

        if bot.invite_status in (InviteStatus.MALFORMED, InviteStatus.REMOVED):
            # Broken invite: the bot cannot be added to a guild at all.
            return None
        application = self.platform.applications.get(bot.client_id)
        if application is None:
            operator = self.platform.create_user(f"dev-{bot.developer_tag.split('#')[0]}", phone_verified=True)
            application = self.platform.register_application(operator, bot.name, client_id=bot.client_id)

        runtime_holder: list[BotRuntime] = runtime_sink if runtime_sink is not None else []

        def attach_runtime(environment: GuildEnvironment) -> None:
            runtime = behaviors.build_runtime(
                self.platform,
                application.bot_user.user_id,
                bot.behavior,
                internet=self.internet,
                exfil_host=EXFIL_HOSTNAME,
            )
            runtime_holder.append(runtime)

        try:
            environment = provision_environment(
                self.platform,
                bot,
                self.console,
                self.factory,
                self.solver,
                self._bot_rng(bot),
                personas_per_guild=personas_per_guild,
                feed_messages=feed_messages,
                on_installed=attach_runtime,
                personas=personas,
                message_source=feed_source,
            )
        except (InstallError, CaptchaError):
            return None
        return _ProvisionedTest(
            bot=bot,
            environment=environment,
            runtime=runtime_holder[0] if runtime_holder else None,
            bot_user_id=application.bot_user.user_id,
            armed_at=self.internet.clock.now(),
        )

    def _attribute(self, test: "_ProvisionedTest") -> BotTestOutcome:
        guild = test.environment.guild
        triggers = [record for record in self.console.triggers if record.context == guild.name]
        trigger_kinds = frozenset(record.kind for record in triggers)
        suspicious = self._post_trigger_messages(guild, test.bot_user_id, test.armed_at)
        functionality_explained = (
            test.bot.behavior == behaviors.LINK_PREVIEW and trigger_kinds <= {TokenKind.URL}
        )
        return BotTestOutcome(
            bot_name=test.bot.name,
            behavior=test.bot.behavior,
            installed=True,
            tokens_deployed=len(test.environment.tokens),
            trigger_kinds=trigger_kinds,
            suspicious_messages=tuple(suspicious),
            functionality_explained=functionality_explained,
        )

    def _post_trigger_messages(self, guild, bot_user_id: int, armed_at: float) -> list[str]:
        """Messages the bot account posted that do not look automated.

        After Melonian's trigger "a user posted a message as the guild's
        chatbot that reads '[w]tf is this bro', which is clearly not an
        automated message generated by a bot."
        """
        automated_markers = ("pong", "Poll started:", "I am serving", "Preview:", "kicked", "banned", "usage:", "cannot ")
        found: list[str] = []
        for channel in guild.text_channels():
            for message in channel.messages:
                if message.author_id != bot_user_id or message.timestamp < armed_at:
                    continue
                if not any(marker in message.content for marker in automated_markers):
                    found.append(message.content)
        return found
