"""Bot-level supervision: quarantine misbehaving runtimes, keep accounting closed.

PR 1 hardened the *transport* plane (chaos, breakers, retry budgets); this
module hardens the *data* plane.  The paper's methodology tests each bot in
an isolated guild precisely so one bad actor cannot contaminate the
campaign — :class:`BotSupervisor` honours that isolation at the fault
level.  Every per-bot unit of work (honeypot install+run, traceability
policy fetch, code analysis) runs inside an exception firewall with two
behavioural guards:

- a **gateway event budget** — a bot whose handlers flood the event bus is
  cut off after ``max_events`` dispatches inside its supervised window;
- a **virtual-time deadline** — a bot that stalls the simulated clock
  (an infinite backoff loop, a handler that sleeps for months) trips a
  clock watchdog.

A bot that crashes, floods or stalls is **quarantined**: its unit of work
is abandoned, the root cause lands in the :class:`~repro.core.resilience.FaultLedger`,
a :class:`QuarantineRecord` lands in the :class:`QuarantineLog`, and the
stage moves on to the next bot.  Quarantine extends the pipeline's
accounting invariant from ``collected + skipped == population`` to
``processed + skipped + quarantined == population``, enforced by
:func:`verify_accounting` after every fresh stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.crashpoints import crashpoint
from repro.core.resilience import FaultLedger, root_error_class
from repro.web.network import VirtualClock

#: Prefix every quarantine writes into its FaultRecord detail, so ledger
#: consumers can tell quarantines apart from ordinary skips.
QUARANTINE_DETAIL_PREFIX = "quarantined ("

#: Quarantine reasons (the values stored in records and result JSON).
REASON_CRASH = "crash"
REASON_EVENT_FLOOD = "event_flood"
REASON_DEADLINE = "deadline"


class SupervisionError(Exception):
    """Base class for guard trips raised *inside* a supervised unit.

    Deliberately not a :class:`~repro.web.network.NetworkError`,
    ``ApiError`` or ``GuildError`` subclass: bot behaviours and scrapers
    catch those, and a guard trip must never be swallowed by the very
    handler it polices.
    """


class EventBudgetExceeded(SupervisionError):
    """The supervised bot dispatched more gateway events than its budget."""

    def __init__(self, bot_name: str, events: int, budget: int) -> None:
        super().__init__(f"{bot_name} drove {events} gateway events (budget {budget})")
        self.bot_name = bot_name
        self.events = events
        self.budget = budget


class DeadlineExceeded(SupervisionError):
    """The supervised unit consumed more virtual time than its deadline."""

    def __init__(self, bot_name: str, elapsed: float, deadline: float) -> None:
        super().__init__(f"{bot_name} consumed {elapsed:.1f}s virtual time (deadline {deadline:.1f}s)")
        self.bot_name = bot_name
        self.elapsed = elapsed
        self.deadline = deadline


class AccountingError(RuntimeError):
    """The per-stage population invariant does not close — a pipeline bug."""


def verify_accounting(stage: str, population: int, processed: int, skipped: int, quarantined: int) -> None:
    """Enforce ``processed + skipped + quarantined == population`` for a stage."""
    if processed + skipped + quarantined != population:
        raise AccountingError(
            f"{stage}: accounting does not close — processed {processed} + skipped {skipped} "
            f"+ quarantined {quarantined} != population {population}"
        )


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined bot: where, why, and what actually went wrong."""

    stage: str
    bot_name: str
    reason: str  # one of REASON_CRASH / REASON_EVENT_FLOOD / REASON_DEADLINE
    root_cause: str  # innermost exception class name
    virtual_time: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "bot_name": self.bot_name,
            "reason": self.reason,
            "root_cause": self.root_cause,
            "virtual_time": self.virtual_time,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuarantineRecord":
        return cls(
            stage=payload["stage"],
            bot_name=payload["bot_name"],
            reason=payload["reason"],
            root_cause=payload.get("root_cause", ""),
            virtual_time=payload.get("virtual_time", 0.0),
            detail=payload.get("detail", ""),
        )


@dataclass
class QuarantineLog:
    """Append-only account of every quarantined bot in a run.

    Kept separate from the :class:`FaultLedger` (which also receives one
    record per quarantine) because quarantines carry their own accounting
    weight: a quarantined bot is neither processed nor skipped.
    """

    records: list[QuarantineRecord] = field(default_factory=list)

    def record(
        self,
        stage: str,
        bot_name: str,
        reason: str,
        error: BaseException | str,
        virtual_time: float,
        detail: str = "",
    ) -> QuarantineRecord:
        root_cause = error if isinstance(error, str) else root_error_class(error)
        entry = QuarantineRecord(
            stage=stage,
            bot_name=bot_name,
            reason=reason,
            root_cause=root_cause,
            virtual_time=round(virtual_time, 6),
            detail=detail,
        )
        self.records.append(entry)
        return entry

    def extend(self, other: "QuarantineLog") -> None:
        self.records.extend(other.records)

    def mark(self) -> int:
        """Absolute append position, mirroring :meth:`FaultLedger.mark`.

        The log is unbounded, so the mark is just the current length — the
        shared API keeps mark-taking call sites uniform across both logs.
        """
        return len(self.records)

    def records_since(self, mark: int) -> list[QuarantineRecord]:
        return self.records[mark:]

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def count(self, stage: str | None = None) -> int:
        if stage is None:
            return len(self.records)
        return sum(1 for record in self.records if record.stage == stage)

    def bot_names(self, stage: str | None = None) -> list[str]:
        return [record.bot_name for record in self.records if stage is None or record.stage == stage]

    def by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {"records": [record.to_dict() for record in self.records]}

    @classmethod
    def from_dict(cls, payload: dict) -> "QuarantineLog":
        return cls(records=[QuarantineRecord.from_dict(entry) for entry in payload.get("records", [])])

    def summary_line(self) -> str:
        reasons = ", ".join(f"{reason}: {count}" for reason, count in sorted(self.by_reason().items()))
        return f"Quarantined {len(self.records)} bot runtime(s) ({reasons or 'none'})."


@dataclass
class SupervisedOutcome:
    """What one supervised unit of work produced."""

    completed: bool
    value: Any = None
    record: QuarantineRecord | None = None

    @property
    def quarantined(self) -> bool:
        return self.record is not None


class BotSupervisor:
    """An exception firewall plus behavioural guards around per-bot work.

    ``passthrough`` names the exception types the *stage* already handles
    (transport faults that should skip the bot through the existing fault
    sink, not quarantine it); they re-raise untouched.  Everything else —
    except ``KeyboardInterrupt``/``SystemExit`` — quarantines the bot.

    Guards are installed only for the duration of :meth:`run` and removed
    in a ``finally``, so clock time passing *between* supervised windows
    (the observation-window sleeps) never trips a deadline.
    """

    def __init__(
        self,
        stage: str,
        clock: VirtualClock,
        ledger: FaultLedger,
        quarantines: QuarantineLog,
        bus=None,
        max_events: int = 0,
        deadline: float = 0.0,
        passthrough: tuple[type[BaseException], ...] = (),
    ) -> None:
        self.stage = stage
        self.clock = clock
        self.ledger = ledger
        self.quarantines = quarantines
        self.bus = bus
        self.max_events = max_events
        self.deadline = deadline
        self.passthrough = passthrough

    def run(
        self,
        bot_name: str,
        work: Callable[[], Any],
        cleanup: Callable[[], None] | None = None,
    ) -> SupervisedOutcome:
        """Run one bot's unit of work under guard.

        Returns a completed outcome carrying ``work()``'s value, or a
        quarantined outcome (with the record) after running ``cleanup``
        (typically: disconnect the bot's runtime from the gateway so the
        quarantined handler can never fire again).
        """
        started = self.clock.now()
        removers: list[Callable[[], None]] = []
        if self.deadline > 0:

            def deadline_watch(now: float) -> None:
                if now - started > self.deadline:
                    raise DeadlineExceeded(bot_name, now - started, self.deadline)

            removers.append(self.clock.add_watchdog(deadline_watch))
        if self.bus is not None and self.max_events > 0:
            counter = {"events": 0}

            def event_guard(event) -> None:
                counter["events"] += 1
                if counter["events"] > self.max_events:
                    raise EventBudgetExceeded(bot_name, counter["events"], self.max_events)

            removers.append(self.bus.add_guard(event_guard))
        try:
            value = work()
            return SupervisedOutcome(completed=True, value=value)
        except self.passthrough:
            raise
        except EventBudgetExceeded as error:
            record = self._quarantine(bot_name, REASON_EVENT_FLOOD, error)
        except DeadlineExceeded as error:
            record = self._quarantine(bot_name, REASON_DEADLINE, error)
        except Exception as error:  # noqa: BLE001 — the firewall is the point
            record = self._quarantine(bot_name, REASON_CRASH, error)
        finally:
            for remove in removers:
                remove()
        if cleanup is not None:
            cleanup()
        return SupervisedOutcome(completed=False, record=record)

    def _quarantine(self, bot_name: str, reason: str, error: BaseException) -> QuarantineRecord:
        now = self.clock.now()
        detail = str(error)[:200]
        record = self.quarantines.record(self.stage, bot_name, reason, error, now, detail=detail)
        self.ledger.record(
            self.stage,
            f"bot:{bot_name}",
            error,
            now,
            bots_skipped=0,  # quarantines are their own accounting bucket
            detail=f"{QUARANTINE_DETAIL_PREFIX}{reason}): {detail}",
        )
        crashpoint("supervision.after_quarantine")
        return record
