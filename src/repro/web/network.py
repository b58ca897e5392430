"""The virtual internet: clock, host registry, latency and failure injection.

The measurement pipeline never touches the real network.  Every site it
visits — the bot repository, bot websites, the GitHub stand-in, the canary
console — is a :class:`~repro.web.server.VirtualHost` registered here.

Time is simulated by :class:`VirtualClock` so that timeout, rate-limit and
latency behaviour is deterministic and tests run instantly.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.web.http import Request, Response

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.web.chaos import FaultSchedule
    from repro.web.server import VirtualHost


def rng_state(rng: random.Random) -> list:
    """JSON-serializable form of a ``random.Random`` state."""
    version, internals, gauss = rng.getstate()
    return [version, list(internals), gauss]


def restore_rng(rng: random.Random, state: list) -> None:
    """Restore a state produced by :func:`rng_state`."""
    rng.setstate((state[0], tuple(state[1]), state[2]))


class TouchedKeys:
    """A keyed container that can name the keys it changed.

    While a journal tracker watches the container (:meth:`track_touches`),
    every mutator adds the key it changed to ``_touched``; the tracker
    drains the set after each unit of work and records only those keys.
    Unwatched, ``_touched`` is ``None`` and a mutation costs one branch.
    """

    _touched: set[str] | None = None

    def track_touches(self) -> None:
        """Start (or restart) collecting touched keys."""
        self._touched = set()

    def drain_touched(self) -> set[str]:
        """The keys touched since the last drain; collection continues."""
        touched = self._touched or set()
        self._touched = set()
        return touched


class NetworkError(Exception):
    """Base class for transport-level failures."""


class UnknownHostError(NetworkError):
    """DNS failure: no host registered under the requested name."""


class ConnectionFailedError(NetworkError):
    """The host is registered but refused or dropped the connection."""


class VirtualClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._watchdogs: list[Callable[[float], None]] = []

    def now(self) -> float:
        return self._now

    def add_watchdog(self, callback: Callable[[float], None]) -> Callable[[], None]:
        """Call ``callback(now)`` after every advance; returns a remover.

        Watchdogs may raise — that is their purpose: a supervisor installs
        one to abort a unit of work that consumes more simulated time than
        its deadline, even from inside an otherwise-infinite sleep loop.
        The advance itself is already applied when watchdogs fire, so time
        stays monotonic across an abort.
        """
        self._watchdogs.append(callback)

        def remove() -> None:
            try:
                self._watchdogs.remove(callback)
            except ValueError:
                pass

        return remove

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("the clock cannot run backwards")
        self._now += seconds
        if self._watchdogs:
            for watchdog in tuple(self._watchdogs):
                watchdog(self._now)

    def sleep(self, seconds: float) -> None:
        """Alias of :meth:`advance`; lets callers read naturally."""
        self.advance(seconds)

    def restore(self, now: float) -> None:
        """Set the clock to an exact instant (resume support).

        Unlike :meth:`advance`, this assigns ``now`` directly so a journal
        replay reproduces the crashed run's timestamps bit-for-bit instead
        of accumulating float deltas.  Time still cannot run backwards, and
        watchdogs do not fire — replay is a fast-forward, not simulated time.
        """
        target = float(now)
        if target < self._now:
            raise ValueError("the clock cannot run backwards")
        self._now = target


@dataclass
class HostConditions:
    """Per-host transport conditions, applied before the host sees a request.

    ``base_latency`` is added to every exchange; ``latency_jitter`` adds a
    uniform random component; ``failure_rate`` drops connections outright,
    and ``extra_latency`` lets tests model persistently slow hosts (the
    paper's "timed out due to slow redirect links").
    """

    base_latency: float = 0.05
    latency_jitter: float = 0.0
    failure_rate: float = 0.0
    extra_latency: float = 0.0

    def sample_latency(self, rng: random.Random) -> float:
        jitter = rng.uniform(0.0, self.latency_jitter) if self.latency_jitter else 0.0
        return self.base_latency + self.extra_latency + jitter


@dataclass(slots=True)
class ExchangeRecord:
    """One exchange *attempt*, kept for politeness auditing.

    Transport failures are recorded too — the client sent the request and
    the wire carried it, so an honest rate audit must count it.  A failed
    attempt has ``status == 0`` and ``error`` naming the failure class.
    """

    time: float
    client_id: str
    method: str
    url: str
    status: int
    latency: float
    error: str = ""

    @property
    def ok(self) -> bool:
        """Whether the exchange completed with an HTTP response."""
        return self.status > 0


@dataclass
class _HostEntry:
    host: "VirtualHost"
    conditions: HostConditions = field(default_factory=HostConditions)


class VirtualInternet(TouchedKeys):
    """Routes requests to registered hosts under simulated conditions.

    The ethics note in the paper (crawl "at a rate that does not create any
    disruption") is auditable here: :attr:`log` is a ring of the most
    recent exchanges (1,024 by default) with their simulated timestamps,
    while the counters (``exchanges_completed``, ``exchanges_failed``,
    ``log_dropped``) and :meth:`request_rate`'s per-client history cover
    every exchange.  Its touched keys are the hostnames whose host handled
    a request.
    """

    #: Default bound on the exchange log: a recent window for auditing and
    #: tests, too small to count in a run's memory.  The counters and the
    #: per-client rate history do not depend on it.
    DEFAULT_LOG_LIMIT = 1_024
    #: Per-client timestamp history kept for :meth:`request_rate`.
    DEFAULT_RATE_HISTORY = 10_000
    #: Bound on hosts built on demand by resolvers: past this, the coldest
    #: resolver-built host is dropped and re-resolved on its next visit.
    DEFAULT_DYNAMIC_HOST_LIMIT = 1_024

    def __init__(
        self,
        clock: VirtualClock | None = None,
        seed: int = 0,
        log_limit: int | None = DEFAULT_LOG_LIMIT,
        rate_history: int = DEFAULT_RATE_HISTORY,
    ) -> None:
        self.clock = clock or VirtualClock()
        self._hosts: dict[str, _HostEntry] = {}
        self._resolvers: list[Callable[[str], "VirtualHost | None"]] = []
        self._dynamic_hosts: OrderedDict[str, None] = OrderedDict()
        self.dynamic_host_limit = self.DEFAULT_DYNAMIC_HOST_LIMIT
        self._rng = random.Random(seed)
        self.log: deque[ExchangeRecord] = deque(maxlen=log_limit)
        #: Exchange records evicted from the bounded ``log`` ring.  A
        #: long-lived service run keeps RSS bounded by dropping the oldest
        #: audit entries; the counter keeps the bound honest.
        self.log_dropped = 0
        self._rate_history = max(rate_history, 1)
        self._client_times: dict[str, list[float]] = {}
        self.exchanges_completed = 0
        self.exchanges_failed = 0
        self.chaos: "FaultSchedule | None" = None

    @property
    def exchanges_total(self) -> int:
        """All exchange attempts, completed or dropped at the transport."""
        return self.exchanges_completed + self.exchanges_failed

    # -- registry ----------------------------------------------------------

    def register(self, hostname: str, host: "VirtualHost", conditions: HostConditions | None = None) -> None:
        """Register ``host`` under ``hostname`` (replaces any previous host).

        Explicit registration pins the host: it is exempt from the dynamic
        LRU even if a resolver built an earlier incarnation of it.
        """
        key = hostname.lower()
        self._hosts[key] = _HostEntry(host, conditions or HostConditions())
        self._dynamic_hosts.pop(key, None)

    def register_resolver(self, resolver: Callable[[str], "VirtualHost | None"], limit: int | None = None) -> None:
        """Install an on-demand host factory consulted for unknown hostnames.

        A resolver maps ``hostname -> VirtualHost | None``.  Hosts it builds
        are registered on first contact and kept in a bounded LRU of size
        ``dynamic_host_limit``: a million-bot ecosystem can expose a million
        websites without a million resident :class:`VirtualHost` objects,
        because a cold site is simply rebuilt (deterministically, from the
        same profile) on its next visit.
        """
        self._resolvers.append(resolver)
        if limit is not None:
            self.dynamic_host_limit = max(limit, 1)

    def unregister(self, hostname: str) -> None:
        self._hosts.pop(hostname.lower(), None)
        self._dynamic_hosts.pop(hostname.lower(), None)

    def _entry_for(self, hostname: str) -> "_HostEntry | None":
        """Look up ``hostname``, consulting resolvers for unknown hosts."""
        entry = self._hosts.get(hostname)
        if entry is not None:
            if hostname in self._dynamic_hosts:
                self._dynamic_hosts.move_to_end(hostname)
            return entry
        for resolver in self._resolvers:
            host = resolver(hostname)
            if host is None:
                continue
            entry = _HostEntry(host, HostConditions())
            self._hosts[hostname] = entry
            self._dynamic_hosts[hostname] = None
            while len(self._dynamic_hosts) > self.dynamic_host_limit:
                cold, _ = self._dynamic_hosts.popitem(last=False)
                self._hosts.pop(cold, None)
            return entry
        return None

    def knows(self, hostname: str) -> bool:
        return hostname.lower() in self._hosts

    def host(self, hostname: str) -> "VirtualHost":
        try:
            return self._hosts[hostname.lower()].host
        except KeyError:
            raise UnknownHostError(hostname) from None

    def conditions(self, hostname: str) -> HostConditions:
        try:
            return self._hosts[hostname.lower()].conditions
        except KeyError:
            raise UnknownHostError(hostname) from None

    def hostnames(self) -> list[str]:
        return sorted(self._hosts)

    # -- chaos -------------------------------------------------------------

    def install_chaos(self, schedule: "FaultSchedule") -> "FaultSchedule":
        """Attach a fault schedule; every exchange consults it from now on."""
        schedule.bind(self.clock)
        self.chaos = schedule
        return schedule

    def remove_chaos(self) -> None:
        self.chaos = None

    # -- exchange ----------------------------------------------------------

    def exchange(self, request: Request) -> tuple[Response, float]:
        """Deliver ``request`` and return ``(response, latency_seconds)``.

        Raises :class:`UnknownHostError` or :class:`ConnectionFailedError`
        on transport failure; the clock still advances in the failure case
        (a dropped connection costs the caller time — this is what makes
        client-side retry budgets meaningful).
        """
        hostname = request.url.host.lower()
        entry = self._entry_for(hostname)
        if entry is None:
            raise UnknownHostError(hostname or "<empty-host>")
        latency = entry.conditions.sample_latency(self._rng)
        if self.chaos is not None:
            latency += self.chaos.extra_latency(hostname, self.clock.now())
        self.clock.advance(latency)
        if entry.conditions.failure_rate and self._rng.random() < entry.conditions.failure_rate:
            error = ConnectionFailedError(hostname)
            self._record(request, 0, latency, type(error).__name__)
            raise error
        response = None
        if self.chaos is not None:
            # May raise ConnectionFailedError (outage window) — the clock has
            # already advanced, so the failed attempt still costs the caller.
            try:
                response = self.chaos.intercept(request, self.clock.now())
            except NetworkError as error:
                self._record(request, 0, latency, type(error).__name__)
                raise
        if response is None:
            if self._touched is not None:
                self._touched.add(hostname)
            response = entry.host.handle(request, self)
            if self.chaos is not None:
                response = self.chaos.mangle(request, response, self.clock.now())
        self._record(request, response.status, latency)
        return response, latency

    def _record(self, request: Request, status: int, latency: float, error: str = "") -> None:
        """Log, count and time-stamp one attempt; ``status`` 0 and ``error`` name a failed one."""
        now = self.clock.now()
        client_id = request.client_id
        if self.log.maxlen is not None and len(self.log) == self.log.maxlen:
            self.log_dropped += 1
        self.log.append(ExchangeRecord(now, client_id, request.method, str(request.url), status, latency, error))
        if status > 0:
            self.exchanges_completed += 1
        else:
            self.exchanges_failed += 1
        times = self._client_times.get(client_id)
        if times is None:
            times = self._client_times[client_id] = []
        times.append(now)
        # Amortised O(1) trim: drop the old half once we hold 2x the history.
        if len(times) > 2 * self._rate_history:
            del times[: len(times) - self._rate_history]

    # -- resume support ------------------------------------------------------

    def state_dict(self, include_history: bool = False) -> dict:
        """Serializable transport state (hosts and chaos are captured separately).

        The bounded exchange ``log`` is audit-only and never captured;
        ``include_history`` adds the per-client rate-audit timestamps, which
        stage-boundary snapshots keep but per-unit journal records omit.
        """
        state = {
            "rng": rng_state(self._rng),
            "completed": self.exchanges_completed,
            "failed": self.exchanges_failed,
        }
        if include_history:
            state["client_times"] = {client: list(times) for client, times in self._client_times.items()}
        return state

    def restore_state(self, state: dict) -> None:
        restore_rng(self._rng, state["rng"])
        self.exchanges_completed = state["completed"]
        self.exchanges_failed = state["failed"]
        if "client_times" in state:
            self._client_times = {client: list(times) for client, times in state["client_times"].items()}

    # -- auditing helpers ----------------------------------------------------

    def request_rate(self, client_id: str, window: float) -> float:
        """Requests per second issued by ``client_id`` over the trailing window.

        O(log n) via binary search over the client's (monotonic) timestamp
        history instead of re-scanning the full exchange log per call.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        times = self._client_times.get(client_id, ())
        cutoff = self.clock.now() - window
        count = len(times) - bisect_left(times, cutoff)
        return count / window
