"""Chaos-grade fault injection for the virtual internet.

A :class:`FaultSchedule` is a deterministic, seeded plan of adversity that
the :class:`~repro.web.network.VirtualInternet` consults on every exchange:
time-windowed host outages, 5xx bursts, latency-degradation episodes,
rate-limit storms (including malformed ``Retry-After`` headers), captcha-wall
surges, and truncated/malformed HTML responses.

Fault *windows* are derived purely from ``(seed, kind, epoch, host bucket)``
via CRC32-seeded generators, so whether a window is open at virtual time *t*
is independent of request order; per-request intensity draws come from one
dedicated RNG, so two identical runs inject byte-identical fault streams.

Named :data:`PROFILES` (``calm``, ``flaky``, ``hostile``, ``outage``) let any
existing test or benchmark run under adversity by changing one parameter.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from enum import Enum

from repro.web.captcha import CaptchaService, challenge_page
from repro.web.http import Request, Response
from repro.web.network import ConnectionFailedError, VirtualClock, restore_rng, rng_state


class FaultKind(Enum):
    """The adversity classes the schedule can inject."""

    OUTAGE = "outage"  # connection refused for a time window
    ERROR_BURST = "error_burst"  # 5xx responses for a time window
    LATENCY_SPIKE = "latency_spike"  # degraded-latency episode
    RATE_LIMIT_STORM = "rate_limit_storm"  # 429 walls for a time window
    CAPTCHA_SURGE = "captcha_surge"  # captcha interstitials for a window
    TRUNCATION = "truncation"  # truncated/malformed HTML bodies


#: Kinds that open/close as time windows (truncation is per-exchange).
WINDOWED_KINDS = (
    FaultKind.OUTAGE,
    FaultKind.ERROR_BURST,
    FaultKind.LATENCY_SPIKE,
    FaultKind.RATE_LIMIT_STORM,
    FaultKind.CAPTCHA_SURGE,
)


@dataclass(frozen=True)
class ChaosProfile:
    """Named adversity level.

    ``*_rate`` values are per-epoch window probabilities (per host bucket);
    ``*_intensity`` values are per-request injection probabilities while the
    matching window is open.  ``truncation_rate`` is per-exchange and
    window-independent.  Hosts are partitioned into ``buckets`` stable hash
    buckets so an outage takes down a slice of the internet, not all of it.
    """

    name: str
    outage_rate: float = 0.0
    error_burst_rate: float = 0.0
    latency_spike_rate: float = 0.0
    rate_limit_rate: float = 0.0
    captcha_surge_rate: float = 0.0
    error_intensity: float = 0.6
    storm_intensity: float = 0.7
    captcha_intensity: float = 0.8
    truncation_rate: float = 0.0
    garbage_retry_after: float = 0.0  # fraction of injected 429s with junk header
    latency_extra: tuple[float, float] = (2.0, 10.0)
    window_duration: tuple[float, float] = (60.0, 300.0)
    epoch: float = 1200.0
    buckets: int = 4

    def scaled(self, **overrides) -> "ChaosProfile":
        """A copy with fields overridden (for tests tuning one knob)."""
        return replace(self, **overrides)

    def rate(self, kind: FaultKind) -> float:
        return {
            FaultKind.OUTAGE: self.outage_rate,
            FaultKind.ERROR_BURST: self.error_burst_rate,
            FaultKind.LATENCY_SPIKE: self.latency_spike_rate,
            FaultKind.RATE_LIMIT_STORM: self.rate_limit_rate,
            FaultKind.CAPTCHA_SURGE: self.captcha_surge_rate,
            FaultKind.TRUNCATION: self.truncation_rate,
        }[kind]


CALM = ChaosProfile(name="calm")

FLAKY = ChaosProfile(
    name="flaky",
    error_burst_rate=0.25,
    latency_spike_rate=0.20,
    rate_limit_rate=0.10,
    truncation_rate=0.01,
    error_intensity=0.5,
    garbage_retry_after=0.1,
)

HOSTILE = ChaosProfile(
    name="hostile",
    outage_rate=0.12,
    error_burst_rate=0.30,
    latency_spike_rate=0.25,
    rate_limit_rate=0.20,
    captcha_surge_rate=0.15,
    truncation_rate=0.02,
    error_intensity=0.6,
    storm_intensity=0.7,
    garbage_retry_after=0.3,
    window_duration=(60.0, 240.0),
)

OUTAGE = ChaosProfile(
    name="outage",
    outage_rate=0.5,
    window_duration=(300.0, 900.0),
    epoch=1800.0,
)

PROFILES: dict[str, ChaosProfile] = {profile.name: profile for profile in (CALM, FLAKY, HOSTILE, OUTAGE)}


def resolve_profile(profile: "ChaosProfile | str | None") -> ChaosProfile:
    """Look up a profile by name (``None`` means ``calm``)."""
    if profile is None:
        return CALM
    if isinstance(profile, ChaosProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown chaos profile {profile!r} (known: {known})") from None


@dataclass
class ChaosStats:
    """Counters for everything the schedule injected."""

    outages: int = 0
    error_responses: int = 0
    latency_spikes: int = 0
    rate_limited: int = 0
    captcha_walls: int = 0
    truncated_responses: int = 0


@dataclass(frozen=True)
class FaultWindow:
    """A resolved fault window for one (kind, epoch, bucket) cell."""

    kind: FaultKind
    start: float
    end: float
    magnitude: float = 0.0  # extra latency seconds for LATENCY_SPIKE

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


def _stable_bucket(host: str, buckets: int) -> int:
    return zlib.crc32(host.lower().encode("utf-8")) % max(buckets, 1)


class FaultSchedule:
    """Deterministic adversity plan consulted per exchange.

    Attach with :meth:`VirtualInternet.install_chaos`; the internet then
    calls :meth:`extra_latency`, :meth:`intercept` and :meth:`mangle` around
    every exchange.  All decisions derive from the seed, so identical runs
    inject identical fault streams.
    """

    #: Requests a client may make after solving a surge captcha before
    #: being re-challenged (mirrors CaptchaWallMiddleware's clearance).
    CAPTCHA_CLEARANCE = 25

    def __init__(self, profile: ChaosProfile | str = "calm", seed: int = 0) -> None:
        self.profile = resolve_profile(profile)
        self.seed = seed
        self.stats = ChaosStats()
        self._draw_rng = random.Random(zlib.crc32(f"{seed}:draws".encode("utf-8")))
        self._window_cache: dict[tuple[str, int, int], FaultWindow | None] = {}
        self._clearances: dict[str, int] = {}
        self._clock: VirtualClock | None = None
        self._captcha: CaptchaService | None = None

    # -- wiring --------------------------------------------------------------

    def bind(self, clock: VirtualClock) -> None:
        """Attach to a clock (called by ``VirtualInternet.install_chaos``)."""
        self._clock = clock
        self._captcha = CaptchaService(clock, seed=zlib.crc32(f"{self.seed}:captcha".encode("utf-8")))

    @property
    def captcha_service(self) -> CaptchaService | None:
        return self._captcha

    # -- resume support ------------------------------------------------------

    def state_dict(self) -> dict:
        """Order-coupled schedule state (window cache is pure and excluded)."""
        state = {
            "rng": rng_state(self._draw_rng),
            "clearances": dict(self._clearances),
            "stats": vars(self.stats).copy(),
        }
        if self._captcha is not None:
            state["captcha"] = self._captcha.state_dict()
        return state

    def restore_state(self, state: dict) -> None:
        restore_rng(self._draw_rng, state["rng"])
        self._clearances = dict(state["clearances"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)  # in place: callers may hold a reference
        if self._captcha is not None and "captcha" in state:
            self._captcha.restore_state(state["captcha"])

    # -- window resolution ---------------------------------------------------

    def window_for(self, kind: FaultKind, host: str, now: float) -> FaultWindow | None:
        """The open window covering ``now`` for this kind/host, if any."""
        rate = self.profile.rate(kind)
        if rate <= 0 or kind is FaultKind.TRUNCATION or now < 0:
            return None
        epoch_index = int(now // self.profile.epoch)
        bucket = _stable_bucket(host, self.profile.buckets)
        key = (kind.value, epoch_index, bucket)
        if key not in self._window_cache:
            self._window_cache[key] = self._resolve_window(kind, epoch_index, bucket, rate)
        window = self._window_cache[key]
        if window is not None and window.covers(now):
            return window
        return None

    def _resolve_window(self, kind: FaultKind, epoch_index: int, bucket: int, rate: float) -> FaultWindow | None:
        material = f"{self.seed}:{kind.value}:{epoch_index}:{bucket}".encode("utf-8")
        rng = random.Random(zlib.crc32(material))
        if rng.random() >= rate:
            return None
        epoch_start = epoch_index * self.profile.epoch
        low, high = self.profile.window_duration
        duration = min(rng.uniform(low, high), self.profile.epoch)
        start = epoch_start + rng.uniform(0.0, max(self.profile.epoch - duration, 0.0))
        magnitude = rng.uniform(*self.profile.latency_extra)
        return FaultWindow(kind=kind, start=start, end=start + duration, magnitude=magnitude)

    def faults_at(self, host: str, now: float) -> set[FaultKind]:
        """All window kinds open for ``host`` at virtual time ``now``."""
        return {kind for kind in WINDOWED_KINDS if self.window_for(kind, host, now) is not None}

    # -- exchange hooks ------------------------------------------------------

    def extra_latency(self, host: str, now: float) -> float:
        """Additional seconds of latency for an exchange starting at ``now``."""
        window = self.window_for(FaultKind.LATENCY_SPIKE, host, now)
        if window is None:
            return 0.0
        self.stats.latency_spikes += 1
        return window.magnitude

    def intercept(self, request: Request, now: float) -> Response | None:
        """Chance to hijack an exchange before the host sees it.

        Returns an injected response, ``None`` to pass through, or raises
        :class:`ConnectionFailedError` for an outage.
        """
        host = request.url.host.lower()
        if self.window_for(FaultKind.OUTAGE, host, now) is not None:
            self.stats.outages += 1
            raise ConnectionFailedError(f"{host} (chaos outage)")

        if self.window_for(FaultKind.RATE_LIMIT_STORM, host, now) is not None:
            if self._draw_rng.random() < self.profile.storm_intensity:
                self.stats.rate_limited += 1
                return self._rate_limit_response()

        if self.window_for(FaultKind.CAPTCHA_SURGE, host, now) is not None:
            hijacked = self._captcha_gate(request)
            if hijacked is not None:
                return hijacked

        if self.window_for(FaultKind.ERROR_BURST, host, now) is not None:
            if self._draw_rng.random() < self.profile.error_intensity:
                self.stats.error_responses += 1
                return Response.text("chaos: upstream unavailable", status=503)
        return None

    def mangle(self, request: Request, response: Response, now: float) -> Response:
        """Post-process a real response (body truncation)."""
        rate = self.profile.truncation_rate
        if rate <= 0 or response.status != 200 or len(response.body) < 64:
            return response
        if self._draw_rng.random() >= rate:
            return response
        self.stats.truncated_responses += 1
        response.body = response.body[: len(response.body) // 2]
        return response

    # -- injected walls ------------------------------------------------------

    def _rate_limit_response(self) -> Response:
        response = Response.text("chaos: rate limit storm", status=429)
        if self._draw_rng.random() < self.profile.garbage_retry_after:
            response.headers["Retry-After"] = "a while"
        else:
            response.headers["Retry-After"] = f"{self._draw_rng.uniform(1.0, 8.0):.2f}"
        return response

    def _captcha_gate(self, request: Request) -> Response | None:
        """Serve/verify a surge captcha; ``None`` lets the request through."""
        if self._captcha is None:  # unbound schedule: consult-only mode
            return None
        client = request.client_id
        challenge_id = request.param("captcha_id")
        answer = request.param("captcha_answer")
        if challenge_id and answer is not None:
            if self._captcha.verify(challenge_id, answer):
                self._clearances[client] = self.CAPTCHA_CLEARANCE
                return None
            return self._challenge_response()
        remaining = self._clearances.get(client, 0)
        if remaining > 0:
            self._clearances[client] = remaining - 1
            return None
        if self._draw_rng.random() >= self.profile.captcha_intensity:
            return None
        return self._challenge_response()

    def _challenge_response(self) -> Response:
        assert self._captcha is not None
        self.stats.captcha_walls += 1
        return challenge_page(self._captcha)
