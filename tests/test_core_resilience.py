"""Unit tests for circuit breakers, retry policy/budget, and the fault ledger."""

import random

import pytest

from repro.core.resilience import (
    CircuitBreaker,
    CircuitBreakerRegistry,
    CircuitOpenError,
    CircuitState,
    FaultLedger,
    FaultRecord,
    RetryBudget,
    RetryPolicy,
    root_error_class,
)
from repro.web.network import ConnectionFailedError, VirtualClock


# -- circuit breaker --------------------------------------------------------


def test_breaker_trips_after_threshold():
    clock = VirtualClock()
    breaker = CircuitBreaker(clock, failure_threshold=3, recovery_time=100.0)
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state is CircuitState.CLOSED
    breaker.record_failure()
    assert breaker.state is CircuitState.OPEN
    with pytest.raises(CircuitOpenError):
        breaker.check("dead.sim")


def test_breaker_success_resets_consecutive_count():
    clock = VirtualClock()
    breaker = CircuitBreaker(clock, failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is CircuitState.CLOSED


def test_breaker_half_open_probe_closes_circuit():
    clock = VirtualClock()
    breaker = CircuitBreaker(clock, failure_threshold=1, recovery_time=60.0, half_open_successes=2)
    breaker.record_failure()
    assert breaker.state is CircuitState.OPEN
    clock.advance(61.0)
    breaker.check("host")  # transitions to HALF_OPEN
    assert breaker.state is CircuitState.HALF_OPEN
    breaker.record_success()
    assert breaker.state is CircuitState.HALF_OPEN
    breaker.record_success()
    assert breaker.state is CircuitState.CLOSED


def test_breaker_half_open_failure_reopens():
    clock = VirtualClock()
    breaker = CircuitBreaker(clock, failure_threshold=1, recovery_time=60.0)
    breaker.record_failure()
    clock.advance(61.0)
    breaker.check("host")
    breaker.record_failure()
    assert breaker.state is CircuitState.OPEN
    assert breaker.times_opened == 2
    with pytest.raises(CircuitOpenError):
        breaker.check("host")


def test_breaker_open_error_carries_retry_time():
    clock = VirtualClock(start=10.0)
    breaker = CircuitBreaker(clock, failure_threshold=1, recovery_time=50.0)
    breaker.record_failure()
    with pytest.raises(CircuitOpenError) as excinfo:
        breaker.check("dead.sim")
    assert excinfo.value.host == "dead.sim"
    assert excinfo.value.retry_at == pytest.approx(60.0)


def test_registry_is_per_host_and_counts_short_circuits():
    clock = VirtualClock()
    registry = CircuitBreakerRegistry(clock, failure_threshold=1)
    registry.record_failure("a.sim")
    registry.check("b.sim")  # independent host unaffected
    with pytest.raises(CircuitOpenError):
        registry.check("A.SIM")  # case-insensitive host keys
    assert registry.open_hosts() == ["a.sim"]
    assert registry.short_circuits == 1


def open_by_full_scan(registry: CircuitBreakerRegistry) -> list[str]:
    """What ``open_hosts`` answered by reading every breaker it ever made."""
    return sorted(host for host, state in registry.state_dict().items() if state["state"] == "open")


def test_open_hosts_matches_full_scan_over_a_seeded_walk():
    """Failures, successes, checks and clock jumps over 60 hosts, with whole
    round trips into a fresh registry and a replica fed per touched key the
    way the journal replays: every step, both answer like the full scan."""
    rng = random.Random(23)
    clock = VirtualClock()
    settings = {"failure_threshold": 2, "recovery_time": 100.0, "half_open_successes": 2}
    hosts = [f"h{index}.sim" for index in range(60)]
    registry = CircuitBreakerRegistry(clock, **settings)
    registry.track_touches()
    replica = CircuitBreakerRegistry(clock, **settings)
    round_trips = reclosed = most_open = 0
    for _ in range(3000):
        host = rng.choice(hosts)
        roll = rng.random()
        if roll < 0.35:
            registry.record_failure(host)
        elif roll < 0.65:
            was_half_open = registry.breaker(host).state is CircuitState.HALF_OPEN
            registry.record_success(host)
            if was_half_open and registry.breaker(host).state is CircuitState.CLOSED:
                reclosed += 1
        elif roll < 0.9:
            try:
                registry.check(host.upper())
            except CircuitOpenError:
                pass
        elif roll < 0.97:
            clock.advance(rng.choice((30.0, 120.0)))
        else:
            fresh = CircuitBreakerRegistry(clock, **settings)
            fresh.restore_state(registry.state_dict())
            fresh.track_touches()
            registry = fresh
            round_trips += 1
        replica.restore_state(registry.state_dict(registry.drain_touched()))
        expected = open_by_full_scan(registry)
        assert registry.open_hosts() == expected
        assert replica.open_hosts() == expected == open_by_full_scan(replica)
        most_open = max(most_open, len(expected))
    assert round_trips and reclosed and most_open >= 3


def test_open_hosts_reads_no_breaker_that_never_failed():
    clock = VirtualClock()
    registry = CircuitBreakerRegistry(clock, failure_threshold=1)
    for index in range(1000):
        registry.check(f"ok{index}.sim")
        registry.record_success(f"ok{index}.sim")
    registry.record_failure("down-a.sim")
    registry.record_failure("down-b.sim")
    read: list[CircuitBreaker] = []

    class Watched(CircuitBreaker):
        @property
        def state(self) -> CircuitState:
            read.append(self)
            return self._state

    for host in registry.state_dict():
        registry.breaker(host).__class__ = Watched
    assert registry.open_hosts() == ["down-a.sim", "down-b.sim"]
    tripped = {id(registry.breaker("down-a.sim")), id(registry.breaker("down-b.sim"))}
    assert read and {id(breaker) for breaker in read} <= tripped


# -- retry policy / budget --------------------------------------------------


def test_retry_policy_exponential_schedule():
    policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0, max_delay=5.0)
    assert policy.delay(0) == 1.0
    assert policy.delay(1) == 2.0
    assert policy.delay(2) == 4.0
    assert policy.delay(3) == 5.0  # capped
    assert policy.should_retry(3)
    assert not policy.should_retry(4)


def test_retry_policy_jitter_is_bounded_and_seeded():
    import random

    policy = RetryPolicy(base_delay=2.0, jitter=0.5)
    delays = [policy.delay(0, random.Random(5)) for _ in range(3)]
    assert delays[0] == delays[1] == delays[2]  # same seed, same draw
    assert 1.0 <= delays[0] <= 3.0


def test_retry_budget_denies_when_spent():
    budget = RetryBudget(2)
    assert budget.spend() and budget.spend()
    assert not budget.spend()
    assert budget.exhausted
    assert budget.denied == 1
    assert budget.remaining == 0


# -- fault ledger -----------------------------------------------------------


def test_ledger_records_and_aggregates():
    ledger = FaultLedger()
    ledger.record("crawl", "top.gg.sim", ConnectionFailedError("top.gg.sim"), 12.5, bots_skipped=1)
    ledger.record("crawl", "top.gg.sim", "MalformedPage", 14.0, bots_skipped=1)
    ledger.record("code", "github.sim", ConnectionFailedError("github.sim"), 99.0)
    assert len(ledger) == 3
    assert ledger.count("crawl") == 2
    assert ledger.bots_skipped("crawl") == 2
    assert ledger.total_bots_skipped == 2
    assert ledger.by_stage() == {"crawl": 2, "code": 1}
    assert ledger.by_error_class() == {"ConnectionFailedError": 2, "MalformedPage": 1}
    assert "2 bots skipped" in ledger.summary_line()


def test_ledger_uses_root_cause_class():
    try:
        try:
            raise ConnectionFailedError("x.sim")
        except ConnectionFailedError as inner:
            raise RuntimeError("wrapped") from inner
    except RuntimeError as outer:
        assert root_error_class(outer) == "ConnectionFailedError"
        ledger = FaultLedger()
        ledger.record("s", "x.sim", outer, 0.0)
        assert ledger.records[0].error_class == "ConnectionFailedError"


def test_ledger_json_round_trip_is_canonical():
    ledger = FaultLedger()
    ledger.record("crawl", "h.sim", "OutageError", 1.23456789, bots_skipped=3, detail="d")
    payload = ledger.to_json()
    restored = FaultLedger.from_dict(__import__("json").loads(payload))
    assert restored.to_json() == payload
    assert restored.records[0] == FaultRecord(
        stage="crawl", host="h.sim", error_class="OutageError", virtual_time=1.234568, bots_skipped=3, detail="d"
    )
