"""Regression tests for a cluster of accounting and protocol bugs.

Each class pins one defect that silently corrupted accounting or protocol
behaviour:

* ``Retry-After`` rounded to nearest, so sub-0.5s hints emitted ``0`` — a
  busy-spin invitation the admission queue's own ``min_retry_after``
  exists to prevent.
* ``Bulkhead.release_last`` shrank whichever lease happened to be newest,
  so two interleaved requests released each other's slots.
* Index-based fault-ledger marks broke the moment the bounded ring
  trimmed: ``del records[:excess]`` shifts every index, and a later slice
  shipped pre-stage records as the stage's delta.
* ``LatencyReservoir.percentile`` boundary behaviour (p=0, p=100, exact
  interpolation) guards the p50/p99 numbers ops dashboards alert on.
"""

from __future__ import annotations

import pytest

from repro.core.resilience import FaultLedger
from repro.serving.admission import AdmissionQueue, Bulkhead
from repro.serving.metrics import LatencyReservoir
from repro.serving.service import retry_after_header


class TestRetryAfterHeader:
    def test_sub_second_hint_never_becomes_zero(self):
        assert retry_after_header(0.2) == "1"
        assert retry_after_header(0.49) == "1"

    def test_fractional_seconds_round_up_not_nearest(self):
        assert retry_after_header(1.2) == "2"
        assert retry_after_header(59.01) == "60"

    def test_whole_seconds_pass_through(self):
        assert retry_after_header(5.0) == "5"

    def test_floor_applies_to_zero_and_negative(self):
        assert retry_after_header(0.0) == "1"
        assert retry_after_header(-3.0) == "1"

    def test_queue_min_retry_after_survives_the_header(self):
        """End-to-end: a shed decision's sub-second hint is still >= 1s."""
        queue = AdmissionQueue(capacity=1)
        queue.admit(0.0)
        queue.settle(0.3)
        shed = queue.admit(0.0)
        assert shed is not None
        assert int(retry_after_header(shed.retry_after)) >= 1


class TestBulkheadLeaseIdentity:
    def test_interleaved_releases_shrink_the_right_lease(self):
        """Request A (long) and B (short) interleave: B finishing early must
        shrink B's lease, not A's — the old release_last shrank whichever
        acquire happened most recently."""
        bulkhead = Bulkhead(stage="honeypot", limit=2)
        lease_a = bulkhead.acquire(0.0, cost=100.0, max_wait=0.0)
        lease_b = bulkhead.acquire(0.0, cost=50.0, max_wait=0.0)
        bulkhead.release(lease_b, 10.0)
        assert lease_b.expiry == 10.0
        assert lease_a.expiry == 100.0
        # A slot is genuinely free at t=20 now that B drained at 10.
        lease_c = bulkhead.acquire(20.0, cost=5.0, max_wait=0.0)
        assert lease_c.start == 20.0

    def test_release_never_grows_a_lease(self):
        bulkhead = Bulkhead(stage="code", limit=1)
        lease = bulkhead.acquire(0.0, cost=10.0, max_wait=0.0)
        bulkhead.release(lease, 500.0)
        assert lease.expiry == 10.0

    def test_queued_acquire_starts_at_freed_slot(self):
        bulkhead = Bulkhead(stage="traceability", limit=1)
        first = bulkhead.acquire(0.0, cost=30.0, max_wait=0.0)
        second = bulkhead.acquire(5.0, cost=10.0, max_wait=60.0)
        assert second.start == first.expiry == 30.0
        assert second.expiry == 40.0


class TestTrimmedLedgerMarks:
    def test_mark_survives_ring_trim(self):
        ledger = FaultLedger(max_records=4)
        for index in range(3):
            ledger.record("stage", "host", "Boom", float(index))
        mark = ledger.mark()
        for index in range(3, 9):
            ledger.record("stage", "host", "Boom", float(index))
        since = ledger.records_since(mark)
        # Records 3..8 landed after the mark; the ring keeps the last 4 of
        # them — but never resurfaces records 0..2 from before the mark.
        assert all(record.virtual_time >= 3.0 for record in since)
        assert len(since) == 4
        assert ledger.drop_offset == 5

    def test_mark_before_any_trim_behaves_like_index(self):
        ledger = FaultLedger()
        mark = ledger.mark()
        ledger.record("stage", "host", "Boom", 1.0)
        assert [record.virtual_time for record in ledger.records_since(mark)] == [1.0]

    def test_serialization_round_trips_drop_offset(self):
        ledger = FaultLedger(max_records=2)
        for index in range(5):
            ledger.record("stage", "host", "Boom", float(index))
        clone = FaultLedger.from_dict(ledger.to_dict())
        assert clone.drop_offset == ledger.drop_offset == 3
        assert clone.mark() == ledger.mark()


class TestLatencyReservoirBoundaries:
    def test_empty_reservoir_is_zero(self):
        assert LatencyReservoir().percentile(50) == 0.0

    def test_single_sample_is_every_percentile(self):
        reservoir = LatencyReservoir()
        reservoir.record(7.5)
        assert reservoir.percentile(0) == 7.5
        assert reservoir.percentile(50) == 7.5
        assert reservoir.percentile(100) == 7.5

    def test_p0_and_p100_hit_the_extremes(self):
        reservoir = LatencyReservoir()
        for value in (5.0, 1.0, 9.0, 3.0):
            reservoir.record(value)
        assert reservoir.percentile(0) == 1.0
        assert reservoir.percentile(100) == 9.0

    def test_linear_interpolation_between_ranks(self):
        reservoir = LatencyReservoir()
        for value in (10.0, 20.0):
            reservoir.record(value)
        assert reservoir.percentile(50) == pytest.approx(15.0)
        assert reservoir.percentile(25) == pytest.approx(12.5)

    def test_percentile_does_not_mutate_order(self):
        reservoir = LatencyReservoir()
        for value in (3.0, 1.0, 2.0):
            reservoir.record(value)
        reservoir.percentile(99)
        assert list(reservoir.samples) == [3.0, 1.0, 2.0]
