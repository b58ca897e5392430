"""Tests for the virtual internet: clock, routing, latency, failures."""

import pytest

from repro.web.http import Request, Response, Url
from repro.web.network import (
    ConnectionFailedError,
    HostConditions,
    UnknownHostError,
    VirtualClock,
    VirtualInternet,
)
from repro.web.server import VirtualHost


def _make_host(body: str = "hello") -> VirtualHost:
    host = VirtualHost("t")
    host.add_route("/", lambda request: Response.text(body))
    return host


def _get(internet: VirtualInternet, url: str, client: str = "c") -> Response:
    response, _ = internet.exchange(Request("GET", Url.parse(url), client_id=client))
    return response


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_custom_start(self):
        assert VirtualClock(100.0).now() == 100.0


class TestRegistry:
    def test_unknown_host_raises(self, internet):
        with pytest.raises(UnknownHostError):
            _get(internet, "https://nope.sim/")

    def test_register_and_exchange(self, internet):
        internet.register("a.sim", _make_host("hi"))
        assert _get(internet, "https://a.sim/").body == "hi"

    def test_hostnames_sorted(self, internet):
        internet.register("b.sim", _make_host())
        internet.register("a.sim", _make_host())
        assert internet.hostnames() == ["a.sim", "b.sim"]

    def test_hostname_case_insensitive(self, internet):
        internet.register("A.Sim", _make_host("x"))
        assert _get(internet, "https://a.sim/").body == "x"

    def test_unregister(self, internet):
        internet.register("a.sim", _make_host())
        internet.unregister("a.sim")
        assert not internet.knows("a.sim")


class TestLatencyAndFailures:
    def test_latency_advances_clock(self, clock, internet):
        internet.register("a.sim", _make_host(), HostConditions(base_latency=2.0))
        _get(internet, "https://a.sim/")
        assert clock.now() == pytest.approx(2.0)

    def test_extra_latency_is_added(self, clock, internet):
        internet.register("a.sim", _make_host(), HostConditions(base_latency=1.0, extra_latency=3.0))
        _get(internet, "https://a.sim/")
        assert clock.now() == pytest.approx(4.0)

    def test_failure_rate_one_always_fails(self, clock, internet):
        internet.register("a.sim", _make_host(), HostConditions(failure_rate=1.0))
        with pytest.raises(ConnectionFailedError):
            _get(internet, "https://a.sim/")

    def test_failed_connection_still_costs_time(self, clock, internet):
        internet.register("a.sim", _make_host(), HostConditions(base_latency=5.0, failure_rate=1.0))
        with pytest.raises(ConnectionFailedError):
            _get(internet, "https://a.sim/")
        assert clock.now() == pytest.approx(5.0)

    def test_jitter_within_bounds(self):
        import random

        conditions = HostConditions(base_latency=1.0, latency_jitter=0.5)
        rng = random.Random(1)
        for _ in range(100):
            latency = conditions.sample_latency(rng)
            assert 1.0 <= latency <= 1.5


class TestAuditing:
    def test_log_records_exchanges(self, internet):
        internet.register("a.sim", _make_host())
        _get(internet, "https://a.sim/", client="scraper")
        assert len(internet.log) == 1
        record = internet.log[0]
        assert record.client_id == "scraper"
        assert record.status == 200
        assert record.url == "https://a.sim/"

    def test_request_rate_window(self, clock, internet):
        internet.register("a.sim", _make_host(), HostConditions(base_latency=1.0))
        for _ in range(10):
            _get(internet, "https://a.sim/", client="s")
        # 10 requests over 10 virtual seconds.
        assert internet.request_rate("s", window=10.0) == pytest.approx(1.0)

    def test_request_rate_rejects_bad_window(self, internet):
        with pytest.raises(ValueError):
            internet.request_rate("s", window=0)


class TestBoundedAccounting:
    def test_exchange_log_is_bounded(self):
        internet = VirtualInternet(log_limit=50)
        internet.register("a.sim", _make_host())
        for _ in range(200):
            _get(internet, "https://a.sim/", client="s")
        assert len(internet.log) == 50
        assert internet.exchanges_completed == 200
        # The log keeps the most recent window, not the oldest.
        assert internet.log[-1].time == max(record.time for record in internet.log)

    def test_request_rate_survives_history_trim(self):
        internet = VirtualInternet(rate_history=100)
        internet.register("a.sim", _make_host(), HostConditions(base_latency=1.0))
        for _ in range(500):  # far past 2x the history bound
            _get(internet, "https://a.sim/", client="s")
        # ~1 request per virtual second; the trailing window only needs the
        # most recent timestamps, which the trim preserves.
        assert internet.request_rate("s", window=50.0) == pytest.approx(1.0, abs=0.05)
        times = internet._client_times["s"]
        assert len(times) <= 200

    def test_request_rate_unknown_client_is_zero(self, internet):
        assert internet.request_rate("nobody", window=5.0) == 0.0


class TestFailedExchangeAuditing:
    """Failed exchanges are traffic the client sent — the audit must see them."""

    def test_dropped_connection_is_recorded(self, internet):
        internet.register("a.sim", _make_host(), HostConditions(base_latency=2.0, failure_rate=1.0))
        with pytest.raises(ConnectionFailedError):
            _get(internet, "https://a.sim/", client="scraper")
        assert len(internet.log) == 1
        record = internet.log[0]
        assert record.status == 0
        assert not record.ok
        assert record.error == "ConnectionFailedError"
        assert record.client_id == "scraper"
        assert record.latency == pytest.approx(2.0)
        assert internet.exchanges_failed == 1
        assert internet.exchanges_completed == 0
        assert internet.exchanges_total == 1

    def test_chaos_outage_is_recorded(self, clock, internet):
        from repro.web.chaos import FaultSchedule

        # Spread requests across many chaos epochs (outage windows are
        # scheduled in virtual time) so some land inside an outage.
        internet.register("a.sim", _make_host(), HostConditions(base_latency=300.0))
        internet.install_chaos(FaultSchedule("outage", seed=3))
        failures = 0
        for _ in range(300):
            try:
                _get(internet, "https://a.sim/", client="s")
            except ConnectionFailedError:
                failures += 1
        assert failures > 0  # the outage profile guarantees windows at this volume
        failed_records = [record for record in internet.log if not record.ok]
        assert len(failed_records) == failures
        assert all(record.error == "ConnectionFailedError" for record in failed_records)
        assert internet.exchanges_failed == failures
        assert internet.exchanges_total == 300

    def test_failed_exchanges_count_in_request_rate(self, clock, internet):
        internet.register("a.sim", _make_host(), HostConditions(base_latency=1.0, failure_rate=1.0))
        for _ in range(10):
            with pytest.raises(ConnectionFailedError):
                _get(internet, "https://a.sim/", client="s")
        # 10 attempted requests over 10 virtual seconds: the politeness
        # audit counts what was sent, not what succeeded.
        assert internet.request_rate("s", window=10.0) == pytest.approx(1.0)

    def test_successful_exchange_is_ok(self, internet):
        internet.register("a.sim", _make_host())
        _get(internet, "https://a.sim/")
        assert internet.log[0].ok
        assert internet.log[0].error == ""
