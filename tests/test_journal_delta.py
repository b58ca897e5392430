"""Unit records carry only what the unit touched, and replay rebuilds the rest.

The write-ahead journal stores, per unit, the keys of small components
whose value changed, the keys keyed containers report as touched, and RNG
states as positions when their words did not move.  These tests pin that
encoding down, bound the journal scan's memory, guard the WAL against
growing superlinearly again, and check — at *every* record, not only at
the points the crash matrix kills at — that replaying a stage's prefix
rebuilds exactly the world the live run had.
"""

from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from repro.core.checkpoint import STAGE_HONEYPOT
from repro.core.config import PipelineConfig
from repro.core.journal import UnitTracker, WriteAheadJournal
from repro.core.pipeline import _UNIT_STAGES, AssessmentPipeline
from repro.core.resilience import CircuitBreakerRegistry, CircuitOpenError, FaultLedger, RetryBudget
from repro.core.supervision import QuarantineLog
from repro.scraper.robots import RobotsCache
from repro.web.captcha import TwoCaptchaClient
from repro.web.client import CookieJar
from repro.web.http import Request, Response, Url
from repro.web.network import VirtualClock, VirtualInternet, restore_rng, rng_state
from repro.web.server import VirtualHost


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Scraper:
    """The scraper surface the tracker reads: small state plus two keyed jars."""

    def __init__(self) -> None:
        self.rng = random.Random(5)
        self.pages = 0
        self.robots = RobotsCache()
        self.cookies = CookieJar()

    def state_dict(self) -> dict:
        return {"rng": rng_state(self.rng), "pages": self.pages}

    def restore_state(self, state: dict) -> None:
        restore_rng(self.rng, state["rng"])
        self.pages = state["pages"]
        self.robots.restore_state(state.get("robots", {}))
        self.cookies.restore_state(state.get("cookies", {}))


def _world():
    clock = VirtualClock()
    internet = VirtualInternet(clock, seed=3)
    for name in ("a.example", "b.example", "c.example"):
        host = VirtualHost(name)
        host.add_route("/", lambda request: Response.text("ok"))
        internet.register(name, host)
    breakers = CircuitBreakerRegistry(clock)
    solver = TwoCaptchaClient(clock, seed=4)
    scraper = _Scraper()
    tracker = UnitTracker(
        clock, internet, FaultLedger(), QuarantineLog(),
        breakers=breakers, budget=RetryBudget(10), solver=solver, scraper=scraper,
    )
    return clock, internet, breakers, solver, scraper, tracker


def _get(internet: VirtualInternet, host: str) -> None:
    internet.exchange(Request(method="GET", url=Url.parse(f"https://{host}/"), client_id="tester"))


# -- the record encoding ------------------------------------------------------


def test_keyed_containers_record_only_touched_keys() -> None:
    _, internet, breakers, _, scraper, tracker = _world()
    _get(internet, "a.example")
    breakers.record_failure("b.example")
    scraper.cookies.set("a.example", "session", "1")
    body = tracker.finish_unit(None)
    assert set(body["state"]["hosts"]) == {"a.example"}
    assert set(body["state"]["breakers"]) == {"b.example"}
    assert body["state"]["cookies"] == {"a.example": {"session": "1"}}

    tracker.begin_unit()
    breakers.check("b.example")  # a closed breaker does not change on a check
    body = tracker.finish_unit(None)
    assert "breakers" not in body.get("state", {})
    assert "hosts" not in body.get("state", {})


def test_breaker_records_follow_every_state_change() -> None:
    """Random check/success/failure traffic through open, half-open and
    closed states: the replayed registry matches after every unit."""
    clock, _, breakers, _, _, tracker = _world()
    _, _, fresh_breakers, _, _, fresh = _world()
    rng = random.Random(11)
    for _ in range(400):
        tracker.begin_unit()
        host = rng.choice(("a.example", "b.example"))
        operation = rng.random()
        if operation < 0.3:
            try:
                breakers.check(host)
            except CircuitOpenError:
                pass
        elif operation < 0.55:
            breakers.record_success(host)
        elif operation < 0.9:
            breakers.record_failure(host)
        else:
            clock.advance(rng.choice((30.0, 400.0)))
        fresh.apply(tracker.finish_unit(None))
        assert fresh_breakers.state_dict() == breakers.state_dict()
    assert breakers.breaker("a.example").times_opened and breakers.short_circuits


def test_small_components_record_only_changed_keys() -> None:
    _, _, _, _, scraper, tracker = _world()
    scraper.pages = 3
    body = tracker.finish_unit(None)
    assert body["state"]["scraper"] == {"pages": 3}
    assert "solver" not in body["state"]


def test_rng_states_are_recorded_as_positions_until_their_words_move() -> None:
    _, _, _, _, scraper, tracker = _world()
    scraper.rng.random()  # a fresh seed's first draw twists: every word moves
    assert tracker.finish_unit(None)["state"]["scraper"]["rng"] == rng_state(scraper.rng)

    tracker.begin_unit()
    scraper.rng.random()
    position = rng_state(scraper.rng)[1][-1]
    assert tracker.finish_unit(None)["state"]["scraper"]["rng"] == {"rng_pos": position}

    tracker.begin_unit()
    for _ in range(700):  # crosses the next twist
        scraper.rng.random()
    assert tracker.finish_unit(None)["state"]["scraper"]["rng"] == rng_state(scraper.rng)


def test_replay_merges_positions_and_touched_keys() -> None:
    clock, internet, breakers, _, scraper, tracker = _world()
    bodies = []
    for unit in range(4):
        tracker.begin_unit()
        clock.advance(1.0)
        _get(internet, ("a.example", "b.example")[unit % 2])
        breakers.record_failure("c.example")
        for _ in range(300):
            scraper.rng.random()
        scraper.pages += 1
        bodies.append(tracker.finish_unit({"unit": unit}))

    fresh_clock, fresh_internet, fresh_breakers, _, fresh_scraper, fresh = _world()
    for body in bodies:
        fresh.apply(body)
    assert fresh_clock.now() == clock.now()
    assert rng_state(fresh_scraper.rng) == rng_state(scraper.rng)
    assert fresh_scraper.pages == scraper.pages
    assert fresh_breakers.state_dict() == breakers.state_dict()
    for name in internet.hostnames():
        assert fresh_internet.host(name).state_dict() == internet.host(name).state_dict()
    assert fresh_internet.state_dict() == internet.state_dict()


def test_whole_state_records_still_replay() -> None:
    """A record in the pre-delta format — every component whole — replays."""
    _, internet, breakers, solver, scraper, _ = _world()
    _get(internet, "a.example")
    breakers.record_failure("b.example")
    scraper.robots.restore_state({"a.example": {"crawl_delay": 1.0, "disallowed": ["/x"], "fetched": True}})
    scraper.rng.random()
    whole = {
        "result": None,
        "clock": 5.0,
        "state": {
            "internet": internet.state_dict(),
            "hosts": {name: internet.host(name).state_dict() for name in internet.hostnames()},
            "breakers": breakers.state_dict(),
            "solver": solver.state_dict(),
            "scraper": {**scraper.state_dict(), "robots": scraper.robots.state_dict(), "cookies": {}},
        },
    }
    _, fresh_internet, fresh_breakers, _, fresh_scraper, fresh = _world()
    fresh.apply(whole)
    assert fresh_internet.state_dict() == internet.state_dict()
    assert fresh_internet.host("a.example").requests_served == 1
    assert fresh_breakers.state_dict() == breakers.state_dict()
    assert fresh_scraper.robots.state_dict() == scraper.robots.state_dict()
    assert rng_state(fresh_scraper.rng) == rng_state(scraper.rng)


# -- the scan's memory ----------------------------------------------------------


def _scan_peak(tmp_path, records: int) -> int:
    path = tmp_path / f"wal-{records}"
    writer = WriteAheadJournal(path, fsync_every=0)
    for index in range(records):
        writer.append("stage", f"unit-{index}", {"result": {"index": index, "padding": "x" * 200}})
    writer.close()
    tracemalloc.start()
    try:
        journal = WriteAheadJournal(path)
        assert journal.pending("other") == []
        journal.close()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_journal_scan_memory_does_not_grow_with_other_stages_records(tmp_path) -> None:
    small = _scan_peak(tmp_path, 200)
    large = _scan_peak(tmp_path, 2_000)
    assert large < small * 1.5 + 16 * 1024, f"scan peak {large} B over 2,000 records vs {small} B over 200"


# -- whole runs -----------------------------------------------------------------


def _result_bytes(path) -> int:
    total = 0
    with open(path, "rb") as journal:
        for line in journal:
            result = json.loads(line)["body"].get("result")
            if result is not None:
                total += len(_canonical(result).encode("utf-8"))
    return total


def test_wal_stays_within_three_times_its_results(tmp_path) -> None:
    path = tmp_path / "journal.wal"
    config = PipelineConfig(
        n_bots=300, seed=7, honeypot_sample_size=30, validation_sample_size=10,
        chaos_profile="hostile", chaos_seed=1, journal_path=str(path),
    )
    AssessmentPipeline(config).run()
    wal = path.stat().st_size
    results = _result_bytes(path)
    assert wal <= 3 * results, f"WAL {wal} B is {wal / results:.1f}x the {results} B of results it carries"


#: The crash matrix's base configuration, sequential.
_MATRIX = dict(
    n_bots=48, seed=7, honeypot_sample_size=8, validation_sample_size=10,
    chaos_profile="hostile", chaos_seed=1, adversarial_bots=2,
)


def _whole(pipeline, scraper) -> str:
    """Every tracked component captured whole, as the pre-delta tracker did."""
    world = pipeline.world
    internet = world.internet
    return _canonical({
        "clock": world.clock.now(),
        "internet": internet.state_dict(),
        "chaos": internet.chaos.state_dict(),
        "hosts": {name: internet.host(name).state_dict() for name in internet.hostnames()},
        "breakers": pipeline.breakers.state_dict(),
        "budget": scraper.retry_budget.state_dict(),
        "solver": world.solver.state_dict(),
        "scraper": {
            **scraper.state_dict(), "robots": scraper.robots.state_dict(), "cookies": scraper.cookies.state_dict(),
        },
    })


@pytest.fixture(scope="module")
def live_run(tmp_path_factory):
    """A journaled run's stage-start worlds and whole captures after every unit."""
    path = tmp_path_factory.mktemp("delta") / "journal.wal"
    config = PipelineConfig(**_MATRIX, journal_path=str(path))
    stages: dict[str, dict] = {}
    original = AssessmentPipeline._recorder

    def recorder(self, stage, scraper):
        made = original(self, stage, scraper)
        if stage not in _UNIT_STAGES or made is None:
            return made
        seen = stages[stage] = {"start": self._capture_world(), "start_whole": _whole(self, scraper), "after": []}
        commit = made.commit

        def recorded(key, result):
            record = commit(key, result)
            seen["after"].append(_whole(self, scraper))
            return record

        made.commit = recorded
        return made

    AssessmentPipeline._recorder = recorder
    try:
        AssessmentPipeline(config).run()
    finally:
        AssessmentPipeline._recorder = original
    return config, path, stages


@pytest.mark.parametrize("stage", sorted(_UNIT_STAGES))
def test_replaying_every_prefix_rebuilds_the_live_world(live_run, stage) -> None:
    config, path, stages = live_run
    live = stages[stage]
    records = WriteAheadJournal(path).pending(stage)
    assert len(records) == len(live["after"]) >= 5

    replica = AssessmentPipeline(PipelineConfig(**_MATRIX))
    world = replica.world
    replica._restore_world(live["start"])
    scraper_type, client_id = _UNIT_STAGES[stage][:2]
    scraper = scraper_type(
        world.internet, solver=world.solver, client_id=client_id,
        breakers=replica.breakers, retry_budget=replica._stage_budget(),
    )
    assert _whole(replica, scraper) == live["start_whole"]
    tracker = UnitTracker(
        world.clock, world.internet, replica.ledger, replica.quarantines,
        breakers=replica.breakers, budget=scraper.retry_budget, solver=world.solver, scraper=scraper,
    )
    for k, record in enumerate(records, start=1):
        tracker.apply(record.body)
        assert _whole(replica, scraper) == live["after"][k - 1], f"{stage}: replay of records 1..{k} diverged"


def test_the_honeypot_journals_only_its_stage_complete_record(live_run) -> None:
    # Platform state replays all-or-nothing, so a per-bot honeypot record
    # would never be replayed: the stage's one record is the one a resume
    # replays from.
    _, path, _ = live_run
    records = WriteAheadJournal(path).pending(STAGE_HONEYPOT)
    assert [record.key for record in records] == ["stage_complete"]
