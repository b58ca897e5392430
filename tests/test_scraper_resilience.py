"""Failure-path tests for the scraper layer: garbage headers, dead pages,
captcha budget exhaustion and circuit breakers."""

import pytest

from repro.botstore import PAGE_SIZE
from repro.botstore.host import StoreDefenses, build_store_host
from repro.core.config import PipelineConfig
from repro.core.journal import StageRecorder, UnitTracker, WriteAheadJournal
from repro.core.resilience import CircuitBreakerRegistry, CircuitOpenError, FaultLedger, RetryBudget
from repro.core.supervision import QuarantineLog
from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
from repro.scraper.base import CaptchaBudgetExhaustedError, PoliteScraper, ScraperConfig
from repro.scraper.topgg import TOPGG_HOST, TopGGScraper
from repro.sites.discordweb import DiscordWebsite
from repro.web.browser import WebDriverException
from repro.web.captcha import TwoCaptchaClient
from repro.web.chaos import FaultSchedule
from repro.web.client import RequestTimeoutError
from repro.web.http import Response
from repro.web.network import ConnectionFailedError, VirtualClock, VirtualInternet
from repro.web.server import VirtualHost


@pytest.fixture
def store_world(internet, clock):
    ecosystem = generate_ecosystem(EcosystemConfig(n_bots=75, seed=31, honeypot_window=10))
    build_store_host(ecosystem, internet, StoreDefenses(captcha_enabled=False))
    DiscordWebsite(ecosystem).register(internet)
    solver = TwoCaptchaClient(clock, accuracy=1.0)
    return ecosystem, internet, solver


def _recording_sink(records):
    def sink(host, error, bots_skipped, detail):
        records.append((host, error, bots_skipped, detail))

    return sink


# -- Retry-After hardening ---------------------------------------------------


class TestRetryAfter:
    def _scraper(self, internet):
        return PoliteScraper(internet, config=ScraperConfig(retry_backoff=7.0, respect_robots=False))

    def _response_with(self, retry_after):
        response = Response.text("slow down", status=429)
        if retry_after is not None:
            response.headers["Retry-After"] = retry_after
        return response

    @pytest.mark.parametrize("garbage", ["a while", "soonish", "NaN", "inf", "-3", ""])
    def test_garbage_values_fall_back_to_backoff(self, internet, garbage):
        scraper = self._scraper(internet)
        assert scraper._retry_after_seconds(self._response_with(garbage)) == 7.0

    def test_garbage_values_are_counted(self, internet):
        scraper = self._scraper(internet)
        scraper._retry_after_seconds(self._response_with("a while"))
        scraper._retry_after_seconds(self._response_with("-1"))
        assert scraper.stats.malformed_retry_after == 2
        # Absent/blank headers fall back too, but are not "malformed".
        scraper._retry_after_seconds(self._response_with(None))
        assert scraper.stats.malformed_retry_after == 2

    def test_numeric_value_honoured(self, internet):
        scraper = self._scraper(internet)
        assert scraper._retry_after_seconds(self._response_with("3.5")) == 3.5

    def test_fetch_survives_garbage_header_end_to_end(self, internet):
        host = VirtualHost("grumpy")
        state = {"first": True}

        def handler(request):
            if state["first"]:
                state["first"] = False
                response = Response.text("rate limited", status=429)
                response.headers["Retry-After"] = "a while"
                return response
            return Response.html("<html><p>fine</p></html>")

        host.add_route("/page", handler)
        internet.register("grumpy.sim", host)
        scraper = self._scraper(internet)
        before = internet.clock.now()
        response = scraper.fetch("https://grumpy.sim/page")
        assert response.status == 200
        assert scraper.stats.malformed_retry_after == 1
        assert scraper.stats.rate_limited == 1
        # The wait used the configured backoff, not a parse of "a while".
        assert internet.clock.now() - before >= 7.0


# -- crawl degradation -------------------------------------------------------


class TestCrawlDegradation:
    def test_connection_failure_mid_pagination_degrades(self, store_world):
        ecosystem, internet, solver = store_world
        scraper = TopGGScraper(internet, solver=solver)
        original = scraper._scrape_list_page

        def flaky_list_page(page_number):
            if page_number >= 2:
                raise ConnectionFailedError("top.gg.sim")
            return original(page_number)

        scraper._scrape_list_page = flaky_list_page
        records = []
        result = scraper.crawl(resolve_permissions=False, on_fault=_recording_sink(records))
        assert len(result.bots) == 25  # page 1 only
        assert len(records) == 1
        host, error, skipped, detail = records[0]
        assert host == "top.gg.sim"
        assert isinstance(error, ConnectionFailedError)
        assert "pagination abandoned" in detail

    def test_connection_failure_without_sink_still_raises(self, store_world):
        ecosystem, internet, solver = store_world
        scraper = TopGGScraper(internet, solver=solver)

        def dead_list_page(page_number):
            raise ConnectionFailedError("top.gg.sim")

        scraper._scrape_list_page = dead_list_page
        with pytest.raises(ConnectionFailedError):
            scraper.crawl(resolve_permissions=False)

    def test_captcha_budget_exhaustion_aborts_crawl(self, internet, clock):
        ecosystem = generate_ecosystem(EcosystemConfig(n_bots=75, seed=31, honeypot_window=10))
        # Captcha walls every 10 requests, but funds for only one solve.
        build_store_host(
            ecosystem, internet, StoreDefenses(captcha_every=10, captcha_clearance=5)
        )
        DiscordWebsite(ecosystem).register(internet)
        broke_solver = TwoCaptchaClient(clock, balance=0.004, price_per_solve=0.003, accuracy=1.0)
        scraper = TopGGScraper(internet, solver=broke_solver)
        records = []
        result = scraper.crawl(resolve_permissions=False, on_fault=_recording_sink(records))
        assert len(result.bots) < len(ecosystem.bots)  # aborted early
        assert any(isinstance(r[1], CaptchaBudgetExhaustedError) for r in records)
        assert any("crawl aborted" in r[3] for r in records)

    def test_captcha_budget_exhaustion_without_sink_raises(self, internet, clock):
        ecosystem = generate_ecosystem(EcosystemConfig(n_bots=75, seed=31, honeypot_window=10))
        build_store_host(
            ecosystem, internet, StoreDefenses(captcha_every=10, captcha_clearance=5)
        )
        DiscordWebsite(ecosystem).register(internet)
        broke_solver = TwoCaptchaClient(clock, balance=0.004, price_per_solve=0.003, accuracy=1.0)
        scraper = TopGGScraper(internet, solver=broke_solver)
        with pytest.raises(CaptchaBudgetExhaustedError):
            scraper.crawl(resolve_permissions=False)


class StoreOutage(FaultSchedule):
    """Drops every connection to the store for ``duration`` virtual seconds
    from the first request for list page ``page``.  With ``page_only``,
    only that page's requests fail, and for good."""

    def __init__(self, page: int, duration: float = float("inf"), page_only: bool = False) -> None:
        super().__init__("calm")
        self.page_query = f"page={page}"
        self.duration = duration
        self.page_only = page_only
        self.start = None

    def intercept(self, request, now):
        url = request.url
        if url.host == TOPGG_HOST:
            on_page = url.path == "/list/top" and url.query == self.page_query
            if self.start is None and on_page:
                self.start = now
            if self.start is not None and now < self.start + self.duration and (on_page or not self.page_only):
                raise ConnectionFailedError(f"{TOPGG_HOST} (outage)")
        return super().intercept(request, now)


class SlowListPage(FaultSchedule):
    """Times out every request for list page ``page``: slow, not dead."""

    def __init__(self, page: int) -> None:
        super().__init__("calm")
        self.page_query = f"page={page}"

    def intercept(self, request, now):
        url = request.url
        if url.host == TOPGG_HOST and url.path == "/list/top" and url.query == self.page_query:
            raise RequestTimeoutError(str(url), 10.0)
        return super().intercept(request, now)


class RobotsBarTheList(FaultSchedule):
    """Serves the store a robots.txt that disallows its list pages."""

    def __init__(self) -> None:
        super().__init__("calm")

    def intercept(self, request, now):
        if request.url.host == TOPGG_HOST and request.url.path == "/robots.txt":
            return Response.text("User-agent: *\nDisallow: /list/\n")
        return super().intercept(request, now)


class DeadListPages(FaultSchedule):
    """Drops every request for list pages ``first`` and later, for good."""

    def __init__(self, first: int) -> None:
        super().__init__("calm")
        self.first = first

    def intercept(self, request, now):
        url = request.url
        if url.host == TOPGG_HOST and url.path == "/list/top" and int(url.query.partition("=")[2]) >= self.first:
            raise ConnectionFailedError(f"{TOPGG_HOST} (list pages down)")
        return super().intercept(request, now)


def _journaled_dead_store_crawl(wal, max_pages=None):
    """One crawl session in a fresh world whose list pages from 2 on are
    dead, committing its pages to the WAL at ``wal`` as a new process would.

    Returns the result, the session's ledger and its clock.
    """
    clock = VirtualClock()
    internet = VirtualInternet(clock, seed=7)
    ecosystem = generate_ecosystem(EcosystemConfig(n_bots=75, seed=31, honeypot_window=10))
    build_store_host(ecosystem, internet, StoreDefenses(captcha_enabled=False))
    DiscordWebsite(ecosystem).register(internet)
    internet.install_chaos(DeadListPages(2))
    solver = TwoCaptchaClient(clock, accuracy=1.0)
    breakers = CircuitBreakerRegistry(clock)
    scraper = TopGGScraper(internet, solver=solver, breakers=breakers, retry_budget=RetryBudget(500))
    ledger = FaultLedger()
    tracker = UnitTracker(
        clock,
        internet,
        ledger,
        QuarantineLog(),
        breakers=breakers,
        budget=scraper.retry_budget,
        solver=solver,
        scraper=scraper,
    )

    def sink(host, error, bots_skipped, detail):
        ledger.record("crawl", host, error, clock.now(), bots_skipped=bots_skipped, detail=detail)

    journal = WriteAheadJournal(wal)
    try:
        result = scraper.crawl(
            max_pages=max_pages,
            resolve_permissions=False,
            on_fault=sink,
            recorder=StageRecorder(journal, "crawl", tracker, ledger),
        )
    finally:
        journal.close()
    return result, ledger, clock


class TestListPageFaults:
    """A list page lost to a transport fault is retried, then skipped once
    its host's breaker has cooled down; a second lost cool-down, a refused
    retry, or retries of a fault the breaker cannot count end pagination."""

    PAGES = 3  # the 75-bot store

    def _crawl(self, store_world, clock, outage=None, budget=500):
        _, internet, solver = store_world
        if outage is not None:
            internet.install_chaos(outage)
        scraper = TopGGScraper(
            internet,
            solver=solver,
            breakers=CircuitBreakerRegistry(clock),
            retry_budget=RetryBudget(budget),
        )
        records = []
        result = scraper.crawl(resolve_permissions=False, on_fault=_recording_sink(records))
        return scraper, result, records

    @pytest.mark.parametrize(
        ("duration", "page_lost"),
        [
            (20.0, False),  # over within the backoff
            (90.0, False),  # trips the breaker; its cool-down is waited out
            (400.0, True),  # outlasts the cool-down: the probe after it fails
        ],
    )
    @pytest.mark.parametrize("page", range(1, PAGES + 1))
    def test_an_outage_on_any_list_page_loses_no_later_page(self, store_world, clock, page, duration, page_lost):
        ecosystem, _, _ = store_world
        _, result, records = self._crawl(store_world, clock, StoreOutage(page, duration))
        collected = {bot.listing_id for bot in result.bots}
        for number in range(1, self.PAGES + 1):
            listed = {bot.index for bot in ecosystem.bots[(number - 1) * PAGE_SIZE : number * PAGE_SIZE]}
            if number == page and page_lost:
                assert not listed & collected
            else:
                assert listed <= collected, f"page {number} lost to an outage on page {page}"
        details = [detail for *_, detail in records]
        if page_lost:
            assert details == [f"list page {page} unreachable after its host's circuit cooled down; its bots are lost"]
        else:
            assert details == []
            assert result.pages_traversed == self.PAGES

    @pytest.mark.parametrize("page", range(1, PAGES + 1))
    def test_a_page_still_dead_after_the_cool_down_is_skipped(self, store_world, clock, page):
        ecosystem, _, _ = store_world
        scraper, result, records = self._crawl(store_world, clock, StoreOutage(page, page_only=True))
        assert len(records) == 1
        host, error, skipped, detail = records[0]
        assert (host, skipped) == (TOPGG_HOST, 0)
        assert "circuit cooled down; its bots are lost" in detail
        assert isinstance(error.__cause__, ConnectionFailedError)
        assert result.pages_traversed == self.PAGES - 1
        assert len(result.bots) == len(ecosystem.bots) - PAGE_SIZE
        # The skip came after the breaker tripped and its cool-down passed.
        assert scraper.breakers.breaker(TOPGG_HOST).times_opened >= 1

    def test_a_page_still_dead_without_a_sink_raises_its_transport_error(self, store_world, clock):
        _, internet, solver = store_world
        internet.install_chaos(StoreOutage(2, page_only=True))
        scraper = TopGGScraper(
            internet, solver=solver, breakers=CircuitBreakerRegistry(clock), retry_budget=RetryBudget(500)
        )
        with pytest.raises(WebDriverException) as raised:
            scraper.crawl(resolve_permissions=False)
        assert isinstance(raised.value.__cause__, ConnectionFailedError)

    def test_a_refused_retry_ends_pagination(self, store_world, clock):
        _, result, records = self._crawl(store_world, clock, StoreOutage(2), budget=2)
        assert [detail for *_, detail in records] == ["list page 2 unreachable; pagination abandoned"]
        assert len(result.bots) == PAGE_SIZE

    @pytest.mark.parametrize("page", range(1, PAGES + 1))
    def test_a_dead_host_ends_pagination_at_the_next_page(self, store_world, clock, page):
        # The pipeline's defaults: a budget large enough that only the
        # breaker's cycle can stop the crawl, and no page limit.
        _, internet, solver = store_world
        internet.install_chaos(StoreOutage(page))
        breakers = CircuitBreakerRegistry(clock)
        scraper = TopGGScraper(
            internet,
            solver=solver,
            breakers=breakers,
            retry_budget=RetryBudget(PipelineConfig().stage_retry_budget),
        )
        records = []
        started = clock.now()
        result = scraper.crawl(resolve_permissions=False, on_fault=_recording_sink(records))
        # The page the host died on is skipped after one cool-down; the
        # next page began under the breaker its probe re-opened, and a
        # second lost cool-down ends pagination there.
        assert [detail for *_, detail in records] == [
            f"list page {page} unreachable after its host's circuit cooled down; its bots are lost",
            f"list page {page + 1} unreachable; pagination abandoned",
        ]
        assert len(result.bots) == (page - 1) * PAGE_SIZE
        assert clock.now() - started < 3 * breakers.recovery_time
        assert scraper.retry_budget.spent <= 2 * breakers.failure_threshold

    def test_a_resumed_crawl_stops_where_an_uninterrupted_one_does(self, tmp_path):
        control, control_ledger, control_clock = _journaled_dead_store_crawl(tmp_path / "control.wal")
        assert [record.detail for record in control_ledger.records] == [
            "list page 2 unreachable after its host's circuit cooled down; its bots are lost",
            "list page 3 unreachable; pagination abandoned",
        ]
        wal = tmp_path / "crawl.wal"
        # The first session ends right after committing the skipped page; the
        # second replays it, breaker state included, and decides page 3 alike.
        _journaled_dead_store_crawl(wal, max_pages=2)
        resumed, ledger, clock = _journaled_dead_store_crawl(wal)
        assert [record.to_dict() for record in ledger.records] == [
            record.to_dict() for record in control_ledger.records
        ]
        assert resumed.bots == control.bots
        assert clock.now() == control_clock.now()

    @pytest.mark.parametrize(
        ("faults", "page"),
        [(SlowListPage(2), 2), (RobotsBarTheList(), 1)],
        ids=["timeout", "robots"],
    )
    def test_a_failure_the_breaker_cannot_count_gets_the_policy_retries(self, store_world, clock, faults, page):
        scraper, result, records = self._crawl(store_world, clock, faults)
        assert [detail for *_, detail in records] == [f"list page {page} unreachable; pagination abandoned"]
        assert scraper.retry_budget.spent == scraper.retry_policy.max_attempts
        assert scraper.breakers.breaker(TOPGG_HOST).times_opened == 0
        assert len(result.bots) == (page - 1) * PAGE_SIZE


# -- circuit breakers in the fetch path -------------------------------------


class TestCircuitInFetch:
    def test_open_circuit_with_no_budget_short_circuits(self, store_world, clock):
        ecosystem, internet, solver = store_world
        breakers = CircuitBreakerRegistry(clock, failure_threshold=1)
        breakers.record_failure("top.gg.sim")
        scraper = TopGGScraper(
            internet, solver=solver, breakers=breakers, retry_budget=RetryBudget(0)
        )
        with pytest.raises(CircuitOpenError):
            scraper.fetch("https://top.gg.sim/list/top?page=1")
        assert scraper.stats.circuit_short_circuits == 1

    def test_open_circuit_is_waited_out_on_the_virtual_clock(self, store_world, clock):
        ecosystem, internet, solver = store_world
        breakers = CircuitBreakerRegistry(clock, failure_threshold=1, recovery_time=40.0)
        breakers.record_failure("top.gg.sim")
        scraper = TopGGScraper(
            internet, solver=solver, breakers=breakers, retry_budget=RetryBudget(10)
        )
        before = clock.now()
        response = scraper.fetch("https://top.gg.sim/list/top?page=1")
        assert response.status == 200
        assert clock.now() - before >= 40.0  # politely slept through recovery

    def test_successful_fetches_close_the_probing_circuit(self, store_world, clock):
        ecosystem, internet, solver = store_world
        breakers = CircuitBreakerRegistry(clock, failure_threshold=1, recovery_time=10.0)
        breakers.record_failure("top.gg.sim")
        scraper = TopGGScraper(
            internet, solver=solver, breakers=breakers, retry_budget=RetryBudget(10)
        )
        scraper.fetch("https://top.gg.sim/list/top?page=1")
        scraper.fetch("https://top.gg.sim/list/top?page=1")
        from repro.core.resilience import CircuitState

        assert breakers.breaker("top.gg.sim").state is CircuitState.CLOSED


# -- truncated consent pages -------------------------------------------------


class TestTruncatedConsentPage:
    """A consent page cut mid-token must degrade, not poison ``.permissions``.

    Chaos truncation can slice a body in the middle of a permission label;
    the mangled token used to be stored verbatim and crashed every later
    ``Permissions.from_names()`` call deep in the analysis stages.
    """

    def _bot(self, invite_url):
        from repro.scraper.topgg import ScrapedBot

        return ScrapedBot(
            listing_id=1,
            name="Chopped",
            developer_tag="dev#0001",
            tags=(),
            description="",
            guild_count=0,
            votes=0,
            invite_url=invite_url,
            website_url=None,
            github_url=None,
            built_with=None,
        )

    def test_unparseable_permission_tokens_are_dropped(self, internet):
        from repro.discordsim.permissions import Permission
        from repro.scraper.topgg import PermissionStatus

        truncated = (
            '<html><body><ul id="permission-list">'
            '<li class="permission-item">send messages</li>'
            '<li class="permission-item">create inv'
        )
        host = VirtualHost("consent")
        host.add_route("/oauth2/authorize", lambda request: Response.html(truncated))
        internet.register("consent.sim", host)
        scraper = TopGGScraper(internet, config=ScraperConfig(respect_robots=False))

        bot = self._bot("https://consent.sim/oauth2/authorize")
        status = scraper.resolve_permissions(bot)

        assert status is PermissionStatus.VALID
        assert bot.permission_names == ("send messages",)
        assert bot.permissions.has(Permission.SEND_MESSAGES)  # no KeyError
        assert scraper.stats.element_misses >= 1
