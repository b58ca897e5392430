"""Tests for the measurement scraper against the virtual sites."""

import collections
import pickle

import pytest

from repro.botstore.host import StoreDefenses, build_store_host
from repro.core.journal import StageRecorder, UnitTracker, WriteAheadJournal
from repro.core.resilience import FaultLedger
from repro.core.supervision import QuarantineLog
from repro.discordsim.permissions import Permission, Permissions
from repro.ecosystem.generator import EcosystemConfig, InviteStatus, generate_ecosystem
from repro.scraper import GitHubScraper, PermissionStatus, TopGGScraper, WebsiteScraper, try_locators
from repro.scraper.base import ScraperConfig
from repro.scraper.topgg import TOPGG_BASE, ScrapedBot, scraped_bot_from_dict, scraped_bot_to_dict
from repro.sites.botwebsites import BotWebsiteBuilder
from repro.sites.discordweb import DiscordWebsite
from repro.sites.github import GitHubSite
from repro.web.browser import By, WebDriverException
from repro.web.captcha import TwoCaptchaClient
from repro.web.network import VirtualClock, VirtualInternet


@pytest.fixture(scope="module")
def eco():
    return generate_ecosystem(EcosystemConfig(n_bots=150, seed=21, honeypot_window=30))


def _register_sites(eco, internet, clock) -> TwoCaptchaClient:
    build_store_host(eco, internet, StoreDefenses(captcha_every=100, captcha_clearance=100))
    DiscordWebsite(eco).register(internet)
    GitHubSite(eco).register(internet)
    BotWebsiteBuilder(eco).register(internet)
    return TwoCaptchaClient(clock, accuracy=1.0, seed=2)


@pytest.fixture
def world(eco, internet, clock):
    return eco, internet, _register_sites(eco, internet, clock)


class TestTopGGScraper:
    def test_crawl_recovers_every_listing(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        result = scraper.crawl(resolve_permissions=False)
        assert len(result.bots) == len(eco.bots)
        assert result.pages_traversed == (len(eco.bots) + 24) // 25

    def test_metadata_matches_ground_truth(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        result = scraper.crawl(resolve_permissions=False)
        truth = {bot.name: bot for bot in eco.bots}
        for scraped in result.bots:
            expected = truth[scraped.name]
            assert scraped.developer_tag == expected.developer_tag
            assert scraped.guild_count == expected.guild_count
            assert scraped.votes == expected.votes
            assert set(scraped.tags) == set(expected.tags)
            assert scraped.website_url == expected.website_url
            assert scraped.github_url == expected.github_url

    def test_permission_resolution_classes(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        result = scraper.crawl()
        truth = {bot.name: bot for bot in eco.bots}
        expected_status = {
            InviteStatus.VALID: PermissionStatus.VALID,
            InviteStatus.MALFORMED: PermissionStatus.INVALID_LINK,
            InviteStatus.REMOVED: PermissionStatus.REMOVED,
            InviteStatus.SLOW_REDIRECT: PermissionStatus.TIMEOUT,
        }
        for scraped in result.bots:
            assert scraped.permission_status == expected_status[truth[scraped.name].invite_status]

    def test_permissions_match_ground_truth_exactly(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        result = scraper.crawl()
        truth = {bot.name: bot for bot in eco.bots}
        for scraped in result.with_valid_permissions():
            assert scraped.permissions == truth[scraped.name].permissions

    def test_captcha_wall_is_defeated(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        scraper.crawl(resolve_permissions=False)
        assert scraper.stats.captchas_seen >= 1
        assert scraper.stats.captchas_solved == scraper.stats.captchas_seen
        assert solver.total_spent > 0

    def test_captcha_without_solver_raises(self, eco, internet):
        build_store_host(eco, internet, StoreDefenses(captcha_every=1))
        scraper = TopGGScraper(internet, solver=None)
        with pytest.raises(WebDriverException):
            scraper.crawl(resolve_permissions=False, max_pages=1)

    def test_max_pages_limit(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        result = scraper.crawl(max_pages=2, resolve_permissions=False)
        assert result.pages_traversed == 2
        assert len(result.bots) == 50

    def test_politeness_think_time(self, world, clock):
        eco, internet, solver = world
        config = ScraperConfig(min_think_time=1.0, max_think_time=1.0)
        scraper = TopGGScraper(internet, solver=solver, config=config)
        start = clock.now()
        scraper.crawl(max_pages=1, resolve_permissions=False)
        # 26 fetches (1 list + 25 details) with >= 1s pacing each.
        assert clock.now() - start >= 26.0


class TestScrapedBotCodec:
    def test_bot_roundtrip(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        result = scraper.crawl(max_pages=1)
        original = result.bots[0]
        restored = scraped_bot_from_dict(scraped_bot_to_dict(original))
        assert restored == original

    def test_permissions_follow_reassigned_names(self):
        bot = _listing(("administrator",))
        assert bot.permissions == Permissions.of(Permission.ADMINISTRATOR)
        bot.permission_names = ("send messages", "read messages")  # as invite resolution reassigns them
        assert bot.permissions == Permissions.of(Permission.SEND_MESSAGES, Permission.VIEW_CHANNEL)
        bot.permission_names = ()
        assert bot.permissions == Permissions.none()

    def test_parsed_permissions_stay_out_of_repr_equality_and_codecs(self):
        parsed, fresh = _listing(("administrator", "send messages")), _listing(("administrator", "send messages"))
        value = parsed.permissions
        assert repr(parsed) == repr(fresh) and parsed == fresh
        assert scraped_bot_to_dict(parsed) == scraped_bot_to_dict(fresh)
        assert scraped_bot_from_dict(scraped_bot_to_dict(parsed)).permissions == value
        # A listing stays plain data: a pickle round trip keeps the value too.
        assert pickle.loads(pickle.dumps(parsed)).permissions == value


def _listing(permission_names: tuple[str, ...]) -> ScrapedBot:
    return ScrapedBot(
        listing_id=1, name="Bot1", developer_tag="dev#0001", tags=(), description="", guild_count=1, votes=1,
        invite_url=None, website_url=None, github_url=None, built_with=None,
        permission_status=PermissionStatus.VALID, permission_names=permission_names,
    )


def _journaled_crawl(eco, wal, **crawl_args):
    """One crawl session in a fresh world, as a new process would run it,
    whose pages commit to the WAL at ``wal``.

    Returns the result, the list page numbers the session fetched live,
    and the session's scraper (for its fetch counters).
    """
    clock = VirtualClock()
    internet = VirtualInternet(clock, seed=7)
    solver = _register_sites(eco, internet, clock)
    scraper = TopGGScraper(internet, solver=solver)
    fetched: list[int] = []
    inner = scraper._scrape_list_page

    def spy(page_number):
        fetched.append(page_number)
        return inner(page_number)

    scraper._scrape_list_page = spy
    ledger = FaultLedger()
    tracker = UnitTracker(clock, internet, ledger, QuarantineLog(), solver=solver, scraper=scraper)
    journal = WriteAheadJournal(wal)
    try:
        result = scraper.crawl(recorder=StageRecorder(journal, "crawl", tracker, ledger), **crawl_args)
    finally:
        journal.close()
    return result, fetched, scraper


class TestJournaledResume:
    """An interrupted crawl resumes from the write-ahead journal's page records."""

    def test_resumed_crawl_matches_uninterrupted(self, world, tmp_path):
        eco, internet, solver = world
        control = TopGGScraper(internet, solver=solver).crawl()
        wal = tmp_path / "crawl.wal"

        partial, _, _ = _journaled_crawl(eco, wal, max_pages=2)
        assert len(partial.bots) == 50
        resumed, _, _ = _journaled_crawl(eco, wal)
        # Replayed bots carry everything the crawl resolved, permissions included.
        assert resumed.bots == control.bots
        assert resumed.pages_traversed == control.pages_traversed

    def test_resumed_crawl_refetches_no_journaled_page(self, eco, tmp_path):
        wal = tmp_path / "crawl.wal"
        _journaled_crawl(eco, wal, max_pages=3, resolve_permissions=False)
        resumed, fetched, _ = _journaled_crawl(eco, wal, resolve_permissions=False)
        assert len(resumed.bots) == len(eco.bots)
        assert fetched and not {1, 2, 3} & set(fetched), f"re-fetched journaled pages: {fetched}"

    def test_resume_skips_journaled_pages(self, eco, tmp_path):
        """Neither a journaled list page nor its detail pages is fetched again."""
        wal = tmp_path / "crawl.wal"
        partial, _, _ = _journaled_crawl(eco, wal, max_pages=3, resolve_permissions=False)
        _, _, scraper = _journaled_crawl(eco, wal, resolve_permissions=False)
        # The session's exchange log, not its fetch counters (those replay
        # with the journal): 3 remaining list pages + their 75 details
        # (+1 final 404 page).
        live = {record.url for record in scraper.internet.log}
        assert len(scraper.internet.log) <= 3 * 26 + 1
        assert not live & {f"{TOPGG_BASE}/bot/{bot.listing_id}" for bot in partial.bots}

    def test_resume_preserves_permissions(self, eco, tmp_path):
        wal = tmp_path / "crawl.wal"
        _journaled_crawl(eco, wal, max_pages=1)
        replayed, fetched, _ = _journaled_crawl(eco, wal, max_pages=1)
        assert fetched == []  # the page came from the journal alone
        truth = {bot.name: bot for bot in eco.bots}
        valid = [bot for bot in replayed.bots if bot.has_valid_permissions]
        assert valid
        for bot in valid:
            assert bot.permissions == truth[bot.name].permissions

    def test_torn_final_page_record_is_recrawled_once(self, world, tmp_path):
        """A page whose record was torn off the WAL tail re-executes, and
        its bots appear once, not once per session."""
        eco, internet, solver = world
        control = TopGGScraper(internet, solver=solver).crawl(resolve_permissions=False)
        wal = tmp_path / "crawl.wal"
        _journaled_crawl(eco, wal, max_pages=2, resolve_permissions=False)
        wal.write_bytes(wal.read_bytes()[:-5])

        resumed, fetched, _ = _journaled_crawl(eco, wal, resolve_permissions=False)
        assert fetched[0] == 2
        assert resumed.bots == control.bots
        assert resumed.pages_traversed == control.pages_traversed


class TestListingDedup:
    def test_reserved_listing_yields_bot_once(self, world):
        """A live listing can re-serve a bot on a later page (its rank
        shifted mid-crawl); the crawl keeps one entry per listing id."""
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        inner = scraper._scrape_list_page
        first_page: list[int] = []

        def shifted(page_number):
            ids = inner(page_number)
            if page_number == 1:
                first_page.extend(ids)
            elif page_number == 2:
                ids = [first_page[0], *ids]  # page 1's first bot, served again
            return ids

        scraper._scrape_list_page = shifted
        result = scraper.crawl(max_pages=2, resolve_permissions=False)
        ids = [bot.listing_id for bot in result.bots]
        assert len(ids) == len(set(ids)) == 50
        assert ids.count(first_page[0]) == 1


class TestRateLimitRecovery:
    def test_scraper_backs_off_on_429(self, eco, internet, clock):
        build_store_host(
            eco, internet, StoreDefenses(rate_limit_requests=5, rate_limit_window=60.0, captcha_enabled=False)
        )
        solver = TwoCaptchaClient(clock, accuracy=1.0)
        config = ScraperConfig(min_think_time=0.0, max_think_time=0.0)
        scraper = TopGGScraper(internet, solver=solver, config=config)
        result = scraper.crawl(max_pages=1, resolve_permissions=False)
        assert len(result.bots) == 25  # all pages eventually fetched
        assert scraper.stats.rate_limited > 0


class TestWebsiteScraper:
    def test_policy_discovery_matches_ground_truth(self, world):
        eco, internet, solver = world
        scraper = WebsiteScraper(internet, solver=solver)
        for bot in eco.websites()[:30]:
            result = scraper.fetch_policy(bot.website_url)
            assert result.website_reachable
            assert result.policy_link_found == bot.policy.present
            expected_valid = bot.policy.present and bot.policy.link_valid
            assert result.policy_page_valid == expected_valid
            if expected_valid:
                assert result.policy_text.strip()

    def test_unreachable_website(self, world):
        eco, internet, solver = world
        scraper = WebsiteScraper(internet, solver=solver)
        result = scraper.fetch_policy("https://no-such-site.sim/")
        assert not result.website_reachable


class TestPolicyLinkCasing:
    """The paper's "varying page structures" include arbitrary anchor casing."""

    @staticmethod
    def _site(internet, anchor_text: str):
        from repro.web.http import Response
        from repro.web.server import VirtualHost

        host = VirtualHost("cased.sim")
        host.add_route(
            "/",
            lambda request: Response.html(
                f'<html><body><a href="/privacy">{anchor_text}</a></body></html>'
            ),
        )
        host.add_route(
            "/privacy",
            lambda request: Response.html(
                '<html><body><div id="policy">We collect message content.</div></body></html>'
            ),
        )
        internet.register("cased.sim", host)

    @pytest.mark.parametrize(
        "anchor_text",
        ["Privacy Policy", "Privacy policy", "PRIVACY POLICY", "privacy policy", "Privacy Notice"],
    )
    def test_policy_link_found_regardless_of_case(self, internet, clock, anchor_text):
        self._site(internet, anchor_text)
        scraper = WebsiteScraper(internet, solver=TwoCaptchaClient(clock, seed=2))
        result = scraper.fetch_policy("https://cased.sim/")
        assert result.website_reachable
        assert result.policy_link_found
        assert result.policy_page_valid
        assert "message content" in result.policy_text

    def test_unrelated_anchor_is_not_a_policy_link(self, internet, clock):
        self._site(internet, "Pricing")
        scraper = WebsiteScraper(internet, solver=TwoCaptchaClient(clock, seed=2))
        result = scraper.fetch_policy("https://cased.sim/")
        assert result.website_reachable
        assert not result.policy_link_found


class TestGitHubScraper:
    def test_valid_repo_detection(self, world):
        eco, internet, solver = world
        scraper = GitHubScraper(internet, solver=solver)
        from repro.ecosystem.repos import RepoKind, VALID_REPO_KINDS

        for bot in eco.github_linked()[:30]:
            result = scraper.fetch_repo(bot.github_url, download_files=False)
            assert result.link_valid == (bot.github.kind in VALID_REPO_KINDS)

    def test_language_and_files_roundtrip(self, world):
        eco, internet, solver = world
        scraper = GitHubScraper(internet, solver=solver)
        bot = next(b for b in eco.github_linked() if b.github.has_source_code)
        result = scraper.fetch_repo(bot.github_url)
        assert result.main_language == bot.github.language
        assert result.files == bot.github.files


class TestTryLocators:
    def test_fallback_order(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        scraper.fetch(f"https://top.gg.sim/bot/{eco.bots[0].index}")
        element = try_locators(
            scraper.browser,
            [(By.ID, "missing-locator"), (By.CSS_SELECTOR, "h1.bot-title")],
        )
        assert element is not None and element.text == eco.bots[0].name

    def test_none_when_all_miss(self, world):
        eco, internet, solver = world
        scraper = TopGGScraper(internet, solver=solver)
        scraper.fetch("https://top.gg.sim/")
        assert try_locators(scraper.browser, [(By.ID, "a"), (By.ID, "b")]) is None
