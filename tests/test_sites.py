"""Tests for the virtual sites: listing site, discord.sim, github.sim, bot websites."""

import pytest

from repro.botstore import PAGE_SIZE, ListingStore, TopGGSite, build_store_host
from repro.botstore.host import StoreDefenses
from repro.ecosystem.generator import EcosystemConfig, InviteStatus, StreamingEcosystem, generate_ecosystem
from repro.ecosystem.repos import RepoKind
from repro.sites.botwebsites import BotWebsiteBuilder, variant_for
from repro.sites.discordweb import SLOW_CDN_HOSTNAME, SLOW_HOP_LATENCY, DiscordWebsite
from repro.sites.github import GitHubSite
from repro.web.client import HttpClient, RequestTimeoutError
from repro.web.dom import parse_html
from repro.web.network import VirtualClock, VirtualInternet


@pytest.fixture(scope="module")
def eco():
    return generate_ecosystem(EcosystemConfig(n_bots=200, seed=13, honeypot_window=40))


@pytest.fixture
def world(eco, internet):
    build_store_host(eco, internet, StoreDefenses(captcha_enabled=False, rate_limit_requests=10_000))
    DiscordWebsite(eco).register(internet)
    GitHubSite(eco).register(internet)
    BotWebsiteBuilder(eco).register(internet)
    return eco, internet, HttpClient(internet, default_timeout=10.0)


class TestListingSite:
    def test_pagination_covers_population(self, world):
        eco, internet, client = world
        store = ListingStore(eco)
        pages = store.page_count(PAGE_SIZE)
        seen = sum(len(store.page(page, PAGE_SIZE)) for page in range(1, pages + 1))
        assert seen == len(eco.bots)

    def test_list_page_renders_cards(self, world):
        eco, internet, client = world
        page = parse_html(client.get("https://top.gg.sim/list/top?page=1").body)
        cards = page.select("a.bot-link") or page.select("a[data-bot-id]")
        assert len(cards) == PAGE_SIZE

    def test_page_structure_variants_alternate(self, world):
        eco, internet, client = world
        page1 = parse_html(client.get("https://top.gg.sim/list/top?page=1").body)
        page2 = parse_html(client.get("https://top.gg.sim/list/top?page=2").body)
        assert page1.select_one("#bot-list").get("data-variant") == "A"
        assert page2.select_one("#bot-list").get("data-variant") == "B"
        assert page1.select("a.bot-link") and not page1.select("a[data-bot-id]")
        assert page2.select("a[data-bot-id]") and not page2.select("a.bot-link")

    def test_past_the_end_404(self, world):
        eco, internet, client = world
        assert client.get("https://top.gg.sim/list/top?page=99").status == 404

    def test_detail_page_fields(self, world):
        eco, internet, client = world
        bot = eco.bots[0]
        page = parse_html(client.get(f"https://top.gg.sim/bot/{bot.index}").body)
        assert page.select_one("h1.bot-title").text == bot.name
        assert page.select_one("span.dev-tag").text == bot.developer_tag
        tags = {node.text for node in page.select("span.tag")}
        assert tags == set(bot.tags)

    def test_detail_variant_by_parity(self, world):
        eco, internet, client = world
        even = parse_html(client.get("https://top.gg.sim/bot/0").body)
        odd = parse_html(client.get("https://top.gg.sim/bot/1").body)
        assert even.select_one(".bot-detail").get("data-variant") == "A"
        assert odd.select_one(".bot-detail").get("data-variant") == "B"
        assert even.select_one("#invite-button") is not None
        assert odd.select_one("a.invite-link") is not None

    def test_unknown_bot_404(self, world):
        eco, internet, client = world
        assert client.get("https://top.gg.sim/bot/999999").status == 404


class TestDiscordWeb:
    def test_valid_invite_renders_consent(self, world):
        eco, internet, client = world
        bot = eco.with_valid_permissions()[0]
        page = parse_html(client.get(bot.invite_url).body)
        names = [node.text for node in page.select("li.permission-item")]
        assert names == bot.permissions.display_names()

    def test_removed_bot_404(self, world):
        eco, internet, client = world
        removed = [bot for bot in eco.bots if bot.invite_status is InviteStatus.REMOVED][0]
        response = client.get(removed.invite_url)
        assert response.status == 404
        assert "Unknown Application" in response.body

    def test_malformed_invite_400(self, world):
        eco, internet, client = world
        malformed = [bot for bot in eco.bots if bot.invite_status is InviteStatus.MALFORMED][0]
        assert client.get(malformed.invite_url).status == 400

    def test_slow_redirect_times_out(self, world):
        eco, internet, client = world
        slow = [bot for bot in eco.bots if bot.invite_status is InviteStatus.SLOW_REDIRECT][0]
        with pytest.raises(RequestTimeoutError):
            client.get(slow.invite_url, timeout=10.0)

    def test_a_slow_redirect_chain_runs_every_hop_until_the_budget_is_spent(self, world):
        eco, internet, client = world
        slow = [bot for bot in eco.bots if bot.invite_status is InviteStatus.SLOW_REDIRECT][0]
        hop = f"https://{SLOW_CDN_HOSTNAME}/hop/{{}}?client_id={slow.client_id}"
        started, completed, logged = internet.clock.now(), internet.exchanges_completed, len(internet.log)
        with pytest.raises(RequestTimeoutError) as raised:
            client.get(slow.invite_url, timeout=10.0)
        assert raised.value.url == hop.format(2)
        assert internet.exchanges_completed - completed == 3
        records = list(internet.log)[logged:]
        assert [(record.url, record.status) for record in records] == [
            (slow.invite_url, 302), (hop.format(1), 302), (hop.format(2), 302),
        ]
        assert [record.latency >= SLOW_HOP_LATENCY for record in records] == [False, True, True]
        assert internet.clock.now() - started == pytest.approx(sum(record.latency for record in records))

    @pytest.mark.parametrize("hop", ["x", "1.5", "%31"])
    def test_a_non_numeric_hop_is_not_found(self, world, hop):
        eco, internet, client = world
        response = client.get(f"https://{SLOW_CDN_HOSTNAME}/hop/{hop}?client_id=1")
        assert response.status == 404


class TestGitHubSite:
    def test_valid_repo_has_code_section_and_language(self, world):
        eco, internet, client = world
        bot = next(b for b in eco.bots if b.github and b.github.kind is RepoKind.VALID_CODE)
        page = parse_html(client.get(bot.github_url).body)
        assert page.select_one("#code-section") is not None
        first_language = page.select("span.language-name")[0].text
        assert first_language == bot.github.language

    def test_raw_file_download(self, world):
        eco, internet, client = world
        bot = next(b for b in eco.bots if b.github and b.github.kind is RepoKind.VALID_CODE)
        path, content = next(iter(bot.github.files.items()))
        raw = client.get(f"{bot.github_url}/raw/main/{path}")
        assert raw.status == 200
        assert raw.body == content

    def test_readme_only_repo_valid_but_no_language(self, world):
        eco, internet, client = world
        bot = next((b for b in eco.bots if b.github and b.github.kind is RepoKind.README_ONLY), None)
        if bot is None:
            pytest.skip("no readme-only repo in this sample")
        page = parse_html(client.get(bot.github_url).body)
        assert page.select_one("#code-section") is not None
        assert page.select("span.language-name") == []

    def test_profile_page_has_no_code_section(self, world):
        eco, internet, client = world
        bot = next(
            (b for b in eco.bots if b.github and b.github.kind is RepoKind.USER_PROFILE), None
        )
        if bot is None:
            pytest.skip("no user-profile link in this sample")
        page = parse_html(client.get(bot.github_url).body)
        assert page.select_one("#code-section") is None

    def test_dead_link_404(self, world):
        eco, internet, client = world
        bot = next((b for b in eco.bots if b.github and b.github.kind is RepoKind.INVALID_LINK), None)
        if bot is None:
            pytest.skip("no dead link in this sample")
        assert client.get(bot.github_url).status == 404


class TestStreamedGitHubProfiles:
    """Profile pages of a streamed population read only the owner's bots."""

    CONFIG = EcosystemConfig(n_bots=1_200, seed=13, honeypot_window=40)

    @pytest.fixture
    def sites(self):
        streamed = StreamingEcosystem(self.CONFIG, cache_size=16)
        # Fill the 16-profile cache with block 2's ranks: block 0's are evicted.
        for rank in range(1_100, 1_132):
            streamed.bots[rank]
        clients = []
        for ecosystem in (streamed, generate_ecosystem(self.CONFIG)):
            internet = VirtualInternet(VirtualClock(), seed=7)
            GitHubSite(ecosystem).register(internet)
            clients.append(HttpClient(internet))
        return streamed, clients

    @staticmethod
    def owner_of(developer):
        return developer.tag.split("#")[0]

    def test_a_profile_page_regenerates_only_its_owners_bots(self, sites, monkeypatch):
        streamed, (client, _) = sites
        developers, _ = streamed.stream.block(0)
        developer = max(developers, key=lambda dev: dev.bot_count)
        assert developer.bot_count >= 3
        ranks = []
        original = streamed.stream.bot_at
        monkeypatch.setattr(streamed.stream, "bot_at", lambda rank: ranks.append(rank) or original(rank))
        client.get(f"https://github.sim/{self.owner_of(developer)}")
        assert ranks == developer.bot_indices
        # A misspelled owner decodes to another developer of the block but reads none of its bots.
        other = next(dev for dev in developers if dev is not developer)
        misspelled = "zz" + self.owner_of(other).lstrip("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
        assert client.get(f"https://github.sim/{misspelled}").status == 404
        assert ranks == developer.bot_indices

    def test_pages_equal_the_materialized_sites(self, sites):
        streamed, (client, reference) = sites
        with_repos, empty = [], []
        for block in range(3):
            for developer in streamed.stream.block(block)[0]:
                kinds = {streamed.bots[rank].github.kind for rank in developer.bot_indices
                         if streamed.bots[rank].github is not None}
                if kinds & {RepoKind.VALID_CODE, RepoKind.README_ONLY}:
                    with_repos.append(self.owner_of(developer))
                elif kinds & {RepoKind.USER_PROFILE, RepoKind.NO_REPOSITORIES, RepoKind.NO_PUBLIC_REPOSITORIES}:
                    empty.append(self.owner_of(developer))
        assert len(with_repos) >= 6 and len(empty) >= 3
        first = self.owner_of(streamed.stream.block(0)[0][0])
        unknown = [
            "nobody",
            "zz" + first.lstrip("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"),  # misspelled, same block
            first + "99999",  # no such developer index
            "dev9x0",  # no such block
        ]
        for owner in with_repos[::max(len(with_repos) // 6, 1)] + empty[:3] + unknown:
            page, expected = client.get(f"https://github.sim/{owner}"), reference.get(f"https://github.sim/{owner}")
            assert (page.status, page.body) == (expected.status, expected.body), owner
        assert client.get(f"https://github.sim/{unknown[1]}").status == 404


class TestBotWebsites:
    def test_homepage_has_invite(self, world):
        eco, internet, client = world
        bot = eco.websites()[0]
        page = parse_html(client.get(bot.website_url).body)
        assert page.select_one("#invite").get("href") == bot.invite_url

    def test_policy_reachable_through_variant(self, world):
        eco, internet, client = world
        with_policy = [bot for bot in eco.websites() if bot.policy.present and bot.policy.link_valid]
        assert with_policy, "sample should contain policies"
        for bot in with_policy[:5]:
            variant = variant_for(bot)
            home = parse_html(client.get(bot.website_url).body)
            if variant == "legal":
                legal = parse_html(client.get(f"{bot.website_url}legal").body)
                href = legal.select_one("a.legal-link").get("href")
            else:
                anchor = home.select_one("a.nav-link, a.footer-link")
                href = anchor.get("href")
            policy = client.get(f"https://{bot.website_host}{href}")
            assert policy.status == 200
            assert "policy" in policy.body.lower() or "privacy" in policy.body.lower()

    def test_no_policy_link_when_absent(self, world):
        eco, internet, client = world
        without = next(bot for bot in eco.websites() if not bot.policy.present)
        home = parse_html(client.get(bot_url := without.website_url).body)
        assert home.select_one("a.nav-link, a.footer-link") is None

    def test_dead_policy_page_404(self, eco, internet):
        """A bot advertising a policy whose page 404s (the 3-of-676 case)."""
        import dataclasses

        from repro.ecosystem.policies import PolicySpec
        from repro.web.client import HttpClient

        base = next(bot for bot in eco.websites())
        dead = dataclasses.replace(base)
        dead.website_host = "deadpolicy.botsite.sim"
        dead.policy = PolicySpec(present=True, categories=frozenset({"use"}), link_valid=False)
        dead.policy_text = ""

        from repro.sites.botwebsites import _build_site

        internet.register(dead.website_host, _build_site(dead))
        client = HttpClient(internet)
        variant = variant_for(dead)
        path = {"nav": "/privacy", "footer": "/privacy-policy", "legal": "/legal/privacy"}[variant]
        # The link is advertised on the homepage but the page is gone.
        home = client.get(f"https://{dead.website_host}/")
        assert home.status == 200
        assert client.get(f"https://{dead.website_host}{path}").status == 404
