"""Tests for ecosystem generation: calibration, determinism, the plant."""

import collections

import pytest

from repro.discordsim import behaviors
from repro.discordsim.permissions import Permission
from repro.ecosystem.distributions import DEFAULT_TARGETS
from repro.ecosystem.generator import (
    BotProfile,
    EcosystemConfig,
    InviteStatus,
    generate_ecosystem,
)
from repro.ecosystem import stream as stream_module
from repro.ecosystem.repos import RepoKind


@pytest.fixture(scope="module")
def ecosystem():
    return generate_ecosystem(EcosystemConfig(n_bots=3000, seed=7, honeypot_window=300))


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = generate_ecosystem(EcosystemConfig(n_bots=100, seed=5))
        b = generate_ecosystem(EcosystemConfig(n_bots=100, seed=5))
        assert [bot.name for bot in a.bots] == [bot.name for bot in b.bots]
        assert [bot.permissions.value for bot in a.bots] == [bot.permissions.value for bot in b.bots]

    def test_different_seed_differs(self):
        a = generate_ecosystem(EcosystemConfig(n_bots=100, seed=5))
        b = generate_ecosystem(EcosystemConfig(n_bots=100, seed=6))
        assert [bot.name for bot in a.bots] != [bot.name for bot in b.bots]


class TestDeveloperBlocks:
    def test_each_block_is_generated_once(self, monkeypatch):
        """The bots and the developer map share one walk of the blocks."""
        calls = []
        generate_block = stream_module.developers_for_block

        def counted(config, block):
            calls.append(block)
            return generate_block(config, block)

        monkeypatch.setattr(stream_module, "developers_for_block", counted)
        config = EcosystemConfig(n_bots=9 * stream_module.BLOCK + 40, seed=3)
        ecosystem = generate_ecosystem(config)
        assert calls == list(range(stream_module.block_count(config))) == list(range(10))
        assert sum(dev.bot_count for dev in ecosystem.developers.values()) == config.n_bots


class TestCalibration:
    def test_population_size(self, ecosystem):
        assert len(ecosystem.bots) == 3000

    def test_valid_permission_fraction_near_74(self, ecosystem):
        fraction = len(ecosystem.with_valid_permissions()) / len(ecosystem.bots)
        assert abs(fraction - 0.742) < 0.03

    def test_administrator_rate_near_5486(self, ecosystem):
        valid = ecosystem.with_valid_permissions()
        rate = sum(1 for bot in valid if bot.permissions.has_exactly(Permission.ADMINISTRATOR)) / len(valid)
        assert abs(rate - 0.5486) < 0.035

    def test_send_messages_rate_near_5918(self, ecosystem):
        valid = ecosystem.with_valid_permissions()
        rate = sum(1 for bot in valid if bot.permissions.has_exactly(Permission.SEND_MESSAGES)) / len(valid)
        assert abs(rate - 0.5918) < 0.035

    def test_website_fraction_near_3727(self, ecosystem):
        fraction = len(ecosystem.websites()) / len(ecosystem.bots)
        assert abs(fraction - 0.3727) < 0.035

    def test_github_fraction_near_2386(self, ecosystem):
        fraction = len(ecosystem.github_linked()) / len(ecosystem.bots)
        assert abs(fraction - 0.2386) < 0.03

    def test_policy_rate_near_435(self, ecosystem):
        fraction = sum(1 for bot in ecosystem.bots if bot.policy.present) / len(ecosystem.bots)
        assert abs(fraction - 0.0435) < 0.015

    def test_developer_distribution_shape(self, ecosystem):
        counts = collections.Counter(dev.bot_count for dev in ecosystem.developers.values())
        total = sum(counts.values())
        assert counts[1] / total > 0.8  # ~89% publish one bot

    def test_no_complete_policies(self, ecosystem):
        for bot in ecosystem.bots:
            assert bot.policy.expected_class != "complete"

    def test_invalid_invite_breakdown_present(self, ecosystem):
        statuses = collections.Counter(bot.invite_status for bot in ecosystem.bots)
        assert statuses[InviteStatus.MALFORMED] > 0
        assert statuses[InviteStatus.REMOVED] > 0
        assert statuses[InviteStatus.SLOW_REDIRECT] > 0

    def test_language_shares(self, ecosystem):
        with_code = [bot for bot in ecosystem.bots if bot.github and bot.github.has_source_code]
        languages = collections.Counter(bot.github.language for bot in with_code)
        js = languages["JavaScript"] / len(with_code)
        py = languages["Python"] / len(with_code)
        assert abs(js - 0.44) < 0.08  # 0.41 of valid repos ≈ 0.44 of code repos
        assert abs(py - 0.34) < 0.08


class TestMelonianPlant:
    def test_exactly_one_invasive_in_window(self, ecosystem):
        window = ecosystem.top_voted(300)
        invasive = [bot for bot in window if bot.is_invasive]
        assert len(invasive) == 1
        assert invasive[0].name == "Melonian"

    def test_melonian_installable_and_readable(self, ecosystem):
        melonian = ecosystem.bot_by_name("Melonian")
        assert melonian.invite_status is InviteStatus.VALID
        assert melonian.permissions.has(Permission.READ_MESSAGE_HISTORY)
        assert melonian.guild_count <= 30  # "present in a few guilds"


class TestProfiles:
    def test_invite_url_valid_bots_parse(self, ecosystem):
        from repro.discordsim.oauth import parse_invite_url

        bot = ecosystem.with_valid_permissions()[0]
        invite = parse_invite_url(bot.invite_url)
        assert invite.client_id == bot.client_id
        assert invite.permissions == bot.permissions

    def test_malformed_invite_urls_do_not_parse(self, ecosystem):
        from repro.discordsim.oauth import InviteLinkError, parse_invite_url

        malformed = [bot for bot in ecosystem.bots if bot.invite_status is InviteStatus.MALFORMED]
        with pytest.raises(InviteLinkError):
            parse_invite_url(malformed[0].invite_url)

    def test_client_ids_unique(self, ecosystem):
        ids = [bot.client_id for bot in ecosystem.bots]
        assert len(set(ids)) == len(ids)

    def test_sorted_by_votes(self, ecosystem):
        votes = [bot.votes for bot in ecosystem.bots]
        assert votes == sorted(votes, reverse=True)

    def test_github_url_shapes(self, ecosystem):
        for bot in ecosystem.github_linked()[:200]:
            assert bot.github_url.startswith("https://github.sim/")
            if bot.github.kind is RepoKind.USER_PROFILE:
                assert bot.github_url.count("/") == 3  # profile link, no repo path

    def test_policy_text_only_when_valid_link(self, ecosystem):
        for bot in ecosystem.bots:
            if bot.policy_text:
                assert bot.policy.present and bot.policy.link_valid
