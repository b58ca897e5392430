"""TXT-HONEY: the dynamic-analysis campaign.

Paper: 500 most-voted bots tested in isolated guilds (5 personas, 25 feed
messages, URL/email/Word/PDF tokens).  Exactly one bot — "Melonian" — was
caught: the URL and Word-document tokens fired, and the operator posted
"wtf is this bro" as the bot.
"""

from repro.discordsim.platform import DiscordPlatform
from repro.honeypot import HoneypotExperiment, TokenKind
from repro.honeypot.experiment import PERSONAS_PER_GUILD
from repro.web.network import VirtualInternet


def test_bench_honeypot_headline(benchmark, paper_scale_result, paper_config):
    honeypot = paper_scale_result.honeypot
    assert honeypot is not None
    # Benchmark the attribution step: grouping triggers by guild context.
    grouped = benchmark(
        lambda: {
            record.context: record.kind for record in honeypot.triggers
        }
    )
    assert grouped
    installable = honeypot.bots_tested - honeypot.install_failures
    assert honeypot.bots_tested == paper_config.honeypot_sample_size
    assert installable > 0.6 * honeypot.bots_tested

    flagged = honeypot.flagged_bots
    assert [outcome.bot_name for outcome in flagged] == ["Melonian"]
    assert flagged[0].trigger_kinds == {TokenKind.URL, TokenKind.WORD}
    assert "wtf is this bro" in flagged[0].suspicious_messages
    assert honeypot.precision == 1.0 and honeypot.recall == 1.0
    # The manual mobile-verification friction: once per shared persona.
    assert honeypot.manual_verifications == PERSONAS_PER_GUILD


def test_bench_honeypot_campaign_throughput(benchmark, paper_world):
    """Benchmark provisioning + observing a 50-guild campaign."""
    melonian = paper_world.ecosystem.bot_by_name("Melonian")
    others = [bot for bot in paper_world.ecosystem.top_voted(50) if bot.name != "Melonian"][:49]
    sample = [melonian] + others

    def campaign():
        platform = DiscordPlatform(captcha_seed=9)
        internet = VirtualInternet(platform.clock, seed=9)
        experiment = HoneypotExperiment(platform, internet, seed=9)
        return experiment.run(sample)

    report = benchmark(campaign)
    assert report.bots_tested == 50
    assert [outcome.bot_name for outcome in report.flagged_bots] == ["Melonian"]
