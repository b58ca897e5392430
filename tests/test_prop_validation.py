"""The streamed manual-review validation against the materialized one (hypothesis).

A streamed run probes each rank's policy eligibility from the trace stream
and builds only the bots the sample draws; its report must equal
:meth:`ManualReviewValidator.validate` over the materialized population,
whatever the population size and whether the sample size is below, at or
above the eligible count.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.ecosystem import names
from repro.ecosystem.stream import EcosystemConfig, EcosystemStream, generate_ecosystem
from repro.traceability.analyzer import TraceabilityAnalyzer
from repro.traceability.validation import ManualReviewValidator

#: The honeypot window the pipeline's population is generated with.
WINDOW = 500


def materialized_report(seed: int, n_bots: int, sample_size: int):
    """``validate`` over the materialized population the pipeline would build."""
    ecosystem = generate_ecosystem(EcosystemConfig(n_bots=n_bots, seed=seed, honeypot_window=WINDOW))
    policies = [
        (bot.name, bot.policy, bot.policy_text)
        for bot in ecosystem.bots
        if bot.policy.present and bot.policy.link_valid
    ]
    validator = ManualReviewValidator(TraceabilityAnalyzer(), seed=seed + 4)
    return validator.validate(policies, sample_size=sample_size), len(policies)


def streamed_report(seed: int, n_bots: int, sample_size: int):
    config = PipelineConfig(
        n_bots=n_bots, seed=seed, honeypot_sample_size=WINDOW, validation_sample_size=sample_size, stream=True
    )
    return AssessmentPipeline(config)._validate_traceability()


class TestStreamedValidation:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_bots=st.integers(min_value=1, max_value=160),
        where=st.sampled_from(("below", "at", "above")),
        shift=st.integers(min_value=1, max_value=6),
    )
    @example(seed=39, n_bots=1, where="at", shift=1)
    @example(seed=39, n_bots=60, where="below", shift=1)
    @example(seed=39, n_bots=60, where="above", shift=1)
    def test_report_equals_materialized(self, seed, n_bots, where, shift):
        _, eligible = materialized_report(seed, n_bots, 0)
        sample_size = {"below": max(eligible - shift, 0), "at": eligible, "above": eligible + shift}[where]
        expected, _ = materialized_report(seed, n_bots, sample_size)
        report = streamed_report(seed, n_bots, sample_size)
        assert report == expected
        assert report.sample_size == min(sample_size, eligible)

    def test_melonian_plant_is_reviewed_under_its_planted_name(self):
        # Seed 39's plant sits at rank 9 of a 60-bot population with a
        # valid policy link; a sample above the eligible count takes it.
        report = streamed_report(39, 60, 100)
        assert names.MELONIAN in [case.bot_name for case in report.cases]
        assert report == materialized_report(39, 60, 100)[0]


class TestPolicyProbe:
    def test_probe_agrees_with_the_built_profile_on_every_rank(self):
        for seed in (1, 7, 39, 2022):
            stream = EcosystemStream(EcosystemConfig(n_bots=1_200, seed=seed, honeypot_window=WINDOW))
            for bot in stream.iter_bots():
                assert stream.policy_eligible_at(bot.index) == (bot.policy.present and bot.policy.link_valid), (
                    seed,
                    bot.index,
                )
