"""Validation of the keyword approach against manual review.

The paper validates its keyword-based traceability "through a random
selection of 100 privacy policies and a manual review process", finding no
misclassifications.  Here the role of the human reviewer is played by the
generator's ground truth (:class:`~repro.ecosystem.policies.PolicySpec`
records what each policy *genuinely* describes), so the validator measures
the keyword analyzer's true accuracy on the generated corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.ecosystem.policies import PolicySpec
from repro.traceability.analyzer import TraceabilityAnalyzer


@dataclass
class ValidationCase:
    bot_name: str
    expected: str
    predicted: str

    @property
    def correct(self) -> bool:
        return self.expected == self.predicted


@dataclass
class ValidationReport:
    cases: list[ValidationCase] = field(default_factory=list)

    @property
    def sample_size(self) -> int:
        return len(self.cases)

    @property
    def misclassified(self) -> int:
        return sum(1 for case in self.cases if not case.correct)

    @property
    def accuracy(self) -> float:
        return 1.0 if not self.cases else 1.0 - self.misclassified / len(self.cases)


class ManualReviewValidator:
    """Sample policies and compare keyword output with ground truth."""

    def __init__(self, analyzer: TraceabilityAnalyzer | None = None, seed: int = 100) -> None:
        self.analyzer = analyzer or TraceabilityAnalyzer()
        self._rng = random.Random(seed)

    def validate(
        self,
        policies: list[tuple[str, PolicySpec, str]],
        sample_size: int = 100,
    ) -> ValidationReport:
        """``policies`` is ``(bot_name, ground-truth spec, policy text)``."""
        population = [entry for entry in policies if entry[1].present and entry[1].link_valid]
        if len(population) > sample_size:
            population = self._rng.sample(population, sample_size)
        return self._score(population)

    def validate_ranks(
        self,
        ranks: int,
        eligible: Callable[[int], bool],
        entry_at: Callable[[int], tuple[str, PolicySpec, str]],
        sample_size: int = 100,
    ) -> ValidationReport:
        """:meth:`validate` over a rank-addressable population, building only the drawn entries.

        ``eligible(rank)`` answers :meth:`validate`'s ``present and
        link_valid`` predicate for ranks ``0 .. ranks-1`` without building
        anything; ``entry_at(rank)`` builds one ``(bot_name, spec, text)``
        entry.  A first probe pass counts the eligible ranks; the sample is
        drawn as ``random.sample(range(count), k)``, which selects by index
        exactly as sampling the materialized list does, so the same
        positions come out in the same order; a second probe pass maps the
        drawn ordinals to ranks and stops at the last one.  Only the drawn
        entries are built, and memory is O(sample), not O(population).
        """
        count = sum(1 for rank in range(ranks) if eligible(rank))
        chosen = self._rng.sample(range(count), sample_size) if count > sample_size else range(count)
        slots = {ordinal: slot for slot, ordinal in enumerate(chosen)}
        drawn = [0] * len(slots)
        ordinal = 0
        for rank in range(ranks):
            if not slots:
                break
            if eligible(rank):
                slot = slots.pop(ordinal, None)
                if slot is not None:
                    drawn[slot] = rank
                ordinal += 1
        return self._score([entry_at(rank) for rank in drawn])

    def _score(self, population: list[tuple[str, PolicySpec, str]]) -> ValidationReport:
        report = ValidationReport()
        for bot_name, spec, text in population:
            predicted, _ = self.analyzer.classify_text(text)
            report.cases.append(
                ValidationCase(
                    bot_name=bot_name,
                    expected=spec.expected_class,
                    predicted=predicted.value,
                )
            )
        return report
