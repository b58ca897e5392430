"""The generated population, pinned to its bytes.

Every bot the stream builds is a function of ``(config, rank)`` alone, and
the comparable result of every run is a function of the population.  These
digests pin the population itself, so a change to how a bot is drawn (RNG
reuse, precomputed sampling tables, skipped draws) that alters one field of
one bot fails here, before any pipeline runs.

The dump is canonical, so it reads the same under any ``PYTHONHASHSEED`` and
on every supported CPython: sets are sorted, enums and ``Permissions`` are
written by value, and dicts keep their insertion order (which the language
fixes; repo files are listed in the order a repo page shows them).  A
``repr`` would not do: a frozenset's iteration order follows string hashes.

To regenerate after a deliberate change to the population, run
``PYTHONPATH=src python tests/test_population_golden.py`` and paste what it
prints into ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum

import pytest

from repro.discordsim.permissions import Permissions
from repro.ecosystem.distributions import (
    CodeAnalysisTargets,
    Fig3Targets,
    HoneypotTargets,
    PopulationTargets,
    Targets,
)
from repro.ecosystem.evolution import evolve_ecosystem
from repro.ecosystem.stream import EcosystemConfig, EcosystemStream, generate_ecosystem

N_BOTS = 2_000
PAPER_SCALE = 20_915


def _halved(shares: dict) -> dict:
    return {key: value / 2 for key, value in shares.items()}


def _reweighted(shares: dict) -> dict:
    """The same keys with their weights reversed, so every cumulative table moves."""
    return dict(zip(shares, reversed(list(shares.values()))))


def altered_targets() -> Targets:
    """Targets that differ from the defaults in every table a bot is drawn from."""
    population = PopulationTargets()
    population.invalid_breakdown = _reweighted(population.invalid_breakdown)
    population.extra_scope_rates = _halved(population.extra_scope_rates)
    code = CodeAnalysisTargets()
    code.language_shares = _reweighted(code.language_shares)
    code.invalid_link_breakdown = _reweighted(code.invalid_link_breakdown)
    honeypot = HoneypotTargets()
    honeypot.benign_behavior_weights = _reweighted(honeypot.benign_behavior_weights)
    return Targets(
        population=population,
        fig3=Fig3Targets(percentages=_halved(Fig3Targets().percentages)),
        code=code,
        honeypot=honeypot,
    )


def canonical(value):
    """A JSON-ready form of a population value that no hash seed can reorder."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Permissions):
        return value.value
    if dataclasses.is_dataclass(value):
        return {field.name: canonical(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, dict):
        return [[canonical(key), canonical(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(value) -> str:
    payload = json.dumps(canonical(value), sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def ecosystem_dump(ecosystem) -> dict:
    return {
        "bots": ecosystem.bots,
        "developers": list(ecosystem.developers.values()),
        "overlay": ecosystem.overlay,
    }


def materialized(seed: int, targets: Targets | None = None) -> dict:
    config = EcosystemConfig(n_bots=N_BOTS, seed=seed)
    if targets is not None:
        config.targets = targets
    return ecosystem_dump(generate_ecosystem(config))


def paper_scale_ranks(seed: int) -> dict:
    """``bot_at`` at eight ranks of a paper-scale stream, the plant's among them."""
    stream = EcosystemStream(EcosystemConfig(n_bots=PAPER_SCALE, seed=seed))
    plant = stream.overlay.rank
    ranks = [0, 1, plant, 511, 512, 10_457, PAPER_SCALE - 2, PAPER_SCALE - 1]
    return {"plant": plant, "bots": [stream.bot_at(rank) for rank in ranks]}


def evolved(seed: int) -> dict:
    """One epoch of evolution; its fresh entrants are drawn by ``_generate_bot``."""
    snapshot, log = evolve_ecosystem(generate_ecosystem(EcosystemConfig(n_bots=N_BOTS, seed=seed)), seed=2)
    return {"snapshot": ecosystem_dump(snapshot), "log": log}


CASES = {
    "materialized-1": lambda: materialized(1),
    "materialized-2": lambda: materialized(2),
    "materialized-3": lambda: materialized(3),
    "altered-targets-1": lambda: materialized(1, altered_targets()),
    "altered-targets-2": lambda: materialized(2, altered_targets()),
    "altered-targets-3": lambda: materialized(3, altered_targets()),
    "paper-scale-ranks-1": lambda: paper_scale_ranks(1),
    "evolved-1": lambda: evolved(1),
}

#: sha256 of each case's canonical dump.
GOLDEN = {
    "materialized-1": "aa92c3ffca90a48b2cf6c16e9d376fd9d40405926852f356bc55d06adbb53024",
    "materialized-2": "0470836b61a675bedf797b652c1b31ec0adf7dc3cd6de0c0d7da95f0d4b8476a",
    "materialized-3": "d8984c62166a59b81233146d9d814423646696982398fcf9d3dc5f0323252430",
    "altered-targets-1": "e7f53cd1591e7904125b61865c131393fe0af5c8fa332b284ccd26cc423f4f5c",
    "altered-targets-2": "94b015fad1fdfa2b51ec5baf7acd503fce0c45ff57bea60ed2f93737c2ca12c0",
    "altered-targets-3": "f029a58a1bb5c60786f4bf545f1f1634ee5673651f72d45db680f7c5d1ee7923",
    "paper-scale-ranks-1": "a035e1010d1477a1eb8aa2fc45161ca858d800bc68ed9dd3c3a14ca1e70193e9",
    "evolved-1": "fd6edaea51ab4e9b123df59701515efb5ff0543a02a5c7c5bf5ddec972605b9a",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_population_bytes_are_pinned(case):
    assert digest(CASES[case]()) == GOLDEN[case]


def test_altered_targets_change_every_table():
    """The altered targets move each drawn attribute, so their cases pin the tables."""
    default = materialized(1)["bots"]
    altered = materialized(1, altered_targets())["bots"]
    for field in ("permissions", "scopes", "invite_status", "github", "behavior"):
        assert [canonical(getattr(bot, field)) for bot in default] != [
            canonical(getattr(bot, field)) for bot in altered
        ], field
    languages = [bot.github.language for bot in altered if bot.github is not None and bot.github.language]
    kinds = {bot.github.kind for bot in altered if bot.github is not None}
    assert len(set(languages)) >= 6 and len(kinds) >= 5


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(CASES[name]())}",')
