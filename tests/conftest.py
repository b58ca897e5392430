"""Shared fixtures.

Heavy world-building fixtures are session-scoped: the small ecosystem and
the end-to-end pipeline run are deterministic (seeded), so sharing them
across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline, PipelineWorld
from repro.discordsim.platform import DiscordPlatform
from repro.ecosystem.generator import Ecosystem, EcosystemConfig, generate_ecosystem
from repro.web.network import VirtualClock, VirtualInternet


@pytest.fixture(autouse=True)
def _pristine_disk():
    """The storage-fault shim is process-global; never let it leak across tests."""
    from repro.core.storage import uninstall_faults

    uninstall_faults()
    yield
    uninstall_faults()


@pytest.fixture
def collector():
    """The cycle collector with an empty ``gc.garbage``, put back as the test found it however it ends."""
    enabled, garbage = gc.isenabled(), list(gc.garbage)
    gc.garbage.clear()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage[:] = garbage
        if enabled:
            gc.enable()


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def internet(clock: VirtualClock) -> VirtualInternet:
    return VirtualInternet(clock, seed=7)


@pytest.fixture
def platform(clock: VirtualClock) -> DiscordPlatform:
    return DiscordPlatform(clock)


@pytest.fixture(scope="session")
def small_ecosystem() -> Ecosystem:
    """A 600-bot population used by read-only tests."""
    return generate_ecosystem(EcosystemConfig(n_bots=600, seed=42, honeypot_window=60))


@pytest.fixture(scope="session")
def pipeline_config() -> PipelineConfig:
    return PipelineConfig().scaled(n_bots=600, honeypot_sample_size=60)


@pytest.fixture(scope="session")
def pipeline_result(pipeline_config: PipelineConfig):
    """One full end-to-end run shared by all integration assertions."""
    pipeline = AssessmentPipeline(pipeline_config)
    return pipeline.run()
