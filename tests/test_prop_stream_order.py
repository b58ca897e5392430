"""A stream's bots do not depend on the order it is asked for them (hypothesis).

One :class:`EcosystemStream` draws every per-rank attribute stream from a
single scratch RNG, reseeded before each stream's first draw.  Whatever
sequence of ranks and probes the stream serves, each profile must equal the
materialized one: a scratch RNG that carried state from one call to the next
(the normal ``gauss`` caches, say) would make a bot depend on the bot asked
for before it.
"""

from __future__ import annotations

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ecosystem.stream import BLOCK, EcosystemConfig, EcosystemStream, InviteStatus, generate_ecosystem

#: Three developer blocks, the last one short; the plant sits in the top 100.
CONFIG = EcosystemConfig(n_bots=2 * BLOCK + 76, seed=11, honeypot_window=100)
N = CONFIG.n_bots

rank = st.integers(min_value=0, max_value=N - 1)
run = st.integers(min_value=1, max_value=40)
#: ``(kind, rank, count)``: the same bot or probe ``count`` times in a row, a
#: descending run of ``count`` ranks, or an ``iter_bots`` slice.
step = st.one_of(
    st.tuples(st.just("repeat"), rank, st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("descending"), rank, run),
    st.tuples(st.just("slice"), rank, run),
    st.tuples(st.sampled_from(("invite", "policy")), rank, st.integers(min_value=1, max_value=3)),
)


@functools.lru_cache(maxsize=None)
def materialized():
    ecosystem = generate_ecosystem(CONFIG)
    return ecosystem.bots, ecosystem.overlay.rank


def expected_invite(index: int) -> InviteStatus:
    bots, plant = materialized()
    # The overlay forces the plant's invite valid; it was drawn among valid ones.
    return InviteStatus.VALID if index == plant else bots[index].invite_status


class TestAccessOrder:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(step, min_size=1, max_size=12))
    @example(steps=[("repeat", 7, 2)])
    @example(steps=[("descending", BLOCK + 3, 8), ("slice", BLOCK - 4, 8)])
    @example(steps=[("invite", 3, 1), ("repeat", 2, 1), ("policy", 2, 1), ("repeat", 3, 3)])
    @example(steps=[("invite", 3, 2), ("policy", 3, 2), ("repeat", 3, 1)])
    def test_every_profile_equals_the_materialized_one(self, steps):
        bots, _ = materialized()
        # A two-block cache, so random access also regenerates developer blocks.
        stream = EcosystemStream(CONFIG, block_cache=2)
        for kind, start, count in steps:
            if kind == "invite":
                for _ in range(count):
                    assert stream.invite_status_at(start) is expected_invite(start), start
            elif kind == "policy":
                expected = bots[start].policy.present and bots[start].policy.link_valid
                for _ in range(count):
                    assert stream.policy_eligible_at(start) == expected, start
            elif kind == "slice":
                assert list(stream.iter_bots(start, count)) == bots[start : start + count], (start, count)
            else:
                ranks = [start] * count if kind == "repeat" else range(start, max(start - count, -1), -1)
                for index in ranks:
                    assert stream.bot_at(index) == bots[index], index

    def test_the_plant_probe_agrees_with_its_profile(self):
        bots, plant = materialized()
        stream = EcosystemStream(CONFIG)
        assert stream.bot_at(plant).name == "Melonian"
        assert stream.invite_status_at(plant) is bots[plant].invite_status is InviteStatus.VALID
