"""TAB1: bots distribution by number of developers.

Paper (Table 1): 89.08% of the 12,427 developers published exactly one bot;
8.76% two; the long tail tops out at 12 bots for a single developer
(editid#6714).

The generator draws each developer's bot count independently from the
paper's shares, so only the rows with enough developers keep the paper's
order at any seed: rows 1-5 (at least 19 developers in the paper, about
28 at 20,915 bots) must shrink monotonically.  The tail rows (6, 7, 8,
11 and 12 bots) expect about 9, 6, 3, 1.5 and 1.5 developers, and their
order is a coin toss; each is checked against the count the paper's share
predicts instead, within the central 99.9% of a Poisson law with that
mean.  Over the five rows a correct generator fails at most 0.5% of seeds,
while a generator that inverts the shares puts thousands of developers in
the 12-bot row.
"""

import math

from repro.analysis.developer_stats import DeveloperDistribution
from repro.analysis.tables import render_table

from conftest import tolerance

PAPER_ONE_BOT_PERCENT = 89.08
PAPER_TWO_BOT_PERCENT = 8.76
PAPER_MAX_BOTS = 12
#: Table 1 verbatim: developers by number of published bots.
PAPER_TABLE1 = {1: 11_070, 2: 1_089, 3: 185, 4: 50, 5: 19, 6: 6, 7: 4, 8: 2, 11: 1, 12: 1}
#: Rows with fewer paper developers than this are the tail.
TAIL_BELOW = 19
#: Probability, per side and per tail row, that a correct generator falls outside its interval.
TAIL_ALPHA = 0.0005


def poisson_interval(mean: float, alpha: float) -> tuple[int, int]:
    """The smallest and largest counts with at most ``alpha`` of Poisson(``mean``) below or above."""
    low, high, k = None, None, 0
    pmf = cdf = math.exp(-mean)
    while high is None:
        if low is None and cdf > alpha:
            low = k
        if cdf >= 1.0 - alpha:
            high = k
        k += 1
        pmf *= mean / k
        cdf += pmf
    return low, high


def test_bench_table1(benchmark, paper_scale_result):
    bots = paper_scale_result.crawl.bots

    dist = benchmark(DeveloperDistribution.from_bots, bots)
    table = dist.table1()
    by_count = {row[0]: row for row in table}

    assert abs(by_count[1][2] - PAPER_ONE_BOT_PERCENT) < tolerance(1.5)
    assert abs(by_count[2][2] - PAPER_TWO_BOT_PERCENT) < tolerance(1.5)
    # Rows 1-5 shrink monotonically; the tail is capped at the paper's 12-bot maximum.
    percents = [percent for count, _, percent in table if PAPER_TABLE1.get(count, 0) >= TAIL_BELOW]
    assert percents == sorted(percents, reverse=True)
    assert dist.max_bots_by_one_developer <= PAPER_MAX_BOTS
    # Each tail row holds about as many developers as the paper's share of this population predicts.
    paper_total = sum(PAPER_TABLE1.values())
    for count, paper_developers in PAPER_TABLE1.items():
        if paper_developers >= TAIL_BELOW:
            continue
        expected = dist.total_developers * paper_developers / paper_total
        low, high = poisson_interval(expected, TAIL_ALPHA)
        seen = by_count[count][1] if count in by_count else 0
        assert low <= seen <= high, f"{seen} developers with {count} bots; expected {expected:.1f} ({low}-{high})"

    print()
    print(
        render_table(
            ("No of Bots", "Developers", "Percent"),
            [(count, developers, f"{percent:.2f}%") for count, developers, percent in table],
            title="Table 1 (reproduced)",
        )
    )
    tag, bot_count = dist.most_prolific()
    print(f"Most prolific developer: {tag} ({bot_count} bots)")
