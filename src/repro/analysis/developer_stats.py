"""Table 1: bots distribution by number of developers."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.scraper.topgg import ScrapedBot


@dataclass
class DeveloperDistribution:
    """Developers grouped by how many bots each has published."""

    developer_bot_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_bots(cls, bots: Iterable[ScrapedBot]) -> "DeveloperDistribution":
        dist = cls()
        for bot in bots:
            dist.add(bot)
        return dist

    def add(self, bot: ScrapedBot) -> None:
        """Count one scraped bot in (developers keep first-seen order)."""
        if bot.developer_tag:
            counts = self.developer_bot_counts
            counts[bot.developer_tag] = counts.get(bot.developer_tag, 0) + 1

    @property
    def total_developers(self) -> int:
        return len(self.developer_bot_counts)

    @property
    def max_bots_by_one_developer(self) -> int:
        return max(self.developer_bot_counts.values(), default=0)

    def most_prolific(self) -> tuple[str, int]:
        """The developer with the most bots (the paper's editid#6714)."""
        if not self.developer_bot_counts:
            return ("", 0)
        tag = max(self.developer_bot_counts, key=lambda key: self.developer_bot_counts[key])
        return (tag, self.developer_bot_counts[tag])

    def table1(self) -> list[tuple[int, int, float]]:
        """Rows of ``(bots_published, developer_count, percent)``."""
        grouped: Counter = Counter(self.developer_bot_counts.values())
        total = self.total_developers or 1
        return [
            (bot_count, developers, 100.0 * developers / total)
            for bot_count, developers in sorted(grouped.items())
        ]

    def percent_with_one_bot(self) -> float:
        """The paper's "89% have published just one chatbot"."""
        for bot_count, _, percent in self.table1():
            if bot_count == 1:
                return percent
        return 0.0
