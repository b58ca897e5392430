"""Figure 3: the permission-request distribution.

Also carries the headline 74%-valid / 26%-invalid split and the
"redundant with administrator" indicator discussed in Section 5
(misunderstanding the permission system).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.discordsim.permissions import DISPLAY_NAMES, Permission
from repro.scraper.topgg import PermissionStatus, ScrapedBot


@dataclass
class PermissionDistribution:
    """Permission-request marginals over a scraped population."""

    total_bots: int = 0
    valid_bots: int = 0
    status_counts: Counter = field(default_factory=Counter)
    permission_counts: Counter = field(default_factory=Counter)  # display name -> bots
    scope_counts: Counter = field(default_factory=Counter)  # scope name -> bots
    admin_with_extras: int = 0

    @classmethod
    def from_bots(cls, bots: Iterable[ScrapedBot]) -> "PermissionDistribution":
        dist = cls()
        for bot in bots:
            dist.add(bot)
        return dist

    def add(self, bot: ScrapedBot) -> None:
        """Count one scraped bot in."""
        self.total_bots += 1
        self.status_counts[bot.permission_status.value] += 1
        if not bot.has_valid_permissions:
            return
        self.valid_bots += 1
        permissions = bot.permissions
        for flag in permissions.flags():
            self.permission_counts[DISPLAY_NAMES[flag]] += 1
        for scope in bot.scope_names:
            self.scope_counts[scope] += 1
        if permissions.redundant_with_administrator():
            self.admin_with_extras += 1

    # -- headline numbers -----------------------------------------------------

    @property
    def valid_fraction(self) -> float:
        return self.valid_bots / self.total_bots if self.total_bots else 0.0

    def percent(self, display_name: str) -> float:
        """Percent of valid-permission bots requesting ``display_name``."""
        if not self.valid_bots:
            return 0.0
        return 100.0 * self.permission_counts.get(display_name, 0) / self.valid_bots

    @property
    def administrator_percent(self) -> float:
        return self.percent(DISPLAY_NAMES[Permission.ADMINISTRATOR])

    @property
    def send_messages_percent(self) -> float:
        return self.percent(DISPLAY_NAMES[Permission.SEND_MESSAGES])

    @property
    def admin_with_extras_fraction(self) -> float:
        """Among valid bots, the share requesting admin *plus* other bits."""
        return self.admin_with_extras / self.valid_bots if self.valid_bots else 0.0

    # -- figure series ------------------------------------------------------------

    def top_permissions(self, count: int = 20) -> list[tuple[str, float]]:
        """Top-``count`` permissions by request share, descending."""
        ranked = sorted(
            ((name, self.percent(name)) for name in self.permission_counts),
            key=lambda item: item[1],
            reverse=True,
        )
        return ranked[:count]

    def fig3_series(self, count: int = 25) -> list[tuple[str, float]]:
        """The figure's series: top permissions, alphabetical by label
        (matching the paper's axis ordering)."""
        top = dict(self.top_permissions(count))
        return sorted(top.items(), key=lambda item: item[0])

    def scope_percent(self, scope_name: str) -> float:
        """Percent of valid bots requesting the given OAuth scope."""
        if not self.valid_bots:
            return 0.0
        return 100.0 * self.scope_counts.get(scope_name, 0) / self.valid_bots

    def extra_scope_series(self) -> list[tuple[str, float]]:
        """Non-``bot`` scopes by request share, descending."""
        return sorted(
            ((scope, self.scope_percent(scope)) for scope in self.scope_counts if scope != "bot"),
            key=lambda item: item[1],
            reverse=True,
        )

    def invalid_breakdown(self) -> dict[str, int]:
        return {
            status.value: self.status_counts.get(status.value, 0)
            for status in PermissionStatus
            if status is not PermissionStatus.VALID
        }
