"""Measurement aggregation: the paper's tables and figures.

- :mod:`repro.analysis.permission_stats` — Figure 3 + the 74%/26% split.
- :mod:`repro.analysis.developer_stats` — Table 1.
- :mod:`repro.analysis.traceability_stats` — Table 2.
- :mod:`repro.analysis.code_stats` — the Section 4.2 code-analysis numbers.
- :mod:`repro.analysis.tables` — ASCII rendering for tables and bar charts.
"""

from repro.analysis.permission_stats import PermissionDistribution
from repro.analysis.developer_stats import DeveloperDistribution
from repro.analysis.traceability_stats import TraceabilitySummary
from repro.analysis.code_stats import CodeAnalysisSummary
from repro.analysis.risk import RiskSummary, over_privilege_index, risk_score
from repro.analysis.longitudinal import SnapshotDelta, compare_snapshots, trend
from repro.analysis.paper import PAPER_METRICS, compare_with_paper
from repro.analysis.tables import render_bar_chart, render_table

__all__ = [
    "CodeAnalysisSummary",
    "DeveloperDistribution",
    "PAPER_METRICS",
    "PermissionDistribution",
    "compare_with_paper",
    "RiskSummary",
    "SnapshotDelta",
    "TraceabilitySummary",
    "compare_snapshots",
    "over_privilege_index",
    "render_bar_chart",
    "render_table",
    "risk_score",
    "trend",
]
