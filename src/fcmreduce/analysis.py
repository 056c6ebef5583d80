"""Fidelity of a reduced model's output distribution against the original.

The headline number is D(simplified || original) over a shared histogram;
summary statistics (mean, sample std, quartiles) of both distributions and
the reduction bookkeeping (agents removed, community shape) round out the
report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .community import CommunityStats
from .errors import ReportError, check_integer
from .files import write_csv
from .harness import OutputDistribution
from .similarity import kl_from_samples


def output_kl(
    simplified: OutputDistribution,
    original: OutputDistribution,
    bins: int = 20,
    alpha: float = 1e-6,
) -> float:
    """D(simplified || original) over `bins` shared histogram bins spanning
    the pooled sample range, with additive smoothing alpha. A degenerate
    zero-width pooled range yields 0. ReportError unless bins is an integer >= 1."""
    bins = check_integer("bins", bins, ReportError, 1)
    s = simplified.samples
    o = original.samples
    lo = min(s.min(), o.min())
    hi = max(s.max(), o.max())
    if lo == hi:
        return 0.0
    return kl_from_samples(s, o, np.linspace(lo, hi, bins + 1), alpha)


def summarize(dist: OutputDistribution) -> dict:
    """mean, sample std (n-1 denominator; 0 for a single sample), min,
    quartiles by linear interpolation, max."""
    s = dist.samples
    p25, p50, p75 = np.percentile(s, (25, 50, 75)).tolist()
    return {
        "mean": float(s.mean()),
        "std": float(s.std(ddof=1)) if len(s) > 1 else 0.0,
        "min": float(s.min()),
        "p25": p25,
        "p50": p50,
        "p75": p75,
        "max": float(s.max()),
    }


@dataclass
class FidelityReport:
    kl_divergence: float
    original: dict
    simplified: dict
    removed_count: int
    communities: dict
    config: dict

    def __post_init__(self):
        for stats in (self.original, self.simplified):
            q = [stats["min"], stats["p25"], stats["p50"], stats["p75"], stats["max"]]
            if any(a > b for a, b in zip(q, q[1:])):
                raise ReportError(f"quartiles out of order: {stats}")
        if not self.kl_divergence >= 0:
            raise ReportError(f"KL divergence must be >= 0, got {self.kl_divergence}")


def build_report(
    original: OutputDistribution,
    simplified: OutputDistribution,
    removed_count: int,
    community_stats: CommunityStats,
    config: dict,
    bins: int = 20,
    alpha: float = 1e-6,
) -> FidelityReport:
    return FidelityReport(
        kl_divergence=output_kl(simplified, original, bins=bins, alpha=alpha),
        original=summarize(original),
        simplified=summarize(simplified),
        removed_count=removed_count,
        communities=asdict(community_stats),
        config=config,
    )


def report_to_json(report: FidelityReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def report_from_json(text: str) -> FidelityReport:
    return FidelityReport(**json.loads(text))


SWEEP_HEADER = [
    "topology", "metric", "algorithm", "kl",
    "mean_original", "mean_simplified", "std_original", "std_simplified",
    "communities", "removed_count",
]


def sweep_row(report: FidelityReport, topology: str, metric: str, algorithm: str) -> list:
    """One flat CSV row per pipeline configuration, for sweep aggregation."""
    return [
        topology, metric, algorithm, repr(report.kl_divergence),
        repr(report.original["mean"]), repr(report.simplified["mean"]),
        repr(report.original["std"]), repr(report.simplified["std"]),
        report.communities["count"], report.removed_count,
    ]


def export_long_format(
    original: OutputDistribution, simplified: OutputDistribution, path
) -> None:
    """Violin-plot-ready long CSV: model,run_index,value for both models."""
    write_csv(path, ["model", "run_index", "value"], (
        [name, idx, repr(float(value))]
        for name, dist in (("original", original), ("simplified", simplified))
        for idx, value in enumerate(dist.samples)
    ))
