import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce.analysis import (
    FidelityReport,
    build_report,
    export_long_format,
    output_kl,
    report_from_json,
    report_to_json,
    summarize,
    sweep_row,
)
from fcmreduce.community import CommunityStats
from fcmreduce.errors import ReportError
from fcmreduce.harness import OutputDistribution


def brute_force_summary(values):
    """Sort-based oracle: mean, n-1 std, and linear-interpolation quantiles
    computed from first principles."""
    s = sorted(values)
    n = len(s)
    mean = sum(s) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in s) / (n - 1)) if n > 1 else 0.0

    def quantile(p):
        h = (n - 1) * p
        lo = math.floor(h)
        hi = math.ceil(h)
        return s[lo] + (h - lo) * (s[hi] - s[lo])

    return {
        "mean": mean,
        "std": std,
        "min": s[0],
        "p25": quantile(0.25),
        "p50": quantile(0.50),
        "p75": quantile(0.75),
        "max": s[-1],
    }


class TestSummarize:
    def test_single_sample(self):
        stats = summarize(OutputDistribution(np.array([0.5])))
        assert stats == {
            "mean": 0.5, "std": 0.0, "min": 0.5,
            "p25": 0.5, "p50": 0.5, "p75": 0.5, "max": 0.5,
        }

    def test_zero_one(self):
        stats = summarize(OutputDistribution(np.array([0.0, 1.0])))
        assert stats["mean"] == 0.5
        assert stats["min"] == 0.0
        assert stats["max"] == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 1, size=int(rng.integers(1, 101)))
        got = summarize(OutputDistribution(values))
        expected = brute_force_summary(values.tolist())
        for key in expected:
            assert got[key] == pytest.approx(expected[key], abs=1e-12), key


class TestOutputKl:
    def test_identical_distributions_zero(self):
        d = OutputDistribution(np.array([0.1, 0.4, 0.4, 0.8]))
        assert output_kl(d, d) == 0.0

    def test_degenerate_range_zero(self):
        d = OutputDistribution(np.array([0.5, 0.5, 0.5]))
        assert output_kl(d, d) == 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = OutputDistribution(rng.uniform(0, 1, size=int(rng.integers(1, 60))))
        b = OutputDistribution(rng.uniform(0, 1, size=int(rng.integers(1, 60))))
        assert output_kl(a, b) >= 0.0

    def test_shifted_distributions_large(self):
        a = OutputDistribution(np.full(50, 0.1) + np.linspace(0, 0.01, 50))
        b = OutputDistribution(np.full(50, 0.9) + np.linspace(0, 0.01, 50))
        assert output_kl(a, b) > 1.0

    # bins 0 and -1 used to give KL 0.0 for any pair, and 2.5 a bare TypeError
    @pytest.mark.parametrize("bins", [0, -1, 2.5, True])
    def test_bins_must_be_an_integer_at_least_1(self, bins):
        a = OutputDistribution(np.array([0.1, 0.2, 0.3]))
        b = OutputDistribution(np.array([0.7, 0.8, 0.9]))
        with pytest.raises(ReportError, match="bins must be an integer >= 1"):
            output_kl(a, b, bins=bins)
        with pytest.raises(ReportError, match="bins"):
            build_report(b, a, 0, CommunityStats(3, 1.0, 1, 1), {}, bins=bins)


def example_report():
    original = OutputDistribution(np.linspace(0.4, 0.6, 50))
    simplified = OutputDistribution(np.linspace(0.35, 0.65, 50))
    return build_report(
        original,
        simplified,
        removed_count=42,
        community_stats=CommunityStats(count=8, avg_size=6.25, max_size=12, min_size=2),
        config={"seed": 3, "metric": "jaccard_edges"},
    )


class TestReport:
    def test_identity_has_zero_kl_and_removed(self):
        d = OutputDistribution(np.linspace(0.4, 0.6, 30))
        report = build_report(
            d, d, 0, CommunityStats(30, 1.0, 1, 1), {"seed": 1}
        )
        assert report.kl_divergence == 0.0
        assert report.removed_count == 0

    @pytest.mark.filterwarnings("error")
    def test_unsmoothed_empty_bins_rejected_not_nan(self):
        # with alpha 0, bins empty in both distributions give 0 * log(0 / 0),
        # and no numpy warning escapes before the ReportError
        original = OutputDistribution(np.array([0.0, 0.0, 1.0]))
        simplified = OutputDistribution(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ReportError, match="nan"):
            build_report(original, simplified, 0, CommunityStats(3, 1.0, 1, 1), {}, alpha=0.0)

    def test_json_round_trip_lossless(self):
        report = example_report()
        again = report_from_json(report_to_json(report))
        assert again == report
        assert report_to_json(again) == report_to_json(report)

    def test_quartile_order_enforced(self):
        stats = {"mean": 0.5, "std": 0.1, "min": 0.9, "p25": 0.2, "p50": 0.3, "p75": 0.4, "max": 1.0}
        with pytest.raises(ReportError):
            FidelityReport(0.0, stats, stats, 0, {}, {})

    def test_sweep_row_layout(self):
        report = example_report()
        row = sweep_row(report, "small_world", "tsp", "chinese_whispers")
        assert row[:3] == ["small_world", "tsp", "chinese_whispers"]
        assert len(row) == 10
        assert row[8] == 8 and row[9] == 42

    def test_long_format_csv(self, tmp_path):
        original = OutputDistribution(np.array([0.1, 0.2]))
        simplified = OutputDistribution(np.array([0.3, 0.4]))
        path = tmp_path / "violin.csv"
        export_long_format(original, simplified, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["model", "run_index", "value"]
        assert len(rows) == 5
        assert rows[1][0] == "original" and rows[3][0] == "simplified"
