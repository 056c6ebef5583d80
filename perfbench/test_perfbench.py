"""Self-tests for the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS, attempts, parse_output  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    Tracer,
    covered_time,
    layer_self_times,
    percentile,
    self_times,
    tail_percentile,
)


def span(id, parent, start, end, layer="x", name=None):
    return Span(id, parent, name or f"s{id}", layer, start, end, "run")


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        # root [0, 10] holds two overlapping children and one that runs
        # past root's end; child 1 holds a grandchild.
        self.spans = [
            span(0, None, 0.0, 10.0, "bench", "run"),
            span(1, 0, 1.0, 4.0, "a"),
            span(2, 1, 2.0, 3.0, "b"),
            span(3, 0, 3.0, 6.0, "b"),
            span(4, 0, 8.0, 12.0, "a"),
        ]

    def test_self_time_subtracts_union_of_children(self):
        own = self_times(self.spans)
        self.assertAlmostEqual(own[0], 10.0 - (5.0 + 2.0))  # [1, 6] and [8, 10]
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 4.0)

    def test_layer_self_times_sum_spans(self):
        totals = layer_self_times(self.spans)
        self.assertEqual(set(totals), {"bench", "a", "b"})
        self.assertAlmostEqual(totals["a"], 6.0)
        self.assertAlmostEqual(totals["b"], 4.0)

    def test_covered_time_does_not_double_count(self):
        self.assertAlmostEqual(covered_time(self.spans, {"s1", "s2", "s3"}), 5.0)
        self.assertAlmostEqual(covered_time(self.spans, {"missing"}), 0.0)

    def test_tracer_links_parents_and_restores_patches(self):
        tracer = Tracer("run-1")
        module = type(sys)("fake")
        module.__name__ = "fake"

        def inner():
            return 1

        def outer():
            return module.inner() + 1

        inner.__module__ = outer.__module__ = "pkg.mod"
        module.inner, module.outer = inner, outer
        seen = []
        tracer.wrap(module, "inner", lambda a, k, r, s: seen.append(r))
        tracer.wrap(module, "outer")
        with tracer.span("run", "bench"):
            self.assertEqual(module.outer(), 2)
        tracer.uninstall()
        self.assertIs(module.inner, inner)
        self.assertEqual(seen, [1])
        names = [(s.name, s.layer, s.parent) for s in tracer.spans]
        self.assertEqual(names, [("run", "bench", None), ("outer", "mod", 0), ("inner", "mod", 1)])
        self.assertEqual({s.run_id for s in tracer.spans}, {"run-1"})


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {15: 50.0, 20: 50.0, 99: 50.0, 100: 90.0, 180: 90.0, 199: 90.0,
                 200: 95.0, 999: 95.0, 1000: 99.0, 10000: 99.9}
        for n, expected in cases.items():
            self.assertEqual(tail_percentile(n), expected, n)

    def test_nearest_rank_leaves_ten_beyond(self):
        values = list(range(1, 201))
        p = tail_percentile(len(values))
        value = percentile(values, p)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(percentile(values, 50.0), 100)
        self.assertEqual(percentile([], 95.0), 0.0)


class AttemptCountTest(unittest.TestCase):
    def failed(self, stdout):
        done = attempts(*parse_output(stdout))
        return len(done), sum(not r["ok"] for r in done)

    def test_each_call_is_an_attempt(self):
        out = '{"call": 0, "ok": true}\nnot json\n{"call": 1, "ok": false}\n{"ok": false}\n'
        self.assertEqual(self.failed(out), (2, 1))
        self.assertEqual(self.failed('{"call": 0, "ok": true}\n{"ok": true}\n'), (1, 0))

    def test_worker_failing_outside_its_calls_counts_once(self):
        self.assertEqual(self.failed('{"ok": true}\n'), (1, 0))  # set-up-only worker
        self.assertEqual(self.failed('{"ok": false}\n'), (1, 1))  # set-up raised
        self.assertEqual(self.failed('{"call": 0, "ok": true}\n'), (2, 1))  # died mid-call
        self.assertEqual(self.failed(""), (1, 1))


TINY = {"source": "cmaes-style", "count": 12, "topology": "small_world", "k": 4,
        "metric": "jaccard_edges", "algorithm": "chinese_whispers",
        "rounds": 2, "repeats": 3, "seed": 7}


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        cls.out = workloads.run_route("pipeline", TINY, cls.tmp)
        cls.digest = checks.sha256_file(os.path.join(cls.out, "report.json"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def copy_out(self):
        dst = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, dst)
        out = os.path.join(dst, "out")
        shutil.copytree(self.out, out)
        return dst, out

    def flip_byte(self, path, find: bytes, replace: bytes):
        with open(path, "rb") as fh:
            data = fh.read()
        self.assertEqual(len(find), len(replace))
        self.assertIn(find, data)
        with open(path, "wb") as fh:
            fh.write(data.replace(find, replace, 1))

    def test_untouched_output_passes(self):
        work, out = self.copy_out()
        self.assertEqual(checks.check_run("pipeline", TINY, out, work, self.digest), self.digest)

    def test_report_altered_by_one_byte_is_rejected(self):
        work, out = self.copy_out()
        self.flip_byte(os.path.join(out, "report.json"), b'"removed_count": ', b'"removed_count":\t')
        with self.assertRaises(checks.CheckError):
            checks.check_run("pipeline", TINY, out, work, self.digest)
        # without a recorded digest the round-trip check still sees it
        with self.assertRaises(checks.CheckError):
            checks.check_run("pipeline", TINY, out, work, None)

    def test_reduced_sample_off_the_reference_is_rejected(self):
        work, out = self.copy_out()
        path = os.path.join(out, "distribution_reduced.csv")
        with open(path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        index, value = rows[1].split(",")
        rows[1] = f"{index},{repr(float(value) + 1e-9 if float(value) < 0.5 else float(value) - 1e-9)}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        with self.assertRaises(checks.CheckError):
            checks.check_run("pipeline", TINY, out, work, None)

    def test_triad_split_reproduces_profile_and_rejects_a_change(self):
        from fcmreduce.pipeline import config_from_dict, stage_population

        cfg = config_from_dict(TINY)
        agents = stage_population(cfg)
        checks.check_triad_split([], agents, cfg)
        from fcmreduce.similarity import triad_profile

        mc = cfg.metric_config()
        args = (agents[0].fcm, mc.view, 2, 1, 5)
        profile = triad_profile(*args)
        checks.check_triad_split([(args, {}, profile)], agents, cfg)
        with self.assertRaises(checks.CheckError):
            checks.check_triad_split([(args, {}, profile * (1 + 1e-15) + 1e-12)], agents, cfg)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_matches_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(per_layer, PER_LAYER_UNITS)
        end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.assertEqual(end_to_end, END_TO_END_UNITS)
        spec = workloads.load_spec()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(spec["workloads"]))
        for w in bench["workloads"]:
            self.assertEqual(w["why"], spec["workloads"][w["name"]]["why"])
        from fcmreduce.similarity import METRIC_KINDS

        self.assertEqual(layers.METRIC_KINDS, METRIC_KINDS)
        for workload in spec["workloads"].values():
            self.assertIn(workload["route"], workloads.ROUTES)
            self.assertEqual(workload["config"]["seed"], spec["recorded_seed"])


if __name__ == "__main__":
    unittest.main()
