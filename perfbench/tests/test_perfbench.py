#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/tests/test_perfbench.py

Builds pab_perfbench like perfbench/run.py does (honouring CARGO_TARGET_DIR)
and checks that digests are reproducible and seed-dependent, that the traced
replay reproduces the end-to-end outputs of every workload, that every
printed metric is declared in BENCHMARK.json with a unit, and that the
output check rejects a digest that differs from the reference.
"""
import contextlib
import importlib.util
import io
import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(HERE), "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SECONDS = "0.2"


def bench(workload, seed, trace=0):
    """Runs run.py at tiny size; returns (exit code, result, digest line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds",
                         SECONDS, "--trace", str(trace), "--size", "tiny"])
    lines = out.getvalue().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return code, json.loads(lines[-1]), digest


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.declared = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))

    def test_same_seed_gives_same_digest(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code_a, result_a, digest_a = bench(w, 3)
                code_b, result_b, digest_b = bench(w, 3)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertTrue(result_a["correct"] and result_b["correct"])
                self.assertEqual(digest_a, digest_b)

    def test_different_seed_gives_different_digest(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(bench(w, 3)[2], bench(w, 4)[2])

    def test_traced_replay_matches_end_to_end(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result, _ = bench(w, 3, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["metrics"]["trace.coverage_min"]["value"], 0.5)

    def test_printed_metrics_are_declared_with_units(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in self.declared[section]}
            _, result, _ = bench("field_2000", 5, trace=trace)
            self.assertEqual(set(result["metrics"]), set(units))
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name])
                self.assertIsInstance(metric["value"], (int, float))

    def test_output_check_rejects_a_changed_digest(self):
        reference = run.load_json(os.path.join(run.ROOT, "perfbench", "reference.json"))
        want = reference["workloads"]["uplink_100bps"]
        report = {"workload": "uplink_100bps", "seed": reference["seed"],
                  "digest": want["digest"], "continuous": dict(want["continuous"]),
                  "consistent": True, "replay_matches": True, "sanity_error": ""}
        self.assertEqual(run.check_outputs(report, reference, "full"), [])
        flipped = dict(report, digest="%016x" % (int(want["digest"], 16) ^ 1))
        self.assertTrue(run.check_outputs(flipped, reference, "full"))
        drifted = dict(report, continuous={"mean_snr_db": want["continuous"]["mean_snr_db"] + 1e-3})
        self.assertTrue(run.check_outputs(drifted, reference, "full"))


if __name__ == "__main__":
    unittest.main()
