#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/tests/test_perfbench.py      (from the repo root)

Copies BENCHMARK.json, perfbench/ and src/ into a fresh directory, so
the benchmark builds from an empty build directory exactly as it does
in a clean checkout, and then checks that

  - the command BENCHMARK.json declares runs every workload (with
    --smoke appended) and prints every declared metric with its unit,
    traced and untraced, each per-layer metric positive on the
    workloads that measure it;
  - the pinned digests reproduce for both pinned seeds;
  - the correctness checks fire: a wrong expected digest, a unit forced
    to fail, and a fuzz run over the sabotaged CPPC each leave
    failed > 0, correct false and a non-zero exit status;
  - in a directory holding only BENCHMARK.json and perfbench/ the
    command fails without printing a result.

Takes a few minutes, most of it the build.
"""

import json
import math
import os
import re
import shutil
import subprocess
import tempfile
import unittest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PINNED_SEEDS = []
with open(os.path.join(REPO, "perfbench", "bench", "pins.hh")) as f:
    for m in re.finditer(r"k(?:Default|HeldOut)Seed = (\d+);", f.read()):
        PINNED_SEEDS.append(int(m.group(1)))

SWEEP, CAMPAIGN, FUZZ = "figure-sweep", "fault-campaign", "fuzz-conformance"
ALL = {SWEEP, CAMPAIGN, FUZZ}
# The workloads that measure each per-layer metric (the "on" column of
# README.md).  There a metric must be positive; elsewhere it reads 0.
LAYER_ON = {
    "trace.gen_ns_per_inst": {SWEEP},
    "cpu.core_ns_per_inst": {SWEEP},
    "cache.l2_ns_per_inst": {SWEEP},
    "cache.mem_ns_per_inst": {SWEEP},
    "cache.l1d_misses_per_kinst": {SWEEP},
    "cache.l2_misses_per_kinst": {SWEEP},
    "cache.l2_evictions_per_kinst": {SWEEP},
    "cache.writebacks_per_kinst": {SWEEP},
    "scheme.rbw_words_per_kinst.cppc": {SWEEP},
    "sim.hierarchy_build_ms": {SWEEP},
    "energy.compute_us": {SWEEP},
    "fault.campaign_us_per_strike": {CAMPAIGN},
    "fault.host_build_ms": {CAMPAIGN},
    "scheme.resync_rows_per_strike": {CAMPAIGN},
    "state.save_ms": {CAMPAIGN, FUZZ},
    "state.snapshot_bytes": {CAMPAIGN, FUZZ},
    "harness.snapshot_publish_ms": {CAMPAIGN, FUZZ},
    "verify.gen_ns_per_op": {FUZZ},
    "verify.replay_ns_per_op": {FUZZ},
    "scheme.fuzz_ns_per_op": {FUZZ},
    "verify.tag_ns_per_op": {FUZZ},
    "verify.checks_per_op": {FUZZ},
    "harness.outside_unit_frac": ALL,
    "tracing.overhead_frac": ALL,
    "tracing.unattributed_frac": ALL,
}
for _scheme in ("parity1d", "cppc", "secded", "ldpc", "chiprepair"):
    LAYER_ON["scheme.encode_ns_per_inst." + _scheme] = {SWEEP}
    LAYER_ON["scheme.decode_us_per_strike." + _scheme] = {CAMPAIGN}
    LAYER_ON["scheme.resync_us_per_strike." + _scheme] = {CAMPAIGN}
# parity1d and cppc keep the base class's empty resyncRow, so the
# campaign measures no resync time for them.
ZERO_ON = {"scheme.resync_us_per_strike.parity1d",
           "scheme.resync_us_per_strike.cppc"}
# One minus the ratio of two throughputs of the same run: noise can make
# it negative in a run as short as a smoke run.
SIGNED = {"tracing.overhead_frac"}


def copy_checkout(dest, with_sources):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(REPO, path), os.path.join(dest, path),
                        ignore=ignore)
    if with_sources:
        shutil.copytree(os.path.join(REPO, "src"), os.path.join(dest, "src"),
                        ignore=ignore)


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-test-")
        cls.checkout = os.path.join(cls.tmp, "checkout")
        os.mkdir(cls.checkout)
        copy_checkout(cls.checkout, with_sources=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def declared(self, workload, trace, *extra, smoke=True, seed=3):
        """The declared command; builds on first use."""
        cmd = SPEC["command"] + [
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
        if smoke:
            cmd.append("--smoke")
        return subprocess.run(cmd + list(extra), cwd=self.checkout,
                              text=True, capture_output=True, timeout=900)

    def assert_metrics(self, result, declared):
        names = [m["name"] for m in declared]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def assert_layers(self, result, workload):
        self.assertEqual(sorted(LAYER_ON), sorted(
            m["name"] for m in SPEC["per_layer"]))
        for name, on in LAYER_ON.items():
            value = result["metrics"][name]["value"]
            if workload not in on or name in ZERO_ON:
                self.assertEqual(value, 0, name)
            elif name not in SIGNED:
                self.assertGreater(value, 0, name)

    def test_declared_command_smoke(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    p = self.declared(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    r = parse_result(p.stdout)
                    self.assertEqual(sorted(r), ["attempted", "correct",
                                                 "failed", "metrics"])
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assert_metrics(
                        r, SPEC["per_layer"] if trace else SPEC["end_to_end"])
                    if trace:
                        self.assert_layers(r, workload)
                        frac = r["metrics"]["tracing.unattributed_frac"]
                        self.assertLessEqual(frac["value"], 0.10)
                    else:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(
                                r["metrics"][m["name"]]["value"], 0, m)

    def test_pinned_digests_reproduce(self):
        self.assertEqual(len(PINNED_SEEDS), 2)
        for workload in WORKLOADS:
            for seed in PINNED_SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    p = self.declared(workload, 0, smoke=False, seed=seed)
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    self.assertIn("checked against the expected digest",
                                  p.stderr)
                    self.assertTrue(parse_result(p.stdout)["correct"])

    def assert_fails(self, p):
        self.assertNotEqual(p.returncode, 0)
        r = parse_result(p.stdout)
        self.assertIsNotNone(r, p.stderr[-3000:])
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertLessEqual(r["failed"], r["attempted"])

    def test_wrong_digest_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_fails(self.declared(workload, 0,
                                                "--expect-digest",
                                                "123456789abcdef0"))

    def test_forced_unit_failure_fails(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.assert_fails(self.declared(workload, trace,
                                                    "--inject", "fail-unit"))

    def test_sabotaged_fuzz_fails(self):
        p = self.declared(FUZZ, 0, "--inject", "sabotage")
        self.assert_fails(p)
        self.assertIn("cppc-sabotaged", p.stderr)

    def test_without_sources_fails_without_result(self):
        bare = os.path.join(self.tmp, "bare")
        os.mkdir(bare)
        copy_checkout(bare, with_sources=False)
        p = subprocess.run(SPEC["command"] + [
            "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
            "--trace", "0"], cwd=bare, text=True, capture_output=True,
            timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertIsNone(parse_result(p.stdout))


if __name__ == "__main__":
    unittest.main(verbosity=2)
