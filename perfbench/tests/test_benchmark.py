"""Self-tests of the benchmark itself (about three minutes):

    python3 -m unittest discover -s perfbench/tests -v

* An injected regression -- a delay the harness adds at one layer
  boundary, around mbpta::analyze -- must show in that layer's row and in
  the traced throughput of wcet_con, and leave mesh_corun's rows unchanged
  (mesh_corun never fits a pWCET).
* The bypass checks: the credit engine reads exactly 0 on mesh_corun while
  the bridges are busy; wcet_con has no bridges, controller or checkpoint.
* Without the simulator sources next to it the benchmark exits non-zero
  without printing a result.
* Every --seed selects a workload seed whose output digests are pinned.
* Host times are scaled by the host-speed references around each campaign.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)
import run  # noqa: E402

DELAY_MS = 400          # per mbpta.fit call; wcet_con fits 12 jobs per campaign
WCET_JOBS = 12
COUNT_ROWS = ("sim.cycles", "cpu.ops", "cpu.bus_stall_frac",
              "cache.l1_miss_rate", "mem.l2_miss_rate", "mem.dram_accesses",
              "bus.grants", "bus.wait_cycles_mean", "bus.utilization",
              "credit.underflows", "seg.bridge_hops",
              "seg.backpressure_stalls", "ctrl.epochs", "ctrl.updates",
              "exp.checkpoint_bytes", "exp.slice_count",
              "core.engine_lane_fill")


def traced(workload, inject=None, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", "1"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stdout + proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result


class InjectedRegression(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wcet, cls.wcet_result = traced("wcet_con")
        cls.wcet_slow, _ = traced("wcet_con", "mbpta.fit=%d" % DELAY_MS)
        cls.mesh, cls.mesh_result = traced("mesh_corun")
        cls.mesh_slow, cls.mesh_slow_result = traced(
            "mesh_corun", "mbpta.fit=%d" % DELAY_MS)

    def test_delay_shows_in_the_layer_row(self):
        added = self.wcet_slow["mbpta.fit_ms"] - self.wcet["mbpta.fit_ms"]
        self.assertGreater(added, 0.9 * DELAY_MS * WCET_JOBS)
        self.assertLess(added, 1.5 * DELAY_MS * WCET_JOBS)

    def test_delay_shows_in_throughput(self):
        self.assertLess(self.wcet_slow["bench.traced_runs_per_sec"],
                        0.8 * self.wcet["bench.traced_runs_per_sec"])

    def test_other_workload_unchanged(self):
        self.assertEqual(self.mesh["mbpta.fit_ms"], 0.0)
        self.assertEqual(self.mesh_slow["mbpta.fit_ms"], 0.0)
        for row in COUNT_ROWS:
            self.assertEqual(self.mesh[row], self.mesh_slow[row], row)
        self.assertTrue(self.mesh_result["correct"])
        self.assertTrue(self.mesh_slow_result["correct"])

    def test_outputs_still_correct_under_injection(self):
        self.assertTrue(self.wcet_result["correct"])
        for row in COUNT_ROWS:
            self.assertEqual(self.wcet[row], self.wcet_slow[row], row)

    def test_bypass_mesh(self):
        self.assertEqual(self.mesh["core.engine_ms"], 0.0)
        self.assertEqual(self.mesh["core.engine_lane_fill"], 0.0)
        self.assertGreater(self.mesh["seg.bridge_hops"], 0)
        self.assertGreater(self.mesh["seg.backpressure_stalls"], 0)

    def test_bypass_wcet(self):
        for row in ("seg.bridge_hops", "seg.backpressure_stalls",
                    "ctrl.epochs", "ctrl.updates", "exp.checkpoint_bytes",
                    "exp.checkpoint_ms"):
            self.assertEqual(self.wcet[row], 0.0, row)
        self.assertGreater(self.wcet["core.engine_ms"], 0.0)
        self.assertGreater(self.wcet["mbpta.fit_ms"], 0.0)


class ReferenceSpeed(unittest.TestCase):
    """Host times are scaled by the references around each repetition."""

    PLAIN = {"wall_s": [2.0, 3.0], "slice_ms": [[500.0, 1500.0],
                                                [750.0, 2250.0]],
             "setup_s": [1e-5, 1e-5, 2e-5, 2e-5], "threads": [1, 1],
             "attempted": [16, 16], "sim_cycles": [1e7, 1e7],
             "peak_rss_kb": 1024}

    def scaled(self, reference_s):
        return run.at_reference_speed(dict(self.PLAIN,
                                           reference_s=reference_s))

    def test_nominal_speed_changes_nothing(self):
        r = run.REFERENCE_S
        scaled = self.scaled([r, r, r])
        for key in ("wall_s", "slice_ms", "setup_s"):
            self.assertEqual(scaled[key], self.PLAIN[key], key)

    def test_slow_host_is_scaled_back(self):
        r = run.REFERENCE_S
        # The second campaign ran half as fast, and so did the references
        # around it: both campaigns read the same at reference speed.
        scaled = self.scaled([r, 2 * r, 2 * r])
        self.assertAlmostEqual(scaled["wall_s"][1], 1.5)
        self.assertEqual(scaled["slice_ms"][1], [375.0, 1125.0])
        self.assertEqual(scaled["setup_s"][2:], [1e-5, 1e-5])
        # The first campaign's references straddle the slowdown.
        self.assertAlmostEqual(scaled["wall_s"][0], 2.0 / 2 ** 0.5)


class SeedsArePinned(unittest.TestCase):
    def test_every_seed_selects_a_pinned_seed(self):
        with open(run.DIGESTS) as f:
            table = json.load(f)
        seeds = [None, run.HELD_OUT_SEED, 2**31 - 1] + list(range(200))
        for workload in run.WORKLOADS:
            for seed in seeds:
                selected = run.workload_seed(seed)
                key = "default" if selected is None else str(selected)
                self.assertIn(key, table[workload], (workload, seed))


class MissingSources(unittest.TestCase):
    def test_refuses_without_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wcet_con",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
