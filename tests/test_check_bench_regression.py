#!/usr/bin/env python3
"""Fixture-driven tests for tools/check_bench_regression.py.

The regression gate guards every committed BENCH_table4.json
replacement (tools/run_benchmarks.sh), so its failure paths need the
same proof-of-life the lint checks get: a fixture that trips each path
and an assertion on the exit code and diagnostic. Fixtures live in
tests/regression_fixtures/.

Run directly or via ctest (check_bench_regression_selftest).
"""

import os
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "tools", "check_bench_regression.py")
FIXTURES = os.path.join(REPO, "tests", "regression_fixtures")


def run_gate(*args):
    proc = subprocess.run(
        [sys.executable, GATE, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


GOOD = fixture("snapshot_good.json")


class PassingRun(unittest.TestCase):
    def test_identical_snapshots_pass(self):
        rc, out, err = run_gate(GOOD, GOOD)
        self.assertEqual(rc, 0, f"expected PASS\n{out}{err}")
        self.assertIn("regression gate: PASS", out)
        self.assertNotIn("REGRESSION:", err)


class UsageErrors(unittest.TestCase):
    """Exit 2 (usage), never exit 1 (verdict), for unusable inputs."""

    def test_wrong_arg_count(self):
        rc, _, err = run_gate(GOOD)
        self.assertEqual(rc, 2)
        self.assertIn("Usage:", err)

    def test_missing_file(self):
        rc, _, err = run_gate(GOOD, fixture("does_not_exist.json"))
        self.assertEqual(rc, 2)
        self.assertIn("cannot read fresh snapshot", err)

    def test_malformed_json_is_diagnosed_not_a_traceback(self):
        rc, _, err = run_gate(GOOD, fixture("malformed.json"))
        self.assertEqual(rc, 2)
        self.assertIn("malformed JSON in fresh snapshot", err)
        self.assertNotIn("Traceback", err)

    def test_malformed_committed_side_diagnosed_too(self):
        rc, _, err = run_gate(fixture("malformed.json"), GOOD)
        self.assertEqual(rc, 2)
        self.assertIn("malformed JSON in committed snapshot", err)


class MissingSection(unittest.TestCase):
    def test_lost_sections_fail_loudly(self):
        rc, _, err = run_gate(GOOD, fixture("fresh_missing_section.json"))
        self.assertEqual(rc, 1)
        self.assertIn("serving section missing from the fresh run", err)
        self.assertIn("serving_faults missing from the fresh run", err)
        self.assertIn("serving_obs missing from the fresh run", err)
        self.assertIn("solver_search missing from the fresh run", err)


class RegressionBeyondBound(unittest.TestCase):
    """Each tolerance gate fires on the regressed fixture."""

    def setUp(self):
        self.rc, self.out, self.err = run_gate(
            GOOD, fixture("fresh_regressed.json"))

    def test_exit_code_and_prefix(self):
        self.assertEqual(self.rc, 1)
        self.assertIn("REGRESSION:", self.err)

    def test_speedup_drop_beyond_10pct(self):
        self.assertIn("aggregate solver speedup regressed", self.err)

    def test_objective_worsened(self):
        self.assertIn("instance vit-8b: objective worsened", self.err)

    def test_table4_status_worsened(self):
        self.assertIn("table4 ViT-8B: status worsened", self.err)

    def test_memory_aware_replans_went_dead(self):
        self.assertIn("no re-plans", self.err)

    def test_serving_p95_and_goodput(self):
        self.assertIn("serving policy deadline: p95 worsened", self.err)
        self.assertIn("serving policy deadline: goodput dropped",
                      self.err)

    def test_fault_accounting_and_crash_ratio(self):
        self.assertIn("neither completed nor shed", self.err)
        self.assertIn("mid-run crash now costs more than 35%", self.err)

    def test_admission_delta_gone_nonpositive(self):
        self.assertIn("no longer strictly beats", self.err)

    def test_sharding_qps_efficiency_and_overlap(self):
        self.assertIn("sharding point 4dev/on: max sustainable QPS",
                      self.err)
        self.assertIn("scaling efficiency at 4 devices", self.err)
        self.assertIn("cross-request overlap no longer improves",
                      self.err)

    def test_obs_overhead_noise_outcome_and_dead_trace(self):
        self.assertIn("tracing-on overhead exceeds 10%", self.err)
        self.assertIn("tracing-off arms disagree by more than 10%",
                      self.err)
        self.assertIn("tracing must observe, never perturb", self.err)
        self.assertIn("recorded no events", self.err)

    def test_search_conflict_ratio_and_symmetry_rows(self):
        self.assertIn("symmetry-breaking conflict ratio regressed",
                      self.err)
        self.assertIn("no longer cuts conflicts", self.err)
        self.assertIn("symmetry instance sym-w5-l3: lex rows no "
                      "longer cut conflicts", self.err)

    def test_search_budget_instance_paths(self):
        self.assertIn("budget instance budget-w8-l5: status worsened "
                      "OPTIMAL -> FEASIBLE", self.err)
        self.assertIn("budget instance budget-w8-l5: objective "
                      "worsened -209 -> -150", self.err)
        self.assertIn("budget instance budget-w10-l6: missing from "
                      "the fresh run", self.err)

    def test_search_optimal_windows_non_decreasing(self):
        self.assertIn("fewer budget windows proven optimal than the "
                      "committed snapshot (1 -> 0)", self.err)

    def test_within_tolerance_rows_not_flagged(self):
        # The llama2-13b objective and 1-device QPS are unchanged in
        # the regressed fixture; the gate must not flag them.
        self.assertNotIn("llama2-13b: objective worsened", self.err)
        self.assertNotIn("sharding point 1dev/on", self.err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
