"""Tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

They run the benchmark's own programs on copies of the tree in a temporary
directory and take about half a minute on a 2-vCPU host.  The pinned digests
are re-checked against both Betti routes by ``pin.py``, which takes longer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pathideal.betti as betti  # noqa: E402
import pathideal.complexes as complexes  # noqa: E402
import pathideal.fields as fields  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


def copy_tree(dest: str, with_source: bool = True) -> None:
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def run_bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=170)


def traced_counts(workload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                          "--seed", "1", "--trace"],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    layers = json.loads(out.stdout.strip().splitlines()[-1])["layers"]
    return {name: layers[name] for name, unit, _, _ in PER_LAYER if unit != "s"}


class GateTests(unittest.TestCase):
    def test_changed_reference_digest_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(tmp)
            path = os.path.join(tmp, "perfbench", "reference", "crossval-exact.json")
            with open(path) as fh:
                data = json.load(fh)
            key = sorted(data["digests"])[-1]
            data["digests"][key] = "0,2:1"
            with open(path, "w") as fh:
                json.dump(data, fh)
            out = run_bench(tmp, "--workload", "exact-tables", "--seed", "1",
                            "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertIn("correctness gate failed", out.stderr)
        self.assertNotIn('"correct"', out.stdout)

    def test_run_without_the_package_source_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(tmp, with_source=False)
            out = run_bench(tmp, "--workload", "path-family", "--seed", "1",
                            "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_unchanged_tree_gives_a_result(self):
        out = run_bench(ROOT, "--workload", "exact-tables", "--seed", "3",
                        "--seconds", "1", "--trace", "0")
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(sorted(result["metrics"]), sorted(
            ["setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "ok_share"]))

    def test_k_polynomial_identity_detects_a_wrong_table(self):
        for ideal in workloads.random_ideals(seed=7, index=0, count=5, n=7):
            entries = betti.betti_table(ideal, fields.GF2).entries
            self.assertFalse(any(workloads.k_polynomial_defect(ideal.gen_masks(), ideal.n, entries)))
            (i, j), b = sorted(entries.items())[-1]
            wrong = {**entries, (i, j): b + 1}
            self.assertTrue(any(workloads.k_polynomial_defect(ideal.gen_masks(), ideal.n, wrong)))


class TracerTests(unittest.TestCase):
    def test_wraps_every_namespace_and_restores_them(self):
        original = fields.rank_sparse
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(betti.rank_sparse, original)
            self.assertIs(betti.rank_sparse, complexes.rank_sparse)
            self.assertIs(fields.rank_sparse, complexes.rank_sparse)
            ideal = workloads.random_ideals(seed=1, index=0, count=1, n=6)[0]
            betti.betti_table(ideal, fields.QQ, method="both")
        finally:
            tracer.uninstall()
        self.assertIs(betti.rank_sparse, original)
        values, absent = tracer.metrics()
        self.assertEqual(absent, [])
        self.assertGreater(values["fields.rank_calls.qq"], 0)
        self.assertEqual(values["complexes.builds"], values["betti.hochster_subsets"])

    def test_missing_target_is_reported_absent(self):
        saved = betti.taylor_strand_complexes
        del betti.taylor_strand_complexes
        try:
            tracer = Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            betti.taylor_strand_complexes = saved
        values, absent = tracer.metrics()
        self.assertIn("betti.taylor_build_s", absent)
        self.assertIn("betti.taylor_subsets", absent)
        self.assertEqual(values["betti.taylor_build_s"], 0)
        self.assertNotIn("betti.taylor_self_s", absent)

    def test_traced_counts_repeat_exactly(self):
        first = traced_counts("exact-tables")
        self.assertGreater(first["fields.rank_calls.qq"], 0)
        self.assertEqual(first, traced_counts("exact-tables"))


if __name__ == "__main__":
    unittest.main()
