"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root.  The generator and percentile tests are
pure Python; the key and smoke tests build the benchmark (as run.py
does) and drive short runs of every workload.
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
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bodies(self):
        self.assertEqual(gen.working_set(5), gen.working_set(5))
        self.assertEqual(gen.hit_bodies(5), gen.hit_bodies(5))
        self.assertEqual([gen.miss_body(5, k) for k in range(12)],
                         [gen.miss_body(5, k) for k in range(12)])
        self.assertEqual(gen.mix_schedule(5, 500), gen.mix_schedule(5, 500))

    def test_different_seeds_give_different_bodies(self):
        self.assertNotEqual(gen.working_set(5), gen.working_set(6))
        misses5 = {gen.miss_body(5, k).split("\n", 1)[1] for k in range(40)}
        misses6 = {gen.miss_body(6, k).split("\n", 1)[1] for k in range(40)}
        self.assertEqual(len(misses5), 40)
        self.assertFalse(misses5 & misses6)

    def test_hit_bodies_partition_the_working_set(self):
        axes = gen.working_axes(9)
        cells = set()
        for body in gen.hit_bodies(9):
            fields = dict(line.split(" = ", 1) for line in body.splitlines()
                          if " = " in line)
            for o in fields["orientations"].split():
                for c in ("1", "-1"):
                    cells.add((fields["speeds"], fields["time_units"], o, c,
                               fields["distances"]))
        self.assertEqual(len(cells), gen.working_set_cells())
        self.assertEqual({c[2] for c in cells}, set(axes["orientations"]))

    def test_schedule_mixes_hits_misses_and_formats(self):
        schedule = gen.mix_schedule(3, 2000)
        hits = sum(1 for kind, _, _ in schedule if kind == "hit")
        self.assertGreater(hits / 2000, 0.75)
        self.assertLess(hits / 2000, 0.85)
        misses = [i for kind, i, _ in schedule if kind == "miss"]
        self.assertEqual(misses, list(range(len(misses))))
        self.assertEqual({fmt for _, _, fmt in schedule}, {"csv", "json"})


class PercentileRuleTest(unittest.TestCase):
    def test_interpolation(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.median([1, 2, 3, 4]), 2.5)
        self.assertEqual(stats.percentile(list(range(101)), 99), 99)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(91))
        self.assertEqual(stats.tail_percentile(92), 90.0)
        self.assertEqual(stats.tail_percentile(901), 95.0)
        self.assertEqual(stats.tail_percentile(902), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        # 92 samples: the p90 rank is 81.9, and samples 82..91 lie beyond.
        self.assertEqual(stats.samples_beyond(92, 90.0), 10)
        self.assertEqual(stats.samples_beyond(91, 90.0), 9)
        for n in (100, 1000, 5000, 10000):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, p), 10)

    def test_summary_states_sample_count(self):
        s = stats.summary([float(x) for x in range(1000)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["tail_p"], 99.0)
        self.assertAlmostEqual(s["p50"], 499.5)
        self.assertIsNone(stats.summary([1.0, 2.0])["tail"])


class GuardTest(unittest.TestCase):
    def test_refuses_non_release_and_sanitized_builds(self):
        run.guard({"CMAKE_BUILD_TYPE": "Release", "RV_SANITIZE": ""})
        for cache in ({"CMAKE_BUILD_TYPE": "Debug"},
                      {"CMAKE_BUILD_TYPE": "RelWithDebInfo"},
                      {"CMAKE_BUILD_TYPE": "Release",
                       "RV_SANITIZE": "address;undefined"}):
            with self.assertRaises(run.BenchError):
                run.guard(cache)


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    """Short runs of every workload and of the traced run."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace, cwd=ROOT):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", str(trace), "--smoke"],
            cwd=cwd, capture_output=True, text=True, timeout=900)

    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json_line(proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), names)
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
        return result

    def test_every_workload_reports_every_end_to_end_metric(self):
        names = {m["name"] for m in self.spec["end_to_end"]}
        # serve-cold-mix is not gated in BENCHMARK.json but stays runnable.
        workloads = {w["name"] for w in self.spec["workloads"]}
        for w in sorted(workloads | {"serve-cold-mix"}):
            with self.subTest(workload=w):
                result = self.check_result(self.run_bench(w, 0), names)
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        result = self.check_result(self.run_bench("reproduce", 1), names)
        self.assertEqual(result["metrics"]["traj.segments"]["unit"], "count")

    def test_different_seeds_give_new_cache_keys(self):
        os.chdir(ROOT)
        run.build(probe=True)
        probe = os.path.join(ROOT, run.BUILD, "layer_probe")
        scratch = os.path.join(ROOT, run.RUN, "test-keys")
        os.makedirs(scratch, exist_ok=True)
        keys = {}
        for seed in (1, 2):
            bodies = [gen.miss_body(seed, k) for k in range(8)]
            bodies.append(gen.working_set(seed))
            keys[seed] = set()
            for i, body in enumerate(bodies):
                path = os.path.join(scratch, "s%d-%d.rvset" % (seed, i))
                with open(path, "w") as f:
                    f.write(body)
                out = subprocess.run([probe, "keys", path], capture_output=True,
                                     text=True, check=True).stdout.split()
                self.assertNotIn("uncacheable", out)
                keys[seed].update(out)
        self.assertGreater(len(keys[1]), gen.working_set_cells())
        self.assertFalse(keys[1] & keys[2])

    def test_fails_without_the_source_tree(self):
        bare = os.path.join(ROOT, run.RUN, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = self.run_bench("reproduce", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
