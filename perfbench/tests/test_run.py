"""Metric coverage, failure counting and the missing-sources exit of run.py.

The workloads here are the real ones at tiny sizes, so each test starts a few
short CLI processes.  Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))


def tiny():
    return workloads.build(sweep_lmax=4, ledger_lmax=4, samples=3, golden={})


class Corrupting(run.Spawner):
    """Appends a stray line to the output of every CLI process."""

    def __call__(self, argv):
        spawned = super().__call__(argv)
        if "real3x1" in argv[1:3]:
            spawned.out += b"x\n"
        return spawned


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_for_every_workload(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(tiny()))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in tiny().values():
                with self.subTest(workload=w.name, trace=trace):
                    info, result, problems = run.collect(w, 7, 0, trace)
                    self.assertEqual(problems, [])
                    self.assertTrue(result["correct"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    self.assertEqual(info["failed_frac"], 0.0)

    def test_end_to_end_metrics_are_never_zero(self):
        _, result, _ = run.collect(tiny()["sweep-pool"], 7, 0, 0)
        for name, v in result["metrics"].items():
            self.assertGreater(v["value"], 0, name)

    def test_spans_are_written_when_asked(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.jsonl"
            run.collect(tiny()["ledger"], 7, 0, 1, spans=path)
            spans = [json.loads(line) for line in path.read_text().splitlines()]
        self.assertEqual((spans[0]["name"], spans[0]["parent"]), ("cli.main", -1))
        names = {s["name"] for s in spans}
        self.assertLessEqual({"cycles.candidate", "remainders.trace"}, names)
        for s in spans:
            self.assertLessEqual(s["start"], s["end"])

    def test_layer_table_matches_benchmark_json(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["per_layer"]},
            {name: unit for name, (unit, _) in run.LAYER_TABLE.items()},
        )
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)


class FailureTest(unittest.TestCase):
    def test_corrupted_output_counts_in_failed_frac(self):
        for trace in (0, 1):
            with self.subTest(trace=trace), Corrupting() as spawn:
                info, result, problems = run.collect(tiny()["ledger"], 7, 0, trace, spawn=spawn)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(info["failed_frac"], 1.0)
                self.assertTrue(problems)

    def test_golden_mismatch_is_a_problem(self):
        w = workloads.build(sweep_lmax=4, golden={"sweep": "0" * 64})["sweep"]
        with run.Spawner() as spawn:
            spawned = spawn(run.cli_argv(w.argvs(1)[0]))
        self.assertEqual(w.check([spawned.out], [spawned.code], 1)[0][:7], "sha256 ")

    def test_peak_rss_is_the_cli_own(self):
        ballast = bytearray(100 << 20)
        ballast[::4096] = b"\1" * len(ballast[::4096])
        with run.Spawner() as spawn:
            spawned = spawn(run.cli_argv(["cycles", "--lmax", "2"]))
        del ballast
        self.assertEqual(spawned.code, 0)
        self.assertLess(spawned.rss_mb, 60)

    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.SPEC_PATH, tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seconds", "1"],
                cwd=tmp, capture_output=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
