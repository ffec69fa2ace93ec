"""Benchmark of the real3x1 CLI: end-to-end throughput, set-up time and
memory per workload, or, with --trace 1, per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 424242 --seconds 20 --trace 0

Untraced runs start the real CLI (``python -m real3x1 ...``) in fresh
processes, one at a time, and check every output.  The traced run calls
``real3x1.cli.main`` in this process with every layer's public functions
wrapped in timing spans.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the machine, the seed, the command lines and the layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from spawner import calibration_s  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

MIN_INVOCATIONS = 3
SETUPS_PER_INVOCATION = 2
MIN_TRACED_RUNS = 1
SETUP_CODE = "import real3x1.cli; real3x1.cli.build_parser()"
# A round figure near the median of calibration_s() on 2 vCPUs of an Intel Xeon
# at 2.1 GHz with Python 3.11.7, where it ranged from 0.063 to 0.117 s as the
# load of other tenants of the host changed.
CALIBRATION_REFERENCE_S = 0.1

SWEEPS = ("sweep", "sweep-pool", "ledger")
FATES = (
    "tends_to_trivial",
    "tends_from_above",
    "tends_from_below",
    "entered_cycle",
    "entered_region",
    "escaped_bound",
    "cap_reached",
)

# Per-layer metric -> (unit, workloads whose items_per_s it should move).
# An empty tuple marks a metric kept for information that moves nothing.
LAYER_TABLE: dict[str, tuple[str, tuple[str, ...]]] = {
    "cycles.BitSeq.from_rank.self_s": ("s", SWEEPS),
    "cycles.sweep_range.self_s": ("s", SWEEPS),
    "cycles.evaluate.self_s": ("s", SWEEPS),
    "cycles.candidate.self_s": ("s", SWEEPS),
    "cycles.candidate.calls": ("count", SWEEPS),
    "cycles.check_realization.self_s": ("s", SWEEPS),
    "cycles.max_num_bits": ("bits", SWEEPS),
    "cycles.realized_per_record": ("ratio", SWEEPS),
    "remainders.trace.calls": ("count", ("ledger",)),
    "remainders.trace.self_s": ("s", ("ledger",)),
    "remainders.verdict.misaligned": ("count", ("ledger",)),
    "remainders.verdict.integer_cycle": ("count", ("ledger",)),
    "remainders.verdict.aligned_closed": ("count", ("ledger",)),
    "cli.self_s": ("s", ("ledger",)),
    "cli.bytes_out": ("bytes", ("ledger",)),
    "cli.lines_out": ("count", ("ledger",)),
    "cli.pool.cpu_s": ("s", ("sweep-pool",)),
    "cli.pool.efficiency": ("ratio", ("sweep-pool",)),
    "trajectory.iterate.calls": ("count", ("evidence",)),
    "trajectory.iterate.self_s": ("s", ("evidence",)),
    "trajectory.iterate.p50_us": ("us", ("evidence",)),
    "trajectory.iterate.p99_us": ("us", ("evidence",)),
    "trajectory.steps": ("count", ("evidence",)),
    "trajectory.steps_per_orbit.p50": ("count", ("evidence",)),
    "trajectory.steps_per_orbit.p99": ("count", ("evidence",)),
    **{f"trajectory.fate.{kind}": ("count", ("evidence",)) for kind in FATES},
    "trajectory.resolved_frac": ("ratio", ("evidence",)),
    "maps.step.calls": ("count", ("evidence",)),
    "maps.step.self_s": ("s", ("evidence",)),
    "maps.step.max_den_bits": ("bits", ("evidence",)),
    "maps.step.max_num_bits": ("bits", ("evidence",)),
    "rationals.floor_of.calls": ("count", ("evidence",)),
    "rationals.floor_of.self_s": ("s", ("evidence",)),
    "sampling.sample_rationals.self_s": ("s", ()),
    "trace_overhead_frac": ("ratio", ()),
    "failed_frac": ("ratio", ()),
    "src.lines": ("count", ()),
    "src.public_names": ("count", ()),
}

END_TO_END = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}


# ------------------------------------------------------------------ spawning


@dataclass
class Spawned:
    out: bytes
    err: bytes
    code: int
    wall_s: float
    cpu_s: float  # the whole process tree, reaped children included
    rss_mb: float  # peak RSS of the largest process in the tree


class Spawner:
    """Runs commands to completion through spawner.py (see there for why)."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)
        self._out = Path(self._dir.name) / "stdout"
        self._err = Path(self._dir.name) / "stderr"
        self._env = {**os.environ, "PYTHONPATH": str(SRC)}
        self._helper = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()
        self._dir.cleanup()

    def _send(self, req: dict) -> None:
        self._helper.stdin.write(json.dumps(req) + "\n")
        self._helper.stdin.flush()

    def _reply(self) -> dict:
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner.py exited with {self._helper.wait()}")
        return json.loads(line)

    def calibration_s(self, cpus: int) -> float:
        """Mean of calibration_s() run at once here and, for 2 cpus, in the helper."""
        if cpus < 2:
            return calibration_s()
        self._send({"calibrate": True})
        here = calibration_s()
        return (here + self._reply()["calibration_s"]) / 2

    def __call__(self, argv: list[str]) -> Spawned:
        self._send({"argv": argv, "env": self._env, "out": str(self._out), "err": str(self._err)})
        r = self._reply()
        return Spawned(
            self._out.read_bytes(), self._err.read_bytes(), r["code"], r["wall_s"], r["cpu_s"], r["rss_mb"]
        )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "real3x1", *args]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:3]]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def invoke(w: workloads.Workload, argvs, seed: int, tally: Tally, spawn) -> list[Spawned]:
    """One checked invocation of w: a CLI process per argv, one after another."""
    runs = [spawn(cli_argv(args)) for args in argvs]
    problems = w.check([r.out for r in runs], [r.code for r in runs], seed)
    for r in runs:
        if r.code != 0 and r.err:
            problems.append(r.err.decode(errors="replace").strip().splitlines()[-1])
    tally.count(f"{w.name} seed {seed}", problems)
    return runs


# --------------------------------------------------------------- end to end


def another_round(start: float, seconds: float, done: int, minimum: int) -> bool:
    """Below the minimum, or another round of average length ends in time."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def measure_end_to_end(w, seed: int, seconds: float, tally: Tally, spawn) -> dict:
    """Closed loop for `seconds`: set-up spawns interleaved with invocations.

    Every invocation sits between two calibrations, on as many CPUs as the
    workload's workers; their mean gives the machine's slowdown against the
    reference speed at that moment, and the round's timings are scaled by it.
    """
    setup_argv = [sys.executable, "-c", SETUP_CODE]
    spawn(setup_argv)  # compiles bytecode once, as any installed copy has it
    seeds = workloads.invocation_seeds(seed)
    setups, rates, rss, raw_setups, raw_rates, slowdowns = [], [], [], [], [], []
    start = time.perf_counter()
    while another_round(start, seconds, len(rates), MIN_INVOCATIONS):
        before = spawn.calibration_s(w.workers)
        round_setups = []
        for _ in range(SETUPS_PER_INVOCATION):
            setup = spawn(setup_argv)
            if setup.code != 0:
                tally.problems.append(f"set-up spawn exited {setup.code}")
            round_setups.append(setup.wall_s)
        s = next(seeds)
        runs = invoke(w, w.argvs(s), s, tally, spawn)
        slowdown = (before + spawn.calibration_s(w.workers)) / (2 * CALIBRATION_REFERENCE_S)
        rate = w.items / sum(r.wall_s for r in runs)
        slowdowns.append(slowdown)
        raw_rates.append(rate)
        rates.append(rate * slowdown)
        raw_setups += round_setups
        setups += [t / slowdown for t in round_setups]
        rss.append(max(r.rss_mb for r in runs))
    return {
        "items_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "_samples": {
            "invocations": len(rates),
            "setups": len(setups),
            "unscaled_items_per_s": statistics.median(raw_rates),
            "unscaled_setup_s": statistics.median(raw_setups),
            "slowdown": statistics.median(slowdowns),
        },
    }


# ---------------------------------------------------------------- per layer


def run_in_process(cli, argvs: list[list[str]]) -> tuple[list[bytes], list[int], float]:
    outputs, codes, wall = [], [], 0.0
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            codes.append(cli.main(list(argv)))
            wall += time.perf_counter() - start
        outputs.append(buf.getvalue().encode())
    return outputs, codes, wall


class Observations:
    """Counts taken from traced functions' results, outside their spans."""

    def __init__(self):
        self.max_num_bits = 0
        self.records = 0
        self.realized = 0
        self.verdicts = dict.fromkeys(("misaligned_at", "integer_cycle", "aligned_closed"), 0)
        self.steps: list[int] = []
        self.fates = dict.fromkeys(FATES, 0)
        self.resolved = 0
        self.step_num_bits = 0
        self.step_den_bits = 0

    def candidate(self, rec):
        self.max_num_bits = max(self.max_num_bits, *map(int.bit_length, rec.numerators))

    def evaluate(self, rec):
        self.records += 1
        self.realized += bool(rec.realized_U or rec.realized_Uflip)

    def trace(self, tr):
        kind = tr.verdict.kind.value
        self.verdicts[kind] = self.verdicts.get(kind, 0) + 1

    def iterate(self, rep):
        self.steps.append(rep.steps_used)
        kind = rep.fate.kind.value
        self.fates[kind] = self.fates.get(kind, 0) + 1
        self.resolved += rep.fate.resolved

    def step(self, result):
        y = result[0]
        self.step_num_bits = max(self.step_num_bits, y.numerator.bit_length())
        self.step_den_bits = max(self.step_den_bits, y.denominator.bit_length())


def trace_targets(obs: Observations):
    """(span name, owner, attribute, observe) for every traced function."""
    import real3x1.cli as cli
    import real3x1.cycles as cycles
    import real3x1.maps as maps
    import real3x1.rationals as rationals
    import real3x1.remainders as remainders
    import real3x1.sampling as sampling
    import real3x1.trajectory as trajectory

    targets = [
        ("cli.main", cli, "main", None),
        ("cycles.sweep_range", cycles, "sweep_range", None),
        ("cycles.evaluate", cycles, "evaluate", obs.evaluate),
        ("cycles.candidate", cycles, "candidate", obs.candidate),
        ("cycles.check_realization", cycles, "check_U_realization", None),
        ("cycles.check_realization", cycles, "check_Uflip_realization", None),
        ("remainders.trace", remainders, "trace", obs.trace),
        ("trajectory.iterate", trajectory, "iterate", obs.iterate),
        ("maps.step", maps, "step", obs.step),
        ("rationals.floor_of", rationals, "floor_of", None),
        ("sampling.sample_rationals", sampling, "sample_rationals", None),
    ]
    if hasattr(cycles, "BitSeq"):
        targets.append(("cycles.BitSeq.from_rank", cycles.BitSeq, "from_rank", None))
    return targets


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def traced_metrics(tr: tracing.Tracer, obs: Observations, outputs: list[bytes]) -> dict:
    totals = tr.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    m = {
        f"{name}.self_s": self_s(name)
        for name in (
            "cycles.BitSeq.from_rank",
            "cycles.sweep_range",
            "cycles.evaluate",
            "cycles.candidate",
            "cycles.check_realization",
            "remainders.trace",
            "trajectory.iterate",
            "maps.step",
            "rationals.floor_of",
            "sampling.sample_rationals",
        )
    }
    m["cli.self_s"] = self_s("cli.main")
    for name in ("cycles.candidate", "remainders.trace", "trajectory.iterate", "maps.step", "rationals.floor_of"):
        m[f"{name}.calls"] = calls(name)
    m["cycles.max_num_bits"] = obs.max_num_bits
    m["cycles.realized_per_record"] = obs.realized / obs.records if obs.records else 0.0
    m["remainders.verdict.misaligned"] = obs.verdicts["misaligned_at"]
    m["remainders.verdict.integer_cycle"] = obs.verdicts["integer_cycle"]
    m["remainders.verdict.aligned_closed"] = obs.verdicts["aligned_closed"]
    m["cli.bytes_out"] = sum(len(o) for o in outputs)
    m["cli.lines_out"] = sum(o.count(b"\n") for o in outputs)
    orbit_us = [d * 1e6 for d in tr.durations("trajectory.iterate")]
    m["trajectory.iterate.p50_us"] = percentile(orbit_us, 0.50)
    m["trajectory.iterate.p99_us"] = percentile(orbit_us, 0.99)
    m["trajectory.steps"] = sum(obs.steps)
    m["trajectory.steps_per_orbit.p50"] = percentile(obs.steps, 0.50)
    m["trajectory.steps_per_orbit.p99"] = percentile(obs.steps, 0.99)
    for kind in FATES:
        m[f"trajectory.fate.{kind}"] = obs.fates[kind]
    m["trajectory.resolved_frac"] = obs.resolved / len(obs.steps) if obs.steps else 0.0
    m["maps.step.max_den_bits"] = obs.step_den_bits
    m["maps.step.max_num_bits"] = obs.step_num_bits
    return m


def real3x1_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "real3x1" or n.startswith("real3x1.")]


def measure_layers(w, seed: int, seconds: float, tally: Tally, spawn, spans_path=None) -> dict:
    """Traced runs in this process, each beside an untraced one, for `seconds`.

    Every round also runs the workload's CLI processes untraced: their output
    is the reference the traced output must equal byte for byte, and their
    rusage gives the CPU time of the process tree.
    """
    import real3x1.cli as cli

    modules = real3x1_modules()
    seeds = workloads.invocation_seeds(seed)
    rounds = []
    start = time.perf_counter()
    while another_round(start, seconds, len(rounds), MIN_TRACED_RUNS):
        s = next(seeds)
        runs = invoke(w, w.argvs(s), s, tally, spawn)
        reference = [r.out for r in runs]
        argvs = w.traced_argvs(s)
        plain_out, plain_codes, plain_wall = run_in_process(cli, argvs)
        obs, tr = Observations(), tracing.Tracer()
        with tracing.patched(tr, trace_targets(obs), modules):
            traced_out, traced_codes, traced_wall = run_in_process(cli, argvs)
        problems = []
        if any(plain_codes + traced_codes):
            problems.append(f"in-process exit codes {plain_codes}, traced {traced_codes}")
        if plain_out != reference:
            problems.append("in-process output differs from the CLI output")
        if traced_out != reference:
            problems.append("traced output differs from the untraced output")
        tally.count(f"{w.name} traced seed {s}", problems)

        m = traced_metrics(tr, obs, traced_out)
        m["trace_overhead_frac"] = traced_wall / plain_wall - 1
        m["cli.pool.cpu_s"] = sum(r.cpu_s for r in runs)
        m["cli.pool.efficiency"] = 0.0
        if w.workers > 1:
            single = invoke(w, argvs, s, tally, spawn)
            single_wall = sum(r.wall_s for r in single)
            m["cli.pool.efficiency"] = single_wall / (w.workers * sum(r.wall_s for r in runs))
        rounds.append(m)
        last = tr
    if spans_path is not None:
        write_spans(last, spans_path)
    out = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    out["_samples"] = {"traced_runs": len(rounds)}
    return out


def write_spans(tr: tracing.Tracer, path: Path) -> None:
    """The last traced run's spans as JSON lines, written after it ended."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (nid, parent, start, end) in enumerate(zip(tr.name_ids, tr.parents, tr.starts, tr.ends)):
            fh.write(json.dumps({"id": i, "name": tr.names[nid], "parent": parent, "start": start, "end": end}) + "\n")


def src_counts() -> dict[str, int]:
    import real3x1

    lines = sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "real3x1").rglob("*.py")))
    return {"src.lines": lines, "src.public_names": len(real3x1.__all__)}


def layer_table() -> dict:
    return {
        name: {"unit": unit, "moves": "items_per_s" if moved else None, "workloads": list(moved)}
        for name, (unit, moved) in LAYER_TABLE.items()
    }


def collect(w, seed: int, seconds: float, trace: int, spans=None, spawn=None) -> tuple[dict, dict, list[str]]:
    """Measure w; returns the info record, the result line and every problem.

    spawn is the Spawner that starts every process; None makes one.
    """
    tally = Tally()
    with contextlib.ExitStack() as stack:
        if spawn is None:
            spawn = stack.enter_context(Spawner())
        if trace:
            measured = measure_layers(w, seed, seconds, tally, spawn, spans)
        else:
            measured = measure_end_to_end(w, seed, seconds, tally, spawn)
    samples = measured.pop("_samples")
    counts = src_counts()
    if trace:
        measured.update(counts, failed_frac=tally.failed_frac)
        units = {name: unit for name, (unit, _) in LAYER_TABLE.items()}
    else:
        units = END_TO_END
    info = {
        "workload": w.name,
        "commands": [" ".join(["python -m real3x1", *a]) for a in w.argvs(seed)],
        "traced_commands": [" ".join(["real3x1.cli.main", *a]) for a in w.traced_argvs(seed)],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "samples": samples,
        "failed_frac": tally.failed_frac,
        "problems": tally.problems[:20],
        **counts,
        "layers": layer_table(),
    }
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result, tally.problems


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(why))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="write the last traced run's spans here as JSON lines")
    args = p.parse_args(argv)
    if not (SRC / "real3x1" / "cli.py").is_file():
        print(f"run.py: no real3x1 package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = workloads.build()[args.workload]
    info, result, problems = collect(w, args.seed, args.seconds, args.trace, args.spans)
    info["why"] = why[w.name]
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
