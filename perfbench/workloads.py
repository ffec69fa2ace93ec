"""The benchmark's workloads: real3x1 CLI command lines, their sizes and the
checks every output must pass.

Each workload is closed loop: one CLI invocation at a time, the next one only
after the previous has exited.  An invocation is one or more CLI processes
whose outputs are checked together.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 424242

SWEEP_LMAX = 16
LEDGER_LMAX = 13
EVIDENCE_SAMPLES = 400
EVIDENCE_NAMES = ("RU", "RUflip", "RV")
EVIDENCE_FLAGS = ("--den-bits", "32", "--cap", "100000")

# SHA-256 of the concatenated stdout of one invocation at the default sizes.
# The sweeps are exhaustive and seed-free; evidence is pinned at DEFAULT_SEED.
GOLDEN = {
    "sweep": "684a1063bc06ca2bb964f1b7b7ba5c1bf153bf55b8a0d0b327794829aa4328a7",
    "sweep-pool": "684a1063bc06ca2bb964f1b7b7ba5c1bf153bf55b8a0d0b327794829aa4328a7",
    "ledger": "7b7aaa1c6353668970b49253ac0189a9ca3695bc3efec2d6fc3d033460dd1c42",
    "evidence": "0ab7c91153a221bc9d9f3d2eebb0cc891b4312e4d55365f95977c2f607fcf65f",
}


@dataclass(frozen=True)
class Workload:
    name: str
    items: int  # candidate records or sampled orbits per invocation
    argvs: Callable[[int], list[list[str]]]  # seed -> CLI argument lists
    problems: Callable[[list[bytes]], list[str]]  # seed-free output checks
    golden: str | None  # sha256 of the outputs, or None when not pinned
    seeded: bool  # golden applies only at DEFAULT_SEED
    traced_argvs: Callable[[int], list[list[str]]]  # in-process traced run
    workers: int = 1

    def check(self, outputs: list[bytes], codes: list[int], seed: int) -> list[str]:
        """Every reason the outputs are wrong; empty when they are right."""
        found = [f"command {i} exited {c}" for i, c in enumerate(codes) if c != 0]
        try:
            found += self.problems(outputs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found.append(f"unreadable output: {exc!r}")
        if self.golden and (not self.seeded or seed == DEFAULT_SEED):
            digest = sha256(outputs)
            if digest != self.golden:
                found.append(f"sha256 {digest} != golden {self.golden}")
        return found


def sha256(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out)
    return h.hexdigest()


def invocation_seeds(seed: int):
    """seed itself first, then a stream derived from it."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 1 << 31)


def realized_rotations(lmax: int) -> list[str]:
    """The only U-realized patterns: rotations of (01)^k, in (l, rank) order."""
    return [s for l in range(2, lmax + 1, 2) for s in ("01" * (l // 2), "10" * (l // 2))]


def _summary_problems(summary: dict, lmax: int) -> list[str]:
    found = []
    if summary.get("type") != "summary":
        found.append("last line is not a summary")
    if summary["records"] != (1 << (lmax + 1)) - 2:
        found.append(f"records {summary['records']} != 2^{lmax + 1} - 2")
    if summary["realized_U"] != realized_rotations(lmax):
        found.append(f"realized_U is not the (01) rotations: {summary['realized_U']}")
    if summary["realized_Uflip"]:
        found.append(f"realized_Uflip not empty: {summary['realized_Uflip']}")
    return found


def _sweep_problems(lmax: int):
    def problems(outputs: list[bytes]) -> list[str]:
        lines = outputs[0].splitlines()
        if len(lines) != 1:
            return [f"summary-only sweep printed {len(lines)} lines"]
        return _summary_problems(json.loads(lines[0]), lmax)

    return problems


def _ledger_problems(lmax: int):
    def problems(outputs: list[bytes]) -> list[str]:
        lines = outputs[0].splitlines()
        found = _summary_problems(json.loads(lines[-1]), lmax)
        records = [json.loads(line) for line in lines[:-1]]
        if len(records) != (1 << (lmax + 1)) - 2:
            found.append(f"{len(records)} record lines")
        closed = [r["bits"] for r in records if r["verdict"] == "aligned_closed"]
        if closed:
            found.append(f"aligned_closed verdicts: {closed[:5]}")
        return found

    return problems


def _evidence_problems(samples: int):
    def problems(outputs: list[bytes]) -> list[str]:
        found = []
        for name, out in zip(EVIDENCE_NAMES, outputs):
            summary = json.loads(out.splitlines()[-1])
            if summary["counterexamples"] != 0:
                found.append(f"{name}: {summary['counterexamples']} counterexamples")
            if sum(summary["tally"].values()) != samples:
                found.append(f"{name}: tally {summary['tally']} does not sum to {samples}")
            if "not a proof" not in summary["note"]:
                found.append(f"{name}: note does not say 'not a proof'")
        if len(outputs) != len(EVIDENCE_NAMES):
            found.append(f"{len(outputs)} outputs for {len(EVIDENCE_NAMES)} runs")
        return found

    return problems


def build(
    sweep_lmax: int = SWEEP_LMAX,
    ledger_lmax: int = LEDGER_LMAX,
    samples: int = EVIDENCE_SAMPLES,
    golden: dict[str, str] = GOLDEN,
) -> dict[str, Workload]:
    """The workloads at the given sizes, keyed by name."""

    def sweep_argv(workers: int) -> list[str]:
        return ["cycles", "--lmax", str(sweep_lmax), "--summary-only", "--workers", str(workers)]

    ledger_argv = ["cycles", "--lmax", str(ledger_lmax), "--with-verdict", "--workers", "1"]

    def evidence_argvs(seed: int) -> list[list[str]]:
        return [
            ["conjecture", name, "--samples", str(samples), *EVIDENCE_FLAGS, "--seed", str(seed)]
            for name in EVIDENCE_NAMES
        ]

    sweep_records = (1 << (sweep_lmax + 1)) - 2
    ledger_records = (1 << (ledger_lmax + 1)) - 2
    one_worker = lambda seed: [sweep_argv(1)]  # noqa: E731
    workloads = [
        Workload("sweep", sweep_records, one_worker, _sweep_problems(sweep_lmax),
                 golden.get("sweep"), False, one_worker),
        Workload("sweep-pool", sweep_records, lambda seed: [sweep_argv(2)],
                 _sweep_problems(sweep_lmax), golden.get("sweep-pool"), False, one_worker, 2),
        Workload("ledger", ledger_records, lambda seed: [ledger_argv],
                 _ledger_problems(ledger_lmax), golden.get("ledger"), False,
                 lambda seed: [ledger_argv]),
        Workload("evidence", samples * len(EVIDENCE_NAMES), evidence_argvs,
                 _evidence_problems(samples), golden.get("evidence"), True, evidence_argvs),
    ]
    return {w.name: w for w in workloads}
