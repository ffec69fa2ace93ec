"""End-to-end verification battery: the thirteen headline checks at desk scale.

Each test prints one pass/fail line; the heavyweight runs (the full length-20
cycle sweep, the length-16 remainder audit, the seeded evidence reports) are
shared module-scoped fixtures so the battery stays inside a coffee break.
The twelfth repeats the cycle sweep two lengths deeper, on two workers, and
the thirteenth two lengths deeper again, within 15 seconds.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from real3x1.cycles import BitSeq, CycleClass, evaluate, sweep
from real3x1.maps import MAPS, affine_offset, apply_affine, compose_affine, step
from real3x1.rationals import compare_pow3_pow2
from real3x1.remainders import VerdictKind, trace
from real3x1.sampling import sample_rationals
from real3x1.trajectory import FateKind, contraction_check, detect_period01, iterate

F2 = Fraction
U = MAPS["U"]


def _report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num:02d} failed: {text}"


def _run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "real3x1", *argv], capture_output=True, text=True
    )


# ------------------------------------------------------------ shared fixtures


@pytest.fixture(scope="module")
def big_sweep(tmp_path_factory):
    """The full cycle sweep up to length 20, run through the real CLI."""
    out = tmp_path_factory.mktemp("sweep") / "lmax20.jsonl"
    t0 = time.monotonic()
    proc = _run_cli(["cycles", "--lmax", "20", "--summary-only", "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text().splitlines()[-1])
    return summary, elapsed


@pytest.fixture(scope="module")
def sweep16_audit():
    """One pass over every candidate with l <= 16, aggregating two audits.

    sign_bad: candidates with x0 != 0 whose exact cycle mixes signs.
    mis_bad: fractional candidates with x0 >= 1 whose ledger either failed to
    misalign or whose aligned-prefix remainders disagree with the recurrence
    recomputed here, independently of the library's own internal check.
    """
    sign_bad = []
    mis_bad = []
    checked = fractional = 0
    for rec in sweep(16):
        checked += 1
        if rec.x0 != 0:
            pos = all(a > 0 for a in rec.numerators)
            neg = all(a < 0 for a in rec.numerators)
            if not (pos or neg):
                sign_bad.append(str(rec.s))
        if rec.cls is CycleClass.FRACTIONAL_POSITIVE and rec.x0 >= 1:
            fractional += 1
            tr = trace(rec.d, rec.numerators)
            if tr.verdict.kind is not VerdictKind.MISALIGNED_AT:
                mis_bad.append((str(rec.s), tr.verdict.label()))
                continue
            d = tr.d
            for i in range(1, tr.aligned_prefix + 1):
                q_prev, r_prev = tr.q[i - 1], tr.r[i - 1]
                if r_prev % 2 != 0:
                    mis_bad.append((str(rec.s), f"odd aligned remainder at {i - 1}"))
                    break
                if q_prev % 2 == 0:
                    expect = r_prev // 2
                else:
                    t = 3 * r_prev
                    expect = t // 2 - (d if t > 2 * d else 0)
                if expect != tr.r[i]:
                    mis_bad.append((str(rec.s), f"recurrence break at {i}"))
                    break
    return {
        "checked": checked,
        "fractional": fractional,
        "sign_bad": sign_bad,
        "mis_bad": mis_bad,
    }


_EVIDENCE_ARGS = ["--samples", "10000", "--den-bits", "32", "--cap", "100000",
                  "--seed", "424242"]


@pytest.fixture(scope="module")
def evidence_runs(tmp_path_factory):
    """RU, RUflip, and RV evidence reports, each produced twice."""
    base = tmp_path_factory.mktemp("evidence")
    results = {}
    for name in ("RU", "RUflip", "RV"):
        blobs = []
        for attempt in (1, 2):
            out = base / f"{name}.{attempt}.jsonl"
            proc = _run_cli(
                ["conjecture", name, *_EVIDENCE_ARGS, "--out", str(out)]
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        summary = json.loads(blobs[0].decode().splitlines()[-1])
        results[name] = (blobs[0], blobs[1], summary)
    return results


# ---------------------------------------------------------------- criteria


def test_criterion_01_realized_cycles_are_the_two_step_rotations(big_sweep):
    summary, elapsed = big_sweep
    expected = []
    for l in range(2, 21, 2):
        expected += ["01" * (l // 2), "10" * (l // 2)]
    ok = (
        summary["realized_U"] == expected
        and summary["records"] == (1 << 21) - 2
        and elapsed < 600
    )
    _report(
        1,
        ok,
        f"length <= 20 sweep realized exactly the (1,0) rotations "
        f"({len(summary['realized_U'])} patterns, {elapsed:.1f}s)",
    )


def test_criterion_02_no_flipped_cycles(big_sweep):
    summary, _ = big_sweep
    ok = summary["realized_Uflip"] == [] and summary["counterexample"] is False
    _report(2, ok, "length <= 20 sweep found zero flipped realizations")


def test_criterion_03_closure_point_is_fixed_by_the_composed_block():
    rng = random.Random(3)
    trials = 10**5
    for _ in range(trials):
        l = rng.randint(1, 64)
        s = BitSeq.from_rank(l, rng.getrandbits(l))
        phi = affine_offset(s.bits) if s.n else 0
        x0 = F2(phi, (1 << l) - 3**s.n)
        if apply_affine(compose_affine(s.bits), x0) != x0:
            _report(3, False, f"closure point drifted for {s}")
    _report(3, True, f"{trials} random bit sequences fix their closure point exactly")


def test_criterion_04_cycles_keep_one_strict_sign(sweep16_audit):
    bad = sweep16_audit["sign_bad"]
    _report(
        4,
        not bad,
        f"all {sweep16_audit['checked']} candidates with x0 != 0 keep one sign"
        + (f"; offenders {bad[:3]}" if bad else ""),
    )


def test_criterion_05_known_cycles_recovered():
    checks = [
        ("10", F2(1), None),
        ("1", F2(-1), None),
        ("110", F2(-5), (F2(-5), F2(-7), F2(-10))),
        ("100", F2(1, 5), None),
    ]
    ok = True
    for bits, want_x0, want_cycle in checks:
        rec = evaluate(BitSeq.from_string(bits))
        ok = ok and rec.x0 == want_x0
        if want_cycle is not None:
            ok = ok and rec.g_cycle[:3] == want_cycle
    _report(5, ok, "known cycles at 1, -1, -5 (via -7, -10), and 1/5 recovered")


def test_criterion_06_contraction_identity():
    x = F2(3, 2)
    seen = []
    ok = True
    for m in range(1, 11):
        x, _ = step(U, x)
        x, _ = step(U, x)
        seen.append(x)
        ok = ok and x - 1 == F2(3, 4) ** m * F2(1, 2)
    ok = ok and seen[0] == F2(11, 8) and seen[1] == F2(41, 32)
    ok = ok and contraction_check(F2(3, 2), 1, (1, 0), 10)
    _report(6, ok, "two-step contraction onto 1 holds exactly for m = 1..10")


def test_criterion_07_parity_tail_iff_tending():
    rng = random.Random(7)
    starts = sample_rationals(rng, 1200, den_bits=16, value_bits=12)
    resolved = mismatches = 0
    for x in starts:
        rep = iterate(U, x, keep=8)
        if not rep.fate.resolved:
            continue
        resolved += 1
        # Exact entry into {1, 2} is the degenerate way of tending to it.
        tends = rep.fate.kind is FateKind.TENDS_TO_TRIVIAL or (
            rep.fate.kind is FateKind.ENTERED_CYCLE and rep.fate.value in (F2(1), F2(2))
        )
        if (detect_period01(rep.parity_bits) is not None) != tends:
            mismatches += 1
    ok = resolved >= 1000 and mismatches == 0
    _report(
        7,
        ok,
        f"(0,1) parity tail detected iff tending, {resolved} resolved starts",
    )


def test_criterion_08_family_climbs_with_odd_floors():
    ok = True
    for m in range(0, 101):
        x = 2 * m + F2(3, 2)
        for _ in range(50):
            y, _b = step(MAPS["F"], x)
            if x.numerator // x.denominator % 2 != 1 or not y > x:
                ok = False
                break
            x = y
        if not ok:
            break
    _report(8, ok, "2m + 3/2 orbits climb strictly with odd floors, m = 0..100")


def test_criterion_09_fractional_candidates_misalign(sweep16_audit):
    bad = sweep16_audit["mis_bad"]
    rec = evaluate(BitSeq.from_string("11100"))
    tr = trace(rec.d, rec.numerators)
    worked = (
        tr.d == 5
        and tr.r[:5] == (4, 1, 4, 1, 3)
        and tr.verdict.label() == "misaligned_at:1"
    )
    ok = not bad and worked
    _report(
        9,
        ok,
        f"all {sweep16_audit['fractional']} fractional candidates with x0 >= 1 "
        "misalign and replay the recurrence"
        + (f"; offenders {bad[:3]}" if bad else ""),
    )


def test_criterion_10_power_comparisons_are_exact():
    ok = True
    for n in range(0, 65):
        p3 = 3**n
        for l in range(0, 65):
            diff = p3 - (1 << l)
            want = 0 if diff == 0 else (1 if diff > 0 else -1)
            if compare_pow3_pow2(n, l) != want:
                ok = False
    _report(10, ok, "3^n vs 2^l verdicts match big-integer evaluation, l, n <= 64")


def test_criterion_11_evidence_runs_are_reproducible(evidence_runs):
    ok = True
    details = []
    for name, (first, second, summary) in evidence_runs.items():
        same = first == second
        clean = (
            summary["counterexamples"] == 0
            and summary["verdict"].startswith("no counterexample among 10000 samples")
            and "not a proof" in summary["note"]
            and sum(summary["tally"].values()) == 10000
        )
        ok = ok and same and clean
        details.append(f"{name} {'ok' if same and clean else 'BAD'}")
    _report(11, ok, "seeded evidence reports byte-identical and counterexample-free: "
            + ", ".join(details))


def test_criterion_12_deeper_sweep_realizes_only_the_two_step_rotations():
    t0 = time.monotonic()
    proc = _run_cli(["cycles", "--lmax", "22", "--summary-only", "--workers", "2"])
    elapsed = time.monotonic() - t0
    summary = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    expected = []
    for l in range(2, 23, 2):
        expected += ["01" * (l // 2), "10" * (l // 2)]
    ok = (
        proc.returncode == 0
        and summary["records"] == (1 << 23) - 2
        and summary["realized_U"] == expected
        and summary["realized_Uflip"] == []
    )
    _report(
        12,
        ok,
        f"length <= 22 sweep on 2 workers realized exactly the (1,0) rotations "
        f"and no flipped cycle ({elapsed:.1f}s)",
    )


def test_criterion_13_length_24_sweep_realizes_only_the_two_step_rotations():
    t0 = time.monotonic()
    proc = _run_cli(["cycles", "--lmax", "24", "--summary-only", "--workers", "2"])
    elapsed = time.monotonic() - t0
    summary = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    expected = []
    for l in range(2, 25, 2):
        expected += ["01" * (l // 2), "10" * (l // 2)]
    ok = (
        proc.returncode == 0
        and summary["records"] == (1 << 25) - 2
        and summary["realized_U"] == expected
        and summary["realized_Uflip"] == []
        and elapsed <= 15
    )
    _report(
        13,
        ok,
        f"length <= 24 sweep on 2 workers realized exactly the (1,0) rotations "
        f"and no flipped cycle ({elapsed:.1f}s, at most 15s)",
    )
