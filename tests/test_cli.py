"""Command line behavior: exit codes, output shapes, determinism, config."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import real3x1
import real3x1.cli as cli
from real3x1 import cycles, maps, remainders, trajectory
from real3x1.cli import main
from real3x1.cycles import BitSeq, candidate, evaluate
from real3x1.errors import StructureError
from real3x1.maps import MAPS, step
from real3x1.rationals import format_rational
from real3x1.remainders import trace
from real3x1.trajectory import FateKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


def parse_error_code(*argv):
    """Exit status of an invocation that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def test_iterate_jsonl_ok(capsys):
    code, out, _ = run_cli(capsys, "iterate", "--map", "U", "--start", "3/2")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["start"] == "3/2"
    assert rec["fate"]["kind"] == "tends_to_trivial"
    assert rec["fate"]["anchor"] == [1, 2]


def test_iterate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "iterate", "--map", "U", "--start", "1,2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "start,fate,steps",
        "1,entered_cycle:2,2",
        "2,entered_cycle:2,2",
    ]


def test_iterate_cap_exit(capsys):
    code, out, _ = run_cli(
        capsys, "iterate", "--map", "F", "--start", "3/2", "--cap", "3"
    )
    assert code == 2
    (rec,) = jsonl(out)
    assert rec["fate"]["kind"] == "cap_reached"


def test_iterate_domain_and_usage_errors(capsys):
    code, _, err = run_cli(capsys, "iterate", "--map", "U", "--start", "1/2")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "iterate", "--map", "nosuch", "--start", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "iterate", "--map", "U", "--start", "abc")
    assert code == 1
    code, _, err = run_cli(
        capsys, "iterate", "--map", "U", "--start", "3", "--trap-region", "2,1"
    )
    assert code == 1
    # 5/2 -> 1/4 -> -7/8: the orbit leaves the domain on its second image
    code, out, err = run_cli(
        capsys, "iterate", "--map", "Phi:1/2,-1,3/2,0,0,0", "--start", "5/2", "--cap", "50"
    )
    assert (code, out) == (1, "")
    assert err == "real3x1: error: Phi is defined for x >= 0, got -7/8\n"
    with pytest.raises(SystemExit) as exc:
        main(["iterate", "--start", "1"])  # --map is required
    assert exc.value.code == 1


def test_start_beyond_int_str_digit_limit(capsys):
    # 5000-digit numerator, just above 3/2: U's basin resolves it at once.
    # Spelled out, since str() of such an int is itself over the limit here.
    start = "3" + "0" * 4998 + "1" + "/2" + "0" * 4999
    code, out, _ = run_cli(capsys, "iterate", "--map", "U", "--start", start, "--cap", "1")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["start"] == start
    assert rec["fate"]["kind"] == "tends_to_trivial"


def test_int_str_digit_limit_is_restored(capsys):
    before = sys.get_int_max_str_digits()
    assert run_cli(capsys, "trace", "--bits", "1")[0] == 0
    assert sys.get_int_max_str_digits() == before
    sys.set_int_max_str_digits(5000)
    try:
        assert run_cli(capsys, "trace", "--bits", "1")[0] == 0
        assert parse_error_code("cycles", "--lmax", "0") == 1  # argparse exits
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_internal_error_exit(capsys, monkeypatch):
    def broken(s):
        raise StructureError(f"forced walk of {s} failed to close")

    monkeypatch.setattr(cycles, "candidate", broken)
    code, out, err = run_cli(capsys, "trace", "--bits", "10")
    assert code == 5 and out == ""
    assert err == "real3x1: internal error: forced walk of 10 failed to close\n"


def test_failed_basin_landing_is_an_internal_error(capsys, monkeypatch):
    # a forged window whose orbit leaves the anchor's branch pattern (1, 0)
    monkeypatch.setitem(trajectory._BASINS, "U", ((3, 4, (1, 2), FateKind.TENDS_TO_TRIVIAL),))
    code, out, err = run_cli(capsys, "iterate", "--map", "U", "--start", "7/2")
    assert code == 5 and out == ""
    assert err == (
        "real3x1: internal error: certified basin landing failed to confirm at 7/2"
        " (orbit from 7/2, step 0)\n"
    )
    # 13/2 halves to 13/4, which lands in the forged window one step in
    code, out, err = run_cli(capsys, "iterate", "--map", "U", "--start", "13/2")
    assert code == 5 and out == ""
    assert err == (
        "real3x1: internal error: certified basin landing failed to confirm at 13/4"
        " (orbit from 13/2, step 1)\n"
    )


def test_cycles_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "cycles", "--lmax", "2")
    assert code == 0
    lines = jsonl(out)
    assert len(lines) == 7  # 2 + 4 candidate records, then the summary
    assert [r["bits"] for r in lines[:6]] == ["0", "1", "00", "01", "10", "11"]
    summary = lines[-1]
    assert summary["type"] == "summary" and summary["command"] == "cycles"
    assert summary["records"] == 6
    assert summary["realized_U"] == ["01", "10"]
    assert summary["realized_Uflip"] == []
    assert summary["counterexample"] is False


def test_cycles_summary_only_lmax3(capsys):
    code, out, _ = run_cli(capsys, "cycles", "--lmax", "3", "--summary-only")
    assert code == 0
    (summary,) = jsonl(out)
    assert summary["records"] == 14
    assert summary["realized_U"] == ["01", "10"]
    assert summary["class_counts"]["fractional_positive"] == 3


def test_cycles_with_verdict(capsys):
    code, out, _ = run_cli(capsys, "cycles", "--lmax", "2", "--with-verdict")
    assert code == 0
    by_bits = {r["bits"]: r for r in jsonl(out)[:-1]}
    assert by_bits["10"]["verdict"] == "integer_cycle"
    assert by_bits["1"]["verdict"] is None  # d < 0, no ledger
    assert by_bits["0"]["verdict"] == "integer_cycle"


def direct_record(rec, with_verdict=True):
    """The JSON fields of one rank, from its own evaluate and trace."""
    obj = {
        "l": rec.s.l,
        "rank": rec.s.rank,
        "bits": str(rec.s),
        "d": str(rec.d),
        "phi": str(rec.phi),
        "x0": format_rational(rec.x0),
        "class": rec.cls.value,
        "realized_U": rec.realized_U,
        "realized_Uflip": rec.realized_Uflip,
        "misalign_U": rec.misalign_U,
        "misalign_Uflip": rec.misalign_Uflip,
    }
    if with_verdict:
        obj["verdict"] = trace(rec).verdict.label() if rec.d > 0 else None
    return obj


@pytest.mark.parametrize("l", range(1, 13))
def test_rotated_lines_equal_direct_evaluation(l):
    """Every line derived from a class is the line of the rank's own evaluation.

    A block smaller than the length often meets a class first at a rank that
    is not its least rotation; blocks of 1, 4 and 16 ranks are checked up to
    l = 10.
    """
    total = 1 << l
    recs = [evaluate(BitSeq.from_rank(l, rank)) for rank in range(total)]
    for with_verdict in (False, True):
        expected = [cli._dumps(direct_record(r, with_verdict)) for r in recs]
        for size in [1, 4, 16] if l <= 10 else []:
            blocks = [(l, lo, min(lo + size, total), True, with_verdict) for lo in range(0, total, size)]
            assert "".join(line for b in blocks for line in cli._sweep_chunk(b)[0]).splitlines() == expected
        lines, counts, realized, closed = cli._sweep_chunk((l, 0, total, True, with_verdict))
        assert "".join(lines).splitlines() == expected
    assert sum(counts.values()) == len(recs)
    assert closed == 0  # record mode reports no necklace count
    assert sorted(realized) == [  # cmd_cycles orders the rows by (l, rank)
        (l, r.s.rank, r.x0.denominator == 1, r.realized_U, r.realized_Uflip)
        for r in recs
        if r.realized_U or r.realized_Uflip
    ]


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=24))
def test_rotated_record_equals_direct_evaluation(bits):
    s = BitSeq(tuple(bits))
    lines, _, _, _ = cli._sweep_chunk((s.l, s.rank, s.rank + 1, True, True))
    assert lines == [cli._dumps(direct_record(evaluate(s))) + "\n"]


bits = st.integers(min_value=0, max_value=1)


@st.composite
def block_patterns(draw):
    """Up to 24 bits; half of them repeat a word of 1 to 4 bits up to their last 4.

    Rotation k of a rank lies in the rank's 16-rank block when the first
    l - 4 + k bits have period k, so a periodic head puts rotations k > 0
    in the block.
    """
    l = draw(st.integers(min_value=1, max_value=24))
    head = max(l - 4, 0)
    if draw(st.booleans()):
        word = draw(st.lists(bits, min_size=1, max_size=4))
        start = (word * l)[:head]
    else:
        start = draw(st.lists(bits, min_size=head, max_size=head))
    return tuple(start + draw(st.lists(bits, min_size=l - head, max_size=l - head)))


@settings(deadline=None)
@given(block_patterns())
@example((1,) * 21 + (0,) * 3)  # met at 1^20 0001, so 1^21 000 is its rotation by 23
def test_rotated_block_lines_equal_direct_evaluation(pattern):
    """Each line of a pattern's aligned block of 16 ranks (or all 2^l) is its rank's own evaluation."""
    s = BitSeq(pattern)
    size = min(16, 1 << s.l)
    lo = s.rank - s.rank % size
    lines, _, _, _ = cli._sweep_chunk((s.l, lo, lo + size, True, True))
    assert lines == [
        cli._dumps(direct_record(evaluate(BitSeq.from_rank(s.l, x)))) + "\n" for x in range(lo, lo + size)
    ]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_record_sweep_writes_the_same_bytes_to_a_file(workers, tmp_path, capsys, monkeypatch):
    """--out takes each chunk's line list through _OutFile.writelines; at 2 workers the lists come from a pool."""
    monkeypatch.setattr(cli, "_POOL_MIN_RANKS", 0)  # a sweep this short would run in process
    argv = ["cycles", "--lmax", "10", "--with-verdict", "--workers", workers]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "records.jsonl"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == stdout.encode()


def test_records_evaluate_and_trace_each_necklace_once(capsys, monkeypatch):
    evaluated, traced = [], []

    def counting_candidate(s):
        evaluated.append(str(s))
        return candidate(s)

    def counting_trace(rec, flipped=False):
        traced.append(str(rec.s))
        return trace(rec, flipped)

    monkeypatch.setattr(cycles, "candidate", counting_candidate)
    monkeypatch.setattr(remainders, "trace", counting_trace)
    assert run_cli(capsys, "cycles", "--lmax", "10", "--with-verdict")[0] == 0
    least = []  # equal-length bit strings order as their ranks do
    for l in range(1, 11):
        patterns = (f"{r:0{l}b}" for r in range(1 << l))
        least += sorted({min(p[k:] + p[:k] for k in range(l)) for p in patterns})
    assert evaluated == least
    assert traced == [bits for bits in least if 2 ** len(bits) > 3 ** bits.count("1")]


def test_record_blocks_evaluate_each_class_once(capsys, monkeypatch):
    """A block closes the first rank of each class it meets once, and traces it when d > 0."""
    evaluated, traced = [], []

    def counting_candidate(s):
        evaluated.append(str(s))
        return candidate(s)

    def counting_trace(rec, flipped=False):
        traced.append(str(rec.s))
        return trace(rec, flipped)

    monkeypatch.setattr(cycles, "candidate", counting_candidate)
    monkeypatch.setattr(remainders, "trace", counting_trace)
    monkeypatch.setattr(cli, "_CHUNK_RANKS", 16)
    assert run_cli(capsys, "cycles", "--lmax", "8", "--with-verdict")[0] == 0
    first = []
    for l in range(1, 9):
        for lo in range(0, 1 << l, 16):
            block = {}  # least rotation -> the block's first rank of that class
            for r in range(lo, min(lo + 16, 1 << l)):
                p = f"{r:0{l}b}"
                block.setdefault(min(p[k:] + p[:k] for k in range(l)), p)
            first += block.values()
    assert evaluated == first
    assert traced == [bits for bits in first if 2 ** len(bits) > 3 ** bits.count("1")]
    assert any(bits != min(bits[k:] + bits[:k] for k in range(len(bits))) for bits in first)


def test_cycles_worker_count_does_not_change_output(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_POOL_MIN_RANKS", 0)  # a sweep this short would run in process
    one = tmp_path / "w1.jsonl"
    two = tmp_path / "w2.jsonl"
    assert main(["cycles", "--lmax", "6", "--out", str(one)]) == 0
    assert main(["cycles", "--lmax", "6", "--workers", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_lost_record_is_an_internal_error(capsys, monkeypatch):
    necklaces = cycles.necklaces

    def lossy(l, lo, hi):  # drop the class of 0001 and its three rotations
        return (c for c in necklaces(l, lo, hi) if (l, c[0]) != (4, 0b0001))

    monkeypatch.setattr(cycles, "necklaces", lossy)
    code, out, err = run_cli(capsys, "cycles", "--lmax", "5", "--summary-only")
    assert (code, out) == (5, "")
    assert err == "real3x1: internal error: sweep counted 58 records, expected 62\n"

    def swapped(l, lo, hi):  # 0001 walked as 0011: the same period and class, one more 1
        return ((0b0011, p) if (l, r) == (4, 0b0001) else (r, p) for r, p in necklaces(l, lo, hi))

    # only the count by (l, n) sees this one: the total and every class count add up
    monkeypatch.setattr(cycles, "necklaces", swapped)
    code, out, err = run_cli(capsys, "cycles", "--lmax", "5", "--summary-only")
    assert (code, out) == (5, "")
    assert err == "real3x1: internal error: sweep counted 0 records with l = 4, n = 1, expected 4\n"

    # record mode counts by (l, n) in its class walk
    def swapped_candidate(s):
        return candidate(BitSeq.from_string("0011") if str(s) == "0001" else s)

    monkeypatch.setattr(cycles, "necklaces", necklaces)
    monkeypatch.setattr(cycles, "candidate", swapped_candidate)
    code, _, err = run_cli(capsys, "cycles", "--lmax", "5")
    assert code == 5
    assert err == "real3x1: internal error: sweep counted 0 records with l = 4, n = 1, expected 4\n"


def test_split_necklace_is_an_internal_error(capsys, monkeypatch):
    """0011 closed as two necklaces of period 2: every record count adds up, the necklace count does not."""
    necklaces = cycles.necklaces

    def split(l, lo, hi):
        for rank, period in necklaces(l, lo, hi):
            if (l, rank) == (4, 0b0011):
                yield from [(rank, 2), (rank, 2)]
            else:
                yield rank, period

    monkeypatch.setattr(cycles, "necklaces", split)
    code, out, err = run_cli(capsys, "cycles", "--lmax", "5", "--summary-only")
    assert (code, out) == (5, "")
    assert err == "real3x1: internal error: sweep closed 7 necklaces with l = 4, expected 6\n"


def test_ledger_and_parity_scan_must_agree(capsys, monkeypatch):
    """A ledger whose misaligned step is one past the one rotation_checks finds is an internal error."""

    def shifted_trace(rec, flipped=False):
        rt = trace(rec, flipped)
        if rt.verdict.kind is remainders.VerdictKind.MISALIGNED_AT:
            rt = rt._replace(verdict=remainders.Verdict(rt.verdict.kind, rt.verdict.index + 1))
        return rt

    monkeypatch.setattr(remainders, "trace", shifted_trace)
    code, _, err = run_cli(capsys, "cycles", "--lmax", "3", "--with-verdict")
    assert code == 5
    assert err == "real3x1: internal error: the ledger of 001 says misaligned_at:3, its parity scan 2\n"
    # without --with-verdict no ledger is read, so there is nothing to compare
    assert run_cli(capsys, "cycles", "--lmax", "3")[0] == 0


def test_cycles_validation(capsys):
    assert parse_error_code("cycles", "--lmax", "0") == 1
    assert run_cli(capsys, "cycles", "--lmax", "3", "--lmin", "5")[0] == 1
    assert parse_error_code("cycles", "--lmax", "3", "--workers", "0") == 1


def _sweep_must_not_start(args, out):
    pytest.fail(f"cycles started with lmin {args.lmin}, lmax {args.lmax}")


def _scan_must_not_start(d, max_len):
    pytest.fail(f"rmap-scan started a scan at d = {d}, max_len {max_len}")


def _evidence_must_not_start(args, out):
    pytest.fail(f"conjecture started with den_bits {args.den_bits}, value_bits {args.value_bits}")


@pytest.mark.parametrize(
    "argv",
    [
        # unchecked, the first three would report success having checked nothing
        ("conjecture", "Q2", "--samples", "2", "--steps", "-3"),
        ("conjecture", "RU", "--samples", "3", "--cap", "-5"),
        ("rmap-scan", "--d", "19", "--max-len", "0"),
        ("conjecture", "RU", "--samples", "0"),
        # every start is drawn before the first orbit runs
        ("conjecture", "RU", "--samples", "1000001"),
        ("iterate", "--map", "U", "--start", "3", "--keep", "0"),
        ("iterate", "--map", "U", "--start", "3", "--den-bit-cap", "0"),
        ("conjecture", "RU", "--flag-limit", "-1"),
        ("conjecture", "RU", "--samples", "3", "--den-bits", "0"),
        ("conjecture", "NU", "--samples", "3", "--value-bits", "-1"),
        ("cycles", "--lmax", "2", "--workers", "x"),
        ("cycles", "--lmax", "3", "--lmin", "0"),
        # every rank chunk's task is built before any work starts
        ("cycles", "--lmax", "33", "--summary-only"),
        ("cycles", "--lmax", "40", "--lmin", "33"),
        ("cycles", "--lmax", "3", "--lmin", "33"),
        # one scan's move table holds every even residue below d
        ("rmap-scan", "--d", "1000001"),
        ("rmap-scan", "--d", "1000000007"),
        # a rational bound follows the same rule: escaping |x| > 0 or > -1 is instant
        ("iterate", "--map", "U", "--start", "3", "--escape", "-1"),
        ("conjecture", "RU", "--samples", "3", "--escape", "0"),
        # a start is drawn below 2^value_bits over a denominator below 2^den_bits
        ("conjecture", "RU", "--samples", "3", "--den-bits", "65537"),
        ("conjecture", "NU", "--samples", "3", "--value-bits", "65537"),
        ("conjecture", "RU", "--samples", "3", "--value-bits", "4000000000"),
    ],
)
def test_out_of_range_integers_fail_at_parse_time(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_cycles", _sweep_must_not_start)  # a missed bound fails fast
    monkeypatch.setattr(remainders, "rmap_orbit_scan", _scan_must_not_start)
    monkeypatch.setattr(cli, "cmd_conjecture", _evidence_must_not_start)
    assert parse_error_code(*argv) == 1
    assert "error: argument" in capsys.readouterr().err


def test_config_values_get_the_same_bounds(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cap = -5\n")
    assert parse_error_code("conjecture", "RU", "--samples", "3", "--config", str(cfg)) == 1
    assert "--cap: must be >= 0, got -5" in capsys.readouterr().err


def test_sweep_length_cap_holds_in_config_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_cycles", _sweep_must_not_start)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lmax = 33\nsummary_only = true\n")
    assert parse_error_code("cycles", "--config", str(cfg)) == 1
    assert "--lmax: must be <= 32, got 33" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["cycles", "--lmax", "32", "--lmin", "32"])
    assert (args.lmin, args.lmax) == (32, 32)  # the cap itself parses


def test_q2_family_range_is_bounded(capsys, monkeypatch):
    def family_step(p, q):
        raise StructureError(f"a family start was stepped at {p}/{q}")

    monkeypatch.setitem(maps.MAPS, "F", SimpleNamespace(step_pq=family_step))
    for m_range in ("0..100000000", "0..100000"):  # 10^8 + 1 and 100,001 starts
        code, out, err = run_cli(
            capsys, "conjecture", "Q2", "--samples", "1", "--m-range", m_range, "--steps", "1"
        )
        assert (code, out) == (1, "")
        assert err == f"real3x1: error: --m-range spans more than 100000 starts: {m_range!r}\n"


def sweep_tasks(lmax, records):
    """The rank chunks that cmd_cycles builds for a sweep of lengths 1..lmax."""
    return [
        (l, lo, min(lo + cli._CHUNK_RANKS, 1 << l), records, False)
        for l in range(1, lmax + 1)
        for lo in range(0, 1 << l, cli._CHUNK_RANKS)
    ]


def test_pool_size_is_capped_by_cores_and_tasks(monkeypatch):
    def chunks(n):  # n summary chunks, 2^14 n ranks in all
        return [(22, 0, 1 << 14, False, False)] * n

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_size(64, chunks(100)) == 2
    assert cli._pool_size(1, chunks(100)) == 1
    assert cli._pool_size(2, [(22, 0, 1 << 22, False, False)]) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
    assert cli._pool_size(8, [(22, 0, 1 << 21, False, False)] * 3) == 3
    assert cli._pool_size(8, chunks(100)) == 8
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown core count
    assert cli._pool_size(8, chunks(100)) == 1
    # below _POOL_MIN_RANKS of work a sweep runs in process; a record rank weighs 32 summary ranks
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_size(2, sweep_tasks(16, records=False)) == 1
    assert cli._pool_size(2, sweep_tasks(19, records=False)) == 1
    assert cli._pool_size(2, sweep_tasks(20, records=False)) == 2
    assert cli._pool_size(2, sweep_tasks(22, records=False)) == 2
    assert cli._pool_size(2, sweep_tasks(13, records=True)) == 1
    assert cli._pool_size(2, sweep_tasks(14, records=True)) == 1
    assert cli._pool_size(2, sweep_tasks(15, records=True)) == 2
    assert cli._pool_size(2, sweep_tasks(17, records=True)) == 2


def _fresh(probe, *argv):
    """Run probe, with argv as its sys.argv[1:], in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(real3x1.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True)


def test_importing_the_cli_starts_no_pool_machinery():
    """Only a --workers > 1 sweep needs multiprocessing; a fresh interpreter shows what loads."""
    probe = (
        "import sys, real3x1.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    )
    done = _fresh(probe)
    assert (done.returncode, done.stdout) == (0, "[]\n")


def test_a_short_sweep_starts_no_pool():
    """Below the pool's threshold --workers 2 runs in process, and writes what --workers 1 writes."""
    probe = (
        "import sys, real3x1.cli as cli; code = cli.main(sys.argv[1:]); "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules),"
        " file=sys.stderr); sys.exit(code)"
    )
    runs = {
        workers: _fresh(probe, "cycles", "--lmax", "16", "--summary-only", "--workers", workers)
        for workers in ("1", "2")
    }
    assert (runs["2"].returncode, runs["2"].stderr) == (0, "[]\n")
    assert runs["2"].stdout == runs["1"].stdout


# per probe id: a command run in a fresh interpreter, and the package modules it runs
_COMMAND_PROBES = {
    "parser": ("cli.build_parser()", ["cli", "errors", "rationals"]),
    "sweep": (
        "cli.main(['cycles', '--lmax', '6', '--summary-only', '--out', os.devnull])",
        ["cli", "cycles", "errors", "rationals"],
    ),
    "sweep-pool": (  # a pool imports its chunks' modules before it forks, so the workers inherit them;
        # a sweep this short runs in process unless the pool's threshold is lowered
        "cli._POOL_MIN_RANKS = 0; "
        "cli.main(['cycles', '--lmax', '6', '--summary-only', '--workers', '2', '--out', os.devnull])",
        ["cli", "cycles", "errors", "rationals"],
    ),
    "records-pool": (
        "cli._POOL_MIN_RANKS = 0; "
        "cli.main(['cycles', '--lmax', '6', '--with-verdict', '--workers', '2', '--out', os.devnull])",
        ["cli", "cycles", "errors", "rationals", "remainders"],
    ),
    "conjecture": (
        "cli.main(['conjecture', 'RU', '--samples', '3', '--out', os.devnull])",
        ["cli", "errors", "maps", "rationals", "sampling", "trajectory"],
    ),
    "iterate": (
        "cli.main(['iterate', '--map', 'U', '--start', '3/2,7', '--out', os.devnull])",
        ["cli", "errors", "maps", "rationals", "trajectory"],
    ),
    "trace": (
        "cli.main(['trace', '--bits', '11100', '--out', os.devnull])",
        ["cli", "cycles", "errors", "rationals", "remainders"],
    ),
    "rmap-scan": (
        "cli.main(['rmap-scan', '--d', '19', '--out', os.devnull])",
        ["cli", "errors", "rationals", "remainders"],
    ),
}


@pytest.mark.parametrize("command,loaded", list(_COMMAND_PROBES.values()), ids=list(_COMMAND_PROBES))
def test_each_command_loads_only_its_modules(command, loaded):
    """Start-up parses and wires; a command runs the package modules it needs and no other.

    The package registers its modules lazily, so every one is in sys.modules;
    one that has not run is still of the lazy module type.
    """
    probe = (
        f"import os, sys, types, real3x1.cli as cli; {command}; "
        "print(sorted(n.partition('.')[2] for n, m in sys.modules.items()"
        " if n.startswith('real3x1.') and type(m) is types.ModuleType))"
    )
    done = _fresh(probe)
    assert (done.returncode, done.stdout) == (0, f"{loaded}\n")


_SHOW_INTROSPECTION = "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"


@pytest.fixture(scope="module")
def bare_introspection():
    """What a bare interpreter has loaded of dataclasses and inspect (a site .pth may load them)."""
    done = _fresh(f"import sys; {_SHOW_INTROSPECTION}")
    assert done.returncode == 0
    return done.stdout


@pytest.mark.parametrize(
    "command", [command for command, _ in _COMMAND_PROBES.values()], ids=list(_COMMAND_PROBES)
)
def test_no_command_loads_dataclasses_or_inspect(command, bare_introspection):
    """The package's records are NamedTuples, so no command loads dataclasses, whose import
    of inspect, ast, dis and tokenize costs a process about 13 ms."""
    done = _fresh(f"import os, sys, real3x1.cli as cli; {command}; {_SHOW_INTROSPECTION}")
    assert (done.returncode, done.stdout) == (0, bare_introspection)


def test_importing_the_cli_makes_every_module_known():
    """Every module that defines an export is in sys.modules once the cli is imported.

    A tool that takes the package's modules from sys.modules then (a tracer
    patching functions, say) holds the objects that later run, not stale ones.
    """
    probe = (
        "import sys, real3x1.cli; m = dict(sys.modules); "
        "import real3x1.cycles, real3x1.remainders, real3x1.trajectory; "
        "print(sorted(n for n in m if n.startswith('real3x1.')), "
        "all(sys.modules[n] is m[n] for n in m if n.startswith('real3x1.')), "
        "real3x1.cycles.candidate.__module__)"
    )
    done = _fresh(probe)
    known = [f"real3x1.{name}" for name in ["cli", *sorted(real3x1._EXPORTS)]]
    assert (done.returncode, done.stdout) == (0, f"{sorted(known)} True real3x1.cycles\n")


def test_exports_resolve_to_their_home_definitions():
    """real3x1.X, from real3x1 import X and import * give the object X's own module defines."""
    namespace = {}
    exec("from real3x1 import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == real3x1.__all__
    assert len(real3x1.__all__) == 38
    for name in real3x1.__all__:
        obj = getattr(real3x1, name)
        module = sys.modules[f"real3x1.{real3x1._HOME[name]}"]
        assert obj is namespace[name] is vars(module)[name]
        assert getattr(obj, "__module__", module.__name__) == module.__name__  # defined there, not imported
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        real3x1.no_such_name


def test_trace_fractional(capsys):
    code, out, _ = run_cli(capsys, "trace", "--bits", "11100")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["d"] == "5" and rec["x0"] == "19/5"
    assert rec["trace"]["verdict"] == "misaligned_at:1"
    assert rec["trace"]["r"] == [4, 1, 4, 1, 3, 4]
    assert rec["trace_flipped"]["verdict"] == "misaligned_at:0"
    assert rec["inequalities"] is None and rec["inequalities_flipped"] is None


def test_trace_integer_cycle(capsys):
    code, out, _ = run_cli(capsys, "trace", "--bits", "10")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["realized_U"] is True
    assert rec["trace"]["verdict"] == "integer_cycle"


def test_trace_negative_d(capsys):
    code, out, _ = run_cli(capsys, "trace", "--bits", "110")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["trace"] is None and rec["trace_flipped"] is None
    assert "trace_error" in rec


def test_trace_bad_bits(capsys):
    assert run_cli(capsys, "trace", "--bits", "2ab")[0] == 1
    assert run_cli(capsys, "trace", "--bits", "")[0] == 1


def test_rmap_scan_single(capsys):
    code, out, _ = run_cli(capsys, "rmap-scan", "--d", "19")
    assert code == 0
    rec, summary = jsonl(out)
    assert rec["orbit_count"] == 1
    assert rec["orbits"][0]["states"] == [8, 12, 18]
    assert rec["orbits"][0]["exceeds_pow_bound"] is True
    assert summary["with_orbits"] == 1 and summary["orbit_total"] == 1


def test_rmap_scan_range(capsys):
    code, out, _ = run_cli(capsys, "rmap-scan", "--d-range", "5..25")
    assert code == 0
    lines = jsonl(out)
    assert [r["d"] for r in lines[:-1]] == [5, 7, 11, 13, 17, 19, 23, 25]
    assert [r["d"] for r in lines[:-1] if r["orbit_count"]] == [19]
    assert lines[-1]["scanned"] == 8


def test_rmap_scan_validation(capsys):
    assert run_cli(capsys, "rmap-scan", "--d", "9")[0] == 1
    assert parse_error_code("rmap-scan") == 1
    assert parse_error_code("rmap-scan", "--d", "19", "--d-range", "5..7") == 1
    assert run_cli(capsys, "rmap-scan", "--d-range", "7..5")[0] == 1


def test_rmap_scan_range_is_bounded_before_any_scan(capsys, monkeypatch):
    monkeypatch.setattr(remainders, "rmap_orbit_scan", _scan_must_not_start)
    code, out, err = run_cli(capsys, "rmap-scan", "--d-range", "5..1000001")
    assert (code, out) == (1, "")
    assert err == "real3x1: error: --d-range must end at or below 1000000, got '5..1000001'\n"


@pytest.mark.parametrize("d_range", ["5..8000", "5..1000000", "-1000000000000..1000000"])
def test_rmap_scan_range_width_is_bounded_before_any_scan(d_range, capsys, monkeypatch):
    """Valid moduli summing past 10,000,000 (5..8000 sums to 10,669,332) run no scan."""
    monkeypatch.setattr(remainders, "rmap_orbit_scan", _scan_must_not_start)
    code, out, err = run_cli(capsys, "rmap-scan", f"--d-range={d_range}")
    assert (code, out) == (1, "")
    assert err == f"real3x1: error: --d-range moduli must sum to at most 10000000, got {d_range!r}\n"


@pytest.mark.parametrize("d_range,scanned", [("5..7000", 2332), ("-1000000000000..5", 1)])
def test_rmap_scan_range_within_the_bound_runs(d_range, scanned, capsys, monkeypatch):
    monkeypatch.setattr(remainders, "rmap_orbit_scan", lambda d, max_len: [])
    code, out, _ = run_cli(capsys, "rmap-scan", f"--d-range={d_range}")
    assert code == 0
    assert jsonl(out)[-1]["scanned"] == scanned


def test_trivial_cycles_are_cycles_of_their_maps():
    """Each map's permitted cycle returns to its least value after exactly its length in steps."""
    for name, cycle in cli._TRIVIAL_CYCLES.items():
        x = Fraction(min(cycle))
        visited = []
        for _ in cycle:
            visited.append(x)
            x, _bit = step(MAPS[name], x)
        assert x == min(cycle) and sorted(visited) == sorted(cycle), name
    # every conjecture samples its starts from its map's domain
    assert all(MAPS[conj.map].domain_min is not None for conj in cli._CONJECTURES.values())


def test_conjecture_summary_shape(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "RU", "--samples", "40", "--seed", "5", "--cap", "20000"
    )
    assert code == 0
    summary = jsonl(out)[-1]
    assert summary["name"] == "RU" and summary["map"] == "U"
    assert summary["counterexamples"] == 0
    assert summary["verdict"].startswith("no counterexample among 40 samples")
    assert "not a proof" in summary["note"]
    assert summary["supporting"] + summary["flagged"] + summary["unresolved"] == 40


def test_conjecture_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["conjecture", "RV", "--samples", "60", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text().splitlines()[-1])["tally"] == {"entered_region": 60}


def test_conjecture_integer_and_parity_variants(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "NU", "--samples", "30")
    assert code == 0
    assert jsonl(out)[-1]["tally"] == {"entered_cycle:2": 30}
    code, out, _ = run_cli(capsys, "conjecture", "RUprime", "--samples", "30")
    assert code == 0
    assert jsonl(out)[-1]["counterexamples"] == 0


def test_conjecture_q2_family(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "Q2", "--samples", "5", "--m-range", "0..10",
        "--steps", "30", "--escape", "1000000",
    )
    assert code == 0
    summary = jsonl(out)[-1]
    assert summary["family"] == {
        "m_lo": 0, "m_hi": 10, "steps": 30, "verified": 11, "violations": 0,
    }


def test_q2_flags_are_read_by_q2_alone(capsys):
    """RU ignores --m-range and --steps, even a malformed range that Q2 rejects."""
    plain = run_cli(capsys, "conjecture", "RU", "--samples", "20")
    assert plain[0] == 0 and plain[1]
    with_q2_flags = run_cli(
        capsys, "conjecture", "RU", "--samples", "20", "--m-range", "5..1", "--steps", "7"
    )
    assert with_q2_flags == plain
    code, out, err = run_cli(capsys, "conjecture", "Q2", "--samples", "20", "--m-range", "5..1")
    assert (code, out, err) == (1, "", "real3x1: error: bad --m-range: '5..1'\n")


def test_conjecture_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "XY"])
    assert exc.value.code == 1


def test_config_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 7\nseed = 3\n# comment\n")
    code, out, _ = run_cli(
        capsys, "conjecture", "RU", "--config", str(cfg), "--cap", "20000"
    )
    assert code == 0
    summary = jsonl(out)[-1]
    assert summary["samples"] == 7 and summary["seed"] == 3

    code, out, _ = run_cli(
        capsys, "conjecture", "RU", "--config", str(cfg), "--samples", "9",
        "--cap", "20000",
    )
    assert jsonl(out)[-1]["samples"] == 9  # explicit flags beat config values


def test_config_boolean_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("summary_only = true\n")
    code, out, _ = run_cli(capsys, "cycles", "--lmax", "2", "--config", str(cfg))
    assert code == 0
    assert len(out.splitlines()) == 1  # the summary alone


def test_summary_only_excludes_with_verdict(tmp_path, capsys):
    assert parse_error_code("cycles", "--lmax", "2", "--summary-only", "--with-verdict") == 1
    assert "not allowed with argument" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("summary_only = true\nwith_verdict = true\n")
    assert parse_error_code("cycles", "--lmax", "2", "--config", str(cfg)) == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    assert run_cli(capsys, "cycles", "--lmax", "2", "--config", str(bad))[0] == 1
    assert parse_error_code("cycles", "--lmax", "2", "--config") == 1
    assert run_cli(capsys, "--config", str(bad))[0] == 1
    missing = tmp_path / "nope.cfg"
    assert run_cli(capsys, "cycles", "--lmax", "2", "--config", str(missing))[0] == 4


@pytest.mark.parametrize("spelling", [("--conf", "{}"), ("--con={}",)], ids=["conf", "con="])
def test_abbreviated_config_loads_the_file(spelling, tmp_path, capsys):
    """argparse reads --config, so each abbreviation it accepts loads the file too."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("summary_only = true\n")
    full = run_cli(capsys, "cycles", "--lmax", "2", "--config", str(cfg))
    assert full[0] == 0 and len(full[1].splitlines()) == 1  # the summary alone
    assert run_cli(capsys, "cycles", "--lmax", "2", *(a.format(cfg) for a in spelling)) == full


def exit_and_stderr(capsys, *argv):
    """Exit status and stderr, whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_config_equals_form_and_false_lines(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    assert exit_and_stderr(capsys, "cycles", "--lmax", "2", f"--config={bad}") == (
        1, "real3x1: error: config line is not key = value: 'not a pair'\n"
    )
    # a false line adds no flag, so the run reaches the --lmin check
    cfg = tmp_path / "off.cfg"
    cfg.write_text("summary_only = false\nlmin = 5\n")
    assert exit_and_stderr(capsys, "cycles", "--lmax", "3", "--config", str(cfg)) == (
        1, "real3x1: error: --lmin must be in 1..lmax, got 5\n"
    )


def test_config_without_a_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 3\n")
    assert exit_and_stderr(capsys, "--config", str(cfg)) == (
        1, "real3x1: error: --config given without a subcommand\n"
    )
    # the file is read first, so a missing one is an I/O error even here
    code, err = exit_and_stderr(capsys, "--config", str(tmp_path / "nope.cfg"))
    assert code == 4 and err.startswith("real3x1: I/O error: ")


@pytest.mark.parametrize(
    "argv,err",
    [
        (
            ("iterate", "--map", "U", "--start", "3", "--escape", "abc"),
            "real3x1 iterate: error: argument --escape: not a p/q rational: 'abc'\n",
        ),
        (
            ("conjecture", "Q2", "--samples", "1", "--m-range", "5"),
            "real3x1: error: --m-range wants lo..hi, got '5'\n",
        ),
        (
            ("iterate", "--map", "U", "--start", "3", "--trap-region", "3"),
            "real3x1: error: interval wants lo,hi: '3'\n",
        ),
        (  # with a space, argparse would read -1..5 as a flag
            ("conjecture", "Q2", "--samples", "1", "--m-range=-1..5"),
            "real3x1: error: bad --m-range: '-1..5'\n",
        ),
    ],
    ids=["escape", "m-range", "trap-region", "m-range-negative"],
)
def test_malformed_values_are_usage_errors(argv, err, capsys):
    code, got = exit_and_stderr(capsys, *argv)
    assert code == 1
    assert got.endswith(err)


@pytest.mark.parametrize(
    "argv",
    [
        ("cycles", "--lmax", "3", "--lmin", "5"),
        ("rmap-scan", "--d-range", "5..8000"),
        ("conjecture", "Q2", "--m-range", "5..1"),
        ("iterate", "--map", "U", "--start", " , "),
    ],
)
def test_rejected_arguments_leave_the_out_file_untouched(argv, tmp_path, capsys):
    """Commands check their arguments before they write, and the file opens at the first write."""
    target = tmp_path / "keep.txt"
    target.write_text("earlier output\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (1, "") and err.startswith("real3x1: error: ")
    assert target.read_text() == "earlier output\n"


def test_out_file_and_io_error(tmp_path, capsys):
    target = tmp_path / "orbit.jsonl"
    assert main(["iterate", "--map", "U", "--start", "1", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["fate"]["kind"] == "entered_cycle"
    code, _, err = run_cli(
        capsys, "iterate", "--map", "U", "--start", "1",
        "--out", str(tmp_path / "missing" / "x.jsonl"),
    )
    assert code == 4 and "I/O error" in err
