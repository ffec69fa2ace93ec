"""Command line front door: iterate, cycles, conjecture, trace, rmap-scan.

Output is JSONL (one record per line, keys sorted) with a summary object as
the final line of record streams, or CSV where a flat table is the natural
shape.  Identical invocations produce byte-identical output, including across
worker counts: the cycle sweep is partitioned into aligned rank blocks of one
length each.  Record lines are merged back in rank order.  A summary block is
the FKM walk of the necklaces that share one prefix; its class counts are
sums, and its realized rows are sorted by (length, rank) at the end.

Start-up only parses and wires: at module level this imports no package
module but errors and rationals.  Each command imports the modules it runs
inside its own function: cycles for a sweep (and remainders with
--with-verdict), cycles and remainders for trace, remainders for rmap-scan,
maps and trajectory for iterate, and those two and sampling for conjecture.
The others stay unrun (the package registers them lazily).  So a test that
replaces one of their functions patches it on its own module.

Exit codes: 0 resolved/completed, 1 usage or domain error, 2 a trajectory hit
an iteration or size cap, 3 counterexample found (a realized cycle that the
two cycle theorems rule out), 4 file I/O failure, 5 internal invariant failure
(a StructureError, which means a bug rather than a bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from enum import Enum
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from .errors import StructureError
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

_DEFAULT_ESCAPE = str(1 << 64)
_MAX_FAMILY = 100_000  # Q2 family starts one --m-range may ask for
_MAX_LENGTH = 32  # cycles --lmax and --lmin; lmax 32 is about 250 times the work of lmax 24
_MAX_MODULUS = 1_000_000  # rmap-scan --d and the top of --d-range; one scan's memory grows with d
_MAX_MODULI = 10_000_000  # the summed moduli of one --d-range, about 20 s at 2 us per unit of d
_MAX_SAMPLES = 1_000_000  # conjecture --samples; each start is drawn as its orbit runs, so this bounds time
_MAX_BITS = 1 << 16  # conjecture --den-bits and --value-bits; iterate's den_bit_cap size-caps a larger denominator


_REMAINDERS = f"{__package__}.remainders"
_dumps = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True), built once


def jsonable(obj):
    """The JSON form of a report is its fields, recursively.

    A Fraction prints exactly as p/q, an Enum as its value and a Verdict as
    its label; a record (a NamedTuple) becomes a dict over its fields, except
    a Segment or SegmentBound, a row of integers, which becomes a list like
    any other tuple or list.  Anything else (int, bool, str, None) passes
    through unchanged.
    """
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, Enum):
        return obj.value
    if not isinstance(obj, (tuple, list)):
        return obj
    fields = getattr(obj, "_fields", ())
    if type(obj).__module__ == _REMAINDERS:  # so remainders has run, and importing it is free
        from .remainders import Segment, SegmentBound, Verdict

        if isinstance(obj, Verdict):
            return obj.label()
        if isinstance(obj, (Segment, SegmentBound)):
            fields = ()
    if fields:
        return {name: jsonable(value) for name, value in zip(fields, obj)}
    return [jsonable(x) for x in obj]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped from exit 2 to exit 1.

    Exit 2 is reserved for capped trajectories, so the stock argparse exit
    code would collide with it.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(k: int, most: int | None = None):
    """An argparse type for integers >= k (and <= most), so every bound fails at parse time."""

    def integer(text: str) -> int:  # argparse's message names it: "invalid integer value"
        n = int(text)
        if n < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {n}")
        if most is not None and n > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {n}")
        return n

    return integer


def _positive_rational(text: str) -> str:
    """An argparse type for a rational bound > 0; the text itself is kept for the report."""
    try:
        positive = parse_rational(text) > 0
    except ValueError as exc:  # keep parse_rational's message, not argparse's generic one
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not positive:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return text


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"{flag} wants lo..hi, got {text!r}")
    a, b = int(lo), int(hi)
    if b < a:
        raise ValueError(f"bad {flag}: {text!r}")
    return a, b


# ------------------------------------------------------------------- config


def _config_flags(path: str) -> list[str]:
    """key = value lines become long flags; later CLI flags override them."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"config line is not key = value: {raw.strip()!r}")
            key = key.strip().replace("_", "-")
            val = val.strip()
            if val.lower() in ("true", "yes", "on"):
                flags.append(f"--{key}")
            elif val.lower() in ("false", "no", "off"):
                pass
            else:
                flags.extend([f"--{key}", val])
    return flags


# ---------------------------------------------------------------- iterate


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"interval wants lo,hi: {text!r}")
    lo, hi = (parse_rational(p) for p in parts)
    if not lo < hi:
        raise ValueError(f"empty interval: {text!r}")
    return lo, hi


def cmd_iterate(args, out) -> int:
    from .maps import map_from_name
    from .trajectory import FateKind, iterate

    m = map_from_name(args.map)
    starts = [parse_rational(tok) for tok in args.start.split(",") if tok.strip()]
    if not starts:
        raise ValueError("no start values given")
    escape = None if args.escape is None else parse_rational(args.escape)
    region = None if args.trap_region is None else _parse_interval(args.trap_region)
    reports = [
        iterate(
            m,
            x,
            cap=args.cap,
            escape_bound=escape,
            trap_region=region,
            den_bit_cap=args.den_bit_cap,
            keep=args.keep,
        )
        for x in starts
    ]
    if args.format == "csv":
        import csv

        w = csv.writer(out, lineterminator="\n")
        w.writerow(["start", "fate", "steps"])
        for rep in reports:
            w.writerow([format_rational(rep.start), rep.fate.label(), rep.steps_used])
    else:
        for rep in reports:
            out.write(_dumps(jsonable(rep)) + "\n")
    capped = any(rep.fate.kind is FateKind.CAP_REACHED for rep in reports)
    return EXIT_CAP if capped else EXIT_OK


# ----------------------------------------------------------------- cycles

_CHUNK_RANKS = 1 << 14
# A sweep forks a pool only from this much work, counted in summary ranks, a
# record rank weighing 1 << 5 of them.  A pool costs about 50 ms to start; on
# 2 cores it breaks even with one process near 2^20 summary ranks (lmax 19)
# and 2^15 record ranks (lmax 14), and wins above.
_POOL_MIN_RANKS = 1 << 20


def _sweep_chunk(task) -> tuple[list[str], dict, list, int]:
    """Record lines, record counts by (l, n, class), realized rows and necklaces closed for one rank range.

    A realized row is (l, rank, x_0 is an integer, realized_U,
    realized_Uflip).  Without lines, necklace_totals closes the necklaces of
    the range, each through its least rotation and counting for all its
    rotations, in lane groups of one (l, n) (a group with d < 0 runs no
    realization scan), and the chunk adds each group's totals; the rows of a
    realized class list its rotations, which may lie in other ranges, so
    cmd_cycles puts the rows back in order.  The necklaces closed are the
    range's share of the necklaces of length l, whose sum cmd_cycles checks
    against Moreau's count; record mode meets a class in more than one range,
    so it reports 0.  With lines, the first rank r of each class that the
    range meets is closed by candidate (and traced) once, and each rotation
    of r in the range, r turned left by k, gets r's cycle seen from x_k: its
    checks, rotation 0's included, from one rotation_checks scan, and its
    line from one template that holds the class's own fields.  Both the
    ledger's verdict and that scan name U's first misaligned step from r; a
    class whose two reads differ raises StructureError.
    """
    l, lo, hi, emit_lines, with_verdict = task
    counts, realized, mask = {}, [], (1 << l) - 1
    if not emit_lines:
        from .cycles import necklace_totals

        closed = 0
        for n, group_size, group_counts, rows in necklace_totals(l, lo, hi):
            closed += group_size
            for cls, k in group_counts.items():
                counts[l, n, cls] = counts.get((l, n, cls), 0) + k
            for rank, period, integer, on_U, on_Uflip in rows:  # rank turned left by k
                realized += [(l, (rank << k | rank >> l - k) & mask, integer, on_U, on_Uflip) for k in range(period)]
        return [], counts, realized, closed
    from .cycles import BitSeq, candidate, rotation_checks

    if with_verdict:
        from .remainders import VerdictKind, trace

    top, spec = l - 1, f"0{l}b"
    lines = [None] * (hi - lo)  # a filled slot marks its class as walked
    for r in range(lo, hi):
        if lines[r - lo] is not None:
            continue
        rec = candidate(BitSeq.from_rank(l, r))
        d, nums, cls = rec.d, rec.numerators, rec.cls.value
        D, sign = abs(d), 1 if d > 0 else -1
        verdict = trace(rec).verdict if with_verdict and d > 0 else None
        misaligned = verdict is not None and verdict.kind is VerdictKind.MISALIGNED_AT
        # a line is _dumps of its record: keys sorted, and no value needs escaping;
        # head and tail hold the fields that every rotation of the class shares
        head = f'", "class": "{cls}", "d": "{d}", "l": {l}, "misalign_U": '
        tail = ""
        if with_verdict:
            tail = ', "verdict": null' if verdict is None else f', "verdict": "{verdict.label()}"'
        checks = rotation_checks(d, nums)
        scan = checks[0][4]  # U's first misaligned step from r, as the ledger's verdict names it
        if verdict is not None and scan != verdict.index:
            raise StructureError(f"the ledger of {r:{spec}} says {verdict.label()}, its parity scan {scan}")
        g = gcd(nums[0], D)  # the whole cycle's: D is odd, and prime to 3 when the cycle triples
        den = "" if g == D else f"/{D // g}"
        x, k, written = r, 0, 0
        while True:
            if lo <= x < hi:
                on_U, misalign_U, on_Uflip, misalign_Uflip, step = checks[k]
                if misaligned:  # a misaligned step is counted from x_k
                    tail = f', "verdict": "misaligned_at:{step}"'
                a = nums[k]
                lines[x - lo] = (
                    f'{{"bits": "{x:{spec}}{head}{"null" if misalign_U is None else misalign_U}, '
                    f'"misalign_Uflip": {"null" if misalign_Uflip is None else misalign_Uflip}, '
                    f'"phi": "{a * sign}", "rank": {x}, "realized_U": {"true" if on_U else "false"}, '
                    f'"realized_Uflip": {"true" if on_Uflip else "false"}{tail}, '
                    f'"x0": "{a // g}{den}"}}\n'
                )
                if on_U or on_Uflip:
                    realized.append((l, x, g == D, on_U, on_Uflip))
                written += 1
            x, k = ((x << 1) & mask) | (x >> top), k + 1  # r turned left by k
            if x == r:
                break
        key = (l, rec.s.n, cls)
        counts[key] = counts.get(key, 0) + written
    return lines, counts, realized, 0


def _pool_size(workers: int, tasks: list) -> int:
    """Processes to start, 1 for no pool: a sweep below _POOL_MIN_RANKS of work runs in process.

    The work is the tasks' rank ranges, a record rank weighing 1 << 5
    summary ranks.  A pool forks all its processes up front, so it is
    capped by cores and tasks.
    """
    work = sum((hi - lo) << (5 if emit_lines else 0) for _, lo, hi, emit_lines, _ in tasks)
    if work < _POOL_MIN_RANKS:
        return 1
    return min(workers, os.cpu_count() or 1, len(tasks))


def cmd_cycles(args, out) -> int:
    if args.lmin > args.lmax:  # argparse bounds each; their order is checked here
        raise ValueError(f"--lmin must be in 1..lmax, got {args.lmin}")

    tasks = []
    for l in range(args.lmin, args.lmax + 1):
        total = 1 << l
        for lo in range(0, total, _CHUNK_RANKS):
            tasks.append(
                (l, lo, min(lo + _CHUNK_RANKS, total), not args.summary_only, args.with_verdict)
            )

    tallies, realized, closed = {}, [], {}

    def merge(task, result):
        lines, chunk_counts, chunk_realized, chunk_closed = result
        out.writelines(lines)
        for key, k in chunk_counts.items():
            tallies[key] = tallies.get(key, 0) + k
        realized.extend(chunk_realized)
        closed[task[0]] = closed.get(task[0], 0) + chunk_closed

    workers = _pool_size(args.workers, tasks)
    if workers <= 1:
        for task in tasks:
            merge(task, _sweep_chunk(task))
    else:
        # imported here: the pool loads multiprocessing, which no one-worker run needs
        from concurrent.futures import ProcessPoolExecutor

        # a module runs at its first use: the chunks' modules run here, before the
        # pool forks, so that no worker runs them again
        from .cycles import necklace_totals  # noqa: F401
        if args.with_verdict:
            from .remainders import trace  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for task, result in zip(tasks, pool.map(_sweep_chunk, tasks)):
                merge(task, result)

    records = sum(tallies.values())  # every record has exactly one (l, n, class)
    expected = (1 << (args.lmax + 1)) - (1 << args.lmin)
    if records != expected:
        raise StructureError(f"sweep counted {records} records, expected {expected}")
    counts, by_length = {}, {}
    for (l, n, cls), k in tallies.items():
        counts[cls] = counts.get(cls, 0) + k
        by_length[l, n] = by_length.get((l, n), 0) + k
    for l in range(args.lmin, args.lmax + 1):
        for n in range(l + 1):  # one record per pattern of l bits with n ones
            if by_length.get((l, n), 0) != comb(l, n):
                raise StructureError(
                    f"sweep counted {by_length.get((l, n), 0)} records with l = {l}, n = {n}, "
                    f"expected {comb(l, n)}"
                )
    if args.summary_only:  # record mode meets a class in more than one chunk
        for l in range(args.lmin, args.lmax + 1):
            # Moreau's count of necklaces of l bits, (1/l) sum over e | l of phi(e) 2^(l/e),
            # is (1/l) sum over k < l of 2^gcd(k, l): the rotation by k fixes 2^gcd(k, l) words
            moreau = sum(1 << gcd(k, l) for k in range(l)) // l
            if closed[l] != moreau:
                raise StructureError(f"sweep closed {closed[l]} necklaces with l = {l}, expected {moreau}")
    realized.sort()  # by (l, rank), which no two rows share
    realized = [(format(rank, f"0{l}b"), integer, on_U, on_Uflip) for l, rank, integer, on_U, on_Uflip in realized]
    non_integer = [bits for bits, integer, on_U, _ in realized if on_U and not integer]
    realized_Uflip = [bits for bits, _, _, on_Uflip in realized if on_Uflip]
    counterexample = bool(non_integer or realized_Uflip)
    summary = {
        "type": "summary",
        "command": "cycles",
        "lmin": args.lmin,
        "lmax": args.lmax,
        "records": records,
        "class_counts": counts,
        "realized_U": [bits for bits, _, on_U, _ in realized if on_U],
        "realized_U_non_integer": non_integer,
        "realized_Uflip": realized_Uflip,
        "counterexample": counterexample,
    }
    out.write(_dumps(summary) + "\n")
    return EXIT_COUNTEREXAMPLE if counterexample else EXIT_OK


# ------------------------------------------------------------- conjecture


class _Conjecture(NamedTuple):
    """One named conjecture: what to sample, which map to run, what supports it."""

    map: str  # starts are sampled from its domain_min
    statement: str
    integer: bool = False  # starts are sampled integers, not rationals
    region: tuple[int, int] | None = None  # trap region [lo, hi)
    wants_01: bool = False  # support also needs a (0,1) parity tail


_CONJECTURES = {
    "RU": _Conjecture("U", "every U-orbit from x >= 1 tends to the cycle {1, 2}"),
    "RUprime": _Conjecture(
        "U", "every U-parity sequence is eventually periodic with period (0, 1)", wants_01=True
    ),
    "NU": _Conjecture(
        "U", "every integer U-orbit from n >= 1 reaches the cycle {1, 2}", integer=True
    ),
    "NUprime": _Conjecture(
        "U", "every integer U-parity sequence is eventually periodic with period (0, 1)",
        integer=True, wants_01=True,
    ),
    "BU": _Conjecture("U", "every U-orbit from x >= 1 is bounded"),
    "RUflip": _Conjecture("Uflip", "every flipped orbit from x >= 0 visits [0, 2)", region=(0, 2)),
    "BUflip": _Conjecture("Uflip", "every flipped orbit from x >= 0 is bounded"),
    "RV": _Conjecture("V", "every V-orbit from x >= 1 visits [1, 3)", region=(1, 3)),
    "BV": _Conjecture("V", "every V-orbit from x >= 1 is bounded"),
    "Q2": _Conjecture(
        "F", "2m + 3/2 gives the only F-orbits that fail to tend to the cycle {1, 4, 2}"
    ),
}

# per map, the one integer cycle the theorems permit; any other cycle is a counterexample
_TRIVIAL_CYCLES = {"U": (1, 2), "F": (1, 2, 4)}

_NOT_A_PROOF = (
    "evidence only, not a proof: the conjecture remains open and this run "
    "only reports what happened on the sampled starts"
)


def _cycle_values(m, value: Fraction, period: int) -> set[Fraction]:
    """The values of the cycle of map m through value."""
    p, q = value.numerator, value.denominator
    pairs = [(p, q)]
    for _ in range(period - 1):
        p, q, _b = m.step_pq(p, q)
        pairs.append((p, q))
    return {Fraction(p, q) for p, q in pairs}


def _classify(conj: _Conjecture, m, rep) -> tuple[str, str | None]:
    """One of supports / counterexample / flagged / unresolved, plus a note."""
    from .trajectory import TENDENCIES, FateKind, detect_period01

    fate = rep.fate
    kind = fate.kind
    if kind is FateKind.ENTERED_CYCLE:
        values = _cycle_values(m, fate.value, fate.period)
        if values != set(map(Fraction, _TRIVIAL_CYCLES.get(conj.map, ()))):
            shown = ", ".join(format_rational(v) for v in sorted(values))
            return "counterexample", f"entered a cycle outside the trivial one: {shown}"
    elif kind is FateKind.ENTERED_REGION:
        return "supports", None
    elif kind is FateKind.ESCAPED_BOUND:
        return "flagged", "escaped the bound, inconclusive for an open conjecture"
    elif kind not in TENDENCIES:
        return "unresolved", None
    if conj.wants_01 and detect_period01(rep.parity_bits) is None:  # the trivial cycle or a tendency
        seen = "trivial cycle entered" if kind is FateKind.ENTERED_CYCLE else "tendency certified"
        return "flagged", seen + " but no (0,1) parity tail seen"
    return "supports", None


def _q2_family(args) -> tuple[list[dict], dict]:
    """Check that the 2m + 3/2 family climbs: its violation lines and its summary entry."""
    m_lo, m_hi = _parse_range(args.m_range, "--m-range")
    if m_lo < 0:
        raise ValueError(f"bad --m-range: {args.m_range!r}")
    if m_hi - m_lo + 1 > _MAX_FAMILY:
        raise ValueError(f"--m-range spans more than {_MAX_FAMILY} starts: {args.m_range!r}")
    from .maps import MAPS

    step_pq = MAPS["F"].step_pq
    violations = []
    for m_val in range(m_lo, m_hi + 1):
        p, q = 4 * m_val + 3, 2  # x = 2m + 3/2, reduced
        climbed = 0
        while climbed < args.steps and (p // q) & 1:  # an odd floor, read as iterate reads bits
            p2, q2, _b = step_pq(p, q)
            if p2 * q <= p * q2:  # F(x) <= x
                break
            p, q = p2, q2
            climbed += 1
        if climbed < args.steps or not (p // q) & 1:
            violations.append(
                {
                    "type": "counterexample",
                    "start": f"{4 * m_val + 3}/2",
                    "note": f"family orbit broke monotone odd-floor growth within {args.steps} steps",
                }
            )
    family = {
        "m_lo": m_lo,
        "m_hi": m_hi,
        "steps": args.steps,
        "verified": m_hi - m_lo + 1 - len(violations),
        "violations": len(violations),
    }
    return violations, {"family": family}


def cmd_conjecture(args, out) -> int:
    """Sample starts for the named conjecture, iterate each to a fate, and report the tally.

    Q2 first checks its 2m + 3/2 family: the family's violations precede the
    sampled counterexamples, and its family entry joins the summary.
    """
    import random

    from .maps import MAPS
    from .sampling import draw_integers, draw_rationals
    from .trajectory import iterate

    name = args.name
    counter_lines, extra = _q2_family(args) if name == "Q2" else ([], {})
    conj = _CONJECTURES[name]
    m = MAPS[conj.map]
    rng = random.Random(args.seed)
    if conj.integer:
        ints = draw_integers(rng, args.samples, args.value_bits, minimum=int(m.domain_min))
        starts = map(Fraction, ints)
    else:
        starts = draw_rationals(rng, args.samples, args.den_bits, args.value_bits, m.domain_min)
    escape = parse_rational(args.escape)
    trap = None if conj.region is None else (Fraction(conj.region[0]), Fraction(conj.region[1]))

    tally: dict[str, int] = {}  # by fate label
    classes = dict.fromkeys(("supports", "flagged", "unresolved", "counterexample"), 0)
    lines = {"flagged": [], "counterexample": counter_lines}
    for x in starts:
        rep = iterate(m, x, cap=args.cap, escape_bound=escape, trap_region=trap, keep=1)
        label = rep.fate.label()
        tally[label] = tally.get(label, 0) + 1
        cls, note = _classify(conj, m, rep)
        if cls == "counterexample" and name == "Q2":
            # an exact nontrivial F-cycle is not ruled out by the theorems; it is
            # loud Q2 evidence rather than a contract violation, hence a flag
            cls = "flagged"
        classes[cls] += 1
        if cls == "counterexample" or cls == "flagged" and classes[cls] <= args.flag_limit:
            line = {
                "type": cls,
                "start": format_rational(x),
                "fate": label,
                "steps": rep.steps_used,
                "note": note,
            }
            lines[cls].append(line)
    for line in lines["flagged"] + counter_lines:
        out.write(_dumps(line) + "\n")

    if counter_lines:
        verdict = f"COUNTEREXAMPLE FOUND among {args.samples} samples"
    else:
        verdict = (
            f"no counterexample among {args.samples} samples "
            f"(cap {args.cap} steps, escape bound {args.escape})"
        )
    summary = {
        "type": "summary",
        "command": "conjecture",
        "name": name,
        "statement": conj.statement,
        "map": conj.map,
        "samples": args.samples,
        "seed": args.seed,
        "den_bits": args.den_bits,
        "value_bits": args.value_bits,
        "cap": args.cap,
        "escape": args.escape,
        "tally": tally,
        "supporting": classes["supports"],
        "flagged": classes["flagged"],
        "unresolved": classes["unresolved"],
        "counterexamples": len(counter_lines),
        "verdict": verdict,
        "note": _NOT_A_PROOF,
        **extra,
    }
    out.write(_dumps(summary) + "\n")
    return EXIT_COUNTEREXAMPLE if counter_lines else EXIT_OK


# ------------------------------------------------------------------ trace


def cmd_trace(args, out) -> int:
    from .cycles import BitSeq, candidate
    from .remainders import VerdictKind, segment_inequality, trace

    try:
        s = BitSeq.from_string(args.bits)
    except ValueError as exc:
        raise ValueError(f"--bits: {exc}") from exc
    rec = candidate(s)
    (line,) = _sweep_chunk((s.l, s.rank, s.rank + 1, True, False))[0]
    obj = json.loads(line)  # the record fields as cycles prints them; the ledgers join them
    if rec.d > 0:
        for suffix, flipped in (("", False), ("_flipped", True)):
            tr = trace(rec, flipped)
            aligned = tr.verdict.kind is VerdictKind.ALIGNED_CLOSED
            obj["trace" + suffix] = jsonable(tr)
            obj["inequalities" + suffix] = jsonable(segment_inequality(tr)) if aligned else None
    else:
        obj["trace"] = None
        obj["trace_flipped"] = None
        obj["trace_error"] = "d = 2^l - 3^n is negative; the remainder ledger needs d > 0"
    out.write(_dumps(obj) + "\n")
    return EXIT_OK


# -------------------------------------------------------------- rmap-scan


def cmd_rmap_scan(args, out) -> int:
    from .remainders import modulus_ok, rmap_orbit_scan

    if args.d is not None:
        if not modulus_ok(args.d):
            raise ValueError(f"--d must be odd, >= 5, and not divisible by 3: {args.d}")
        ds = [args.d]
        lo = hi = args.d
    else:
        lo, hi = _parse_range(args.d_range, "--d-range")
        if hi > _MAX_MODULUS:
            raise ValueError(f"--d-range must end at or below {_MAX_MODULUS}, got {args.d_range!r}")
        ds = [d for d in range(max(lo, 5), hi + 1) if modulus_ok(d)]  # no modulus is below 5
        if sum(ds) > _MAX_MODULI:
            raise ValueError(f"--d-range moduli must sum to at most {_MAX_MODULI}, got {args.d_range!r}")

    with_orbits = orbit_total = 0
    for d in ds:
        orbits = rmap_orbit_scan(d, args.max_len)
        with_orbits += bool(orbits)
        orbit_total += len(orbits)
        record = {"type": "rmap", "d": d, "orbit_count": len(orbits), "orbits": jsonable(orbits)}
        out.write(_dumps(record) + "\n")
    summary = {
        "type": "summary",
        "command": "rmap-scan",
        "d_lo": lo,
        "d_hi": hi,
        "scanned": len(ds),
        "with_orbits": with_orbits,
        "orbit_total": orbit_total,
    }
    out.write(_dumps(summary) + "\n")
    return EXIT_OK


# ------------------------------------------------------------------ wiring


def build_parser() -> _Parser:
    p = _Parser(prog="real3x1", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="-", help="output path, - for stdout")
        sp.add_argument("--config", help="key = value defaults file; flags win")

    sp = sub.add_parser("iterate", help="run one or more orbits to a fate")
    sp.add_argument("--map", required=True, help='T, f, g, U, Uflip, F, V, or "Phi:a,b,c,d,tau[,min]"')
    sp.add_argument("--start", required=True, help="comma-separated rational start values")
    sp.add_argument("--cap", type=_at_least(0), default=10**4)
    sp.add_argument("--escape", type=_positive_rational, default=None, help="report escaped_bound beyond |x| > this")
    sp.add_argument("--trap-region", default=None, help="lo,hi: stop when the orbit enters [lo,hi)")
    sp.add_argument("--den-bit-cap", type=_at_least(1), default=1 << 16)
    sp.add_argument("--keep", type=_at_least(1), default=1024, help="iterates kept in the report")
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    common(sp)
    sp.set_defaults(func=cmd_iterate)

    sp = sub.add_parser("cycles", help="exhaustive pseudo-cycle sweep over bit sequences")
    sp.add_argument("--lmax", type=_at_least(1, _MAX_LENGTH), required=True)
    sp.add_argument("--lmin", type=_at_least(1, _MAX_LENGTH), default=1)
    output = sp.add_mutually_exclusive_group()  # a summary has no records to attach verdicts to
    output.add_argument("--summary-only", action="store_true", help="skip per-candidate records")
    output.add_argument("--with-verdict", action="store_true", help="attach the remainder-trace verdict to each record")
    sp.add_argument("--workers", type=_at_least(1), default=1)
    common(sp)
    sp.set_defaults(func=cmd_cycles)

    sp = sub.add_parser("conjecture", help="seeded evidence run for one named conjecture")
    sp.add_argument("name", choices=sorted(_CONJECTURES))
    sp.add_argument("--samples", type=_at_least(1, _MAX_SAMPLES), default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--den-bits", type=_at_least(1, _MAX_BITS), default=32)
    sp.add_argument("--value-bits", type=_at_least(1, _MAX_BITS), default=16)
    sp.add_argument("--cap", type=_at_least(0), default=10**4)
    sp.add_argument("--escape", type=_positive_rational, default=_DEFAULT_ESCAPE)
    sp.add_argument("--m-range", default="0..100", help="Q2 only: family indices lo..hi")
    sp.add_argument("--steps", type=_at_least(1), default=50, help="Q2 only: steps checked per family orbit")
    sp.add_argument("--flag-limit", type=_at_least(0), default=20, help="flagged sample lines kept")
    common(sp)
    sp.set_defaults(func=cmd_conjecture)

    sp = sub.add_parser("trace", help="remainder ledger for one bit sequence, both alignments")
    sp.add_argument("--bits", required=True, help="0/1 string, e.g. 11100")
    common(sp)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("rmap-scan", help="closed orbits of the remainder dynamics mod d")
    moduli = sp.add_mutually_exclusive_group(required=True)
    moduli.add_argument("--d", type=_at_least(5, _MAX_MODULUS), default=None)
    moduli.add_argument("--d-range", default=None, help="lo..hi, invalid moduli skipped")
    sp.add_argument("--max-len", type=_at_least(1), default=None, help="orbit length cap, default 4*d")
    common(sp)
    sp.set_defaults(func=cmd_rmap_scan)

    return p


def main(argv: list[str] | None = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    # exact values outgrow the default 4300-digit str/int conversion limit;
    # lift it for this command only, so a caller's own limit survives
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


class _OutFile:
    """The --out file, opened for writing at the first write.

    A command checks its arguments before it writes, so one that rejects
    them leaves an existing file as it was.
    """

    def __init__(self, path: str):
        self.path, self.fh = path, None

    def _file(self):
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8", newline="")
        return self.fh

    def write(self, text: str) -> int:
        return self._file().write(text)

    def writelines(self, lines) -> None:
        self._file().writelines(lines)

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _main(argv: list[str] | None) -> int:
    # --config and each abbreviation argparse accepts for it, wherever it stands
    config = _Parser(prog="real3x1", add_help=False)
    config.add_argument("--config")
    try:
        known, argv = config.parse_known_args(sys.argv[1:] if argv is None else argv)
        if known.config is not None:
            flags = _config_flags(known.config)  # read first: a missing file is an I/O error
            if not argv:
                raise ValueError("--config given without a subcommand")
            argv = argv[:1] + flags + argv[1:]
        args = build_parser().parse_args(argv)
        if args.out == "-":
            return args.func(args, sys.stdout)
        out = _OutFile(args.out)
        try:
            return args.func(args, out)
        finally:
            out.close()
    except OSError as exc:
        print(f"real3x1: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # DomainError and PreconditionError included
        print(f"real3x1: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StructureError as exc:
        print(f"real3x1: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
