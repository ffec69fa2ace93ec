"""Command line front door: iterate, cycles, conjecture, trace, rmap-scan.

Output is JSONL (one record per line, keys sorted) with a summary object as
the final line of record streams, or CSV where a flat table is the natural
shape.  Identical invocations produce byte-identical output, across worker
counts too (cycles.sweep_lengths says why).

Start-up only parses and wires: at module level this imports no package
module but errors and rationals.  Each command imports the modules it runs
inside its own function, and the others stay unrun (the package registers
them lazily).  So a test that replaces one of their functions patches it on
its own module.

Exit codes: 0 resolved/completed, 1 usage or domain error, 2 a trajectory hit
an iteration or size cap, 3 counterexample found (a realized cycle that the
two cycle theorems rule out), 4 file I/O failure, a closed stdout included, 5
internal invariant failure (a StructureError, which means a bug rather than a
bad input).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
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
_MAX_PATTERN = 4096  # trace --bits; a ledger grows as l^2: at 4096, up to 1 s, 74 MB RSS and 24 MB of output


_dumps = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True), built once


def jsonable(obj):
    """The JSON form of a report is its fields, recursively.

    A Fraction prints exactly as p/q.  A record with a json_form() method
    prints as what that method returns; any other record (a NamedTuple)
    becomes a dict over its fields, and any other tuple or list a list.
    Anything else (int, bool, str, None) passes through unchanged, and json
    writes a str Enum as its value.
    """
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if not isinstance(obj, (tuple, list)):
        return obj
    if (form := getattr(obj, "json_form", None)) is not None:
        return form()
    if fields := getattr(obj, "_fields", ()):
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


def _pattern(text: str) -> str:
    """An argparse type for trace --bits of at most _MAX_PATTERN characters; the command checks the bits."""
    if len(text) > _MAX_PATTERN:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_PATTERN} bits long, got {len(text)}")
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
    bounds = dict(cap=args.cap, escape_bound=escape, trap_region=region, den_bit_cap=args.den_bit_cap, keep=args.keep)
    reports = [iterate(m, x, **bounds) for x in starts]
    if args.format == "csv":
        rows = (f"{format_rational(rep.start)},{rep.fate.label()},{rep.steps_used}\n" for rep in reports)
        out.write("start,fate,steps\n" + "".join(rows))  # no field holds a comma, a quote or a newline
    else:
        out.write("".join(_dumps(jsonable(rep)) + "\n" for rep in reports))
    capped = any(rep.fate.kind is FateKind.CAP_REACHED for rep in reports)
    return EXIT_CAP if capped else EXIT_OK


# ----------------------------------------------------------------- cycles


def cmd_cycles(args, out) -> int:
    from .cycles import sweep_lengths

    if args.lmin > args.lmax:  # argparse bounds each; their order is checked here
        raise ValueError(f"--lmin must be in 1..lmax, got {args.lmin}")

    def write_lines(lines):  # one write per block: unbuffered, each write is a write(2)
        for i in range(0, len(lines), 256):
            out.write("".join(lines[i : i + 256]))

    emit = None if args.summary_only else write_lines
    counts, rows = sweep_lengths(args.lmin, args.lmax, args.workers, args.with_verdict, emit)
    realized = [(format(rank, f"0{l}b"), integer, on_U, on_Uflip) for l, rank, integer, on_U, on_Uflip in rows]
    lists = {
        "realized_U": [bits for bits, _, on_U, _ in realized if on_U],
        "realized_U_non_integer": [bits for bits, integer, on_U, _ in realized if on_U and not integer],
        "realized_Uflip": [bits for bits, _, _, on_Uflip in realized if on_Uflip],
    }
    counterexample = bool(lists["realized_U_non_integer"] or lists["realized_Uflip"])
    summary = {"type": "summary", "command": "cycles", "lmin": args.lmin, "lmax": args.lmax, **lists,
               "records": sum(counts.values()), "class_counts": counts, "counterexample": counterexample}
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
    "RUprime": _Conjecture("U", "every U-parity sequence is eventually periodic with period (0, 1)", wants_01=True),
    "NU": _Conjecture("U", "every integer U-orbit from n >= 1 reaches the cycle {1, 2}", integer=True),
    "NUprime": _Conjecture(
        "U", "every integer U-parity sequence is eventually periodic with period (0, 1)", integer=True, wants_01=True
    ),
    "BU": _Conjecture("U", "every U-orbit from x >= 1 is bounded"),
    "RUflip": _Conjecture("Uflip", "every flipped orbit from x >= 0 visits [0, 2)", region=(0, 2)),
    "BUflip": _Conjecture("Uflip", "every flipped orbit from x >= 0 is bounded"),
    "RV": _Conjecture("V", "every V-orbit from x >= 1 visits [1, 3)", region=(1, 3)),
    "BV": _Conjecture("V", "every V-orbit from x >= 1 is bounded"),
    "Q2": _Conjecture("F", "2m + 3/2 gives the only F-orbits that fail to tend to the cycle {1, 4, 2}"),
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
        p, q, _b = m.step_pq(p, q, p // q)
        pairs.append((p, q))
    return {Fraction(p, q) for p, q in pairs}


def _classify(conj: _Conjecture, m, rep, trajectory) -> tuple[str, str | None]:
    """One of supports / counterexample / flagged / unresolved, plus a note; reads trajectory's names per call."""
    FateKind, fate = trajectory.FateKind, rep.fate
    kind = fate.kind
    if kind is FateKind.ENTERED_CYCLE:
        values = _cycle_values(m, fate.value, fate.period)
        if values != set(map(Fraction, _TRIVIAL_CYCLES.get(conj.map, ()))):
            shown = ", ".join(format_rational(v) for v in sorted(values))
            # the cycle theorems rule out U's and Uflip's, not F's: a nontrivial F-cycle is a Q2 flag
            cls = "flagged" if conj.map == "F" else "counterexample"
            return cls, f"entered a cycle outside the trivial one: {shown}"
    elif kind is FateKind.ENTERED_REGION:
        return "supports", None
    elif kind is FateKind.ESCAPED_BOUND:
        return "flagged", "escaped the bound, inconclusive for an open conjecture"
    elif kind not in trajectory.TENDENCIES:
        return "unresolved", None
    if conj.wants_01 and trajectory.detect_period01(rep.parity_bits) is None:  # the trivial cycle or a tendency
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
        while (f := p // q) & 1 and climbed < args.steps:  # an odd floor, read as iterate reads bits
            p2, q2, _b = step_pq(p, q, f)
            if p2 * q <= p * q2:  # F(x) <= x
                break
            p, q = p2, q2
            climbed += 1
        if climbed < args.steps or not f & 1:
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

    from . import trajectory
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
        cls, note = _classify(conj, m, rep, trajectory)
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
    out.write("".join(_dumps(line) + "\n" for line in [*lines["flagged"], *counter_lines, summary]))
    return EXIT_COUNTEREXAMPLE if counter_lines else EXIT_OK


# ------------------------------------------------------------------ trace


def cmd_trace(args, out) -> int:
    from .cycles import BitSeq, record_classes
    from .remainders import VerdictKind, segment_inequality, trace

    try:
        s = BitSeq.from_string(args.bits)
    except ValueError as exc:
        raise ValueError(f"--bits: {exc}") from exc
    line = [None]
    ((rec, _, _),) = record_classes(s.l, s.rank, line, [], False)
    obj = json.loads(line[0])  # the record fields as cycles prints them; the ledgers join them
    if rec.d > 0:
        for suffix, flipped in (("", False), ("_flipped", True)):
            tr = trace(rec.d, rec.numerators, flipped)
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
    sp.add_argument("--bits", type=_pattern, required=True, help="0/1 string, e.g. 11100")
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
            try:
                code = args.func(args, sys.stdout)
                sys.stdout.flush()  # here, so that a closed stdout is an I/O error, not a failed exit
                return code
            except BrokenPipeError:
                # the reader closed stdout: point its fd at devnull, so that the
                # interpreter's own final flush of what is left cannot fail again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise
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
    code = main()
    # Move every tracked object to the permanent generation, so that the
    # interpreter's shutdown collections do not walk the heap (2-4 ms over some
    # 13,000 objects).  The cyclic garbage left at exit is then never
    # collected, so nothing may rely on a finalizer running there: main() has
    # already closed the --out file, terminated the pool and flushed stdout.
    # Only here: in-process callers of main() keep collecting as before.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
