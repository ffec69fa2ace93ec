"""Exact arithmetic for the real 3x+1 map and its relatives.

The package implements the floor-parity map U on [1, oo), its flipped variant
Uflip on [0, oo), the integer maps T and f, the odd-denominator rational map
g, the real maps F and V, and the general two-piece affine family Phi.  On top
of the maps sit an exhaustive pseudo-cycle enumerator, a remainder-dynamics
trace checker for the two cycle theorems (every realized U-cycle is an integer
T-cycle, and the flipped map has no cycles at all), and an orbit harness that
resolves trajectories with certified exact fates.  Everything runs on
fractions.Fraction and Python integers (orbits step on reduced integer pairs);
no floating point touches any verdict.
"""

from .cycles import (
    BitSeq,
    CycleClass,
    CycleRecord,
    candidate,
    evaluate,
    sweep,
)
from .errors import DomainError, PreconditionError, StructureError
from .maps import (
    MAPS,
    BranchRule,
    MapSpec,
    PhiParams,
    affine_offset,
    apply_affine,
    compose_affine,
    map_from_name,
    step,
)
from .rationals import (
    compare_pow3_pow2,
    format_rational,
    parse_rational,
)
from .remainders import (
    InequalityLedger,
    Orbit,
    RemainderTrace,
    Segment,
    SegmentBound,
    Verdict,
    VerdictKind,
    rmap_orbit_scan,
    segment_inequality,
    trace,
)
from .sampling import sample_rationals
from .trajectory import (
    Fate,
    FateKind,
    TrajectoryReport,
    contraction_check,
    detect_period01,
    iterate,
)

__version__ = "0.1.0"

__all__ = [
    "BitSeq",
    "BranchRule",
    "CycleClass",
    "CycleRecord",
    "DomainError",
    "Fate",
    "FateKind",
    "InequalityLedger",
    "MAPS",
    "MapSpec",
    "Orbit",
    "PhiParams",
    "PreconditionError",
    "RemainderTrace",
    "Segment",
    "SegmentBound",
    "StructureError",
    "TrajectoryReport",
    "Verdict",
    "VerdictKind",
    "affine_offset",
    "apply_affine",
    "candidate",
    "compare_pow3_pow2",
    "compose_affine",
    "contraction_check",
    "detect_period01",
    "evaluate",
    "format_rational",
    "iterate",
    "map_from_name",
    "parse_rational",
    "rmap_orbit_scan",
    "sample_rationals",
    "segment_inequality",
    "step",
    "sweep",
    "trace",
]
