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

The modules run on first use.  `import real3x1` puts every module that
defines an export into sys.modules (and onto the package) as a lazy module,
the one module object from then on, whose code runs at its first attribute
use; `real3x1.X` (or `from real3x1 import X`) runs only the module that
defines X.  So a command line run pays only for the modules its command
runs, while a tool that takes the package's modules from sys.modules (a
tracer, say) sees all of them from the start.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names the package exports from it
    "cycles": ("BitSeq", "CycleClass", "CycleRecord", "candidate", "evaluate", "sweep"),
    "errors": ("DomainError", "PreconditionError", "StructureError"),
    "maps": (
        "MAPS", "BranchRule", "MapSpec", "PhiParams", "affine_offset", "apply_affine",
        "compose_affine", "map_from_name", "step",
    ),
    "rationals": ("compare_pow3_pow2", "format_rational", "parse_rational"),
    "remainders": (
        "InequalityLedger", "Orbit", "RemainderTrace", "Segment", "SegmentBound", "Verdict",
        "VerdictKind", "rmap_orbit_scan", "segment_inequality", "trace",
    ),
    "sampling": ("sample_rationals",),
    "trajectory": ("Fate", "FateKind", "TrajectoryReport", "contraction_check", "detect_period01", "iterate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _lazy(module: str):
    """The submodule, put into sys.modules unrun if no one has imported it yet."""
    name = f"{__name__}.{module}"
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


globals().update({module: _lazy(module) for module in _EXPORTS})


def __getattr__(name: str):
    """An export, from its home module at its first use (PEP 562); kept here after."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value
