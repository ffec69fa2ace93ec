"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import real3x1


def _modules():
    files = sorted(Path(real3x1.__file__).parent.glob("*.py"))
    assert files
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in files]


def test_invariant_checks_survive_python_O():
    """No invariant is an assert, which python -O would strip."""
    asserts = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_float_in_the_package():
    """Every value is exact: no float literal and no float(...) call."""
    floats = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
    ]
    assert floats == []


def test_no_module_imports_dataclasses():
    """Records are NamedTuples: dataclasses, with the inspect, ast, dis and tokenize it imports,
    costs every process about 13 ms to load, so no module imports it."""
    imports = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert imports == []


def test_no_private_name_crosses_modules():
    """A module uses another only through its public names, the seams tests patch."""
    private = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_parameter_is_read():
    """A parameter the body never reads is a knob that changes nothing."""
    unused = []
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unused += [
                f"{name} {fn.name}({p.arg})"
                for p in params
                if p is not None
                and p.arg not in read
                and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
            ]
    assert unused == []


def test_only_the_cli_writes_to_stdout_or_stderr():
    """Library modules return their results; no print and no sys.stdout or sys.stderr."""
    writes = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name != "cli.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
        or isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
    ]
    assert writes == []


def test_every_public_name_has_a_user():
    """Each exported name is used by package code outside its own definition, or by the acceptance tests."""
    used = set()
    for name, tree in _modules():
        if name == "__init__.py":  # its imports are the exports themselves
            continue
        for stmt in tree.body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)  # a name used only inside its own definition has no user
            used |= refs
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    used |= {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("real3x1")
        for alias in node.names
    }
    assert sorted(set(real3x1.__all__) - used) == []


def test_orbit_loops_build_no_fraction():
    """Orbits step on integer pairs: no Fraction(...) or step(...) call in a for loop of
    trajectory.iterate, trajectory.contraction_check or cli._cycle_values, so Fraction stays
    at their interface."""
    modules = dict(_modules())
    fns = [
        fn
        for module, names in (("trajectory.py", ("iterate", "contraction_check")), ("cli.py", ("_cycle_values",)))
        for fn in modules[module].body
        if isinstance(fn, ast.FunctionDef) and fn.name in names
    ]
    assert len(fns) == 3
    calls = [
        f"{fn.name}:{node.lineno}"
        for fn in fns
        for loop in ast.walk(fn)
        if isinstance(loop, ast.For)
        for stmt in loop.body  # what runs per pass; a for-else runs once
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("Fraction", "step")
    ]
    assert calls == []


def test_iterate_reads_only_the_maps_name_and_step():
    """trajectory.iterate reads each parity bit off p // q, so of its map m it reads only the name
    (for the basin table) and step_pq: no attribute of m but those two."""
    trajectory = dict(_modules())["trajectory.py"]
    (fn,) = [fn for fn in trajectory.body if isinstance(fn, ast.FunctionDef) and fn.name == "iterate"]
    reads = [
        f"iterate:{node.lineno} m.{node.attr}"
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "m"
        and node.attr not in ("name", "step_pq")
    ]
    assert reads == []


def test_record_lines_are_built_per_class():
    """Record mode pays its per-record costs once per class: no _dumps(...) or _realization(...)
    call in a loop of cli._sweep_chunk's record branch, which follows the summary branch's
    `if not emit_lines:` block."""
    cli = dict(_modules())["cli.py"]
    (fn,) = [fn for fn in cli.body if isinstance(fn, ast.FunctionDef) and fn.name == "_sweep_chunk"]
    record_branch = [
        stmt for stmt in fn.body if not (isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "not emit_lines")
    ]
    assert len(record_branch) < len(fn.body)
    calls = [
        f"_sweep_chunk:{node.lineno}"
        for stmt in record_branch
        for loop in ast.walk(stmt)
        if isinstance(loop, (ast.For, ast.While))
        for body_stmt in loop.body  # what runs per pass; a loop's else runs once
        for node in ast.walk(body_stmt)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("_dumps", "_realization")
    ]
    assert calls == []


def test_cli_runs_no_realization_scan():
    """cli.py calls neither evaluate(...) nor _realization(...): record mode reads every rank's
    checks from rotation_checks and the summary its group totals from necklace_totals, so no
    line reads their scans."""
    cli = dict(_modules())["cli.py"]
    calls = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(cli)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("evaluate", "_realization")
    ]
    assert calls == []


def test_cli_sees_only_group_totals():
    """cli.py names neither necklaces nor necklace_summaries, by import, name or attribute: the
    summary branch of _sweep_chunk adds the totals of each lane group that necklace_totals
    returns and sees no necklace on its own."""

    def names(node):
        if isinstance(node, ast.ImportFrom):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.Name):
            return [node.id]
        return [node.attr] if isinstance(node, ast.Attribute) else []

    cli = dict(_modules())["cli.py"]
    refs = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(cli)
        if {"necklaces", "necklace_summaries"}.intersection(names(node))
    ]
    assert refs == []


def test_cli_holds_no_class_value():
    """cli.py holds no string that equals a CycleClass value: a realized row carries whether its
    x_0 is an integer, and the class counts carry the values that cycles gives them, so the
    classes have one holder."""
    from real3x1.cycles import CycleClass

    cli = dict(_modules())["cli.py"]
    values = {cls.value for cls in CycleClass}
    copies = [
        f"cli.py:{node.lineno} {node.value!r}"
        for node in ast.walk(cli)
        if isinstance(node, ast.Constant) and node.value in values
    ]
    assert copies == []


def test_cli_imports_only_errors_and_rationals_at_module_level():
    """A command imports the package modules it runs inside its own function, so start-up
    (import real3x1.cli and build_parser) runs only errors and rationals of the package."""
    cli = dict(_modules())["cli.py"]
    imported = [
        f"cli.py:{node.lineno} .{node.module or ''}"
        for node in cli.body
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module not in ("errors", "rationals")
    ]
    assert imported == []
