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


def test_no_tuple_is_built_from_a_generator():
    """No tuple(<generator expression>): a generator has no length, so CPython 3.11 starts the tuple at
    10 slots and grows it by resizing, and the tuple that is freed lands in a per-size free list that
    no later tuple(<generator>) draws from.  3,000 size-14 tuples built that way, each freed before
    the next, leave 300 KiB allocated; built from lists, which allocate the tuple at its size and so
    reuse the free list, they leave none."""
    built = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple"
        and node.args and isinstance(node.args[0], ast.GeneratorExp)
    ]
    assert built == []


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


def _uses(trees):
    """The names that the code of the module trees uses, as a name, an attribute or an import, outside the
    definition that names them: a name used only inside its own definition has no user."""
    used = set()
    for tree in trees:
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
                refs.discard(stmt.name)
            used |= refs
    return used


def test_every_public_name_has_a_user():
    """Each exported name is used by package code outside its own definition, or by the acceptance tests."""
    used = _uses(tree for name, tree in _modules() if name != "__init__.py")  # __init__ names every export
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    used |= {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("real3x1")
        for alias in node.names
    }
    assert sorted(set(real3x1.__all__) - used) == []


def test_every_helper_has_a_user():
    """Each module-level function or class that the package does not export is used by package
    code outside its own definition.  __init__'s __getattr__, which Python calls, is exempt."""
    modules = _modules()
    used = _uses(tree for _, tree in modules)
    unused = [
        f"{name} {stmt.name}"
        for name, tree in modules
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in used | set(real3x1.__all__)
        and (name, stmt.name) != ("__init__.py", "__getattr__")
    ]
    assert unused == []


def test_orbit_loops_build_no_fraction():
    """Orbits step on integer pairs: no Fraction(...) or step(...) call in a for or while loop of
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
        if isinstance(loop, (ast.For, ast.While))
        for stmt in loop.body  # what runs per pass; a loop's else runs once
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("Fraction", "step")
    ]
    assert calls == []


def test_iterate_reads_only_the_maps_name_and_step():
    """trajectory.iterate reads each parity bit off p // q, so of its map m it reads only the name
    (for the basin table), step_pq, even_q_never_recurs, which tells it whether a pair with an
    even denominator can recur and so must be indexed, and block_pq, which takes several steps
    at once: no attribute of m but those four."""
    trajectory = dict(_modules())["trajectory.py"]
    (fn,) = [fn for fn in trajectory.body if isinstance(fn, ast.FunctionDef) and fn.name == "iterate"]
    reads = [
        f"iterate:{node.lineno} m.{node.attr}"
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "m"
        and node.attr not in ("name", "step_pq", "even_q_never_recurs", "block_pq")
    ]
    assert reads == []


def test_maps_rules_never_read_a_maps_name():
    """Which step form, block and index rule a map gets is read off its pieces: no comparison or
    condition in maps.py reads a .name or compares to a named map's string, so a forged map under
    a real name (as test_golden's FORGED_F rows patch F) gets the rules of its own pieces."""
    maps = dict(_modules())["maps.py"]
    names = set(real3x1.MAPS)
    tests = [node for node in ast.walk(maps) if isinstance(node, (ast.Compare, ast.BoolOp))]
    tests += [node.test for node in ast.walk(maps) if isinstance(node, (ast.If, ast.IfExp, ast.While))]
    reads = [
        f"maps.py:{node.lineno}"
        for test in tests
        for node in ast.walk(test)
        if isinstance(node, ast.Attribute) and node.attr == "name"
        or isinstance(node, ast.Constant) and node.value in names
    ]
    assert names and reads == []


def test_record_lines_are_built_per_class():
    """Record mode pays its per-record costs once per class: no _dumps(...) call in a loop of
    cycles.record_classes, the one writer of record lines."""
    cycles = dict(_modules())["cycles.py"]
    (fn,) = [fn for fn in cycles.body if isinstance(fn, ast.FunctionDef) and fn.name == "record_classes"]
    calls = [
        f"record_classes:{node.lineno}"
        for loop in ast.walk(fn)
        if isinstance(loop, (ast.For, ast.While))
        for body_stmt in loop.body  # what runs per pass; a loop's else runs once
        for node in ast.walk(body_stmt)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        == "_dumps"
    ]
    assert calls == []


def test_only_cmd_cycles_runs_a_sweep_chunk():
    """_sweep_chunk is a pool task of the cycles sweep: the package names it only in its own
    definition and in cycles.sweep_lengths, which cmd_cycles alone calls, so trace takes its one
    class from record_classes and builds no task."""
    modules = dict(_modules())
    defs = [stmt.name for stmt in modules["cycles.py"].body if isinstance(stmt, ast.FunctionDef)]

    def users(name):
        return {
            f"{module} {getattr(stmt, 'name', stmt.lineno)}"
            for module, tree in modules.items()
            for stmt in tree.body
            for node in ast.walk(stmt)
            if name in _names(node) and getattr(stmt, "name", None) != name
        }

    assert "_sweep_chunk" in defs and users("_sweep_chunk") == {"cycles.py sweep_lengths"}
    assert users("sweep_lengths") == {"cli.py cmd_cycles"}


def test_cli_runs_no_realization_scan():
    """cli.py calls no evaluate(...): record mode reads every rank's checks from rotation_checks
    and the summary its group totals from necklace_totals, so no line reads a scan of its own."""
    cli = dict(_modules())["cli.py"]
    calls = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(cli)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        == "evaluate"
    ]
    assert calls == []


def test_the_sweep_lives_in_cycles():
    """cli.py runs the cycles sweep through cycles.sweep_lengths alone: it names no pool, no count
    check and no closure of its own, by import, name or attribute."""
    cli = dict(_modules())["cli.py"]
    sweep = {
        "multiprocessing", "comb", "_CHUNK_RANKS", "_POOL_MIN_RANKS", "necklace_totals", "rotation_checks", "candidate"
    }
    refs = [
        f"cli.py:{node.lineno} {name}"
        for node in ast.walk(cli)
        for name in _names(node)
        if name in sweep
    ]
    assert refs == []


def test_commands_write_only_to_the_stream_they_are_handed():
    """Every command writes to the stream _main hands it, stdout or the --out file: cli.py names
    sys.stdout only in _main, and no cmd_* function calls print."""
    cli = dict(_modules())["cli.py"]

    def stdout_in(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
        ]

    (main,) = [fn for fn in cli.body if isinstance(fn, ast.FunctionDef) and fn.name == "_main"]
    prints = [
        f"{fn.name}:{node.lineno}"
        for fn in cli.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert stdout_in(main) and stdout_in(cli) == stdout_in(main) and prints == []


def _names(node):
    """What one node names: an identifier, an attribute, or an import's module and names."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(alias.name for alias in node.names)]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []


def test_cli_sees_only_group_totals():
    """cli.py names neither necklaces nor necklace_summaries, by import, name or attribute: the
    summary branch of _sweep_chunk adds the totals of each lane group that necklace_totals
    returns and sees no necklace on its own."""
    cli = dict(_modules())["cli.py"]
    refs = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(cli)
        if {"necklaces", "necklace_summaries"}.intersection(_names(node))
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


def _defined(tree):
    """The names that a module's own statements define at module level, imports aside."""
    return {
        target.id if isinstance(target, ast.Name) else target.name
        for stmt in tree.body
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt])
        if isinstance(target, (ast.Name, ast.FunctionDef, ast.ClassDef))
    }


def test_remainders_names_nothing_of_cycles():
    """A ledger is a function of d and the numerators: remainders.py names no module, function,
    class or constant of cycles, not even for an annotation.  And no module hides an import
    from start-up in an `if TYPE_CHECKING:` block."""
    modules = dict(_modules())
    of_cycles = _defined(modules["cycles.py"]) | {"cycles"}
    refs = [
        f"remainders.py:{node.lineno} {name}"
        for node in ast.walk(modules["remainders.py"])
        for name in _names(node)
        if name in of_cycles
    ]
    assert refs == []
    blocks = [
        f"{name}:{node.lineno}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
    ]
    assert blocks == []


def test_jsonable_imports_nothing_and_names_no_package_type():
    """cli.jsonable asks a record for its json_form() rather than testing its type, so it imports
    nothing and names no class of any package module."""
    modules = dict(_modules())
    classes = {
        stmt.name for tree in modules.values() for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    }
    (fn,) = [fn for fn in modules["cli.py"].body if isinstance(fn, ast.FunctionDef) and fn.name == "jsonable"]
    imports = [f"jsonable:{node.lineno}" for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    types = [f"jsonable:{node.lineno} {name}" for node in ast.walk(fn) for name in _names(node) if name in classes]
    assert (imports, types) == ([], [])


def _floor_divisions(nodes):
    """The p // q divisions in the statements nodes, by line."""
    return [
        node.lineno
        for stmt in nodes
        for node in ast.walk(stmt)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
        and [getattr(side, "id", None) for side in (node.left, node.right)] == ["p", "q"]
    ]


def test_one_floor_per_visited_pair():
    """An orbit floors each pair once and hands that floor to the step: the shaped step_pq closure
    takes no p // q, and each pass of trajectory.iterate's step loop, the while loop over k,
    takes exactly one, for the pair a step or a block lands on."""
    modules = dict(_modules())
    (shaped,) = [fn for fn in modules["maps.py"].body if getattr(fn, "name", None) == "_shaped_step_pq"]
    (closure,) = [fn for fn in ast.walk(shaped) if isinstance(fn, ast.FunctionDef) and fn.name == "step_pq"]
    assert _floor_divisions(closure.body) == []
    (fn,) = [fn for fn in modules["trajectory.py"].body if getattr(fn, "name", None) == "iterate"]
    (loop,) = [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.While) and "k" in [getattr(name, "id", None) for name in ast.walk(node.test)]
    ]
    assert len(_floor_divisions(loop.body)) == 1


def test_cmd_conjecture_takes_each_class_from_classify():
    """_classify alone classes a sample: in cli.cmd_conjecture every binding of cls is the
    unpacking of a _classify(...) call, so no class is changed after _classify returns it."""
    cli = dict(_modules())["cli.py"]
    (fn,) = [fn for fn in cli.body if isinstance(fn, ast.FunctionDef) and fn.name == "cmd_conjecture"]
    from_classify = {
        id(name)
        for stmt in ast.walk(fn)
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
        and getattr(stmt.value.func, "id", None) == "_classify"
        for target in stmt.targets
        for name in ast.walk(target)
    }
    others = [
        f"cmd_conjecture:{node.lineno}"
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "cls" and isinstance(node.ctx, ast.Store)
        and id(node) not in from_classify
    ]
    assert from_classify and others == []


def test_iterate_floors_its_bounds_as_integers():
    """trajectory.iterate takes every hull and escape floor as an integer n // d of the bounds it
    holds: trajectory.py imports nothing from math and calls no floor(...)."""
    trajectory = dict(_modules())["trajectory.py"]
    refs = [
        f"trajectory.py:{node.lineno}"
        for node in ast.walk(trajectory)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "math" in [node.module] + [alias.name for alias in getattr(node, "names", [])]
        or isinstance(node, ast.Call) and "floor" in _names(node.func)
    ]
    assert refs == []
