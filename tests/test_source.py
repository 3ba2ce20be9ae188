"""Source-level guards over the package modules."""

import ast
import inspect
import re
from pathlib import Path

import stablenorm

SOURCES = sorted(Path(stablenorm.__file__).parent.glob("*.py"))
TOLERANCES = "tolerances.py"


def _ast_nodes():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise
    found = [where for where, node in _ast_nodes() if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_raised_assertion_errors():
    # a failed self-check raises InvariantError, which the CLI maps to
    # exit 4 with a structured error instead of a traceback
    found = [where for where, node in _ast_nodes() if _raises_assertion_error(node)]
    assert SOURCES and not found, found


def test_lattice_polygons_stays_exact():
    # the module promises "no floating point anywhere"
    path = Path(stablenorm.__file__).parent / "lattice_polygons.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where} float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where} float() call")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"{where} import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where} math.{a.name}" for a in node.names if a.name != "gcd")
    assert not found, found


def _is_lcm_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "lcm") or (
        isinstance(func, ast.Name) and func.id == "lcm"
    )


def test_one_common_denominator():
    # the toral graph's denominator D is made once, by build_graph, and
    # stored as `denom`; every table reads it from there, so a second
    # lcm would be a second frame for the same numbers
    inside, found = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "toral_graph.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "build_graph":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if _is_lcm_call(node):
                (inside if id(node) in allowed else found).append(f"{where} lcm call")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.extend(f"{where} math.lcm" for a in node.names if a.name == "lcm")
    assert len(inside) == 1 and not found, (inside, found)


def _is_grid_node_product(node) -> bool:
    """`x % n * n`: a grid's (i, j) -> node arithmetic."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mod)
        and ast.dump(node.left.right) == ast.dump(node.right)
    )


def _scoped(node, scope=""):
    """(enclosing class and function names, node) for every node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


def _scopes_where(match):
    """"module:scope" of every package node that `match` accepts, in file
    and source order."""
    return [
        f"{path.name}:{scope}"
        for path in SOURCES
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if match(node)
    ]


def test_one_grid_numbering():
    # the torus grid's node numbers come from `TorusGrid.node` alone;
    # its edges, search-index rows and loops and the canyon's
    # connectors read it from there, so no copy can fall out of step
    found = _scopes_where(_is_grid_node_product)
    assert found == ["periodic_metric.py:TorusGrid.node"], found


_UPPER_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _named_constants(tree):
    """Constants that are the whole value of a module-level assignment
    to an UPPER_CASE name."""
    named = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if isinstance(stmt.value, ast.Constant) and all(
            isinstance(t, ast.Name) and _UPPER_NAME.fullmatch(t.id) for t in targets
        ):
            named.add(id(stmt.value))
    return named


def _tolerance_names(tree):
    """Names a module imports from the tolerance module."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "stablenorm.tolerances"
        for alias in node.names
    }


def test_small_float_literals_are_named():
    # a tolerance is named once, with its reason, in the tolerance
    # module; a small float literal anywhere else is a second copy
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named = _named_constants(tree) if path.name == TOLERANCES else set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-3
                and id(node) not in named
            ):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert SOURCES and not found, found


def _round_digits(node):
    """The digit count of a `round(x, digits)` call, or None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "round"):
        return None
    if len(node.args) > 1:
        return node.args[1]
    return next((k.value for k in node.keywords if k.arg == "ndigits"), None)


def test_round_digit_counts_are_named():
    # rounding to a digit count is a tolerance too, so its count is a
    # name from the tolerance module, as a small float literal is
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = _tolerance_names(tree)
        for node in ast.walk(tree):
            digits = _round_digits(node)
            if digits is not None and not (isinstance(digits, ast.Name) and digits.id in imported):
                found.append(f"{path.name}:{node.lineno} round(..., {ast.unparse(digits)})")
    assert SOURCES and not found, found


def test_public_functions_have_docstrings():
    # every exported function says what it computes
    missing = [
        name
        for name in stablenorm.__all__
        if inspect.isfunction(getattr(stablenorm, name)) and not getattr(stablenorm, name).__doc__
    ]
    assert missing == [], missing


def _calls_to(node, name) -> bool:
    """A call of `name` or of `<module>.name`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name
    )


def test_one_way_to_compile_a_search_index():
    # every graph compiles its cover-search index through one function,
    # from edge blocks, so no second builder can fall out of step
    found = _scopes_where(lambda node: _calls_to(node, "SearchIndex"))
    assert found == ["cover.py:build_search_index"], found


def test_one_recipe_from_norm_to_canyon():
    # a stage's classes and canyon come from `CanyonStage` alone, and its
    # tube search from there or from `graph-epsilon`, which prints every
    # tube constant, so no second chain can fall out of step
    names = ("leading_primitive_classes", "compute_zeta_epsilon_theta", "build_canyon_graph")
    found = {name: _scopes_where(lambda node, name=name: _calls_to(node, name)) for name in names}
    assert found == {
        "leading_primitive_classes": ["periodic_metric.py:CanyonStage.classes"],
        "compute_zeta_epsilon_theta": ["cli.py:_cmd_graph_epsilon", "periodic_metric.py:CanyonStage.hub_budget"],
        "build_canyon_graph": ["periodic_metric.py:CanyonStage.canyon"],
    }, found


def test_no_private_imports_across_modules():
    # a module's private names are its own; what two modules share is
    # public, as every tolerance is in the tolerance module
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("stablenorm")):
                found.extend(
                    f"{path.name}:{node.lineno} {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                )
    assert SOURCES and not found, found


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE name that nothing reads is a tolerance or
    # limit left behind by deleted code, which misleads about what the
    # code checks
    assigned, read = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            for t in targets:
                if isinstance(t, ast.Name) and _UPPER_NAME.fullmatch(t.id):
                    assigned[t.id] = f"{path.name}:{stmt.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = sorted(f"{where} {name}" for name, where in assigned.items() if name not in read)
    assert assigned and not orphans, orphans


def test_one_place_raises_a_search_budget_error():
    # every bounded search spends through `SearchMeter`, so its budget is
    # checked, spent and exhausted in one place
    found = _scopes_where(lambda node: _calls_to(node, "SearchBudgetError"))
    assert found == ["errors.py:SearchMeter._refuse"], found


def _divides_a_length(node) -> bool:
    """`len(...) // n`, a count read off a list's length."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and _calls_to(node.left, "len")


def test_one_root_layer_count():
    # the sweeps' root starts chains on the directions (1, 0) through
    # (1, 1), the first |F_B| = 1 + phi(1) + ... + phi(B) of their list.
    # One expression counts them, in `_root_layer_counts`;
    # `_reserve_root_steps` reserves and returns that count, and each
    # sweep clears its root at that layer, with no count of its own
    path = Path(stablenorm.__file__).parent / "lattice_polygons.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scoped = list(_scoped(tree))
    assert [scope for scope, node in scoped if _calls_to(node, "_totient")] == ["_root_layer_counts"]
    assert [scope for scope, node in scoped if _calls_to(node, "_root_layer_counts")] == ["_reserve_root_steps"]
    assert [scope for scope, node in scoped if _divides_a_length(node)] == []
    sweeps = {"_sweep_areas": [], "_sweep_symmetric": []}
    for scope, node in scoped:
        if scope in sweeps and isinstance(node, ast.Assign) and _calls_to(node.value, "_reserve_root_steps"):
            sweeps[scope].append(ast.unparse(node.targets[0]))
        elif scope in sweeps and isinstance(node, ast.Compare) and "root_layers" in ast.unparse(node):
            sweeps[scope].append(ast.unparse(node))
    assert sweeps == {sweep: ["root_layers", "i == root_layers"] for sweep in sweeps}, sweeps


def test_one_place_declares_the_cli_flags():
    # every subcommand and flag comes from `cli._COMMANDS` through one
    # builder, so a flag added elsewhere cannot miss the parser of the
    # one subcommand a call builds
    found = _scopes_where(lambda node: _calls_to(node, "add_argument") or _calls_to(node, "add_parser"))
    assert found and set(found) == {"cli.py:_build_parser"}, found
