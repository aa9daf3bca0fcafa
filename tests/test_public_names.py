"""Rules on the source tree.

Every public name has a use outside the tests: ``src/`` holds no test-only
code, so each name in ``hllkit.__all__`` must be used by the library itself,
the benchmark, the scripts, the acceptance suite or a ``from hllkit import``
line of the README.  A use is a bare load of the name, an ``hllkit.<name>``
attribute or a ``from hllkit import <name>``.

The integer and float-range input rules live only in ``errors.py``: no other
module catches ``OverflowError`` or tests for ``(int, np.integer)`` itself.

No public function reads ``config.p``, ``config.q`` or ``config.m`` of its
``config`` argument before the argument has passed ``sketch.config_of``,
directly or through ``histogram_counts``, ``Sketch(config)`` or
``shared_config``: a configuration that is not a ``SketchConfig`` gets the
typed error, not a raw ``AttributeError``.

The histogram's weighted sum, sum C_k 2^-k over a slice of k, lives only in
``sketch.weighted_sum``: no other module takes an ``@`` with a weight table,
that is ``level_weights(...)``, ``pow2_weights(...)``, ``_POW2`` or a name
bound to one of them.
"""

import ast
from pathlib import Path

import hllkit

ROOT = Path(__file__).resolve().parent.parent
IMPORT_LINE = "from hllkit import "
WEIGHT_CALLS = {"level_weights", "pow2_weights"}


def _sources():
    src = ROOT / "src" / "hllkit"
    yield from (f for f in sorted(src.glob("*.py")) if f.name != "__init__.py")
    yield from sorted((ROOT / "bench").glob("*.py"))
    yield from sorted((ROOT / "scripts").glob("*.py"))
    yield ROOT / "tests" / "test_acceptance.py"


def _used_names() -> set:
    used = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "hllkit"
            ):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "hllkit":
                used.update(alias.name for alias in node.names)
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith(IMPORT_LINE):
            used.update(n.strip() for n in line[len(IMPORT_LINE) :].split(","))
    return used


def test_every_public_name_has_a_use_outside_the_tests():
    unused = sorted(set(hllkit.__all__) - _used_names())
    assert not unused, f"public names that only tests use: {unused}"


def test_input_rules_have_one_home():
    copies = [
        f"{path.name}: {pattern}"
        for path in sorted((ROOT / "src" / "hllkit").glob("*.py"))
        if path.name != "errors.py"
        for pattern in ("except OverflowError", "(int, np.integer)", "(float, np.floating)")
        if pattern in path.read_text()
    ]
    assert not copies, f"use errors.integer or errors.real instead: {copies}"


CONFIG_CHECKS = {"config_of", "histogram_counts", "Sketch", "shared_config"}
CONFIG_FIELDS = {"p", "q", "m"}


def _public_functions(tree):
    """(name, def) of each function of a module that ``hllkit.__all__``
    names, and of each public method and ``__init__`` of a class it names."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in hllkit.__all__:
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and node.name in hllkit.__all__:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    not item.name.startswith("_") or item.name == "__init__"
                ):
                    yield f"{node.name}.{item.name}", item


def _end(node):
    """Where a node's evaluation ends: a call has then run, its arguments first."""
    return node.end_lineno, node.end_col_offset


def _unchecked_config_reads(fn, param, helpers, depth=0):
    """Line numbers of the ``param.p``, ``.q`` and ``.m`` reads in ``fn``
    that come before ``param`` is checked, also in the module's private
    functions that ``fn`` hands the unchecked ``param`` to.  A check is a
    call of a ``CONFIG_CHECKS`` function with ``param`` as an argument, or
    ``param`` bound to the result of one."""
    nodes = list(ast.walk(fn))
    checks = [
        _end(node)
        for node in nodes
        if isinstance(node, ast.Call)
        and _name(node.func) in CONFIG_CHECKS
        and any(isinstance(a, ast.Name) and a.id == param for a in node.args)
    ] + [
        _end(node)
        for node in nodes
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and _name(node.value.func) in CONFIG_CHECKS
        and any(isinstance(t, ast.Name) and t.id == param for t in ast.walk(node.targets[0]))
    ]
    first = min(checks, default=(float("inf"), 0))
    reads = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == param
        and node.attr in CONFIG_FIELDS
        and _end(node) < first
    ]
    for node in nodes:
        callee = helpers.get(_name(node.func)) if isinstance(node, ast.Call) else None
        if callee is None or depth > 4 or _end(node) > first:
            continue
        names = [a.arg for a in callee.args.args]
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id == param and i < len(names):
                reads += _unchecked_config_reads(callee, names[i], helpers, depth + 1)
    return reads


def test_config_is_checked_before_it_is_read():
    early = []
    for path in sorted((ROOT / "src" / "hllkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helpers = {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        }
        for name, fn in _public_functions(tree):
            if "config" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]:
                lines = _unchecked_config_reads(fn, "config", helpers)
                early += [f"{path.name}:{line} ({name})" for line in sorted(set(lines))]
    assert not early, f"config read before config_of: {early}"


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_weight_table(node, aliases) -> bool:
    """A weight table, or one sliced, scaled or bound to a name."""
    if isinstance(node, ast.Subscript):
        return _is_weight_table(node.value, aliases)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return _is_weight_table(node.left, aliases) or _is_weight_table(node.right, aliases)
    if isinstance(node, ast.Call):
        return _name(node.func) in WEIGHT_CALLS
    return _name(node) == "_POW2" or (isinstance(node, ast.Name) and node.id in aliases)


def _weighted_sums(tree):
    """Line numbers of the ``@`` products with a weight table in one module."""
    assigns = [
        (node.targets[0].id, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    ]
    aliases = set()
    while True:  # until no name bound to a table is left to find
        new = {name for name, value in assigns if _is_weight_table(value, aliases)}
        if new <= aliases:
            break
        aliases |= new
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.MatMult)
        and (_is_weight_table(node.left, aliases) or _is_weight_table(node.right, aliases))
    ]


def test_weighted_sum_has_one_home():
    copies = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "hllkit").glob("*.py"))
        if path.name != "sketch.py"
        for line in _weighted_sums(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not copies, f"use sketch.weighted_sum instead: {copies}"
