"""Rules on the source tree.

Every public name has a use outside the tests: ``src/`` holds no test-only
code, so each name in ``hllkit.__all__`` must be used by the library itself,
the benchmark, the scripts, the acceptance suite or a ``from hllkit import``
line of the README.  A use is a bare load of the name, an ``hllkit.<name>``
attribute or a ``from hllkit import <name>``.

The integer and float-range input rules live only in ``errors.py``: no other
module catches ``OverflowError`` or tests for ``(int, np.integer)`` itself.

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
