"""Rules on the source tree.

Every public name has a use outside the tests: ``src/`` holds no test-only
code, so each name in ``hllkit.__all__`` must be used by the library itself,
the benchmark, the scripts, the acceptance suite or a ``from hllkit import``
line of the README.  A use is a bare load of the name, an ``hllkit.<name>``
attribute or a ``from hllkit import <name>``.

The integer and float-range input rules live only in ``errors.py``: no other
module catches ``OverflowError`` or tests for ``(int, np.integer)`` itself.
"""

import ast
from pathlib import Path

import hllkit

ROOT = Path(__file__).resolve().parent.parent
IMPORT_LINE = "from hllkit import "


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
        for pattern in ("except OverflowError", "(int, np.integer)")
        if pattern in path.read_text()
    ]
    assert not copies, f"use errors.integer or errors.real instead: {copies}"
