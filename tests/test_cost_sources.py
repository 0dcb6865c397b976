"""Every cycle the simulator charges comes from :mod:`repro.cpu.costs`.

Two rules, checked over the AST of every module under ``src/repro``:

* no argument of a ``.charge(...)`` call contains a numeric literal (a
  ``2 *`` multiplier, as in ``2 * costs.context_switch``, excepted): a
  charged cost is a ``CostModel`` field, a table entry or a value
  computed from them;
* no module but ``repro/cpu/costs.py`` defines a module-level name ending
  in ``_COST`` or ``_COSTS``: cost tables live in one place.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
COSTS_MODULE = SRC / "cpu" / "costs.py"
_COST_NAME = re.compile(r"_COSTS?$")


def _modules():
    return sorted(SRC.rglob("*.py"))


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(SRC).as_posix()}:{node.lineno}"


def _literal_charges(path: Path, tree: ast.AST) -> list[str]:
    found = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "charge"):
            continue
        allowed = set()
        for node in ast.walk(call):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                    and isinstance(node.left, ast.Constant)
                    and node.left.value == 2):
                allowed.add(id(node.left))
        for arg in [*call.args, *(k.value for k in call.keywords)]:
            for node in ast.walk(arg):
                if (isinstance(node, ast.Constant)
                        and type(node.value) in (int, float)
                        and id(node) not in allowed):
                    found.append(_where(path, node))
    return found


def _cost_tables(path: Path, tree: ast.Module) -> list[str]:
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and _COST_NAME.search(node.id):
                    found.append(_where(path, stmt))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_charge_takes_a_numeric_literal():
    found = []
    for path in _modules():
        found += _literal_charges(path, _parse(path))
    assert found == [], "charge a CostModel field instead: " + ", ".join(found)


def test_cost_tables_live_only_in_the_cost_model_module():
    found = []
    for path in _modules():
        if path != COSTS_MODULE:
            found += _cost_tables(path, _parse(path))
    assert found == [], "move to repro/cpu/costs.py: " + ", ".join(found)


def test_the_rules_see_what_they_forbid():
    """The checks are not vacuous: they flag a literal charge, a literal
    nested inside a charged expression, and a module-level cost table,
    and pass a ``2 *`` multiplier."""
    path = SRC / "example.py"
    tree = ast.parse(
        "SPIN_COST = 5\n"
        "x.charge(3)\n"
        "x.charge(task, c.copy_cost(n) + 20)\n"
        "x.charge(task, 2 * c.context_switch)\n"
    )
    assert _literal_charges(path, tree) == ["example.py:2", "example.py:3"]
    assert _cost_tables(path, tree) == ["example.py:1"]
