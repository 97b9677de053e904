"""Recovery, storage and the harness use other objects' public surface.

Every stateful component owns its checkpoint format
(:mod:`repro.reconfig.checkpoint`), so no module in ``reconfig/``,
``store/`` or ``harness/`` may read or write another object's underscore
attribute: ``x._name`` is allowed only where ``x`` is ``self`` or
``cls``.
"""

import ast
from pathlib import Path

import repro

PACKAGES = ("reconfig", "store", "harness")


def foreign_private_accesses(source: str) -> list:
    """``(line, expression)`` of every ``x._name`` whose ``x`` is not
    ``self`` or ``cls`` (dunder names aside)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or name.endswith("__"):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_module_reads_another_objects_private_attributes():
    root = Path(repro.__file__).parent
    breaches = []
    for package in PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            breaches += [f"{path.relative_to(root)}:{line}: {expression}"
                         for line, expression
                         in foreign_private_accesses(path.read_text())]
    assert breaches == []


def test_the_walk_sees_a_foreign_private_read():
    source = ("def f(self, server):\n"
              "    self._own = server._data\n"
              "    return server.__class__, cls._x\n")
    assert foreign_private_accesses(source) == [(2, "server._data")]
