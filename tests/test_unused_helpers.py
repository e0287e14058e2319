"""Every helper the package defines is used somewhere.

Each function, class and method defined in `src/resverify/` (dunders
aside) must be referenced in `src/`, `tests/` or `perfbench/` outside
its own definition.  A reference is a name, an attribute, an import
alias or a string that is an identifier: `perfbench/spans.py` names the
attributes it traces by strings.  The match is by name alone, so a
helper whose name is used for something else passes; a name used
nowhere does not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "resverify"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST):
    """(name, line) of every reference in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    refs: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    checked, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(trees[path]):
            if (not isinstance(node, DEFINITIONS)
                    or node.name.startswith("__") and node.name.endswith("__")):
                continue
            checked += 1
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own
                   for where, line in refs.get(node.name, ())):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert checked > 100  # the scan saw the package
    assert not unused
