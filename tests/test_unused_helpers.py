"""Every helper the package defines is used somewhere.

Each function, class and method defined in `src/resverify/` (dunders
aside) must be referenced in `src/`, `tests/` or `perfbench/` outside
its own definition.  A reference is a name, an attribute, an import
alias or a string that is an identifier: `perfbench/spans.py` names the
attributes it traces by strings.  The match is by name alone, so a
helper whose name is used for something else passes; a name used
nowhere does not.

Each name a package module imports must also be used in that module,
as a name (an attribute's base included).  Exempt are `__future__`
imports, the names in the module's `__all__`, and imports whose
statement carries `# noqa: F401` followed by the reason.
"""

import ast
import re
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


NOQA = re.compile(r"# noqa: F401\s+\S")


def _exported(tree: ast.Module) -> set[str]:
    """The string names in a module-level `__all__ = [...]`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_import_is_used():
    checked, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exempt = _exported(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"
                    or any(NOQA.search(line) for line
                           in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                checked += 1
                if name not in used and name not in exempt:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert checked > 30  # the scan saw the package's imports
    assert not unused
