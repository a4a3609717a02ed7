"""Every public top-level function and class of the library has a caller.

A name counts as used when some code in `src`, `tests` or `perfbench`
reads it (an `ast.Name` or an attribute access), apart from its own
definition and the re-export in `wittlam/__init__.py`.  Importing a name
is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "wittlam"


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _names_read():
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    used = _names_read()
    unused = [f"{module}.{name}" for module, name in _public_definitions()
              if name not in used]
    assert unused == []
