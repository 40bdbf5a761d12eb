"""No module of the package imports a name it never uses.

``__init__.py`` imports names to export them, so it is not checked.  A
name counts as used when the module reads it anywhere outside its
imports.  A name read only in a string annotation counts as unused:
each checked module imports ``annotations`` from ``__future__``, so no
annotation needs quotes.
"""

import ast
from pathlib import Path

import mmsfair

PACKAGE = Path(mmsfair.__file__).resolve().parent

# mmsbench's tracer wraps oracle's copy of validate_allocation; ROADMAP
# open item 1 moves that wrapping and removes the import.
ALLOWED = {("oracle", "validate_allocation")}


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom x import y as z, w\ndef f() -> w:\n    return a\n"
    assert _unused_imports(source) == ["os", "z"]


def test_no_module_imports_a_name_it_never_uses():
    unused = [(path.stem, name)
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert [u for u in unused if u not in ALLOWED] == []
    assert sorted(ALLOWED) == [u for u in unused if u in ALLOWED], "an allowance is stale"
