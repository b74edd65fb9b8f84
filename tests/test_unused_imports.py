"""Every name a module imports is used in that module.

The scan covers `src/`, `tests/`, `demos/` and `tools/` with `ast` alone. Package
`__init__.py` files are skipped, because their imports are the package's
public names, and so are `from __future__` imports, which set compiler
features rather than bind names.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos", "tools")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name `source` imports and never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def test_every_imported_name_is_used():
    found = []
    for top in SCANNED:
        for path in sorted((REPO / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(REPO)}:{line}: {name}"
                      for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_scan_reads_every_import_form():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, json",
        "import xml.dom",
        "import numpy as np",
        "from math import floor, ceil as c",
        "from typing import *",
        "def f():",
        "    from pathlib import Path",
        "    return os.sep, xml.dom, c(1.5)",
    ])
    assert unused_imports(source) == [(2, "json"), (4, "np"), (5, "floor"), (8, "Path")]
