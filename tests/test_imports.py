"""Every module of the package and of the tests reads each name it imports.

No linter runs with the tests, so this is the check for imports left behind:
each module is parsed with ast, and a name an import binds must be read
somewhere in the module (as a name, or as the base of an attribute).
Imports from __future__ and names listed in the module's __all__ are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "sumok2set").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list:
    """The names the imports of source bind and it never reads, in order."""
    tree = ast.parse(source)
    imported: dict = {}  # bound name -> line of its first import
    exported: set = set()
    read: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in read and name not in exported and name != "*"
    ]


def test_the_scan_finds_what_a_module_does_not_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    import re\n"
        "    return d.x, json\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 2: osp", "line 4: b", "line 7: re"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_name_it_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.relative_to(ROOT)} never reads: {', '.join(unused)}"
