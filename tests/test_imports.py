"""Every module of the package and of the tests reads each name it imports,
and every private module-level name of the package is read somewhere.

No linter runs with the tests, so this is the check for code left behind:
each module is parsed with ast, and a name an import binds must be read
somewhere in the module (as a name, or as the base of an attribute).
Imports from __future__ and names listed in the module's __all__ are exempt.
A function, class or constant that a package module defines at top level
under a name starting with "_" must be read by some top-level statement of
the package other than its own definition.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sumok2set").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def _names_bound(stmt) -> list:
    """The names a top-level statement binds, when it is a def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        targets = []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_private_names(sources: dict) -> list:
    """The private top-level names the modules of sources define and no other
    top-level statement of theirs reads, as "module line n: name"."""
    defined = []  # (module, line, name, defining statement)
    read_by: dict = {}  # name -> the top-level statements that read it
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for name in _names_bound(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, stmt.lineno, name, stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    read_by.setdefault(node.id, []).append(stmt)
                elif isinstance(node, ast.Attribute):
                    read_by.setdefault(node.attr, []).append(stmt)
    return [
        f"{module} line {line}: {name}"
        for module, line, name, stmt in defined
        if all(reader is stmt for reader in read_by.get(name, []))
    ]


def test_the_scan_finds_private_names_nothing_reads():
    sources = {
        "a": (
            "import b\n"
            "_LIMIT = 3\n"
            "_TABLE: dict = {}\n"
            "def _helper(n):\n"
            "    return _helper(n - 1) if n else _LIMIT\n"
            "class _Gone:\n"
            "    pass\n"
            "def public():\n"
            "    return b._shared()\n"
        ),
        "b": "def _shared():\n    return 1\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a line 3: _TABLE", "a line 4: _helper", "a line 6: _Gone"]


def test_package_reads_every_private_name_it_defines():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    unread = unread_private_names(sources)
    assert not unread, f"never read: {', '.join(unread)}"
