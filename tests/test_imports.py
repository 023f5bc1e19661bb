"""Every import in the package is used, and every top-level definition is
named somewhere else: a name left behind by a deletion fails here. Importing
the search loads no process pool."""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diffseq"


def _unused_imports(source: str) -> list[str]:
    """The names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom itertools import chain, groupby\n"
        "def f(x: chain) -> None:\n    system.exit(os.sep)\n"
    )
    assert _unused_imports(source) == ["groupby"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _dead_definitions(source: str, elsewhere: str) -> list[str]:
    """The top-level functions, classes and constants of ``source`` whose name
    no word outside their own definition repeats, in ``source`` or in
    ``elsewhere``. Dunder names such as ``__version__`` are exempt."""
    lines = source.splitlines()
    dead = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :]) + "\n" + elsewhere
        dead += [
            name for name in names
            if not (name.startswith("__") and name.endswith("__"))
            and not re.search(rf"\b{re.escape(name)}\b", rest)
        ]
    return dead


def test_the_check_finds_a_dead_definition():
    source = (
        "LIMIT = 3\n"
        "def used(x):\n    return x < LIMIT\n"
        "def helper(n):\n    return helper(n - 1) if n else 0\n"
        "class Left:\n    pass\n"
        "__version__ = '1'\n"
        "WIDTH: int = 4\n"
    )
    assert _dead_definitions(source, "used(2)  # WIDTH") == ["helper", "Left"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path):
    elsewhere = "\n".join(
        other.read_text()
        for top in ("src", "tests", "perfbench")
        for other in sorted((ROOT / top).rglob("*.py"))
        if other != path
    )
    assert _dead_definitions(path.read_text(), elsewhere) == []


def test_importing_the_search_loads_no_process_pool():
    # a fresh interpreter: this one may have loaded the pool for other tests
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import diffseq.search; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, check=True, timeout=60
    )
    assert proc.stdout == b"False\n"
