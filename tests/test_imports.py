"""Every module of the package, bar its __init__, uses each name it imports,
the package reads every private name it defines at module level, and every
public function, class and method has a reader outside the tests."""

import ast
import re
from pathlib import Path

import pytest

from qspectra import __all__ as EXPORTED

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qspectra"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Read by the tests alone, each kept for a claim its docstring names.
KEEP_UNREAD = {
    "embed",
    "entry",
    "extend_between",
    "from_rows",
    "iota",
    "l2_inner",
    "representative",
    "U",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no Name node reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_finds_unused_imports():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nnp.sum(d)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_names(sources: list[str]) -> list[str]:
    """Module-level names starting with one underscore that no Name or
    Attribute node of any of the sources reads."""
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def test_finds_unused_private_names():
    sources = [
        "_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n",
        "import m\nm._C\n_B: int = 4\n",
    ]
    assert unused_private_names(sources) == ["_B", "_f"]


def test_no_unused_private_name():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_names(sources) == []


def unread_public_names(
    defining: list[str], reading: list[str], exported: set[str], named: str
) -> list[str]:
    """Public module-level functions and classes, and public methods, of the
    defining sources that are not exported, that no Name or Attribute node
    of the reading sources reads, and that the text `named` does not name."""
    defined = set()
    for tree in (ast.parse(source) for source in defining):
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else []
            for d in (node, *body):
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_"):
                    defined.add(d.name)
    read = set()
    for node in (node for source in reading for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return sorted(defined - exported - read - set(re.findall(r"\w+", named)))


def test_finds_unread_public_names():
    defining = [
        "def f(): pass\ndef g(): pass\ndef _h(): pass\ndef api(): pass\ndef ci(): pass\n"
        "class C:\n    def m(self): pass\n    def n(self): pass\n    def _p(self): pass\n"
        "def outer():\n    def inner(): pass\n    return inner\n"
    ]
    reading = ["import x\nx.m()\nf()\nouter()\n", "g = 1\n"]
    assert unread_public_names(defining, reading, {"api"}, "run: ci --size 4") == ["C", "g", "n"]


def test_no_unread_public_name():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    workflow = "".join(p.read_text(encoding="utf-8") for p in (ROOT / ".github").rglob("*.yml"))
    unread = unread_public_names(package, package + bench, set(EXPORTED), workflow)
    assert sorted(set(unread) - KEEP_UNREAD) == []
