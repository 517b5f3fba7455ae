"""The package's public names and its layering."""

import ast
import re
from pathlib import Path

import qkforge


def test_every_public_name_resolves():
    assert len(set(qkforge.__all__)) == len(qkforge.__all__)
    for name in qkforge.__all__:
        assert getattr(qkforge, name) is not None, name


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from qkforge import *", namespace)
    assert set(qkforge.__all__) <= set(namespace)


def _imported_modules(tree: ast.AST):
    """The module of every import statement of the tree, relative ones with
    their leading dots, and every name a `from` import takes from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
            yield from (alias.name for alias in node.names)


def test_only_extfield_and_the_package_use_field_elements():
    # production code holds a field element as an integer node index or a
    # coefficient list; FqElem arithmetic is the tests' and the benchmark's
    # reference, and the orbit walks live in the tests
    src = Path(qkforge.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.stem not in ("extfield", "__init__"))
    assert {p.stem for p in modules} >= {"ffpoly", "qk", "cm_arith", "seqgen", "dynamics", "cli"}
    for path in modules:
        text = path.read_text(encoding="utf-8")
        imported = list(_imported_modules(ast.parse(text, filename=str(path))))
        assert not [m for m in imported if "extfield" in m.split(".")], path.name
        assert not re.search(r"extfield|FqElem|theta_eval|is_periodic|INFINITY", text), path.name
