"""The package's public names and its layering."""

import ast
import re
from pathlib import Path

import qkforge


PUBLIC_NAMES = {
    "CURVE_DISC4", "CURVE_DISC7", "ComponentStats", "CurveParams", "DepthPair", "ExtField",
    "FqElem", "FunctionalGraph", "InternalConsistencyError", "KClass", "MalformedInputError",
    "Poly", "QkforgeError", "QuadInt", "ResourceCapError", "ScheduleReport", "SequenceRecord",
    "Step", "TheoremViolationError", "UnsupportedPrimeError", "UsageError", "batch_inverse",
    "build_graph", "classify_k", "component_stats", "count_points", "depths",
    "equal_degree_factorize", "export_dot", "find_k", "format_poly", "format_poly_human",
    "frobenius_pi", "generate_sequence", "is_irreducible", "is_prime", "observed_flat_steps",
    "parse_poly", "predict_schedule", "qk_transform", "rho0_select", "smallest_irreducible",
    "sqrt_mod_p", "verify_against_schedule",
}

# Kept in the package only because the benchmark under qkbench/ reaches them;
# no command-line path runs them.  The point counts stay the slow reference
# for the trace of the Frobenius element, and Poly multiplication is the
# benchmark's Kronecker kernel timing.  Once the benchmark stops reaching a
# name, remove it from the package and from this set.
KEPT_FOR_BENCHMARK = {
    "extfield",
    "extfield.ExtField",
    "extfield.FqElem",
    "extfield.batch_inverse",
    "cm_arith.count_points",
    "cm_arith.CurveParams",
    "cm_arith.CURVE_DISC4",
    "cm_arith.CURVE_DISC7",
    "cm_arith.CURVES",
    "ffpoly.Poly.__mul__",
    "ffpoly.Poly.__rmul__",
}


def test_public_names_are_pinned():
    assert len(qkforge.__all__) == len(PUBLIC_NAMES) == 44
    assert set(qkforge.__all__) == PUBLIC_NAMES


def test_names_kept_for_the_benchmark_resolve():
    for name in KEPT_FOR_BENCHMARK:
        obj = qkforge
        for part in name.split("."):
            obj = getattr(obj, part)


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Every name the tree loads or reads as an attribute, outside `skip`."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inside
    }


def test_every_public_function_is_used_by_the_package_or_exported():
    # the package __init__ only re-exports, so it does not count as a use
    src = Path(qkforge.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in src.glob("*.py") if p.stem != "__init__"}
    refs = {stem: _referenced_names(tree) for stem, tree in trees.items()}
    unused = set()
    for stem, tree in trees.items():
        elsewhere = set().union(*(names for other, names in refs.items() if other != stem))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if node.name not in elsewhere | _referenced_names(tree, skip=node):
                    unused.add(f"{stem}.{node.name}")
    assert {name.split(".")[1] for name in unused} <= set(qkforge.__all__), unused
    # what only the exports keep must be kept for the benchmark
    assert unused <= KEPT_FOR_BENCHMARK, unused


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


def test_no_module_imports_random():
    # every subcommand is deterministic: no step draws a random number, and
    # `generate --seed` is only recorded
    src = Path(qkforge.__file__).parent
    for path in sorted(src.glob("*.py")):
        imported = _imported_modules(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        assert "random" not in {m.split(".")[0] for m in imported}, path.name
