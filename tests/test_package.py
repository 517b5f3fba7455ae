"""The package's public names and its layering."""

import ast
import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qkforge
import qkforge.cli as cli
import qkforge.errors as errors


PUBLIC_NAMES = {
    "CURVE_DISC4", "CURVE_DISC7", "ComponentStats", "CurveParams", "DepthPair", "ExtField",
    "FqElem", "FunctionalGraph", "InternalConsistencyError", "MalformedInputError",
    "Poly", "QkforgeError", "QuadInt", "ResourceCapError", "SequenceRecord",
    "Step", "TheoremViolationError", "UnsupportedPrimeError", "UsageError", "batch_inverse",
    "build_graph", "classify_k", "component_stats", "count_points", "depths",
    "equal_degree_factorize", "export_dot", "find_k", "format_poly", "format_poly_human",
    "generate_sequence", "is_irreducible", "is_prime", "observed_flat_steps",
    "parse_poly", "qk_transform", "smallest_irreducible",
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
    "ffpoly.Poly.__mul__",
    "ffpoly.Poly.__rmul__",
}


def test_public_names_are_pinned():
    assert len(qkforge.__all__) == len(PUBLIC_NAMES) == 39
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


def test_only_the_cm_resolver_crosses_out_of_cm_arith():
    # `cm_arith._embedding` is the one route from a multiplier to its class,
    # pi and rho0; the rest of the package reads depth pairs through it and
    # the ladder.  The package __init__ only re-exports, so it does not count.
    allowed = {"_embedding", "_ladder", "depths", "DepthPair"}
    src = Path(qkforge.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.stem in ("cm_arith", "__init__"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("cm_arith", "qkforge.cm_arith"):
                names = {alias.name for alias in node.names}
                assert names <= allowed, (path.name, names - allowed)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # no module imports cm_arith whole, to reach past the rule
                assert "cm_arith" not in {alias.name.split(".")[-1] for alias in node.names}, path.name


def test_only_the_frobenius_sign_rules_name_an_order():
    # cm_arith reads both orders off the discriminant (w^2 = t*w - s), so the
    # literals -4 and -7 appear only in the Frobenius sign rules and in the
    # module's constants.  `_frobenius_pi_disc` does not check p again: its
    # one caller, `_embedding`, has admitted p through classify_k.
    src = Path(qkforge.__file__).parent
    tree = ast.parse((src / "cm_arith.py").read_text(encoding="utf-8"))
    constants = {"CURVE_DISC4", "CURVE_DISC7", "_ALPHA"}
    allowed = {id(node) for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name == "_frobenius_pi_disc"
               or isinstance(top, ast.Assign)
               and all(getattr(target, "id", None) in constants for target in top.targets)
               for node in ast.walk(top)}
    literals = [node for node in ast.walk(tree)
                if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant) and node.operand.value in (4, 7)
                or isinstance(node, ast.Constant) and node.value in (-4, -7)]
    assert len(literals) > len(constants)  # the three constants and the sign rules
    assert [node.lineno for node in literals if id(node) not in allowed] == []
    for path in sorted(src.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {id(node) for top in module.body
                  if isinstance(top, ast.FunctionDef) and top.name == "_embedding"
                  and path.stem == "cm_arith" for node in ast.walk(top)}
        uses = [node for node in ast.walk(module) if "_frobenius_pi_disc" in (
            getattr(node, "id", None), getattr(node, "attr", None),
            node.name if isinstance(node, ast.alias) else None)]
        assert all(id(node) in inside for node in uses), path.name
        assert len(uses) == (path.stem == "cm_arith"), path.name


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_one_euclid_in_the_package():
    # `ffpoly._euclid` is the package's one polynomial Euclid: the split
    # calls it at half the degree and `FqElem.inverse` at stop = 1.
    # No module defines or reaches a plain gcd, and no other function runs
    # long division in a loop.
    src = Path(qkforge.__file__).parent
    looped = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "_gcd_raw" not in defined | _referenced_names(tree), path.name
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                "_divmod_raw" in _referenced_names(loop)
                for loop in ast.walk(func) if isinstance(loop, _LOOPS)
            ):
                looped.add(f"{path.stem}.{func.name}")
    assert looped == {"ffpoly._euclid"}


def test_every_exit_code_is_documented(tmp_path, capsys):
    # the README "Exit codes" table and the cli docstring list exactly the
    # codes an error class carries, main's code for an artifact path that
    # cannot be written (OSError), and 0
    codes = {cls.exit_code for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.QkforgeError)
             and cls is not errors.QkforgeError}
    unwritable = str(tmp_path / "missing" / "g.json")
    codes.add(cli.main(["explore", "--p", "11", "--k", "3", "--stats", unwritable]))
    assert capsys.readouterr().err.startswith("error: ")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    in_readme = {int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.M)}
    clauses = cli.__doc__.split("Exit codes:", 1)[1].split(".", 1)[0]
    in_docstring = {int(code) for code in re.findall(r"(?:^|;)\s*(\d+) ", clauses)}
    assert in_readme == in_docstring == codes | {0}, (in_readme, in_docstring, codes)


def test_value_types_keep_their_contract():
    # the nine value types are immutable, hash as they compare, equal only
    # an instance of their own type (never the tuple of their fields), copy
    # and pickle, and keep their repr and their construction-time checks
    from qkforge.qk import CLASSES, ClassSpec
    from qkforge.seqgen import KIND_INITIAL

    f = qkforge.Poly((54, 3, 0, 1, 0), 53)
    graph = qkforge.build_graph(5, 1, 2)
    record = qkforge.generate_sequence(qkforge.Poly((51, 3, 0, 0, 0, 1), 53), 7, 1)
    pair = qkforge.depths(53, 7, 4)
    cases = [
        (f, lambda: qkforge.Poly([1, 3, 0, 1], 53), ("coeffs", "p"),
         "Poly(coeffs=(1, 3, 0, 1), p=53)"),
        (qkforge.QuadInt(-7, 2, -4), lambda: qkforge.QuadInt(-7, 2, -4), ("a", "b", "disc"),
         "QuadInt(a=-7, b=2, disc=-4)"),
        (qkforge.CURVE_DISC7, lambda: qkforge.CurveParams(-7, -35, 98), ("disc", "a4", "a6"),
         "CurveParams(disc=-7, a4=-35, a6=98)"),
        (pair, lambda: qkforge.DepthPair(6, 1, 53, 4, "C3"),
         ("e0", "e1", "p", "n", "class_name", "pi", "rho0"),
         "DepthPair(e0=6, e1=1, p=53, n=4, class_name='C3', pi=QuadInt(a=-7, b=4, disc=-7), "
         "rho0=QuadInt(a=0, b=1, disc=-7))"),
        (CLASSES["C1"], lambda: ClassSpec("C1", 4, 0, -1, 1, (0,)),
         ("name", "a", "b", "c", "modulus", "residues", "disc", "pattern", "v"),
         "ClassSpec(name='C1', a=4, b=0, c=-1, modulus=1, residues=(0,), disc=None, "
         "pattern=None, v=None)"),
        (record.steps[0], lambda: qkforge.Step(0, qkforge.Poly((51, 3, 0, 0, 0, 1), 53),
                                               KIND_INITIAL),
         ("index", "poly", "kind"),
         "Step(index=0, poly=Poly(coeffs=(51, 3, 0, 0, 0, 1), p=53), kind='initial')"),
        (record, lambda: qkforge.SequenceRecord(p=53, k=7, class_name="C3", seed=0,
                                                steps=record.steps),
         ("p", "k", "class_name", "seed", "steps"),
         "SequenceRecord(p=53, k=7, class_name='C3', seed=0, steps=(Step(index=0, "
         "poly=Poly(coeffs=(51, 3, 0, 0, 0, 1), p=53), kind='initial'), Step(index=1, "
         "poly=Poly(coeffs=(1, 0, 5, 0, 40, 35, 40, 0, 5, 0, 1), p=53), "
         "kind='transform-irreducible')))"),
        (graph, lambda: qkforge.FunctionalGraph(p=5, n=1, k=2, modulus=qkforge.Poly((0, 1), 5),
                                                successors=(0, 0, 5, 1, 1, 2)),
         ("p", "n", "k", "modulus", "successors"),
         "FunctionalGraph(p=5, n=1, k=2, modulus=Poly(coeffs=(0, 1), p=5), "
         "successors=(0, 0, 5, 1, 1, 2))"),
        (qkforge.component_stats(graph)[1],
         lambda: qkforge.ComponentStats(cycle_length=2, tree_depth=0, node_count=2,
                                        binary_shape_ok=True),
         ("cycle_length", "tree_depth", "node_count", "binary_shape_ok"),
         "ComponentStats(cycle_length=2, tree_depth=0, node_count=2, binary_shape_ok=True)"),
    ]
    for value, make, fields, text in cases:
        twin = make()
        assert value == twin and not value != twin and hash(value) == hash(twin), text
        assert repr(value) == text
        assert value != tuple(getattr(value, name) for name in fields), text
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value and repr(copied) == text
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text  # still whole after the refused writes
    # another type with the same field values is unequal
    assert qkforge.QuadInt(-7, 2, -4) != qkforge.CurveParams(-7, 2, -4)
    # a depth pair compares and hashes by (e0, e1, p, n, class) only
    assert pair.pi is not None and {pair} == {qkforge.DepthPair(6, 1, 53, 4, "C3", pi=None)}
    assert pair != qkforge.DepthPair(6, 1, 53, 5, "C3", pi=pair.pi, rho0=pair.rho0)
    # Poly is no tuple: no concatenation and no length
    with pytest.raises(TypeError):
        f + f
    with pytest.raises(TypeError):
        len(f)
    checks = [
        (lambda: qkforge.Poly((1,), 4), qkforge.UsageError, "p must be an odd prime, got 4"),
        (lambda: qkforge.QuadInt(1, 0, -3), qkforge.UsageError, "unsupported discriminant -3"),
        (lambda: qkforge.ComponentStats(0, 0, 1, True), errors.InternalConsistencyError,
         "every component contains a cycle"),
        (lambda: qkforge.ComponentStats(3, 0, 2, True), errors.InternalConsistencyError,
         "component smaller than its cycle"),
        (lambda: qkforge.SequenceRecord(53, 7, "C3", 0, ()), qkforge.UsageError,
         "a sequence record needs at least the initial step"),
        (lambda: qkforge.SequenceRecord(53, 7, "C3", 0, record.steps[1:]), qkforge.UsageError,
         "step indices must be 0..0"),
        (lambda: qkforge.SequenceRecord(11, 7, "C3", 0, record.steps), qkforge.UsageError,
         "all polynomials must live over the record's prime"),
    ]
    for make, error, message in checks:
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # a fresh process pays for every module the package imports; -S keeps
    # site-packages hooks from importing any of them first
    src = str(Path(qkforge.__file__).resolve().parents[1])
    probe = ("import sys, qkforge.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
