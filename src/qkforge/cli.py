"""Command-line front end: multiplier discovery, schedule prediction,
transforms, sequence generation, graph exploration, and depth-lemma sweeps.

Each subcommand's arguments and handler are declared once (`_subcommands`).
`main` builds only the named subcommand's parser, and falls back to the full
parser (`build_parser`), with its usage, help and error texts, when arguments
are left over or the subcommand is missing or unknown.  Either parser binds
the handler as `run`, and `main` calls `args.run(args)`; every invocation
carries the three artifact paths `out_path`, `dot_path` and
`stats_path` (None unless `--out`, `--dot` or `--stats` set them).

Exit codes: 0 success; 2 usage or congruence errors, or an output file that
cannot be written (checked before any work); 3 a verified claim failed
(theorem violation); 4 a resource cap was exceeded.  The construction is
deterministic: `generate --seed` (default 0) is only recorded in the record,
and every JSON artifact is byte-stable across runs with identical arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .cm_arith import _embedding, _ladder, depths, frobenius_pi, rho0_select
from .config import MAX_SWEEP_DOUBLINGS
from .dynamics import build_graph, component_stats, export_dot
from .errors import (
    QkforgeError,
    ResourceCapError,
    TheoremViolationError,
    UsageError,
)
from .ffpoly import (
    Poly,
    _check_odd_prime,
    format_poly,
    format_poly_human,
    is_irreducible,
    is_prime,
    parse_poly,
)
from .qk import CLASSES, _check_k, classify_k, find_k, qk_transform, transform_character
from .seqgen import (
    _step,
    generate_sequence,
    observed_flat_steps,
    predict_schedule,
    verify_against_schedule,
)

# The classes with a CM order, hence a depth pair and a degree schedule.
_SCHEDULE_CLASSES = tuple(name for name, spec in CLASSES.items() if spec.disc is not None)


# ---------------------------------------------------------------------------
# argument resolution
# ---------------------------------------------------------------------------


def _normalize_class(token: str) -> str:
    name = token.strip().upper()
    if name not in CLASSES:
        raise UsageError(
            f"unknown class {token!r}; expected one of c1, c2, c3, c3-"
        )
    return name


def _resolve_k(p: int, text: str) -> int:
    """A multiplier given either as an integer or as a class token, in which
    case the smallest admissible value is used."""
    token = text.strip()
    try:
        k = int(token)
    except ValueError:
        name = _normalize_class(token)
        return find_k(p, name)[0]
    return _check_k(k, p)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_find_k(args: argparse.Namespace) -> int:
    """Print the admissible multipliers of one class and p's congruence
    status; an inadmissible congruence exits with code 2."""
    p = _check_odd_prime(args.p)
    name = _normalize_class(args.class_token)
    values = find_k(p, name)
    print(f"p = {p}: class {name} admissible ({CLASSES[name].congruence_text()})")
    print(", ".join(str(v) for v in values))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Emit the degree-schedule prediction for (p, k, n) as JSON."""
    p = _check_odd_prime(args.p)
    report = predict_schedule(p, _resolve_k(p, args.k), args.n)
    name = report.class_name
    pi = frobenius_pi(p, name)
    payload: dict = {
        "a_p": (pi + pi.conj()).a,
        "pi": [pi.a, pi.b],
    }
    if pi.disc == -7:
        rho = rho0_select(p, report.k, pi)
        payload["rho0"] = [rho.a, rho.b]
    payload["e0"] = report.e0
    payload["e1"] = report.e1
    payload["s_bound"] = report.s_bound
    payload["st_bound"] = report.st_bound
    payload["pattern"] = report.pattern
    print(json.dumps(payload, indent=2))
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    """Apply the degree-doubling transform once and report the outcome."""
    p = _check_odd_prime(args.p)
    k = _resolve_k(p, args.k)
    f = parse_poly(args.f0, p)
    if f.degree < 1 or not f.is_monic:
        raise UsageError("the transform needs a monic polynomial of degree >= 1")
    big = qk_transform(f, k)
    print(f"input:       {format_poly_human(f)}")
    print(f"transform:   {format_poly_human(big)}")
    print(f"coefficients: {format_poly(big)}")
    # A reducible input has a reducible transform; for an irreducible input
    # the transform character decides.  So Rabin's test runs once, at degree n.
    irreducible_input = is_irreducible(f)
    if irreducible_input and transform_character(f, k) == -1:
        print("irreducible: yes")
        return 0
    print("irreducible: no")
    if irreducible_input and f != Poly.x(p):  # the chain excludes f = x
        chosen, alternate, _ = _step(f, k)
        print(f"factor 1:    {format_poly_human(chosen)}")
        print(f"factor 2:    {format_poly_human(alternate)}")
    return 0


@contextmanager
def _artifacts(args: argparse.Namespace):
    """Check that every artifact path set in args can be written, before any
    work: each is opened for writing without truncation and closed again, so
    an unwritable path fails at once (main maps OSError to exit 2) and an
    existing file keeps its bytes.  If the block raises, the files this
    check created are removed."""
    created = []
    try:
        for path in filter(None, (args.out_path, args.dot_path, args.stats_path)):
            existed = os.path.lexists(path)
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _emit(path: Optional[str], text: str) -> None:
    """Write text to the artifact at path, truncating it, or to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a sequence, verify it against its schedule, and emit the
    record JSON (stdout, or --out FILE).  Schedule violations exit 3 after
    the record is written; a run that fails before that leaves --out as it
    was."""
    p = _check_odd_prime(args.p)
    k = _resolve_k(p, args.k)
    f0 = parse_poly(args.f0, p)
    with _artifacts(args):
        record = generate_sequence(f0, k, args.steps, args.seed)
        violations: list[str] = []
        if record.class_name in _SCHEDULE_CLASSES:
            violations = verify_against_schedule(record)
        degrees = ",".join(str(d) for d in record.degrees())
        _emit(args.out_path, record.to_json() + "\n")
    if args.out_path:
        print(f"wrote {args.out_path} (degrees {degrees})")
    if violations:
        raise TheoremViolationError(
            "schedule violations: " + "; ".join(violations) + f"; trace degrees {degrees}"
        )
    return 0


_EXAMPLE_P = 53
_EXAMPLE_F0 = (51, 3, 0, 0, 0, 1)  # x^5 + 3x + 51
_EXAMPLE_TRACE_C2 = (5, 10, 10, 10, 20, 20, 40, 40, 80, 80, 160, 160, 320)
_EXAMPLE_TRACE_C3 = (5, 10, 20, 40, 80, 160, 320)

# (multiplier, steps, expected degree trace)
_EXAMPLE_RUNS = (
    (15, 12, _EXAMPLE_TRACE_C2),
    (7, 6, _EXAMPLE_TRACE_C3),
)


def cmd_verify_example(args: Optional[argparse.Namespace] = None) -> int:
    """Reproduce both reference runs over F_53 and verify them end to end;
    a degree trace that differs from the expected one exits with code 3."""
    f0 = Poly(_EXAMPLE_F0, _EXAMPLE_P)
    for k, steps, expected in _EXAMPLE_RUNS:
        record = generate_sequence(f0, k, steps)
        got = tuple(record.degrees())
        if got != expected:
            raise TheoremViolationError(
                f"k={k}: degree trace {list(got)} does not match expected {list(expected)}"
            )
        violations = verify_against_schedule(record)
        if violations:
            raise TheoremViolationError(
                f"k={k}: schedule violations: " + "; ".join(violations)
            )
        s, t = observed_flat_steps(record)
        report = predict_schedule(_EXAMPLE_P, k, f0.degree)
        print(
            f"k={k}: degrees {','.join(map(str, got))} "
            f"(s={s}, t={t}, bounds {report.s_bound}/{report.st_bound}) verified"
        )
    print("both reference runs reproduced")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Build the functional graph for (p, n, k) and emit DOT and/or JSON
    component statistics; a run that fails leaves --dot and --stats as they
    were."""
    p = _check_odd_prime(args.p)
    modulus = parse_poly(args.modulus, p) if args.modulus else None
    k = _resolve_k(p, args.k)
    with _artifacts(args):
        graph = build_graph(p, args.n, k, modulus)
        stats = component_stats(graph)
        payload: dict = {
            "p": graph.p,
            "n": graph.n,
            "k": graph.k,
            "modulus": list(graph.modulus.coeffs),
            "class": classify_k(graph.p, graph.k).name,
            "node_count": graph.size,
            "components": [
                {
                    "cycle_length": s.cycle_length,
                    "tree_depth": s.tree_depth,
                    "node_count": s.node_count,
                    "binary_shape_ok": s.binary_shape_ok,
                }
                for s in stats
            ],
        }
        if payload["class"] in _SCHEDULE_CLASSES:
            dp = depths(graph.p, graph.k, graph.n)
            payload["e0"] = dp.e0
            payload["e1"] = dp.e1
        if args.dot_path:
            _emit(args.dot_path, export_dot(graph, labels=args.labels))
        if args.stats_path or not args.dot_path:
            _emit(args.stats_path, json.dumps(payload, indent=2) + "\n")
    for path in (args.dot_path, args.stats_path):
        if path:
            print(f"wrote {path}")
    return 0


def _sweep_classes(max_p: int) -> list[tuple[int, str]]:
    """(p, class) for every prime 3 <= p < max_p and every class with a CM
    order whose congruence p satisfies."""
    return [(p, name) for p in range(3, max_p) if is_prime(p)
            for name in _SCHEDULE_CLASSES if CLASSES[name].admits(p)]


def cmd_sweep_lemmas(args: argparse.Namespace) -> int:
    """Check the depth-pair laws for every admissible multiplier below max_p.

    With (f0, f1, inc) the class's depth-law floors in qk.CLASSES: e0 >= f0,
    e0 = f0 forces e1 >= f1, e0 > f0 forces e1 = f1 - 1, doubling the
    extension degree sends (e0, e1) to (e0 + e1, f1 - 1), and afterwards each
    doubling adds exactly inc to e0.  A multiplier's pairs depend on it only
    through its key from `cm_arith._embedding`: the Frobenius element pi,
    which fixes (p, disc), and a parity.  So the sweep climbs one ladder per
    key, and the multipliers sharing it read the same pairs.  Any failed identity exits with code 3; negative bounds or
    a range that checks nothing exit with code 2, and max_i above
    config.MAX_SWEEP_DOUBLINGS with code 4, before any work.
    """
    max_p, max_n, max_m, max_i = args.max_p, args.max_n, args.max_m, args.max_i
    if min(max_n, max_m, max_i) < 0:
        raise UsageError(
            f"--max-n, --max-m and --max-i must be >= 0, got {max_n}, {max_m}, {max_i}"
        )
    if max_i > MAX_SWEEP_DOUBLINGS:
        raise ResourceCapError(f"--max-i {max_i} exceeds the cap of {MAX_SWEEP_DOUBLINGS}")
    if not (max_n or max_m):
        raise UsageError("--max-n 0 and --max-m 0 leave no identity to check")
    sweep = _sweep_classes(max_p)
    if not sweep:
        raise UsageError(
            f"--max-p {max_p} leaves no prime to sweep (it covers 3 <= p < max-p "
            f"with a C2, C3 or C3- multiplier)"
        )
    degrees = set(range(1, max_n + 1))
    for m in range(1, max_m + 1):
        degrees.update(m << i for i in range(max_i + 2))
    ns = sorted(degrees)
    # The sweep takes p in order, so the ladder of a key (p, disc, parity) is
    # kept, under (disc, parity), only until the next p.
    ladders: dict[tuple[int, int], tuple[int, dict[int, tuple[int, int]]]] = {}
    violations: list[str] = []
    checked = 0
    for p, name in sweep:
        low_e0, low_e1, inc = CLASSES[name].floors
        for k in find_k(p, name):
            _, pi, parity = _embedding(p, k)
            at, table = ladders.get((pi.disc, parity), (None, None))
            if at != p:
                table = _ladder(p, pi, parity, ns)
                ladders[pi.disc, parity] = p, table
            for n in range(1, max_n + 1):
                e0, e1 = table[n]
                checked += 1 if e0 < low_e0 else 2  # the floor, then one e1 law
                if e0 < low_e0:
                    failed = f"e0={e0} < {low_e0}"
                elif e0 == low_e0 and e1 < low_e1:
                    failed = f"e0={low_e0} but e1={e1} < {low_e1}"
                elif e0 > low_e0 and e1 != low_e1 - 1:
                    failed = f"e0={e0} but e1={e1} != {low_e1 - 1}"
                else:
                    continue
                violations.append(f"p={p} k={k} n={n} ({name}): {failed}")
            for m in range(1, max_m + 1):
                checked += 1 + max_i
                (e0, e1), doubled = table[m], table[2 * m]
                if doubled != (e0 + e1, low_e1 - 1):
                    violations.append(
                        f"p={p} k={k} m={m} ({name}): ({e0},{e1}) doubled to "
                        f"({doubled[0]},{doubled[1]})"
                    )
                for i in range(1, max_i + 1):
                    (e0, e1), upper = table[m << i], table[m << (i + 1)]
                    if not (upper == (e0 + inc, low_e1 - 1) and e1 == low_e1 - 1):
                        violations.append(
                            f"p={p} k={k} m={m} ({name}) i={i}: ({e0},{e1}) -> "
                            f"({upper[0]},{upper[1]}), expected +{inc}"
                        )
    print(f"checked {checked} identities below p < {max_p}: "
          f"{len(violations)} violations")
    if violations:
        preview = "; ".join(violations[:5])
        raise TheoremViolationError(f"depth-law violations: {preview}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _subcommands() -> dict:
    """name -> (help, handler, arguments) of every subcommand, each argument
    a flag and its add_argument keywords.  Built on each call, so that a
    handler rebound on this module (as a tracer does) is the one bound."""
    p_arg = ("--p", dict(type=int, required=True))
    return {
        "find-k": ("list admissible multipliers of a class", cmd_find_k, [
            ("--p", dict(type=int, required=True, help="odd prime")),
            ("--class", dict(dest="class_token", required=True, help="one of c1, c2, c3, c3-")),
        ]),
        "predict": ("predict the degree schedule as JSON", cmd_predict, [
            p_arg,
            ("--k", dict(required=True, help="multiplier (integer or class token)")),
            ("--n", dict(type=int, required=True, help="starting degree")),
        ]),
        "transform": ("apply the degree-doubling transform once", cmd_transform, [
            p_arg,
            ("--k", dict(required=True)),
            ("--f0", dict(required=True,
                          help="polynomial: '51,3,0,0,0,1' (ascending) or 'x^5+3*x+51'")),
        ]),
        "generate": ("generate and verify a sequence", cmd_generate, [
            p_arg,
            ("--k", dict(required=True)),
            ("--f0", dict(required=True)),
            ("--steps", dict(type=int, required=True)),
            ("--seed", dict(type=int, default=0)),
            ("--out", dict(dest="out_path", metavar="OUT",
                           help="write the record JSON here instead of stdout")),
        ]),
        "verify-example": ("reproduce both reference runs over F_53", cmd_verify_example, []),
        "explore": ("build and export a functional graph", cmd_explore, [
            p_arg,
            ("--n", dict(type=int, default=1)),
            ("--k", dict(required=True)),
            ("--modulus", dict(help="field modulus (default: smallest irreducible)")),
            ("--dot", dict(dest="dot_path", metavar="DOT", help="write DOT text here")),
            ("--stats", dict(dest="stats_path", metavar="STATS",
                             help="write component statistics JSON here")),
            ("--labels", dict(action="store_true", help="add label attributes to DOT nodes")),
        ]),
        "sweep-lemmas": ("sweep the depth-pair laws over primes", cmd_sweep_lemmas, [
            (flag, dict(type=int, default=default)) for flag, default in
            (("--max-p", 300), ("--max-n", 6), ("--max-m", 3), ("--max-i", 3))
        ]),
    }


def _fill(parser: argparse.ArgumentParser, handler, arguments) -> argparse.ArgumentParser:
    """Add one subcommand's arguments to parser and bind its handler as
    `run`, with every artifact path None unless an option sets it."""
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(run=handler, out_path=None, dot_path=None, stats_path=None)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkforge",
        description=(
            "Irreducible-polynomial towers from the degree-doubling transform: "
            "find multipliers, predict degree schedules, generate and verify "
            "sequences, and explore orbit graphs."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, arguments) in _subcommands().items():
        _fill(sub.add_parser(name, help=help_text), handler, arguments)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed by the named subcommand's parser alone, else by the full one."""
    table = _subcommands()
    if argv and argv[0] in table:
        _, handler, arguments = table[argv[0]]
        lone = _fill(argparse.ArgumentParser(prog=f"qkforge {argv[0]}"), handler, arguments)
        args, extra = lone.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.run(args)
    except QkforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an artifact path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return UsageError.exit_code


if __name__ == "__main__":
    sys.exit(main())
