"""The three workloads as lists of operations on qkforge.

An operation is one call a user would make: a `qkforge` CLI invocation run
in-process through `qkforge.cli.main`, or one library call sequence.  Each
knows how to check its own output against `checks`, and how to reduce the
output to a digest that later rounds must reproduce exactly.

Operations reach the program through module attributes looked up at call
time (`m.cli.main`, never a captured function object), so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("chains", "graphs", "schedules")

P_REF = 53
F0_REF = [51, 3, 0, 0, 0, 1]  # x^5 + 3x + 51
# Prefixes of the paper's reference degree traces, both ending at degree 40:
# k = 15 (C2) splits and runs Cantor-Zassenhaus; k = 7 (C3) only doubles.
REF_CHAINS = (
    (15, [5, 10, 10, 10, 20, 20, 40]),
    (7, [5, 10, 20, 40]),
)
GRAPH_FIELD_LIMIT = 700        # every admissible (p, n, k) with p^n + 1 <= 700
EXPLORE_P = 53                 # F_{53^2}: 2,810 nodes; 53 admits C2, C3 and C3-
PREDICT_P_LOW = 2 * 10**4      # seeded primes in [2 * 10^4, 2.2 * 10^4)
PREDICT_NS = (1, 1 << 13)      # plus one seeded n in [2, 64] per prime
SWEEP_MAX_P = 600
# A 30-digit prime with p = 1 mod 4: `predict` fails on it every time, since
# point counting allocates bytearray(p).  Fixed, so that the failure does not
# depend on the seed.
BIG_PRIME = 10**29 + 481


@dataclass
class Op:
    """One timed operation.  `run` calls the program; `check` and `digest`
    read its output outside the timed region."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], object]
    fresh: bool  # a separate CLI invocation: starts from empty caches


def cli_call(m, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = m.cli.main(argv)
    return rc, buf.getvalue()


def _read(path: Path) -> bytes | None:
    """An artifact's bytes, or None when the command wrote none."""
    return path.read_bytes() if path.exists() else None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"qkbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _generate_op(m, out: Path, p: int, k: int, f0: list[int], steps: int, seed: int,
                 expected: list[int] | None) -> Op:
    path = out / f"chain-p{p}-k{k}-s{steps}.json"
    argv = ["generate", "--p", str(p), "--k", str(k), "--f0", ",".join(map(str, f0)),
            "--steps", str(steps), "--seed", str(seed), "--out", str(path)]

    def check(result) -> list[str]:
        rc, stdout = result
        tag = f"generate p={p} k={k}"
        if rc != 0:
            return [f"{tag}: exit code {rc}"]
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"{tag}: --out record does not parse: {exc}"]
        errors = checks.check_chain(record, p, k, f0, expected)
        degrees = ",".join(str(s["degree"]) for s in record.get("steps", []))
        if stdout != f"wrote {path} (degrees {degrees})\n":
            errors.append(f"{tag}: stdout {stdout!r} does not match the record")
        if record.get("seed") != seed or len(record.get("steps", [])) != steps + 1:
            errors.append(f"{tag}: record seed or step count differs from the request")
        return errors

    return Op(f"generate p={p} k={k} steps={steps}", lambda: cli_call(m, argv), check,
              lambda result: (result, _read(path)), fresh=True)


def chains(m, seed: int, out: Path) -> list[Op]:
    """The paper's two reference chains at p = 53 from x^5 + 3x + 51, with
    generate's default seed.  The inputs do not depend on the seed: seeded
    chains from random f0 are left out, because `generate` exits 3 on some
    of them (see CHANGES.md)."""
    return [_generate_op(m, out, P_REF, k, F0_REF, len(trace) - 1, 0, trace)
            for k, trace in REF_CHAINS]


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def graph_triples(m, limit: int) -> list[tuple[int, int, int]]:
    """Every (p, n, k) with p^n + 1 <= limit and k of class C2, C3 or C3-."""
    triples = []
    for p in range(3, limit):
        if not m.ffpoly.is_prime(p):
            continue
        ks = set()
        for name in ("C2", "C3", "C3-"):
            try:
                ks.update(m.qk.find_k(p, name))
            except m.errors.UnsupportedPrimeError:
                pass
        n = 1
        while ks and p**n + 1 <= limit:
            triples.extend((p, n, k) for k in sorted(ks))
            n += 1
    return triples


def _sweep_op(m, p: int, n: int, k: int, sample: list[int]) -> Op:
    def run():
        graph = m.dynamics.build_graph(p, n, k)
        stats = m.dynamics.component_stats(graph)
        dp = m.cm_arith.depths(p, k, n)
        return graph, stats, dp

    def digest(result):
        graph, stats, dp = result
        return (hash(graph.successors), graph.modulus.coeffs,
                tuple((s.cycle_length, s.tree_depth, s.node_count, s.binary_shape_ok)
                      for s in stats), (dp.e0, dp.e1))

    def check(result) -> list[str]:
        graph, stats, dp = result
        comps = [(s.cycle_length, s.tree_depth, s.node_count, s.binary_shape_ok)
                 for s in stats]
        sampled = {i: graph.successors[i] for i in sample if i < len(graph.successors)}
        return checks.check_graph(p, n, k, list(graph.modulus.coeffs), graph.size, comps,
                                  (dp.e0, dp.e1), sampled)

    return Op(f"graph p={p} n={n} k={k}", run, check, digest, fresh=False)


def _explore_op(m, out: Path, p: int, k: int, sample: list[int]) -> Op:
    n = 2
    dot, stats = out / f"explore-p{p}-k{k}.dot", out / f"explore-p{p}-k{k}.json"
    argv = ["explore", "--p", str(p), "--n", str(n), "--k", str(k),
            "--stats", str(stats), "--dot", str(dot)]

    def check(result) -> list[str]:
        rc, _ = result
        tag = f"explore p={p} n={n} k={k}"
        if rc != 0:
            return [f"{tag}: exit code {rc}"]
        payload = json.loads(stats.read_text(encoding="utf-8"))
        lines = dot.read_text(encoding="utf-8").split("\n")
        size = p**n + 1
        errors = []
        if payload.get("class") != checks.class_of(k, p) or payload.get("k") != k:
            errors.append(f"{tag}: class or k misreported")
        if len(lines) != 2 * size + 3 or lines[0] != "digraph qkforge {" or lines[-2:] != ["}", ""]:
            return errors + [f"{tag}: DOT text does not have {size} nodes and edges"]

        def index(name: str) -> int:
            if name == "inf":
                return 0
            return 1 + checks.digits_to_index([int(d) for d in name.split(",")], p)

        sampled = {}
        for i in sample:
            src, _, dst = lines[1 + size + i].strip().rstrip(";").partition(" -> ")
            if index(src.strip('"')) != i or index(lines[1 + i].strip().rstrip(";").strip('"')) != i:
                errors.append(f"{tag}: DOT line for node {i} names another node")
            sampled[i] = index(dst.strip('"'))
        comps = [(c["cycle_length"], c["tree_depth"], c["node_count"], c["binary_shape_ok"])
                 for c in payload.get("components", [])]
        return errors + checks.check_graph(
            p, n, k, payload.get("modulus", []), payload.get("node_count", 0), comps,
            (payload.get("e0"), payload.get("e1")), sampled)

    return Op(f"explore p={p} n={n} k={k}", lambda: cli_call(m, argv), check,
              lambda result: (result, hash(_read(dot)), _read(stats)), fresh=True)


def graphs(m, seed: int, out: Path) -> list[Op]:
    """The depth-dichotomy sweep over every admissible field of size <= 700
    (354 (p, 1, k) and 18 (p, n, k) with n > 1), then one F_{53^2} graph
    through `qkforge explore --stats --dot` with a seeded multiplier.  The
    successors checked are a seeded sample."""
    rng = _rng("graphs", seed)
    ops = [_sweep_op(m, p, n, k, checks.sample_nodes(rng, p**n + 1, 3))
           for p, n, k in graph_triples(m, GRAPH_FIELD_LIMIT)]
    ks = [k for name in checks.admissible_classes(EXPLORE_P)
          for k in m.qk.find_k(EXPLORE_P, name)]
    ops.append(_explore_op(m, out, EXPLORE_P, rng.choice(ks),
                           checks.sample_nodes(rng, EXPLORE_P**2 + 1, 200)))
    return ops


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def _seeded_prime(m, rng: random.Random, name: str, low: int) -> int:
    p = low + rng.randrange(low // 10)
    while not (m.ffpoly.is_prime(p) and name in checks.admissible_classes(p)):
        p += 1
    return p


def _predict_op(m, p: int, k: int, n: int, points: list, pairs: dict) -> Op:
    """`qkforge predict`; the pair at n = 1 is kept in `pairs` so that the
    pair at n = 2^13 can be checked against the doubling law."""
    argv = ["predict", "--p", str(p), "--k", str(k), "--n", str(n)]

    def check(result) -> list[str]:
        rc, stdout = result
        if rc != 0:
            return [f"predict p={p} k={k} n={n}: exit code {rc}"]
        errors, pair = checks.check_prediction(json.loads(stdout), p, k, n, points)
        if pair is None:
            return errors
        if n == 1:
            pairs[(p, k)] = pair
        elif n & (n - 1) == 0 and (p, k) in pairs:
            errors += checks.depth_law_errors(checks.class_of(k, p), n, *pair,
                                              base=(1, *pairs[(p, k)]))
        return errors

    return Op(f"predict p={p} k={k} n={n}", lambda: cli_call(m, argv), check,
              lambda result: result, fresh=True)


def _sweep_lemmas_op(m, max_p: int) -> Op:
    argv = ["sweep-lemmas", "--max-p", str(max_p)]
    expected = checks.sweep_identity_count(max_p, 6, 3, 3)  # the CLI defaults

    def check(result) -> list[str]:
        rc, stdout = result
        want = f"checked {expected} identities below p < {max_p}: 0 violations\n"
        if rc != 0 or stdout != want:
            return [f"sweep-lemmas --max-p {max_p}: exit {rc}, {stdout!r}, expected {want!r}"]
        return []

    return Op(f"sweep-lemmas max_p={max_p}", lambda: cli_call(m, argv), check,
              lambda result: result, fresh=True)


def schedules(m, seed: int, out: Path) -> list[Op]:
    """`qkforge predict` at one seeded prime near 2 * 10^4 per class C2, C3
    and C3-, with starting degrees 1, a seeded n in [2, 64] and 2^13; then
    `sweep-lemmas` below 600; then `predict` at the fixed 30-digit prime,
    which fails."""
    rng = _rng("schedules", seed)
    pairs: dict = {}
    ops = []
    for name in ("C2", "C3", "C3-"):
        p = _seeded_prime(m, rng, name, PREDICT_P_LOW)
        k = rng.choice(m.qk.find_k(p, name))
        points = checks.curve_points(name, p, rng, 4)
        for n in sorted({*PREDICT_NS, rng.randint(2, 64)}):
            ops.append(_predict_op(m, p, k, n, points, pairs))
    ops.append(_sweep_lemmas_op(m, SWEEP_MAX_P))
    k = m.qk.find_k(BIG_PRIME, "C2")[0]
    ops.append(_predict_op(m, BIG_PRIME, k, 1,
                           checks.curve_points("C2", BIG_PRIME, rng, 4), pairs))
    return ops


BUILDERS = {"chains": chains, "graphs": graphs, "schedules": schedules}
