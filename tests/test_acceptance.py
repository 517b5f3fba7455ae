"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints exactly one pass/fail
line; run with `pytest -v -rA tests/test_acceptance.py` to see them all.
Numeric claims are exact integer identities; the only tolerances are the
pinned wall-clock limits below.
"""

import json
import random
import time

from qkforge.cli import main
from qkforge.cm_arith import depths
from qkforge.dynamics import build_graph, component_stats
from qkforge.errors import UnsupportedPrimeError
from qkforge.extfield import ExtField
from qkforge.ffpoly import (
    Poly,
    equal_degree_factorize,
    is_irreducible,
    is_prime,
)
from qkforge.qk import find_k, qk_transform
from qkforge.seqgen import (
    KIND_DOUBLED,
    KIND_INITIAL,
    generate_sequence,
    observed_flat_steps,
    verify_against_schedule,
)

from oracle import (
    check_lemma_kk,
    is_periodic,
    min_poly_theta,
    poly_divmod,
    random_irreducible,
)

EXAMPLE_TIME_LIMIT = 60.0  # seconds, criteria 1-2
SWEEP_TIME_LIMIT = 300.0  # seconds, criteria 3-5

P_EXAMPLE = 53
F0 = Poly((51, 3, 0, 0, 0, 1), P_EXAMPLE)  # x^5 + 3x + 51


def _finish(tag: str, failures: list) -> None:
    print(f"acceptance {tag}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{tag}: " + "; ".join(str(f) for f in failures[:10])


def _primes_below(limit: int):
    return [p for p in range(3, limit) if is_prime(p)]


def _check_depth_laws(class_names, p_filter, low_e0, low_e1, inc) -> list:
    """The four depth-pair laws, swept over every admissible multiplier for
    primes below 300, extension degrees 1..6, seeds m in 1..3, and doubling
    counts i in 1..3.  Returns the list of violated identities."""
    failures = []
    for p in _primes_below(300):
        if not p_filter(p):
            continue
        for name in class_names:
            try:
                ks = find_k(p, name)
            except UnsupportedPrimeError:
                continue
            for k in ks:
                for n in range(1, 7):
                    dp = depths(p, k, n)
                    tag = f"p={p} k={k} n={n}"
                    if dp.e0 < low_e0:
                        failures.append(f"{tag}: e0={dp.e0} < {low_e0}")
                    if dp.e0 == low_e0 and dp.e1 < low_e1:
                        failures.append(f"{tag}: e1={dp.e1} < {low_e1}")
                    if dp.e0 > low_e0 and dp.e1 != low_e1 - 1:
                        failures.append(f"{tag}: e1={dp.e1} != {low_e1 - 1}")
                for m in range(1, 4):
                    base = depths(p, k, m)
                    dbl = depths(p, k, 2 * m)
                    if (dbl.e0, dbl.e1) != (base.e0 + base.e1, low_e1 - 1):
                        failures.append(
                            f"p={p} k={k} m={m}: ({base.e0},{base.e1}) "
                            f"-> ({dbl.e0},{dbl.e1})"
                        )
                    for i in range(1, 4):
                        lo = depths(p, k, (1 << i) * m)
                        hi = depths(p, k, (1 << (i + 1)) * m)
                        if (hi.e0, hi.e1) != (lo.e0 + inc, low_e1 - 1):
                            failures.append(
                                f"p={p} k={k} m={m} i={i}: "
                                f"({lo.e0},{lo.e1}) -> ({hi.e0},{hi.e1})"
                            )
    return failures


def test_acceptance_1_paired_class_reference_run():
    start = time.monotonic()
    failures = []

    record = generate_sequence(F0, 15, 12)
    got = record.degrees()
    want = [5, 10, 10, 10, 20, 20, 40, 40, 80, 80, 160, 160, 320]
    if got != want:
        failures.append(f"degree trace {got} != {want}")
    for step in record.steps:
        if not is_irreducible(step.poly):
            failures.append(f"step {step.index} is not irreducible")
    report = depths(P_EXAMPLE, 15, F0.degree)
    violations = verify_against_schedule(record)
    if violations:
        failures.append(f"schedule violations: {violations}")
    s, t = observed_flat_steps(record)
    if s + t != 3:
        failures.append(f"flat step count s+t={s + t} != 3")
    if s > report.s_bound or s + t > report.st_bound:
        failures.append(f"(s,t)=({s},{t}) breaks bounds "
                        f"{report.s_bound}/{report.st_bound}")
    if report.pattern != "pairs-every-two-steps":
        failures.append(f"pattern {report.pattern!r} is not the C2 pattern")

    elapsed = time.monotonic() - start
    if elapsed >= EXAMPLE_TIME_LIMIT:
        failures.append(f"took {elapsed:.1f}s >= {EXAMPLE_TIME_LIMIT}s")
    _finish("1 paired-class reference run", failures)


def test_acceptance_2_steady_class_reference_run():
    start = time.monotonic()
    failures = []

    record = generate_sequence(F0, 7, 6)
    got = record.degrees()
    want = [5, 10, 20, 40, 80, 160, 320]
    if got != want:
        failures.append(f"degree trace {got} != {want}")
    s, t = observed_flat_steps(record)
    if (s, t) != (0, 1):
        failures.append(f"flat steps ({s},{t}) != (0,1)")
    for step in record.steps:
        if not is_irreducible(step.poly):
            failures.append(f"step {step.index} is not irreducible")
    late = [step.index for step in record.steps[2:]
            if step.kind not in (KIND_INITIAL, KIND_DOUBLED)]
    if late:
        failures.append(f"factorization after step 1 at steps {late}")
    if verify_against_schedule(record):
        failures.append("schedule violations")

    elapsed = time.monotonic() - start
    if elapsed >= EXAMPLE_TIME_LIMIT:
        failures.append(f"took {elapsed:.1f}s >= {EXAMPLE_TIME_LIMIT}s")
    _finish("2 steady-class reference run", failures)


def test_acceptance_3_depth_laws_paired_class():
    start = time.monotonic()
    failures = _check_depth_laws(
        ("C2",), lambda p: p % 4 == 1, low_e0=2, low_e1=3, inc=2
    )
    elapsed = time.monotonic() - start
    if elapsed >= SWEEP_TIME_LIMIT:
        failures.append(f"took {elapsed:.1f}s >= {SWEEP_TIME_LIMIT}s")
    _finish("3 paired-class depth laws", failures)


def test_acceptance_4_depth_laws_steady_classes():
    start = time.monotonic()
    failures = _check_depth_laws(
        ("C3", "C3-"), lambda p: p % 7 in (1, 2, 4), low_e0=1, low_e1=2, inc=1
    )
    elapsed = time.monotonic() - start
    if elapsed >= SWEEP_TIME_LIMIT:
        failures.append(f"took {elapsed:.1f}s >= {SWEEP_TIME_LIMIT}s")
    _finish("4 steady-class depth laws", failures)


def test_acceptance_5_depth_dichotomy_and_tree_shape():
    start = time.monotonic()
    failures = []
    triples = 0

    for p in _primes_below(5000):
        if p + 1 > 5000:
            break
        ks = set()
        for name in ("C2", "C3", "C3-"):
            try:
                ks.update(find_k(p, name))
            except UnsupportedPrimeError:
                pass
        if not ks:
            continue
        n = 1
        while p**n + 1 <= 5000:
            for k in sorted(ks):
                triples += 1
                dp = depths(p, k, n)
                allowed = {dp.e0, dp.e1}
                for comp in component_stats(build_graph(p, n, k)):
                    if comp.tree_depth not in allowed:
                        failures.append(
                            f"p={p} n={n} k={k}: depth {comp.tree_depth} "
                            f"not in {sorted(allowed)}"
                        )
                    if not comp.binary_shape_ok:
                        failures.append(f"p={p} n={n} k={k}: shape violated")
            n += 1

    if triples < 30:
        failures.append(f"only {triples} triples enumerated, expected >= 30")
    elapsed = time.monotonic() - start
    if elapsed >= SWEEP_TIME_LIMIT:
        failures.append(f"took {elapsed:.1f}s >= {SWEEP_TIME_LIMIT}s")
    _finish(f"5 depth dichotomy over {triples} triples", failures)


def test_acceptance_6_transform_structure_brute_force():
    rng = random.Random(0)
    failures = []
    pairs = 0

    for _ in range(200):
        p = rng.choice((5, 13, 29, 53))
        n = rng.randint(1, 4)
        f = random_irreducible(p, n, rng)
        for name in ("C1", "C2", "C3", "C3-"):
            try:
                k = find_k(p, name)[0]
            except UnsupportedPrimeError:
                continue
            if n == 1 and (-f.coefficient(0)) % p in (2 * k % p, -2 * k % p):
                continue  # branch point of the doubling map: double root
            pairs += 1
            tag = f"p={p} n={n} k={k} f={f.coeffs}"
            g = qk_transform(f, k)
            if not g.is_monic:
                failures.append(f"{tag}: not monic")
            if g.coefficient(0) != 1:
                failures.append(f"{tag}: constant term != 1")
            if g.coeffs != g.coeffs[::-1]:
                failures.append(f"{tag}: not palindromic")
            if is_irreducible(g):
                if g.degree != 2 * n:
                    failures.append(f"{tag}: irreducible but degree != 2n")
                continue
            factors = equal_degree_factorize(f, k)
            if len(factors) != 2 or factors[0] == factors[1]:
                failures.append(f"{tag}: not two distinct factors")
                continue
            if any(h.degree != n or not h.is_monic or not is_irreducible(h)
                   for h in factors):
                failures.append(f"{tag}: bad split factors")
                continue
            if p**n <= 10**4:
                periodic_flags = []
                for h in factors:
                    beta = ExtField(h, assume_irreducible=True).gen()
                    periodic_flags.append(is_periodic(beta, k)[0])
                if all(periodic_flags):
                    failures.append(f"{tag}: both factors have periodic roots")

    if pairs < 200:
        failures.append(f"only {pairs} (f, k) pairs checked")
    _finish(f"6 transform structure over {pairs} pairs", failures)


def test_acceptance_7_sign_flip_graph_agreement():
    failures = []
    cases = 0
    for p in _primes_below(2000):
        n = 1
        while p**n + 1 <= 2000:
            try:
                ks = find_k(p, "C3")
            except UnsupportedPrimeError:
                break
            for k in ks:
                cases += 1
                if not check_lemma_kk(p, n, k, 10):
                    failures.append(f"p={p} n={n} k={k}")
            n += 1
    if cases == 0:
        failures.append("no cases enumerated")
    _finish(f"7 sign-flip graph agreement over {cases} cases", failures)


def test_acceptance_8_divisibility_identity():
    rng = random.Random(1)
    failures = []
    for _ in range(100):
        p = rng.choice((5, 7, 11, 13, 29, 53))
        n = rng.randint(1, 3)
        f = random_irreducible(p, n, rng)
        while f.coeffs == (0, 1):
            f = random_irreducible(p, n, rng)
        k = rng.randrange(1, p)
        g = min_poly_theta(f, k)
        if not poly_divmod(qk_transform(g, k), f)[1].is_zero:
            failures.append(f"p={p} k={k} f={f.coeffs}")
    _finish("8 divisibility identity over 100 draws", failures)


def test_acceptance_9_byte_identical_artifacts(tmp_path, capsys):
    failures = []
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "--p", "53", "--k", "15",
            "--f0", "51,3,0,0,0,1", "--steps", "6"]
    if main(args + ["--out", str(a)]) != 0:
        failures.append("first run failed")
    if main(args + ["--out", str(b)]) != 0:
        failures.append("second run failed")
    capsys.readouterr()
    if a.read_bytes() != b.read_bytes():
        failures.append("artifacts differ")
    if not failures:
        data = json.loads(a.read_text())
        if [s["degree"] for s in data["steps"]][-1] != 40:
            failures.append("unexpected final degree")
    _finish("9 byte-identical generation artifacts", failures)
