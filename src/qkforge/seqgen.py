"""Iterative construction of irreducible-polynomial sequences by repeated
degree-doubling transforms, with factor selection.

Starting from a monic irreducible f_0 (not x) and a classified multiplier k,
each step applies the transform to the current polynomial.  One quadratic
character, chi = legendre(f(2k) * f(-2k), p), decides the step: for chi = -1
the transform is irreducible and the degree doubles; for chi = +1 it splits
into exactly two monic irreducibles of the same degree and the generator
keeps the canonically first one, remembering the other as an alternate;
chi = 0 only for the ramified inputs x -+ 2k.  Rabin's test runs once, on
f_0; every later polynomial is irreducible by the character of the step
that made it.

For multipliers of class C2, C3, or C3- the depth pair (e0, e1) bounds how
long the degree may stay flat, and only one choice can break that bound:
the first split before any doubling whose factors differ.  If its root
lies on a cycle of x -> k(x + 1/x), one factor lies on the cycle too and
can stall for ever.  So that split is raced: both factors are followed in
lockstep, and the second is kept (recorded with kind "backtracked") only if
it doubles strictly first, which happens exactly when the first lies on a
cycle.  A race that neither factor wins within max(e0, e1) steps would
falsify the underlying theory and is reported as a theorem violation
carrying the trace.

Class C1 sequences are generated with no schedule enforcement; only the
irreducibility and degree-ratio invariants apply.

A record is verified as a certificate chain: f_0 passes Rabin's test, and
each later step is the transform of its predecessor (chi = -1) or, at the
same degree, a monic f with f * f* equal to that transform (chi != -1),
which makes it irreducible.  verify_against_schedule and the record reader
(SequenceRecord.from_json_dict) both check it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .config import MAX_POLY_DEGREE
from .errors import MalformedInputError, ResourceCapError, TheoremViolationError, UsageError
from .ffpoly import Poly, _reciprocal_cofactor, equal_degree_factorize, inv_mod, is_irreducible
from .qk import CLASSES, GENERIC, classify_k, qk_transform, transform_character
from .cm_arith import DepthPair, depths

KIND_INITIAL = "initial"
KIND_DOUBLED = "transform-irreducible"
KIND_SPLIT_FIRST = "split-took-first"
KIND_BACKTRACKED = "backtracked"

STEP_KINDS = (
    KIND_INITIAL,
    KIND_DOUBLED,
    KIND_SPLIT_FIRST,
    KIND_BACKTRACKED,
)

# The record's "rng" field; with "seed" it is provenance only, since no
# step draws a random number.
RNG_NAME = "mt19937"

# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One entry of a generated sequence: the polynomial f_i and how it was
    obtained."""

    index: int
    poly: Poly
    kind: str

    @property
    def degree(self) -> int:
        return self.poly.degree


def _json_int(value) -> int:
    """A JSON integer; anything else (a bool, float or string) is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SequenceRecord:
    """A generated sequence f_0, f_1, ..., with provenance per step."""

    p: int
    k: int
    class_name: str
    seed: int
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise UsageError("a sequence record needs at least the initial step")
        for j, step in enumerate(self.steps):
            if step.index != j:
                raise UsageError(f"step indices must be 0..{len(self.steps) - 1}")
            if step.kind not in STEP_KINDS:
                raise UsageError(f"unknown step kind {step.kind!r}")
            if step.poly.p != self.p:
                raise UsageError("all polynomials must live over the record's prime")
            if not step.poly.is_monic:
                raise UsageError(f"step {j}: polynomial is not monic")
        if self.steps[0].kind != KIND_INITIAL:
            raise UsageError("step 0 must have kind 'initial'")
        if any(s.kind == KIND_INITIAL for s in self.steps[1:]):
            raise UsageError("only step 0 may have kind 'initial'")

    def degrees(self) -> list[int]:
        return [s.degree for s in self.steps]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "class": self.class_name,
            "seed": self.seed,
            "rng": RNG_NAME,
            "steps": [
                {
                    "i": s.index,
                    "coeffs": list(s.poly.coeffs),
                    "degree": s.degree,
                    "kind": s.kind,
                }
                for s in self.steps
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SequenceRecord":
        try:
            p = _json_int(data["p"])
            k = _json_int(data["k"])
            class_name = data["class"]
            seed = _json_int(data["seed"])
            raw_steps = data["steps"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"record is missing or mistypes a field: {exc}")
        if class_name != classify_k(p, k).name:
            raise MalformedInputError(
                f"record class {class_name!r} is not the class of k={k} mod p={p}"
            )
        if not isinstance(raw_steps, list) or not raw_steps:
            raise MalformedInputError("record field 'steps' must be a non-empty list")
        steps = []
        for entry in raw_steps:
            try:
                i = _json_int(entry["i"])
                if not isinstance(entry["coeffs"], list):
                    raise TypeError(f"'coeffs' must be a list, got {entry['coeffs']!r}")
                coeffs = tuple(map(_json_int, entry["coeffs"]))
                degree = _json_int(entry["degree"])
                kind = str(entry["kind"])
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedInputError(f"bad step entry: {exc}")
            poly = Poly(coeffs, p)
            if poly.degree != degree:
                raise MalformedInputError(
                    f"step {i}: declared degree {degree} but coefficients give {poly.degree}"
                )
            steps.append(Step(i, poly, kind))
        record = cls(p=p, k=k, class_name=class_name, seed=seed, steps=tuple(steps))
        broken = _certificate_violations(record)
        if broken:
            raise MalformedInputError("; ".join(broken))
        return record


@dataclass(frozen=True)
class ScheduleReport(DepthPair):
    """Predicted degree schedule for (p, k, n): the depth pair with the bounds
    it implies, and the class's asymptotic doubling pattern."""

    k: int
    pattern: str


def predict_schedule(p: int, k: int, n: int) -> ScheduleReport:
    """Schedule prediction for degree-n starts with multiplier k mod p.

    Only classes with an attached quadratic order (C2, C3, C3-) admit a
    prediction; C1 and Generic multipliers are rejected.
    """
    kc = classify_k(p, k)
    if kc.spec is None or kc.spec.disc is None:
        raise UsageError(
            f"no schedule prediction exists for class {kc.name}; "
            "supported classes are C2, C3, and C3-"
        )
    dp = depths(p, kc.k, n)
    return ScheduleReport(dp.e0, dp.e1, p, n, kc.name, kc.k, kc.spec.pattern)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


def _check_irr_input(f: Poly) -> None:
    if f.degree < 1:
        raise UsageError("need a polynomial of degree >= 1")
    if not f.is_monic:
        raise UsageError("the sequence works on monic polynomials")
    if f.degree == 1 and f.coefficient(0) == 0:
        raise UsageError("f = x is excluded: its root maps to infinity")
    if not is_irreducible(f):
        raise UsageError("the input polynomial must be irreducible")


def _step(f: Poly, k: int) -> tuple[Poly, Optional[Poly], str]:
    """One construction step: the transform character of f decides it.

    f must be monic, irreducible and not x; no irreducibility test runs.
    Returns (chosen, alternate, kind).  For character -1 the transform is
    irreducible: it is formed, the degree doubles, and there is no
    alternate.  For +1 the transform splits into two monic irreducibles of
    degree n = deg f (equal_degree_factorize, from f and k); the
    canonically first is chosen and the other returned as the alternate.  A
    split that fails the dichotomy is a theorem violation.  A transform of
    degree above config.MAX_POLY_DEGREE is refused with ResourceCapError
    before any work."""
    if 2 * f.degree > MAX_POLY_DEGREE:
        raise ResourceCapError(
            f"the transform of a degree-{f.degree} polynomial would pass the "
            f"degree cap of {MAX_POLY_DEGREE}"
        )
    chi = transform_character(f, k)
    if chi == -1:
        return qk_transform(f, k), None, KIND_DOUBLED
    if chi == 0:
        # A repeated root of the transform is a double preimage under theta,
        # i.e. one of the critical points +-1, whose images are +-2k.  So only
        # the ramified inputs x -+ 2k have a repeated factor: their transform
        # is the square (x -+ 1)^2, and both "factors" coincide.
        root = Poly((f.coefficient(0) * inv_mod(2 * k, f.p), 1), f.p)
        return root, root, KIND_SPLIT_FIRST
    try:
        first, second = equal_degree_factorize(f, k)
    except MalformedInputError as exc:
        raise TheoremViolationError(
            f"transform of {f} violates the split dichotomy: {exc}"
        )
    return first, second, KIND_SPLIT_FIRST


# ---------------------------------------------------------------------------
# full generation
# ---------------------------------------------------------------------------


def _trace_text(steps: list[Step]) -> str:
    degrees = ",".join(str(s.degree) for s in steps)
    kinds = ",".join(s.kind for s in steps)
    return f"degrees [{degrees}] kinds [{kinds}]"


def generate_sequence(f0: Poly, k: int, num_steps: int, seed: int = 0) -> SequenceRecord:
    """Generate f_0 .. f_{num_steps}, taking the canonically first factor of
    every split except, possibly, the first.

    f0 must be monic, irreducible (checked by Rabin's test) and not x.
    The multiplier must classify as C1, C2, C3, or C3-.  For the three
    classes with a depth pair, the first split before any doubling whose
    two factors differ is settled by a race (see _race): the second factor
    is kept, with kind "backtracked", when the first lies on a cycle.  A
    race that neither factor wins within max(e0, e1) steps raises a theorem
    violation with the trace.  The race does not depend on num_steps, so a
    shorter run is a prefix of a longer one.  The construction draws no
    random numbers: `seed` is only recorded, with RNG_NAME.

    No step forms a transform of degree above config.MAX_POLY_DEGREE (see
    _step).  For C2, C3 and C3- the schedule bounds the degrees from below:
    past s + t <= st_bound flat steps every step follows the class pattern
    (_pattern_level), so a num_steps whose degree must pass the cap is
    refused with ResourceCapError before the first step.
    """
    if num_steps < 0:
        raise UsageError("num_steps must be >= 0")
    _check_irr_input(f0)
    p = f0.p
    kc = classify_k(p, k)
    if kc.name == GENERIC:
        raise UsageError(
            f"k={k} mod {p} is {kc.name}; sequences need class C1, C2, C3, or C3-"
        )
    # C1 has no depth pair, so nothing bounds its stalls and it is not raced.
    racing = kc.spec.disc is not None
    rounds = 0
    if racing:
        dp = depths(p, kc.k, f0.degree)
        rounds = dp.s_bound
        if num_steps > dp.st_bound:
            level = _pattern_level(kc.spec.pattern, num_steps - dp.st_bound)
            # n << level > cap, without forming a huge n << level
            if level >= MAX_POLY_DEGREE.bit_length() or f0.degree << level > MAX_POLY_DEGREE:
                raise ResourceCapError(
                    f"{num_steps} steps from degree {f0.degree} double the degree at "
                    f"least {level} times, past the degree cap of {MAX_POLY_DEGREE}"
                )

    steps: list[Step] = [Step(0, f0, KIND_INITIAL)]
    while len(steps) <= num_steps:
        chosen, alternate, kind = _step(steps[-1].poly, kc.k)
        run = [Step(len(steps), chosen, kind)]
        # A doubling (no alternate) ends the chance to race; a ramified step
        # (both factors equal) leaves nothing to choose and keeps it open.
        if racing and alternate != chosen:
            racing = False
            if alternate is not None:
                run = _race(steps, run[0], alternate, kc.k, rounds)
        steps.extend(run[: num_steps + 1 - len(steps)])

    return SequenceRecord(
        p=p, k=kc.k, class_name=kc.name, seed=seed, steps=tuple(steps)
    )


def _race(
    steps: list[Step], first: Step, alternate: Poly, k: int, rounds: int
) -> list[Step]:
    """Follow first factors from both factors of a split in lockstep, and
    return the run (the split step up to its doubling) of the factor that
    doubles strictly first, or of `first` on a tie.

    The functional graph of x -> k(x + 1/x) is cycles with perfect binary
    trees of depth e0 or e1 hanging off them.  A split whose root lies on a
    cycle has one factor on the cycle, whose first factors can stall for
    ever, and one at depth 1 of a tree, which reaches a leaf and doubles
    within max(e0, e1) = `rounds` steps; a root off the cycle has both
    factors at the same depth, so they tie.  A doubled step's root lies on
    no cycle, so after the first doubling no choice changes the degrees.
    """
    runs = ([first], [Step(first.index, alternate, KIND_BACKTRACKED)])
    for _ in range(rounds):
        for run in runs:
            last = run[-1]
            chosen, _, kind = _step(last.poly, k)
            run.append(Step(last.index + 1, chosen, kind))
            if kind == KIND_DOUBLED:
                return run
    raise TheoremViolationError(
        f"neither factor of the split at step {first.index} doubles within "
        f"s_bound={rounds} steps; the degree schedule bound appears to fail: "
        f"{_trace_text(steps + runs[0])}"
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def observed_flat_steps(record: SequenceRecord) -> tuple[int, int]:
    """(s, t): how many polynomials after f_0 sit at the starting degree n and
    at 2n respectively."""
    n = record.steps[0].degree
    degs = [s.degree for s in record.steps[1:]]
    return sum(1 for d in degs if d == n), sum(1 for d in degs if d == 2 * n)


def _broken_link(prev: Poly, cur: Poly, k: int) -> Optional[str]:
    """Why cur, of degree deg(prev) or 2 deg(prev), is not certified
    irreducible by an irreducible prev; None when it is."""
    chi = transform_character(prev, k)
    big = qk_transform(prev, k)
    if cur.degree == big.degree:
        if chi != -1:
            return f"the transform of the previous step is reducible (character {chi})"
        if cur != big:
            return "it is not the transform of the previous step"
        return None
    if chi == -1:
        return "the transform of the previous step is irreducible (character -1)"
    # the transform is cur * cur* for either factor of a split (chi = +1) and
    # for the one factor x -+ 1 of a ramified step (chi = 0)
    if _reciprocal_cofactor(list(cur.coeffs), list(big.coeffs), big.p) is None:
        return "it does not divide the transform of the previous step"
    return None


def _certificate_violations(record: SequenceRecord) -> list[str]:
    """The breaks in the record's irreducibility certificate, as
    human-readable strings: f_0 is a constant or fails Rabin's test, or a
    later step is a constant, or its degree is neither equal to nor double
    its predecessor's, or it is not linked to its predecessor
    (_broken_link).  Empty when every step is certified irreducible."""
    violations = []
    f0 = record.steps[0].poly
    if f0.degree < 1 or not is_irreducible(f0):
        violations.append("step 0: polynomial fails the irreducibility test")
    for prev, cur in zip(record.steps, record.steps[1:]):
        if cur.degree < 1:
            violations.append(f"step {cur.index}: a constant is not irreducible")
            continue
        if cur.degree not in (prev.degree, 2 * prev.degree):
            violations.append(
                f"step {cur.index}: degree {cur.degree} is neither equal to nor "
                f"double the previous degree {prev.degree}"
            )
            continue
        broken = _broken_link(prev.poly, cur.poly, record.k)
        if broken:
            violations.append(
                f"step {cur.index}: polynomial fails the irreducibility certificate: {broken}"
            )
    return violations


def _pattern_level(pattern: str, offset: int) -> int:
    """How many times the class pattern has doubled the starting degree at
    the step `offset` >= 1 steps past the last flat step (index s + t)."""
    if pattern == CLASSES["C2"].pattern:
        return (offset + 1) // 2 + 1
    return offset + 1


def verify_against_schedule(record: SequenceRecord) -> list[str]:
    """Check a record against the schedule predict_schedule gives for its
    (p, k) and starting degree; violations are returned as human-readable
    strings, an empty list meaning full conformance.  A record whose
    multiplier has no schedule (C1) raises UsageError.

    Checks: the irreducibility certificate of every step (f_0 passes Rabin's
    test; a step of double degree equals the transform of its predecessor,
    whose character is -1; a step f of equal degree is monic with f * f*
    equal to that transform, whose character is not -1), degree monotonicity
    and doubling ratios, s <= s_bound, s + t <= st_bound, and the exact class
    pattern for all steps after s + t.
    """
    n = record.steps[0].degree
    report = predict_schedule(record.p, record.k, n)
    violations = _certificate_violations(record)
    s, t = observed_flat_steps(record)
    if s > report.s_bound:
        violations.append(f"observed s={s} exceeds s_bound={report.s_bound}")
    if s + t > report.st_bound:
        violations.append(f"observed s+t={s + t} exceeds st_bound={report.st_bound}")
    base = s + t
    for step in record.steps[base + 1:]:
        expected = n << _pattern_level(report.pattern, step.index - base)
        if step.degree != expected:
            violations.append(
                f"step {step.index}: degree {step.degree} deviates from the "
                f"{report.pattern} pattern (expected {expected})"
            )
    return violations
