"""Iterative construction of irreducible-polynomial sequences by repeated
degree-doubling transforms, with factor selection, stall detection, and
backtracking.

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
long the degree may stay flat: whenever a split at step j is not followed by
a doubling within max(e0, e1) further steps, the generator rewinds to step j
and takes the alternate factor instead (recorded with kind "backtracked").
Each split is rewound at most once and a small global budget guards against
a broken schedule, which would falsify the underlying theory and is reported
as a theorem violation carrying the full trace.

Class C1 sequences are generated with no schedule enforcement; only the
irreducibility and degree-ratio invariants apply.

A record is verified as a certificate chain: f_0 passes Rabin's test, and
each later step is the transform of its predecessor (chi = -1) or a monic
divisor of it of the same degree (chi != -1), which makes it irreducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .config import field_cap
from .errors import (
    MalformedInputError,
    ResourceCapError,
    TheoremViolationError,
    UsageError,
)
from .extfield import FqElem
from .ffpoly import Poly, equal_degree_factorize, inv_mod, is_irreducible
from .qk import (
    CLASSES,
    GENERIC,
    INFINITY,
    classify_k,
    qk_transform,
    theta_eval,
    transform_character,
)
from .cm_arith import DepthPair, depths

KIND_INITIAL = "initial"
KIND_DOUBLED = "transform-irreducible"
KIND_SPLIT_FIRST = "split-took-first"
KIND_SPLIT_SECOND = "split-took-second"
KIND_BACKTRACKED = "backtracked"

STEP_KINDS = (
    KIND_INITIAL,
    KIND_DOUBLED,
    KIND_SPLIT_FIRST,
    KIND_SPLIT_SECOND,
    KIND_BACKTRACKED,
)

RNG_NAME = "mt19937"

# Total rewinds allowed in one generate_sequence call.  Theory predicts at
# most one rewind is ever needed, so exceeding this signals a broken bound.
REWIND_BUDGET = 8


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

    @property
    def num_steps(self) -> int:
        return len(self.steps) - 1

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
            p = int(data["p"])
            k = int(data["k"])
            class_name = str(data["class"])
            seed = int(data["seed"])
            raw_steps = data["steps"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"record is missing or mistypes a field: {exc}")
        if not isinstance(raw_steps, list) or not raw_steps:
            raise MalformedInputError("record field 'steps' must be a non-empty list")
        steps = []
        for entry in raw_steps:
            try:
                i = int(entry["i"])
                coeffs = tuple(int(c) for c in entry["coeffs"])
                degree = int(entry["degree"])
                kind = str(entry["kind"])
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedInputError(f"bad step entry: {exc}")
            poly = Poly(coeffs, p)
            if poly.degree != degree:
                raise MalformedInputError(
                    f"step {i}: declared degree {degree} but coefficients give {poly.degree}"
                )
            if not is_irreducible(poly):
                raise MalformedInputError(f"step {i}: polynomial is not irreducible")
            steps.append(Step(i, poly, kind))
        return cls(p=p, k=k, class_name=class_name, seed=seed, steps=tuple(steps))


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


def next_poly(f: Poly, k: int, seed: int = 0) -> tuple[Poly, Optional[Poly], str]:
    """One construction step: transform f and resolve the dichotomy.

    f must be monic, irreducible (checked by Rabin's test) and not x.
    Returns (chosen, alternate, kind).  When the transform is irreducible the
    degree doubles and there is no alternate.  Otherwise the transform splits
    into two monic irreducibles of degree n = deg f; the canonically first is
    chosen and the other returned as the alternate.  A transform that fails
    the dichotomy altogether is a theorem violation.
    """
    _check_irr_input(f)
    return _step(f, k, seed)


def _step(f: Poly, k: int, seed: int) -> tuple[Poly, Optional[Poly], str]:
    """next_poly for an f already known to be irreducible: the transform
    character decides the step, with no irreducibility test."""
    big = qk_transform(f, k)
    chi = transform_character(f, k)
    if chi == -1:
        return big, None, KIND_DOUBLED
    p = f.p
    n = f.degree
    if chi == 0:
        # A repeated root of the transform is a double preimage under theta,
        # i.e. one of the critical points +-1, whose images are +-2k.  So only
        # the ramified inputs x -+ 2k have a repeated factor: their transform
        # is the square (x -+ 1)^2, and both "factors" coincide.
        root = Poly((f.coefficient(0) * inv_mod(2 * k, p), 1), p)
        return root, root, KIND_SPLIT_FIRST
    try:
        parts = equal_degree_factorize(big, n, seed=seed)
    except MalformedInputError as exc:
        raise TheoremViolationError(
            f"transform of {f} violates the split dichotomy: {exc}"
        )
    if len(parts) != 2 or any(h.degree != n for h in parts) or parts[0] == parts[1]:
        raise TheoremViolationError(
            f"transform of {f} did not split into two distinct degree-{n} factors"
        )
    return parts[0], parts[1], KIND_SPLIT_FIRST


# ---------------------------------------------------------------------------
# full generation with backtracking
# ---------------------------------------------------------------------------


@dataclass
class _Watch:
    """Stall watch for the split at step `index`; `alternate` is consumed by
    the one rewind this split is allowed."""

    index: int
    alternate: Optional[Poly]
    rewound: bool = False


def _trace_text(steps: list[Step]) -> str:
    degrees = ",".join(str(s.degree) for s in steps)
    kinds = ",".join(s.kind for s in steps)
    return f"degrees [{degrees}] kinds [{kinds}]"


def generate_sequence(f0: Poly, k: int, num_steps: int, seed: int = 0) -> SequenceRecord:
    """Generate f_0 .. f_{num_steps} with stall detection and backtracking.

    f0 must be monic, irreducible (checked by Rabin's test) and not x.
    The multiplier must classify as C1, C2, C3, or C3-.  For the three
    classes with a depth pair, a split that is not followed by a degree
    doubling within max(e0, e1) further steps is rewound (once per split);
    exhausting the rewind budget raises a theorem violation with the trace.
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
    enforce = kc.spec.disc is not None
    window = depths(p, kc.k, f0.degree).s_bound if enforce else 0

    steps: list[Step] = [Step(0, f0, KIND_INITIAL)]
    watches: list[_Watch] = []
    rewinds = 0

    i = 1
    while i <= num_steps:
        chosen, alternate, kind = _step(steps[-1].poly, kc.k, seed)
        steps.append(Step(i, chosen, kind))
        if alternate is None:
            watches.clear()
        else:
            watches.append(_Watch(i, alternate))
            if enforce:
                rewound_to = _handle_stall(steps, watches, window, i)
                if rewound_to is not None:
                    rewinds += 1
                    if rewinds > REWIND_BUDGET:
                        raise TheoremViolationError(
                            "rewind budget exhausted; the degree schedule bound "
                            f"appears to fail: {_trace_text(steps)}"
                        )
                    i = rewound_to
        i += 1

    return SequenceRecord(
        p=p, k=kc.k, class_name=kc.name, seed=seed, steps=tuple(steps)
    )


def _handle_stall(
    steps: list[Step], watches: list[_Watch], window: int, i: int
) -> Optional[int]:
    """Detect and repair a stall after emitting the split step i.

    A watch placed at split j expires when step j + window is reached with no
    doubling in between (a doubling clears all watches).  The earliest expired
    un-rewound split is rewound: the record is truncated to j - 1 and the
    split's alternate emitted at j with kind "backtracked".  Returns the index
    rewound to, or None.  Expired watches that were already rewound hand
    responsibility to the next split; if the stall truly persists, the caller's
    rewind budget converts it into a theorem violation.
    """
    while watches and i - watches[0].index >= window:
        expired = watches[0]
        if expired.rewound:
            # Already swapped once; pass responsibility to the next split.
            watches.pop(0)
            continue
        target = expired.index
        alternate = expired.alternate
        assert alternate is not None
        del steps[target:]
        steps.append(Step(target, alternate, KIND_BACKTRACKED))
        watches[:] = [w for w in watches if w.index < target]
        watches.append(_Watch(target, None, rewound=True))
        return target
    return None


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
    if not cur.is_monic or not (big % cur).is_zero:
        return "it does not divide the transform of the previous step"
    return None


def verify_against_schedule(record: SequenceRecord, report: ScheduleReport) -> list[str]:
    """Check a record against its predicted schedule; violations are returned
    as human-readable strings, an empty list meaning full conformance.

    Checks: the irreducibility certificate of every step (f_0 passes Rabin's
    test; a step of double degree equals the transform of its predecessor,
    whose character is -1; a step of equal degree is a monic divisor of that
    transform, whose character is not -1), degree monotonicity and doubling
    ratios, s <= s_bound, s + t <= st_bound, and the exact class pattern for
    all steps after s + t.
    """
    n = record.steps[0].degree
    if (record.p, record.k, n) != (report.p, report.k, report.n):
        raise UsageError(
            f"record ({record.p},{record.k},{n}) and report "
            f"({report.p},{report.k},{report.n}) disagree on (p, k, n)"
        )
    violations: list[str] = []
    if not is_irreducible(record.steps[0].poly):
        violations.append("step 0: polynomial fails the irreducibility test")
    for prev, cur in zip(record.steps, record.steps[1:]):
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
    s, t = observed_flat_steps(record)
    if s > report.s_bound:
        violations.append(f"observed s={s} exceeds s_bound={report.s_bound}")
    if s + t > report.st_bound:
        violations.append(f"observed s+t={s + t} exceeds st_bound={report.st_bound}")
    base = s + t
    for step in record.steps[base + 1:]:
        offset = step.index - base
        if report.pattern == CLASSES["C2"].pattern:
            level = (offset + 1) // 2 + 1
        else:
            level = offset + 1
        expected = n << level
        if step.degree != expected:
            violations.append(
                f"step {step.index}: degree {step.degree} deviates from the "
                f"{report.pattern} pattern (expected {expected})"
            )
    return violations


# ---------------------------------------------------------------------------
# orbit analysis
# ---------------------------------------------------------------------------


def is_periodic(beta, k: int) -> tuple[bool, int, int]:
    """Brent cycle detection on the orbit of beta under x -> k(x + 1/x).

    Accepts a field element or INFINITY.  Returns (periodic, tail, cycle_len)
    where tail is the distance from beta to the cycle (0 iff periodic) and
    cycle_len the length of the cycle it falls into.
    """
    limit = field_cap()
    if beta is INFINITY:
        return True, 0, 1
    if not isinstance(beta, FqElem):
        raise UsageError(f"expected a field element or INFINITY, got {type(beta).__name__}")
    if beta.field.q > limit:
        raise ResourceCapError(
            f"field size {beta.field.q} exceeds the configured cap {limit}; "
            "raise QKFORGE_CAP to allow larger orbits"
        )

    def step(x):
        return theta_eval(x, k)

    # Brent: find the cycle length lam, then the tail length mu.
    power = lam = 1
    tortoise = beta
    hare = step(beta)
    while not _same(tortoise, hare):
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        lam += 1
    tortoise = hare = beta
    for _ in range(lam):
        hare = step(hare)
    mu = 0
    while not _same(tortoise, hare):
        tortoise = step(tortoise)
        hare = step(hare)
        mu += 1
    return mu == 0, mu, lam


def _same(a, b) -> bool:
    if a is INFINITY or b is INFINITY:
        return a is b
    return a == b
