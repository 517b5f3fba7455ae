"""Tests for sequence generation: stepping, scheduling, backtracking,
record serialization, and orbit analysis."""

import json
import random
import sys
import time

import pytest

import qkforge.seqgen as seqgen
from qkforge.cli import main
from qkforge.cm_arith import DepthPair, depths
from qkforge.config import MAX_POLY_DEGREE
from qkforge.errors import (
    MalformedInputError,
    ResourceCapError,
    TheoremViolationError,
    UnsupportedPrimeError,
    UsageError,
)
from qkforge.extfield import ExtField
from qkforge.ffpoly import (
    Poly,
    is_irreducible,
    is_prime,
    smallest_irreducible,
)
from qkforge.qk import CLASSES, find_k, qk_transform
from qkforge.seqgen import (
    KIND_BACKTRACKED,
    KIND_DOUBLED,
    KIND_INITIAL,
    KIND_SPLIT_FIRST,
    RNG_NAME,
    STEP_KINDS,
    SequenceRecord,
    Step,
    generate_sequence,
    observed_flat_steps,
    verify_against_schedule,
)

from oracle import INFINITY, is_periodic, poly_divmod, random_irreducible, theta_eval

P = 53
F0 = Poly((51, 3, 0, 0, 0, 1), P)  # x^5 + 3x + 51
PATTERN_C2 = CLASSES["C2"].pattern
PATTERN_C3 = CLASSES["C3"].pattern


def lin(a: int, p: int) -> Poly:
    """The monic linear polynomial with root a."""
    return Poly(((-a) % p, 1), p)


def prime_field(p: int) -> ExtField:
    return ExtField(Poly((0, 1), p))


# ---------------------------------------------------------------------------
# constants and vocabulary
# ---------------------------------------------------------------------------


def test_pattern_tokens_are_fixed_strings():
    assert PATTERN_C2 == "pairs-every-two-steps"
    assert PATTERN_C3 == "one-per-step"
    assert CLASSES["C3-"].pattern == PATTERN_C3


def test_rng_is_named_in_metadata_vocabulary():
    assert RNG_NAME == "mt19937"


def test_step_kind_vocabulary():
    assert STEP_KINDS == (
        "initial",
        "transform-irreducible",
        "split-took-first",
        "backtracked",
    )


# ---------------------------------------------------------------------------
# schedule prediction
# ---------------------------------------------------------------------------


def test_schedule_for_paired_class():
    rep = depths(53, 15, 5)
    assert (rep.p, rep.n) == (53, 5)
    assert rep.class_name == "C2"
    assert (rep.e0, rep.e1) == (2, 3)
    assert rep.s_bound == 3
    assert rep.st_bound == 5
    assert rep.pattern == PATTERN_C2


def test_schedule_for_steady_class():
    rep = depths(53, 7, 5)
    assert rep.class_name == "C3"
    assert (rep.e0, rep.e1) == (4, 1)
    assert rep.s_bound == 4
    assert rep.st_bound == 5
    assert rep.pattern == PATTERN_C3
    assert depths(53, 46, 5).pattern == PATTERN_C3  # C3-


def test_schedule_small_fields():
    rep = depths(11, 2, 1)
    assert (rep.class_name, rep.e0, rep.e1, rep.pattern) == ("C3", 1, 2, PATTERN_C3)
    rep = depths(13, 4, 1)
    assert (rep.class_name, rep.e0, rep.e1, rep.pattern) == ("C2", 2, 3, PATTERN_C2)


def test_schedule_rejects_classes_without_schedule():
    with pytest.raises(UsageError):
        depths(53, 27, 1)  # half-of-one multiplier: no depth pair
    with pytest.raises(UsageError):
        depths(53, 3, 1)  # unclassified multiplier


# ---------------------------------------------------------------------------
# single-step construction
# ---------------------------------------------------------------------------


def test_next_poly_doubles_when_transform_is_irreducible():
    chosen, alternate, kind = seqgen._step(F0, 15)
    assert kind == KIND_DOUBLED
    assert alternate is None
    assert chosen == qk_transform(F0, 15)
    assert chosen.degree == 10
    assert chosen.coeffs == (1, 0, 5, 0, 5, 12, 5, 0, 5, 0, 1)


def test_next_poly_split_gives_two_distinct_cofactors():
    prev = qk_transform(F0, 15)  # degree 10, splits on the next step
    chosen, alternate, kind = seqgen._step(prev, 15)
    assert kind == KIND_SPLIT_FIRST
    assert alternate is not None
    assert chosen != alternate
    assert chosen.degree == alternate.degree == 10
    assert chosen * alternate == qk_transform(prev, 15)
    # canonical order: the chosen factor compares lexicographically first
    assert chosen.coeffs < alternate.coeffs
    assert chosen.coeffs == (28, 7, 17, 0, 14, 2, 40, 41, 24, 13, 1)


def test_next_poly_ramified_inputs_square_to_linear_roots():
    # x - 2k transforms to (x - 1)^2; x + 2k transforms to (x + 1)^2
    chosen, alternate, kind = seqgen._step(lin(30, 53), 15)
    assert (chosen, alternate, kind) == (lin(1, 53), lin(1, 53), KIND_SPLIT_FIRST)
    chosen, alternate, kind = seqgen._step(lin(23, 53), 15)
    assert (chosen, alternate, kind) == (lin(-1, 53), lin(-1, 53), KIND_SPLIT_FIRST)
    for p in (3, 5, 7, 11, 13, 29, 53):
        for k in range(1, p):
            for sign in (1, -1):
                f = lin(sign * 2 * k, p)
                chosen, alternate, kind = seqgen._step(f, k)
                assert (chosen, alternate, kind) == (lin(sign, p), lin(sign, p), KIND_SPLIT_FIRST)
                assert chosen * chosen == qk_transform(f, k)


def test_next_poly_rejects_bad_inputs():
    with pytest.raises(UsageError):
        generate_sequence(Poly((52, 0, 1), 53), 15, 0)  # x^2 - 1 is reducible
    with pytest.raises(UsageError):
        generate_sequence(Poly((0, 1), 53), 15, 0)  # x itself is excluded
    with pytest.raises(UsageError):
        generate_sequence(Poly((1, 2), 53), 15, 0)  # not monic
    with pytest.raises(UsageError):
        generate_sequence(Poly((7,), 53), 15, 0)  # constant


# ---------------------------------------------------------------------------
# full generation
# ---------------------------------------------------------------------------


def test_generate_paired_class_reference_prefix():
    rec = generate_sequence(F0, 15, 6)
    assert rec.degrees() == [5, 10, 10, 10, 20, 20, 40]
    assert [s.kind for s in rec.steps] == [
        KIND_INITIAL,
        KIND_DOUBLED,
        KIND_SPLIT_FIRST,
        KIND_SPLIT_FIRST,
        KIND_DOUBLED,
        KIND_SPLIT_FIRST,
        KIND_DOUBLED,
    ]
    assert (rec.p, rec.k, rec.class_name, rec.seed) == (53, 15, "C2", 0)
    assert generate_sequence(F0, 15 - P, 6) == rec  # the record keeps k mod p
    assert len(rec.steps) - 1 == 6
    assert observed_flat_steps(rec) == (0, 3)
    assert verify_against_schedule(rec) == []


def test_generate_steady_class_reference_prefix():
    rec = generate_sequence(F0, 7, 4)
    assert rec.degrees() == [5, 10, 20, 40, 80]
    assert all(s.kind == KIND_DOUBLED for s in rec.steps[1:])
    assert rec.class_name == "C3"
    assert observed_flat_steps(rec) == (0, 1)
    assert verify_against_schedule(rec) == []


def test_generate_zero_steps_returns_only_the_start():
    rec = generate_sequence(F0, 15, 0)
    assert rec.degrees() == [5]
    assert rec.steps[0].kind == KIND_INITIAL
    assert len(rec.steps) - 1 == 0


def test_generate_every_step_divides_transform_of_predecessor():
    rec = generate_sequence(F0, 15, 6)
    for prev, cur in zip(rec.steps, rec.steps[1:]):
        assert poly_divmod(qk_transform(prev.poly, 15), cur.poly)[1].is_zero


def test_generate_is_deterministic():
    a = generate_sequence(F0, 15, 5).to_json()
    b = generate_sequence(F0, 15, 5).to_json()
    assert a == b


def test_generate_content_is_seed_independent_but_seed_is_recorded():
    # factor choice is canonical (sorted), so the seed only tags the record
    a = generate_sequence(F0, 15, 4, seed=0)
    b = generate_sequence(F0, 15, 4, seed=7)
    assert a.steps == b.steps
    assert (a.seed, b.seed) == (0, 7)


def test_generate_half_of_one_class_runs_without_schedule():
    rec = generate_sequence(lin(2, 53), 27, 4)
    assert rec.class_name == "C1"
    for prev, cur in zip(rec.steps, rec.steps[1:]):
        assert cur.degree in (prev.degree, 2 * prev.degree)


def test_generate_rejects_unclassified_multiplier():
    with pytest.raises(UsageError):
        generate_sequence(F0, 3, 2)


def test_generate_rejects_negative_step_count():
    with pytest.raises(UsageError):
        generate_sequence(F0, 15, -1)


def test_generate_rejects_reducible_start():
    with pytest.raises(UsageError):
        generate_sequence(Poly((52, 0, 1), 53), 15, 2)


# ---------------------------------------------------------------------------
# the first split's race
# ---------------------------------------------------------------------------


def test_stalled_choice_is_rewound_and_final_record_conforms():
    # starting from x - 8 over F_11 the canonically-first factor of the first
    # split lies on a cycle, so the race keeps the other one
    rec = generate_sequence(lin(8, 11), 2, 6)
    assert rec.degrees() == [1, 1, 1, 2, 4, 8, 16]
    assert rec.steps[1].kind == KIND_BACKTRACKED
    assert KIND_BACKTRACKED not in [s.kind for s in rec.steps[2:]]
    assert verify_against_schedule(rec) == []
    for prev, cur in zip(rec.steps, rec.steps[1:]):
        assert poly_divmod(qk_transform(prev.poly, 2), cur.poly)[1].is_zero


def test_rewind_also_occurs_for_paired_class():
    rec = generate_sequence(lin(9, 13), 4, 6)
    assert rec.degrees() == [1, 1, 1, 2, 2, 2, 4]
    assert rec.steps[1].kind == KIND_BACKTRACKED
    assert verify_against_schedule(rec) == []


def test_race_that_neither_factor_wins_is_a_theorem_violation(monkeypatch):
    # from x - 8 over F_11 the kept factor needs two steps to double, so a
    # depth pair (1, 0) leaves the race without a winner
    monkeypatch.setattr(
        seqgen, "depths", lambda p, k, n: DepthPair(1, 0, p, n, "C3")
    )
    with pytest.raises(TheoremViolationError) as info:
        generate_sequence(lin(8, 11), 2, 6)
    message = str(info.value)
    assert "split at step 1" in message
    assert "degrees [1,1,1] kinds [initial,split-took-first,split-took-first]" in message


def test_failed_split_is_a_theorem_violation(monkeypatch):
    def fail(f, k):
        raise MalformedInputError("forced")

    monkeypatch.setattr(seqgen, "equal_degree_factorize", fail)
    with pytest.raises(TheoremViolationError, match="violates the split dichotomy: forced"):
        generate_sequence(F0, 15, 2)


def test_step_refuses_a_transform_over_the_degree_cap(monkeypatch):
    # both chains run 5, 10, 20, 40, 80: with the cap at 40 the fourth step
    # would form a transform of degree 80.  k = 27 is C1, which has no
    # schedule; k = 7 is C3 with st_bound = 5, so four steps pass the
    # up-front refusal and the step itself refuses
    monkeypatch.setattr(seqgen, "MAX_POLY_DEGREE", 40)
    for k in (27, 7):
        assert generate_sequence(F0, k, 3).degrees() == [5, 10, 20, 40]
        with pytest.raises(ResourceCapError, match="degree cap of 40"):
            generate_sequence(F0, k, 4)


def test_generate_refuses_a_chain_past_the_degree_cap_before_any_step(monkeypatch):
    # past st_bound = 5 flat steps the pattern puts step N at degree at least
    # 5 << (N - 4) for k = 7 (C3) and 5 << ((N - 4) // 2 + 1) for k = 15 (C2)
    def unreachable(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(seqgen, "MAX_POLY_DEGREE", 40)
    monkeypatch.setattr(seqgen, "_step", unreachable)
    for k, last_allowed in ((7, 7), (15, 9)):
        with pytest.raises(AssertionError):
            generate_sequence(F0, k, last_allowed)
        with pytest.raises(ResourceCapError, match="degree cap of 40"):
            generate_sequence(F0, k, last_allowed + 1)
    with pytest.raises(ResourceCapError):
        generate_sequence(F0, 7, 10**18)


def _root_is_periodic(f: Poly, k: int) -> bool:
    return is_periodic(ExtField(f).gen(), k)[0]


def _seeded_schedule_starts(count: int) -> list[tuple[int, int, Poly]]:
    """(p, k, f0) with k of class C2, C3 or C3- mod a prime p < 400, f0 of
    degree <= 3 or a ramified x -+ 2k; only schedules with s + t <= 5, so
    that no chain outgrows a quick Cantor-Zassenhaus split."""
    rng = random.Random(1)
    primes = [p for p in range(3, 400) if is_prime(p)]
    starts = []
    while len(starts) < count:
        p = rng.choice(primes)
        try:
            k = rng.choice(find_k(p, rng.choice(("C2", "C3", "C3-"))))
        except UnsupportedPrimeError:
            continue
        if rng.random() < 0.25:
            f0 = lin(rng.choice((2 * k, -2 * k)), p)
        else:
            f0 = random_irreducible(p, rng.randint(1, 3), rng)
            if f0 == lin(0, p):
                continue
        if depths(p, k, f0.degree).st_bound <= 5:
            starts.append((p, k, f0))
    return starts


def test_seeded_chains_conform_are_prefix_stable_and_race_off_the_cycle():
    raced = on_cycle = 0
    for p, k, f0 in _seeded_schedule_starts(60):
        num_steps = depths(p, k, f0.degree).st_bound + 2
        rec = generate_sequence(f0, k, num_steps)
        case = (p, k, f0)
        assert verify_against_schedule(rec) == [], case
        # the splits rely on the certificate: Rabin's test agrees on every member
        assert all(is_irreducible(s.poly) for s in rec.steps), case
        for m in range(num_steps):
            assert generate_sequence(f0, k, m).steps == rec.steps[: m + 1], (case, m)
        if p**f0.degree > 10**4:
            continue
        # the first split before any doubling whose two factors differ
        for prev, cur in zip(rec.steps, rec.steps[1:]):
            first, alternate, _ = seqgen._step(prev.poly, k)
            if alternate is None:
                break
            if alternate == first:
                continue
            raced += 1
            cycle_root = _root_is_periodic(prev.poly, k)
            first_cycles = _root_is_periodic(first, k)
            on_cycle += cycle_root
            # a root on a cycle has one preimage on it; off it, neither is
            assert first_cycles + _root_is_periodic(alternate, k) == cycle_root, case
            # the second factor is kept exactly when the first is on the cycle
            assert cur.poly == (alternate if first_cycles else first), case
            assert (cur.kind == KIND_BACKTRACKED) == first_cycles, case
            break
    assert raced >= 10 and on_cycle >= 5


# ---------------------------------------------------------------------------
# record validation and serialization
# ---------------------------------------------------------------------------


def test_record_json_layout():
    rec = generate_sequence(F0, 15, 2)
    d = rec.to_json_dict()
    assert list(d.keys()) == ["p", "k", "class", "seed", "rng", "steps"]
    assert d["rng"] == RNG_NAME
    assert d["class"] == "C2"
    for entry in d["steps"]:
        assert list(entry.keys()) == ["i", "coeffs", "degree", "kind"]
        assert entry["degree"] == len(entry["coeffs"]) - 1


def test_record_json_round_trip():
    rec = generate_sequence(F0, 15, 3)
    back = SequenceRecord.from_json_dict(json.loads(rec.to_json()))
    assert back == rec


def test_record_json_round_trip_with_backtracked_kind():
    rec = generate_sequence(lin(8, 11), 2, 4)
    back = SequenceRecord.from_json_dict(json.loads(rec.to_json()))
    assert back == rec
    assert back.steps[1].kind == KIND_BACKTRACKED


def test_record_parsing_rejects_malformed_input():
    rec = generate_sequence(F0, 15, 1)
    good = rec.to_json_dict()

    missing = dict(good)
    del missing["k"]
    with pytest.raises(MalformedInputError):
        SequenceRecord.from_json_dict(missing)

    not_a_list = dict(good, steps={})
    with pytest.raises(MalformedInputError):
        SequenceRecord.from_json_dict(not_a_list)

    empty = dict(good, steps=[])
    with pytest.raises(MalformedInputError):
        SequenceRecord.from_json_dict(empty)

    entry_missing_kind = json.loads(rec.to_json())
    del entry_missing_kind["steps"][0]["kind"]
    with pytest.raises(MalformedInputError):
        SequenceRecord.from_json_dict(entry_missing_kind)

    degree_lies = json.loads(rec.to_json())
    degree_lies["steps"][1]["degree"] = 3
    with pytest.raises(MalformedInputError):
        SequenceRecord.from_json_dict(degree_lies)

    # constant steps are refused by the certificate, not by a transform of
    # degree 0 that would raise a bare UsageError
    for steps, broken in (([0], "step 0: polynomial fails"), ([1, 2], "step 2: a constant")):
        constant = json.loads(generate_sequence(F0, 15, 2).to_json())
        for j in steps:
            constant["steps"][j].update(coeffs=[1], degree=0)
        with pytest.raises(MalformedInputError, match=broken):
            SequenceRecord.from_json_dict(constant)


def test_record_parsing_accepts_only_json_integers(tmp_path):
    # a record that `generate --out` wrote reads back unchanged
    out = tmp_path / "record.json"
    assert main(["generate", "--p", "53", "--k", "15", "--f0", "51,3,0,0,0,1",
                 "--steps", "2", "--out", str(out)]) == 0
    good = json.loads(out.read_text())
    assert SequenceRecord.from_json_dict(good) == generate_sequence(F0, 15, 2)

    top = [("p", True), ("p", "53"), ("p", 53.9), ("k", "15"), ("k", 15.0),
           ("seed", True), ("seed", "0"), ("seed", 0.5)]
    for field, value in top:
        data = dict(good, **{field: value})
        with pytest.raises(MalformedInputError, match="mistypes a field"):
            SequenceRecord.from_json_dict(data)
    f0 = good["steps"][0]["coeffs"]
    # "51" used to read as 5 + x, which matches degree 1
    entries = [{"i": False}, {"i": "0"}, {"i": 0.0}, {"degree": "5"}, {"degree": 5.9},
               {"coeffs": "51", "degree": 1}, {"coeffs": [51.9] + f0[1:]},
               {"coeffs": [True] + f0[1:]}, {"coeffs": ["51"] + f0[1:]},
               {"coeffs": {"0": 51}}, {"coeffs": tuple(f0)}]
    for change in entries:
        data = json.loads(json.dumps(good))
        data["steps"][0].update(change)
        with pytest.raises(MalformedInputError, match="bad step entry"):
            SequenceRecord.from_json_dict(data)


def test_record_parsing_checks_the_class_against_k(tmp_path):
    # a k = 15 record over F_53 is of class C2, and says so
    out = tmp_path / "record.json"
    assert main(["generate", "--p", "53", "--k", "15", "--f0", "51,3,0,0,0,1",
                 "--steps", "2", "--out", str(out)]) == 0
    good = json.loads(out.read_text())
    assert good["class"] == "C2"
    assert SequenceRecord.from_json_dict(good).class_name == "C2"
    for wrong in (7, None, "C3", "c2"):
        with pytest.raises(MalformedInputError, match="is not the class of k=15"):
            SequenceRecord.from_json_dict(dict(good, **{"class": wrong}))


def test_record_parsing_checks_irreducibility_unless_disabled():
    rec = generate_sequence(F0, 15, 1)
    data = json.loads(rec.to_json())
    # replace step 1 with a reducible polynomial of the declared degree
    reducible = (F0 * F0).coeffs
    data["steps"][1]["coeffs"] = list(reducible)
    data["steps"][1]["degree"] = 10
    with pytest.raises(MalformedInputError, match="step 1: .* not the transform"):
        SequenceRecord.from_json_dict(data)


def test_record_parsing_refuses_an_irreducible_but_unlinked_step():
    # an irreducible degree-10 polynomial that does not divide the split
    # transform of f_1 passes Rabin's test, but not the certificate chain
    f1 = qk_transform(F0, 15)
    stranger = random_irreducible(53, 10, random.Random(5))
    data = _forged_after(f1, stranger).to_json_dict()
    assert is_irreducible(stranger)
    with pytest.raises(MalformedInputError, match="step 2: .* does not divide"):
        SequenceRecord.from_json_dict(data)


def test_record_parsing_runs_rabin_only_on_f0(monkeypatch):
    # the 12-step k = 15 record reads back with one Rabin's test, on f_0
    rec = generate_sequence(F0, 15, 12)
    rabin = _count_calls(monkeypatch, "is_irreducible")
    assert SequenceRecord.from_json_dict(json.loads(rec.to_json())) == rec
    assert rabin == [(F0,)]


def test_record_parsing_refuses_a_step_over_the_degree_cap_before_any_transform(monkeypatch):
    # steps x^(2^i) doubling from degree 1 to twice the cap: the step over the
    # cap is refused before its Poly is built, so no predecessor's transform
    # (up to the cap itself) is ever formed
    def unreachable(*args):
        raise AssertionError("the reader formed a transform")

    monkeypatch.setattr(seqgen, "qk_transform", unreachable)
    steps = [{"i": i, "coeffs": [0] * (1 << i) + [1], "degree": 1 << i,
              "kind": KIND_INITIAL if i == 0 else KIND_DOUBLED}
             for i in range((2 * MAX_POLY_DEGREE).bit_length())]
    assert steps[-1]["degree"] == 2 * MAX_POLY_DEGREE
    data = {"p": 53, "k": 15, "class": "C2", "seed": 0, "rng": RNG_NAME, "steps": steps}
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=f"step {len(steps) - 1}: .*cap of {MAX_POLY_DEGREE}"):
        SequenceRecord.from_json_dict(data)
    assert time.perf_counter() - start < 1.0


def test_record_constructor_validates_structure():
    s0 = Step(0, F0, KIND_INITIAL)
    s1 = Step(1, qk_transform(F0, 15), KIND_DOUBLED)
    with pytest.raises(UsageError):
        SequenceRecord(p=53, k=15, class_name="C2", seed=0, steps=())
    with pytest.raises(UsageError):
        SequenceRecord(p=53, k=15, class_name="C2", seed=0,
                       steps=(s0, Step(2, s1.poly, KIND_DOUBLED)))
    with pytest.raises(UsageError):
        SequenceRecord(p=53, k=15, class_name="C2", seed=0,
                       steps=(s0, Step(1, s1.poly, "magic")))
    with pytest.raises(UsageError):
        SequenceRecord(p=53, k=15, class_name="C2", seed=0,
                       steps=(Step(0, F0, KIND_DOUBLED),))
    with pytest.raises(UsageError):
        SequenceRecord(p=53, k=15, class_name="C2", seed=0,
                       steps=(s0, Step(1, s1.poly, KIND_INITIAL)))
    with pytest.raises(UsageError):
        SequenceRecord(p=53, k=15, class_name="C2", seed=0,
                       steps=(s0, Step(1, Poly((1, 1), 11), KIND_DOUBLED)))
    with pytest.raises(UsageError):
        SequenceRecord(p=53, k=15, class_name="C2", seed=0,
                       steps=(s0, Step(1, Poly((1, 2), 53), KIND_DOUBLED)))


# ---------------------------------------------------------------------------
# verification against the schedule
# ---------------------------------------------------------------------------


def test_verify_flags_degree_ratio_breaks():
    forged = SequenceRecord(
        p=53, k=15, class_name="C2", seed=0,
        steps=(
            Step(0, F0, KIND_INITIAL),
            Step(1, smallest_irreducible(53, 4), KIND_DOUBLED),
        ),
    )
    violations = verify_against_schedule(forged)
    assert violations
    assert any("step 1" in v for v in violations)


def test_verify_flags_reducible_steps():
    forged = SequenceRecord(
        p=53, k=15, class_name="C2", seed=0,
        steps=(
            Step(0, F0, KIND_INITIAL),
            Step(1, F0 * F0, KIND_DOUBLED),  # degree 10 but reducible
        ),
    )
    violations = verify_against_schedule(forged)
    assert any("irreducibility" in v for v in violations)


def _forged_after(*polys: Poly) -> SequenceRecord:
    """F0 followed by the given polynomials, as a k = 15 record over F_53."""
    steps = [Step(0, F0, KIND_INITIAL)]
    for j, f in enumerate(polys, start=1):
        kind = KIND_DOUBLED if f.degree > steps[-1].degree else KIND_SPLIT_FIRST
        steps.append(Step(j, f, kind))
    return SequenceRecord(p=53, k=15, class_name="C2", seed=0, steps=tuple(steps))


def _certificate_failures(record: SequenceRecord) -> list[str]:
    violations = verify_against_schedule(record)
    return [v for v in violations if "fails the irreducibility" in v]


def test_verify_reports_constant_steps_as_certificate_breaks():
    # a constant is no link of the chain: each one is reported, and no
    # transform of degree 0 is formed
    one = Poly((1,), 53)
    forged = _forged_after(qk_transform(F0, 15), one, one)
    assert _certificate_failures(forged) == []
    broken = [v for v in verify_against_schedule(forged) if "constant" in v]
    assert broken == ["step 2: a constant is not irreducible", "step 3: a constant is not irreducible"]


def test_verify_reports_a_constant_f0_instead_of_raising():
    # degree 0 has no schedule, so the certificate violations are the report;
    # a C1 multiplier has none at any degree and still raises
    one = (Step(0, Poly((1,), 53), KIND_INITIAL),)
    record = SequenceRecord(p=53, k=15, class_name="C2", seed=0, steps=one)
    assert verify_against_schedule(record) == ["step 0: polynomial fails the irreducibility test"]
    c1 = SequenceRecord(p=53, k=27, class_name="C1", seed=0, steps=one)
    with pytest.raises(UsageError, match="no schedule prediction exists for class C1"):
        verify_against_schedule(c1)


def test_verify_flags_flat_step_outside_the_transform():
    # an irreducible degree-10 polynomial that is not a factor of the split
    # transform of f_1: Rabin's test alone would accept it
    f1 = qk_transform(F0, 15)
    stranger = random_irreducible(53, 10, random.Random(5))
    assert is_irreducible(stranger) and not poly_divmod(qk_transform(f1, 15), stranger)[1].is_zero
    failures = _certificate_failures(_forged_after(f1, stranger))
    assert len(failures) == 1
    assert failures[0].startswith("step 2:") and "does not divide" in failures[0]


def test_verify_flags_flat_step_with_zero_constant_term():
    # x^10 has no reciprocal of degree 10, so it cannot be half of the split
    # transform of f_1
    f1 = qk_transform(F0, 15)
    failures = _certificate_failures(_forged_after(f1, Poly((0,) * 10 + (1,), 53)))
    assert len(failures) == 1
    assert failures[0].startswith("step 2:") and "does not divide" in failures[0]


def test_verify_flags_doubled_step_whose_transform_splits():
    f1 = qk_transform(F0, 15)
    failures = _certificate_failures(_forged_after(f1, qk_transform(f1, 15)))
    assert len(failures) == 1
    assert failures[0].startswith("step 2:") and "reducible (character 1)" in failures[0]


def test_verify_flags_flat_step_whose_transform_is_irreducible():
    # the transform of F0 under k = 15 is irreducible, so no flat step may
    # follow F0, even an irreducible one of the same degree
    failures = _certificate_failures(_forged_after(smallest_irreducible(53, 5)))
    assert len(failures) == 1
    assert failures[0].startswith("step 1:") and "irreducible (character -1)" in failures[0]


def _count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call of qkforge.ffpoly.<name>, from
    every qkforge module that imported it."""
    original = getattr(sys.modules["qkforge.ffpoly"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qkforge" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_reference_chains_run_rabin_only_on_f0(monkeypatch):
    rabin = _count_calls(monkeypatch, "is_irreducible")
    splits = _count_calls(monkeypatch, "equal_degree_factorize")
    for k, steps in ((7, 6), (15, 12)):
        rabin.clear()
        splits.clear()
        rec = generate_sequence(F0, k, steps)
        assert verify_against_schedule(rec) == []
        assert rabin == [(F0,), (F0,)]  # generate_sequence, then verify
        # each split takes a chain member f and k, not the transform
        members = {s.poly for s in rec.steps}
        assert all(f in members and k_ == k for f, k_ in splits)
        assert [f.degree for f, _ in splits] == ([] if k == 7 else [10, 10, 20, 40, 80, 160])


def test_verify_flags_flat_step_counts_beyond_bounds():
    # five degree-1 steps at bounds (s <= 2, s + t <= 3)
    steps = [Step(0, lin(8, 11), KIND_INITIAL)]
    for j, a in enumerate((2, 3, 4, 5), start=1):
        steps.append(Step(j, lin(a, 11), KIND_SPLIT_FIRST))
    forged = SequenceRecord(p=11, k=2, class_name="C3", seed=0,
                            steps=tuple(steps))
    violations = verify_against_schedule(forged)
    assert any("s=4" in v for v in violations)
    assert any("s+t=4" in v for v in violations)


def test_verify_is_vacuous_before_the_doubling_cascade():
    rec = generate_sequence(F0, 15, 2)  # degrees 5, 10, 10
    assert rec.degrees() == [5, 10, 10]
    assert verify_against_schedule(rec) == []


# ---------------------------------------------------------------------------
# orbit analysis
# ---------------------------------------------------------------------------


def test_point_at_infinity_is_a_fixed_point():
    assert is_periodic(INFINITY, 3) == (True, 0, 1)


def test_zero_feeds_infinity_in_one_step():
    F5 = prime_field(5)
    assert is_periodic(F5.from_int(0), 1) == (False, 1, 1)


def test_known_orbits_in_f11_with_multiplier_three():
    F11 = prime_field(11)
    assert is_periodic(F11.from_int(9), 3) == (True, 0, 1)
    assert is_periodic(F11.from_int(2), 3) == (True, 0, 1)
    assert is_periodic(F11.from_int(5), 3) == (False, 1, 1)
    assert is_periodic(F11.from_int(1), 3) == (False, 2, 1)
    assert is_periodic(F11.from_int(7), 3) == (False, 3, 1)


def test_known_orbits_in_f5_with_multiplier_one():
    F5 = prime_field(5)
    assert is_periodic(F5.from_int(1), 1) == (False, 3, 1)


def test_long_cycle_is_measured_exactly():
    F13 = prime_field(13)
    assert is_periodic(F13.from_int(1), 1) == (True, 0, 6)


def test_fixed_points_of_the_map_are_periodic():
    F11 = prime_field(11)
    two = F11.from_int(2)
    assert theta_eval(two, 3) == two
    assert is_periodic(two, 3) == (True, 0, 1)


def test_walking_the_tail_lands_on_the_cycle():
    F11 = prime_field(11)
    beta = F11.from_int(7)
    periodic, tail, cycle = is_periodic(beta, 3)
    assert not periodic and tail == 3
    for _ in range(tail):
        beta = theta_eval(beta, 3)
    assert is_periodic(beta, 3) == (True, 0, cycle)


def test_extension_field_orbits():
    F9 = ExtField(Poly((1, 0, 1), 3))
    assert is_periodic(F9.gen(), 1) == (False, 2, 1)


def test_orbit_rejects_non_field_inputs():
    with pytest.raises(UsageError):
        is_periodic(5, 3)


def test_orbit_respects_the_field_cap(monkeypatch):
    F53 = prime_field(53)
    monkeypatch.setenv("QKFORGE_CAP", "4")
    with pytest.raises(ResourceCapError):
        is_periodic(F53.from_int(2), 7)
