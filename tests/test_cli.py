"""Tests for the command-line front end: argument resolution, subcommand
output, exit codes, and artifact determinism."""

import dataclasses
import hashlib
import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qkforge.cli as cli
from qkforge.cli import main
from qkforge.cm_arith import depth_table
from qkforge.config import MAX_POLY_DEGREE, MAX_SWEEP_DOUBLINGS
from qkforge.errors import TheoremViolationError
from qkforge.ffpoly import Poly, format_poly, format_poly_human, sqrt_mod_p
from qkforge.qk import qk_transform
from qkforge.seqgen import SequenceRecord, generate_sequence

F0_TEXT = "51,3,0,0,0,1"

# `predict` payloads for every C2/C3/C3- multiplier at p in {5, 11, 53, 113,
# 1009} and n in {1, 5, 8192}, and `sweep-lemmas --max-p 600` stdout, as the
# point-count route printed them
GOLDEN = json.loads(Path(__file__).with_name("golden_predict.json").read_text())


def _patch_everywhere(monkeypatch, name: str, replacement) -> None:
    """Replace qkforge.ffpoly.<name> in every qkforge module that imported it."""
    original = getattr(sys.modules["qkforge.ffpoly"], name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qkforge" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)

SHORT_RUNS = (
    (15, 3, (5, 10, 10, 10)),
    (7, 2, (5, 10, 20)),
)


# ---------------------------------------------------------------------------
# find-k
# ---------------------------------------------------------------------------


def test_find_k_lists_values(capsys):
    assert main(["find-k", "--p", "53", "--class", "c2"]) == 0
    assert capsys.readouterr().out == (
        "p = 53: class C2 admissible (requires p = 1 (mod 4))\n15, 38\n"
    )


def test_find_k_other_classes(capsys):
    assert main(["find-k", "--p", "53", "--class", "c3"]) == 0
    assert capsys.readouterr().out == (
        "p = 53: class C3 admissible (requires p in {1, 2, 4} (mod 7))\n7, 19\n"
    )
    assert main(["find-k", "--p", "53", "--class", "c3-"]) == 0
    assert capsys.readouterr().out == (
        "p = 53: class C3- admissible (requires p in {1, 2, 4} (mod 7))\n34, 46\n"
    )
    assert main(["find-k", "--p", "53", "--class", "C1"]) == 0
    assert capsys.readouterr().out == (
        "p = 53: class C1 admissible (defined for every odd prime)\n26, 27\n"
    )


def test_find_k_congruence_failure_exits_2(capsys):
    assert main(["find-k", "--p", "11", "--class", "c2"]) == 2
    assert "mod 4" in capsys.readouterr().err
    assert main(["find-k", "--p", "13", "--class", "c3-"]) == 2
    assert "mod 7" in capsys.readouterr().err


def test_find_k_unknown_class_exits_2(capsys):
    assert main(["find-k", "--p", "53", "--class", "c9"]) == 2


def test_find_k_rejects_non_prime(capsys):
    assert main(["find-k", "--p", "54", "--class", "c2"]) == 2


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_paired_class_json(capsys):
    assert main(["predict", "--p", "53", "--k", "15", "--n", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "a_p": -14,
        "pi": [-7, 2],
        "e0": 2,
        "e1": 3,
        "s_bound": 3,
        "st_bound": 5,
        "pattern": "pairs-every-two-steps",
    }


def test_predict_steady_class_json(capsys):
    assert main(["predict", "--p", "53", "--k", "7", "--n", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "a_p": -10,
        "pi": [-7, 4],
        "rho0": [0, 1],
        "e0": 4,
        "e1": 1,
        "s_bound": 4,
        "st_bound": 5,
        "pattern": "one-per-step",
    }


def test_predict_large_degree_json(capsys):
    # n = 2^19 at a 20-bit prime: the depths come from pi^n mod 2^B
    assert main(["predict", "--p", "1000033", "--k", "c2", "--n", "524288"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "a_p": 1826,
        "pi": [913, 408],
        "e0": 44,
        "e1": 2,
        "s_bound": 44,
        "st_bound": 46,
        "pattern": "pairs-every-two-steps",
    }


def test_predict_payloads_match_golden(capsys):
    for p, k, n, want in GOLDEN["predict"]:
        assert main(["predict", "--p", str(p), "--k", str(k), "--n", str(n)]) == 0
        assert capsys.readouterr() == (want, ""), (p, k, n)


def _ec_add(P, Q, a4: int, p: int):
    """Affine addition on y^2 = x^3 + a4*x + a6, with None the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(m: int, P, a4: int, p: int):
    R = None
    while m:
        if m & 1:
            R = _ec_add(R, P, a4, p)
        P = _ec_add(P, P, a4, p)
        m >>= 1
    return R


@pytest.mark.parametrize(
    "p, k",
    [(10**29 + 481, "c2"), (10**99 + 289, "c2"), (10**99 + 289, "c3"), (10**99 + 289, "c3-")],
)
def test_predict_at_large_primes(p, k, capsys):
    # a 30-digit and a 100-digit prime: far beyond any point count
    assert main(["predict", "--p", str(p), "--k", k, "--n", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    data = json.loads(out)
    a, b = data["pi"]
    a_p = data["a_p"]
    if k == "c2":
        a4, a6, norm, trace = 1, 0, a * a + b * b, 2 * a
    else:
        a4, a6, norm, trace = -35, 98, a * a + a * b + 2 * b * b, 2 * a + b
    assert (norm, trace) == (p, a_p)
    assert b > 0
    points = []
    x = 2
    while len(points) < 3:
        rhs = (x**3 + a4 * x + a6) % p
        y = sqrt_mod_p(rhs, p)
        if y:
            assert y * y % p == rhs
            points.append((x, y))
        x += 1
    assert all(_ec_mul(p + 1 - a_p, P, a4, p) is None for P in points)
    # the other sign is the order of the quadratic twist
    assert any(_ec_mul(p + 1 + a_p, P, a4, p) is not None for P in points)


def test_predict_rejects_composite_accepted_as_prime(monkeypatch, capsys):
    # is_prime is a probable-prime test above 3.3e24; if it accepted
    # 65 = 5 * 13 (= 1 mod 4, with C2 multiplier 4), the square root mod p
    # must fail with a usage error rather than loop
    real = sys.modules["qkforge.ffpoly"].is_prime
    _patch_everywhere(monkeypatch, "is_prime", lambda n: n == 65 or real(n))
    for k in ("4", "c2"):
        assert main(["predict", "--p", "65", "--k", k, "--n", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: modulus 65 is not prime") and err.count("\n") == 1


def test_predict_mirror_class_uses_conjugate_prime(capsys):
    assert main(["predict", "--p", "53", "--k", "c3-", "--n", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rho0"] == [1, -1]
    assert data["pattern"] == "one-per-step"


def test_predict_accepts_class_tokens(capsys):
    assert main(["predict", "--p", "53", "--k", "c2", "--n", "5"]) == 0
    by_token = capsys.readouterr().out
    assert main(["predict", "--p", "53", "--k", "15", "--n", "5"]) == 0
    by_value = capsys.readouterr().out
    assert by_token == by_value


def test_predict_bound_relation(capsys):
    for k in ("15", "7", "c3-"):
        assert main(["predict", "--p", "53", "--k", k, "--n", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["s_bound"] == max(data["e0"], data["e1"])
        assert data["st_bound"] == data["e0"] + data["e1"]


def test_predict_rejects_classes_without_schedule(capsys):
    assert main(["predict", "--p", "53", "--k", "27", "--n", "5"]) == 2
    assert main(["predict", "--p", "53", "--k", "3", "--n", "5"]) == 2


def test_predict_rejects_zero_multiplier(capsys):
    assert main(["predict", "--p", "53", "--k", "0", "--n", "5"]) == 2
    assert main(["predict", "--p", "53", "--k", "53", "--n", "5"]) == 2


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_irreducible_case(capsys):
    assert main(["transform", "--p", "53", "--k", "15", "--f0", "x^5+3*x+51"]) == 0
    out = capsys.readouterr().out
    assert "coefficients: 1,0,5,0,5,12,5,0,5,0,1" in out
    assert "irreducible: yes" in out


def test_transform_split_case_prints_factors(capsys):
    assert main(
        ["transform", "--p", "53", "--k", "15", "--f0", "1,0,5,0,5,12,5,0,5,0,1"]
    ) == 0
    out = capsys.readouterr().out
    assert "irreducible: no" in out
    assert "factor 1:" in out
    assert "factor 2:" in out


def test_transform_accepts_both_polynomial_syntaxes(capsys):
    assert main(["transform", "--p", "53", "--k", "15", "--f0", F0_TEXT]) == 0
    csv_out = capsys.readouterr().out.replace("input:       x^5+3*x+51\n", "")
    assert main(["transform", "--p", "53", "--k", "15", "--f0", "x^5+3*x+51"]) == 0
    human_out = capsys.readouterr().out.replace("input:       x^5+3*x+51\n", "")
    assert csv_out == human_out


def test_transform_rejects_non_monic(capsys):
    assert main(["transform", "--p", "53", "--k", "15", "--f0", "1,2"]) == 2


def test_transform_rejects_garbage(capsys):
    assert main(["transform", "--p", "53", "--k", "15", "--f0", "x^^2"]) == 2
    assert main(["transform", "--p", "3", "--k", "1", "--f0", "+"]) == 2  # a sign, no term
    capsys.readouterr()
    assert main(["transform", "--p", "5", "--k", "1", "--f0", "x+"]) == 2  # a trailing sign
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_transform_runs_rabin_once_on_the_input(monkeypatch, capsys):
    # the degree-160 step of the k = 7 reference chain doubles: Rabin's test
    # at degree 160, then the transform character, and no test at degree 320
    f160 = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 7, 5).steps[5].poly
    assert f160.degree == 160
    calls = []
    real = sys.modules["qkforge.ffpoly"].is_irreducible
    _patch_everywhere(monkeypatch, "is_irreducible", lambda f: calls.append(f) or real(f))
    assert main(["transform", "--p", "53", "--k", "7", "--f0", format_poly(f160)]) == 0
    assert calls == [f160]
    big = qk_transform(f160, 7)
    assert capsys.readouterr().out == (
        f"input:       {format_poly_human(f160)}\n"
        f"transform:   {format_poly_human(big)}\n"
        f"coefficients: {format_poly(big)}\n"
        "irreducible: yes\n"
    )


def test_transform_reducible_and_excluded_inputs(capsys):
    # a reducible input has a reducible transform; f = x and reducible inputs
    # print no factors, a ramified input prints its square root twice
    for f0, factors in (("52,0,1", None), ("0,1", None), ("x+30", "x+1")):
        assert main(["transform", "--p", "53", "--k", "15", "--f0", f0]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "irreducible: no"
        if factors is None:
            assert len(lines) == 4
        else:
            assert lines[4:] == [f"factor 1:    {factors}", f"factor 2:    {factors}"]


def test_transform_degree_cap_exits_4(capsys):
    assert main(["transform", "--p", "53", "--k", "15", "--f0", "x^300000000+1"]) == 4
    assert capsys.readouterr() == (
        "", f"error: polynomial degree exceeds the cap of {MAX_POLY_DEGREE}\n"
    )


def test_transform_rejects_non_ascii_digits(capsys):
    # str.isdigit accepts superscripts and other scripts' digits; int() then
    # fails on some and silently converts others
    for text in ("x^\u00b2+1", "\u00b2x+1", "\u0663,1", "x+\u0663"):
        assert main(["transform", "--p", "53", "--k", "15", "--f0", text]) == 2


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_verified_record(tmp_path, capsys):
    out_file = tmp_path / "record.json"
    rc = main(
        ["generate", "--p", "53", "--k", "7", "--f0", F0_TEXT,
         "--steps", "3", "--out", str(out_file)]
    )
    assert rc == 0
    assert str(out_file) in capsys.readouterr().out
    data = json.loads(out_file.read_text())
    record = SequenceRecord.from_json_dict(data)
    assert record.degrees() == [5, 10, 20, 40]
    assert data["rng"] == "mt19937"


def test_generate_stdout_json_schema(capsys):
    assert main(["generate", "--p", "53", "--k", "15", "--f0", F0_TEXT,
                 "--steps", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data.keys()) == ["p", "k", "class", "seed", "rng", "steps"]
    assert [s["degree"] for s in data["steps"]] == [5, 10, 10]


def test_generate_zero_steps(capsys):
    assert main(["generate", "--p", "53", "--k", "15", "--f0", F0_TEXT,
                 "--steps", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [s["degree"] for s in data["steps"]] == [5]


def test_generate_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "--p", "53", "--k", "15", "--f0", F0_TEXT, "--steps", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_generate_accepts_class_token_for_k(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--p", "53", "--k", "c2", "--f0", F0_TEXT,
                 "--steps", "2", "--out", str(a)]) == 0
    assert main(["generate", "--p", "53", "--k", "15", "--f0", F0_TEXT,
                 "--steps", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_generate_half_of_one_class_skips_schedule(capsys):
    assert main(["generate", "--p", "53", "--k", "27", "--f0", "51,1",
                 "--steps", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "C1"


def test_generate_races_a_first_split_on_a_cycle(capsys):
    # C3 with (e0, e1) = (2, 1): the first factor of the first split lies on
    # a cycle and doubles only after two steps, the second after one
    assert main(["generate", "--p", "113", "--k", "21", "--f0", "1,6,110,1",
                 "--steps", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [s["degree"] for s in data["steps"]] == [3, 3, 6, 6, 12, 24]
    assert data["steps"][1]["kind"] == "backtracked"


def test_generate_rejects_bad_inputs(capsys):
    assert main(["generate", "--p", "53", "--k", "15", "--f0", "52,0,1",
                 "--steps", "2"]) == 2  # reducible
    assert main(["generate", "--p", "53", "--k", "15", "--f0", "0,1",
                 "--steps", "2"]) == 2  # f = x
    assert main(["generate", "--p", "53", "--k", "3", "--f0", F0_TEXT,
                 "--steps", "2"]) == 2  # unclassified multiplier
    assert main(["generate", "--p", "53", "--k", "15", "--f0", F0_TEXT,
                 "--steps", "-1"]) == 2


# sha256 of the `generate --out` bytes as the route that powered by p wrote
# them: the k = 15 and k = 7 reference chains, and a C1 chain at p = 2^61 - 1
PINNED_RECORDS = [
    (["--p", "53", "--k", "15", "--f0", F0_TEXT, "--steps", "12"],
     "9a071364fcaaa42dcfe285446b14495bf9e7b20afd595f912fea12d3f665bf56"),
    (["--p", "53", "--k", "7", "--f0", F0_TEXT, "--steps", "6"],
     "a06c53974c8a6e1215621a7385addbbca0185b65d5dae02cbddc474cfecd683b"),
    (["--p", str(2**61 - 1), "--k", str(2**60), "--f0",
      "271902015394427964,1754659928281503099,1088923384270674083,1", "--steps", "8"],
     "74ea2a87a24ce16771c7d7249cafbda4205be3d404e735a1a98cf15728b997ec"),
]


@pytest.mark.parametrize("args, digest", PINNED_RECORDS, ids=["k15", "k7", "c1-p61"])
def test_generate_out_bytes_match_pinned_digests(args, digest, tmp_path, capsys):
    out = tmp_path / "record.json"
    assert main(["generate", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_generate_over_the_row_table_cap_exits_4_at_once(capsys):
    # the Frobenius rows of Rabin's test would take 20000^2 4-byte slots
    start = time.perf_counter()
    assert main(["generate", "--p", "53", "--k", "15", "--f0", "x^20000+x+1",
                 "--steps", "1"]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row table" in err and err.count("\n") == 1


@pytest.mark.parametrize("steps", ["40", str(10**18)])
def test_generate_past_the_degree_cap_exits_4_at_once(steps, capsys):
    # k = 7 doubles the degree at every step, so step 40 would reach 5 * 2^40
    start = time.perf_counter()
    assert main(["generate", "--p", "53", "--k", "7", "--f0", F0_TEXT,
                 "--steps", steps]) == 4
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"degree cap of {MAX_POLY_DEGREE}" in captured.err


def _never(*args, **kwargs):
    raise AssertionError("the computation ran before the output file was opened")


def test_generate_unwritable_out_exits_2_before_the_chain(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "generate_sequence", _never)
    assert main(["generate", "--p", "53", "--k", "7", "--f0", F0_TEXT, "--steps", "1",
                 "--out", str(tmp_path / "missing" / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--dot", "--stats"])
def test_explore_unwritable_artifact_exits_2_before_the_graph(flag, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.setattr(cli, "build_graph", _never)
    for target in (tmp_path / "missing" / "g", tmp_path):  # no directory; a directory
        assert main(["explore", "--p", "11", "--k", "3", flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_failed_generate_keeps_an_existing_out_file(tmp_path, capsys):
    # k = 7 from degree 5 passes the degree cap by step 40: exit 4 after --out was checked
    out = tmp_path / "x.json"
    out.write_bytes(b"an earlier record\n")
    assert main(["generate", "--p", "53", "--k", "7", "--f0", F0_TEXT, "--steps", "40",
                 "--out", str(out)]) == 4
    assert out.read_bytes() == b"an earlier record\n"
    assert capsys.readouterr().out == ""


def _violation(*args, **kwargs):
    raise TheoremViolationError("forged failure")


def test_failed_runs_remove_the_artifacts_they_created(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.json"
    assert main(["generate", "--p", "53", "--k", "7", "--f0", F0_TEXT, "--steps", "40",
                 "--out", str(out)]) == 4
    assert not out.exists()
    with monkeypatch.context() as m:
        m.setattr(cli, "generate_sequence", _violation)
        assert main(["generate", "--p", "53", "--k", "7", "--f0", F0_TEXT, "--steps", "1",
                     "--out", str(out)]) == 3
    assert not out.exists()
    # a new --dot next to an existing --stats, then a field over the cap
    dot, stats = tmp_path / "g.dot", tmp_path / "g.json"
    stats.write_bytes(b"earlier stats\n")
    monkeypatch.setenv("QKFORGE_CAP", "50")
    assert main(["explore", "--p", "101", "--k", "5", "--dot", str(dot),
                 "--stats", str(stats)]) == 4
    assert not dot.exists() and stats.read_bytes() == b"earlier stats\n"
    # a writable --dot and an unwritable --stats: exit 2 before the graph
    monkeypatch.setattr(cli, "build_graph", _never)
    assert main(["explore", "--p", "11", "--k", "3", "--dot", str(dot),
                 "--stats", str(tmp_path / "missing" / "g.json")]) == 2
    assert not dot.exists()
    capsys.readouterr()


def test_successful_runs_replace_a_longer_existing_artifact(tmp_path, capsys):
    args, digest = PINNED_RECORDS[1]
    out = tmp_path / "record.json"
    out.write_bytes(b"x" * 100_000)
    assert main(["generate", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    fresh, dot = tmp_path / "fresh.dot", tmp_path / "g.dot"
    dot.write_bytes(b"x" * 100_000)
    for path in (fresh, dot):
        assert main(["explore", "--p", "13", "--k", "4", "--dot", str(path)]) == 0
    assert dot.read_bytes() == fresh.read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify-example
# ---------------------------------------------------------------------------


def test_verify_example_passes_on_short_runs(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_EXAMPLE_RUNS", SHORT_RUNS)
    assert main(["verify-example"]) == 0
    out = capsys.readouterr().out
    assert "k=15: degrees 5,10,10,10" in out
    assert "k=7: degrees 5,10,20" in out
    assert "both reference runs reproduced" in out


def test_verify_example_tampered_trace_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_EXAMPLE_RUNS", ((15, 3, (5, 10, 10, 99)),))
    assert main(["verify-example"]) == 3
    assert "does not match expected" in capsys.readouterr().err


def test_verify_example_tamper_hook_raises(monkeypatch):
    monkeypatch.setattr(cli, "_EXAMPLE_RUNS", ((15, 3, (5, 10, 10, 20)),))
    with pytest.raises(TheoremViolationError) as info:
        cli.cmd_verify_example()
    assert info.value.exit_code == 3


def test_verify_example_flags_late_splits(monkeypatch, capsys):
    # a strictly doubling expected trace rules out a split after step 1: the
    # paired-class run, which does split there, fails against one
    monkeypatch.setattr(cli, "_EXAMPLE_RUNS", ((15, 3, (5, 10, 20, 40)),))
    assert main(["verify-example"]) == 3
    assert "does not match expected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def test_explore_writes_dot_and_stats(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    stats = tmp_path / "g.json"
    rc = main(["explore", "--p", "11", "--k", "3",
               "--dot", str(dot), "--stats", str(stats)])
    assert rc == 0
    text = dot.read_text()
    assert text.startswith("digraph qkforge {")
    assert '"inf" -> "inf";' in text
    data = json.loads(stats.read_text())
    assert data["node_count"] == 12
    assert data["class"] == "C3"
    assert (data["e0"], data["e1"]) == (3, 1)
    assert len(data["components"]) == 3
    assert all(c["binary_shape_ok"] for c in data["components"])


def test_explore_stdout_stats(capsys):
    assert main(["explore", "--p", "11", "--k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["e0"], data["e1"]) == (1, 2)
    assert sum(c["node_count"] for c in data["components"]) == 12


def test_explore_unclassified_multiplier_has_no_depths(capsys):
    assert main(["explore", "--p", "11", "--k", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "e0" not in data
    assert data["node_count"] == 12


def test_explore_extension_field_with_modulus(capsys):
    assert main(["explore", "--p", "3", "--n", "2", "--k", "1",
                 "--modulus", "1,0,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["node_count"] == 10
    assert data["modulus"] == [1, 0, 1]


def test_explore_rejects_reducible_modulus(capsys):
    assert main(["explore", "--p", "5", "--n", "2", "--k", "1",
                 "--modulus", "4,0,1"]) == 2


def test_explore_dot_deterministic(tmp_path, capsys):
    a = tmp_path / "a.dot"
    b = tmp_path / "b.dot"
    assert main(["explore", "--p", "13", "--k", "4", "--dot", str(a)]) == 0
    assert main(["explore", "--p", "13", "--k", "4", "--dot", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_explore_labels_flag(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["explore", "--p", "5", "--k", "1", "--dot", str(dot),
                 "--labels"]) == 0
    assert '[label="inf"];' in dot.read_text()


def test_explore_respects_cap_with_exit_4(monkeypatch, capsys):
    monkeypatch.setenv("QKFORGE_CAP", "50")
    assert main(["explore", "--p", "101", "--k", "5"]) == 4
    assert "QKFORGE_CAP" in capsys.readouterr().err


def test_explore_refuses_a_huge_degree_with_exit_4(capsys):
    # refused from n alone: computing 3^(10^8) would take minutes
    assert main(["explore", "--p", "3", "--n", "100000000", "--k", "1"]) == 4
    assert "QKFORGE_CAP" in capsys.readouterr().err


def test_explore_rejects_invalid_cap_with_exit_2(monkeypatch, capsys):
    for value in ("abc", "0", "-3", "2.5", ""):
        monkeypatch.setenv("QKFORGE_CAP", value)
        assert main(["explore", "--p", "11", "--k", "2"]) == 2
        assert "QKFORGE_CAP" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep-lemmas
# ---------------------------------------------------------------------------


def test_sweep_lemmas_matches_golden(capsys):
    assert main(["sweep-lemmas", "--max-p", "600"]) == 0
    assert capsys.readouterr() == (GOLDEN["sweep_lemmas_max_p_600"], "")


def test_sweep_lemmas_small_range(capsys):
    assert main(["sweep-lemmas", "--max-p", "60", "--max-n", "4",
                 "--max-m", "2", "--max-i", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_sweep_lemmas_without_a_prime_exits_2(capsys):
    for max_p in ("-5", "0", "3", "4", "5"):  # p = 3 admits no multiplier of a CM class
        assert main(["sweep-lemmas", "--max-p", max_p]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no prime" in captured.err


@pytest.mark.parametrize("argv", [
    ["--max-n", "-1"],
    ["--max-m", "-1"],
    ["--max-i", "-2"],
    ["--max-n", "0", "--max-m", "0"],  # no identity to check
])
def test_sweep_lemmas_that_checks_nothing_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "depth_table", _never)
    assert main(["sweep-lemmas", "--max-p", "30", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sweep_lemmas_over_the_doubling_cap_exits_4_at_once(monkeypatch, capsys):
    monkeypatch.setattr(cli, "depth_table", _never)
    assert main(["sweep-lemmas", "--max-p", "6", "--max-i", "2000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(MAX_SWEEP_DOUBLINGS) in captured.err
    assert main(["sweep-lemmas", "--max-p", "6", "--max-i", str(MAX_SWEEP_DOUBLINGS + 1)]) == 4


def test_sweep_lemmas_at_the_doubling_cap_runs(capsys):
    assert main(["sweep-lemmas", "--max-p", "6", "--max-i", str(MAX_SWEEP_DOUBLINGS)]) == 0
    assert capsys.readouterr().out.endswith(": 0 violations\n")


def test_sweep_lemmas_builds_one_depth_table_per_multiplier(monkeypatch, capsys):
    tables = []

    def counted(p, k, degrees):
        tables.append((p, k))
        return depth_table(p, k, degrees)

    monkeypatch.setattr(cli, "depth_table", counted)
    monkeypatch.setattr(cli, "depths", _never)
    assert main(["sweep-lemmas", "--max-p", "600"]) == 0
    assert capsys.readouterr() == (GOLDEN["sweep_lemmas_max_p_600"], "")
    assert len(tables) == len(set(tables)) == 306


@pytest.mark.parametrize("p, k, n, wrong, out, err", [
    (53, 15, 1, (1, 3),
     "checked 911 identities below p < 60: 2 violations\n",
     "error: depth-law violations: p=53 k=15 n=1 (C2): e0=1 < 2; "
     "p=53 k=15 m=1 (C2): (1,3) doubled to (5,2)\n"),
    (11, 3, 2, (4, 5),
     "checked 912 identities below p < 60: 4 violations\n",
     "error: depth-law violations: p=11 k=3 n=2 (C3): e0=4 but e1=5 != 1; "
     "p=11 k=3 m=1 (C3): (3,1) doubled to (4,5); "
     "p=11 k=3 m=1 (C3) i=1: (4,5) -> (5,1), expected +1; "
     "p=11 k=3 m=2 (C3): (4,5) doubled to (5,1)\n"),
])
def test_sweep_lemmas_names_a_violated_law(p, k, n, wrong, out, err, monkeypatch, capsys):
    def one_wrong_pair(q, j, degrees):
        table = depth_table(q, j, degrees)
        if (q, j) == (p, k):
            table[n] = dataclasses.replace(table[n], e0=wrong[0], e1=wrong[1])
        return table

    monkeypatch.setattr(cli, "depth_table", one_wrong_pair)
    assert main(["sweep-lemmas", "--max-p", "60"]) == 3
    assert capsys.readouterr() == (out, err)


# ---------------------------------------------------------------------------
# dispatcher behavior
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_argument_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["predict", "--p", "53"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# fuzzed argument vectors
# ---------------------------------------------------------------------------


def _small_exponents(text: str) -> bool:
    # an exponent of two or more digits could start a Rabin test or a chain
    # at a degree of thousands; a coefficient list of 12 characters has
    # degree at most 12
    return not re.search(r"\^0*[1-9][0-9]", text)


_FREE_TEXT = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="0123456789,-+x^* ", max_size=12),
).filter(_small_exponents)
_K_TEXT = st.one_of(
    _FREE_TEXT,
    st.integers(-300, 300).map(str),
    st.sampled_from(("c1", "C2", " c3 ", "c3-", "c4")),
)
_POLY_TEXT = st.one_of(
    _FREE_TEXT,
    st.sampled_from(("x+1", "3,1", "x^2+1", "x^2+x+2", "2,1,0,1", "51,3,0,0,0,1")),
)
_PRIMES = st.one_of(st.sampled_from((3, 5, 11, 13, 29, 53, 113, 197)), st.integers(-5, 199))


def _field_degrees(p: int):
    """Extension degrees n (some invalid) with |p|^n <= 2,000."""
    top = 1
    while abs(p) >= 2 and abs(p) ** (top + 1) <= 2000:
        top += 1
    return st.integers(-1, top)


@st.composite
def _argv(draw, tmp):
    cmd = draw(st.sampled_from(
        ("find-k", "predict", "transform", "generate", "explore", "sweep-lemmas")))
    if cmd == "sweep-lemmas":
        return [cmd, f"--max-p={draw(st.integers(-5, 199))}",
                f"--max-n={draw(st.integers(-1, 6))}", f"--max-m={draw(st.integers(-1, 3))}",
                f"--max-i={draw(st.integers(-1, 3))}"]
    p = draw(_PRIMES)
    if cmd == "find-k":
        return [cmd, f"--p={p}", f"--class={draw(_K_TEXT)}"]
    argv = [cmd, f"--p={p}", f"--k={draw(_K_TEXT)}"]
    if cmd == "predict":
        argv.append(f"--n={draw(st.integers(-2, 10**6))}")
    elif cmd == "transform":
        argv.append(f"--f0={draw(_POLY_TEXT)}")
    elif cmd == "generate":
        argv += [f"--f0={draw(_POLY_TEXT)}", f"--steps={draw(st.integers(-1, 3))}",
                 f"--seed={draw(st.integers(0, 3))}"]
        if draw(st.booleans()):
            argv.append(f"--out={tmp / 'record.json'}")
    else:
        argv.append(f"--n={draw(_field_degrees(p))}")
        if draw(st.booleans()):
            argv.append(f"--modulus={draw(_POLY_TEXT)}")
        if draw(st.booleans()):
            argv.append(f"--stats={tmp / 'stats.json'}")
        if draw(st.booleans()):
            argv += [f"--dot={tmp / 'graph.dot'}", "--labels"]
    return argv


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argv_ends_in_a_documented_exit_code(data, tmp_path):
    argv = data.draw(_argv(tmp_path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code:
        assert "error: " in err.getvalue() and "Traceback" not in err.getvalue()
