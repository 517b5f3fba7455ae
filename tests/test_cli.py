"""Tests for the command-line front end: argument resolution, subcommand
output, exit codes, and artifact determinism."""

import json

import pytest

import qkforge.cli as cli
from qkforge.cli import main
from qkforge.errors import TheoremViolationError
from qkforge.seqgen import SequenceRecord

F0_TEXT = "51,3,0,0,0,1"

SHORT_RUNS = (
    (15, 3, (5, 10, 10, 10), False),
    (7, 2, (5, 10, 20), True),
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


def test_generate_rejects_bad_inputs(capsys):
    assert main(["generate", "--p", "53", "--k", "15", "--f0", "52,0,1",
                 "--steps", "2"]) == 2  # reducible
    assert main(["generate", "--p", "53", "--k", "15", "--f0", "0,1",
                 "--steps", "2"]) == 2  # f = x
    assert main(["generate", "--p", "53", "--k", "3", "--f0", F0_TEXT,
                 "--steps", "2"]) == 2  # unclassified multiplier
    assert main(["generate", "--p", "53", "--k", "15", "--f0", F0_TEXT,
                 "--steps", "-1"]) == 2


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
    monkeypatch.setattr(cli, "_EXAMPLE_RUNS", ((15, 3, (5, 10, 10, 99), False),))
    assert main(["verify-example"]) == 3
    assert "does not match expected" in capsys.readouterr().err


def test_verify_example_tamper_hook_raises(monkeypatch):
    monkeypatch.setattr(cli, "_EXAMPLE_RUNS", SHORT_RUNS[:1])
    with pytest.raises(TheoremViolationError) as info:
        cli.cmd_verify_example(expected_c2=(5, 10, 10, 20))
    assert info.value.exit_code == 3


def test_verify_example_flags_late_splits(monkeypatch, capsys):
    # force the split-forbidding check onto the paired-class run, which does
    # factor after step 1, and watch it fail
    monkeypatch.setattr(cli, "_EXAMPLE_RUNS", ((15, 3, (5, 10, 10, 10), True),))
    assert main(["verify-example"]) == 3
    assert "factorization happened after step 1" in capsys.readouterr().err


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


def test_explore_rejects_invalid_cap_with_exit_2(monkeypatch, capsys):
    for value in ("abc", "0", "-3", "2.5", ""):
        monkeypatch.setenv("QKFORGE_CAP", value)
        assert main(["explore", "--p", "11", "--k", "2"]) == 2
        assert "QKFORGE_CAP" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep-lemmas
# ---------------------------------------------------------------------------


def test_sweep_lemmas_small_range(capsys):
    assert main(["sweep-lemmas", "--max-p", "60", "--max-n", "4",
                 "--max-m", "2", "--max-i", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


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
