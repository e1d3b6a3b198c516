import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qcsp import ConstraintLanguage
from qcsp.cli import main
from qcsp.parsing import parse_language, parse_sentence, serialize_language
from helpers import ORNAND

LANG_DOC = """\
domain 2
relation XOR0 3
0 0 0
0 1 1
1 0 1
1 1 0
end
relation NOT 2
0 1
1 0
end
"""

TRUE_SENTENCE = "forall x\nexists y\nconstraint NOT x y\n"
FALSE_SENTENCE = "exists y\nforall x\nconstraint NOT x y\n"


@pytest.fixture
def files(tmp_path):
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    true_s = tmp_path / "true.txt"
    true_s.write_text(TRUE_SENTENCE)
    false_s = tmp_path / "false.txt"
    false_s.write_text(FALSE_SENTENCE)
    return lang, true_s, false_s


def run_cli(args):
    return main([str(a) for a in args])


def test_solve_oracle_true_exit_zero(files, capsys):
    lang, true_s, _ = files
    code = run_cli(["solve", "--language", lang, "--sentence", true_s, "--method", "oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "truth: True" in out


def test_solve_oracle_false_exit_one(files, capsys):
    lang, _, false_s = files
    code = run_cli(["solve", "--language", lang, "--sentence", false_s])
    assert code == 1


def test_solve_json_report_parses(files, capsys):
    lang, true_s, _ = files
    code = run_cli(
        ["solve", "--language", lang, "--sentence", true_s, "--format", "json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["truth"] is True and data["method"] == "oracle"


def test_solve_pgp_csp(files, capsys):
    lang, true_s, _ = files
    code = run_cli(
        ["solve", "--language", lang, "--sentence", true_s,
         "--method", "pgp-csp", "--r", "2", "--format", "json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["combined"] is True
    assert data["conditional"] is False


def test_solve_pgp_csp_trace_counts_solved_patterns(files, tmp_path, capsys):
    # three maximal collapse patterns over the occurring x, v and t; the
    # first keeps x and v and is already false
    lang, _, _ = files
    s = tmp_path / "s.txt"
    s.write_text("exists y\nforall x\nexists w\nforall v\nexists u\nforall t\nexists q\n"
                 "constraint NOT x y\nconstraint NOT v u\nconstraint NOT t q\n")
    code = run_cli(["solve", "--language", lang, "--sentence", s,
                    "--method", "pgp-csp", "--r", "2", "--format", "json", "--trace"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (data["instances_solved"], data["instances_skipped"]) == (1, 2)
    assert [m["indices"] for m in data["members"]] == [[1, 2]]
    assert "instances_reused" not in data
    [step] = data["trace"]
    assert step["rule"] == "pgp-csp-bundle"
    assert step["after"] == {"instances": 3, "solved": 1}


@pytest.mark.parametrize("method", ["pgp-csp", "pi2", "power-csp"])
def test_every_reduction_method_reports_the_gate_flag(files, tmp_path, capsys, method):
    # one-in-three has no switchability witness: the override runs the
    # reduction anyway and marks the result conditional, in JSON and in text
    lang = tmp_path / "one.txt"
    lang.write_text("domain 2\nrelation ONE 3\n0 0 1\n0 1 0\n1 0 0\nend\n")
    sent = tmp_path / "s.txt"
    sent.write_text("forall x\nexists y\nexists z\nconstraint ONE x y z\n")
    args = ["solve", "--language", lang, "--sentence", sent, "--method", method, "--r", "2",
            "--override-witness"]
    assert run_cli([*args, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["conditional"] is True
    assert run_cli(args) == 0
    assert "conditional: True" in capsys.readouterr().out.splitlines()
    # a language with a witness gives an unconditional result
    xor_lang, true_s, _ = files
    assert run_cli(["solve", "--language", xor_lang, "--sentence", true_s, "--method", method,
                    "--r", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["conditional"] is False


@pytest.mark.parametrize("method", ["pgp-csp", "pi2", "power-csp"])
def test_false_override_verdict_is_not_conditional(tmp_path, capsys, method):
    # a false verdict needs no witness, so the caveat marks true ones only
    lang = tmp_path / "one.txt"
    lang.write_text("domain 2\nrelation ONE 3\n0 0 1\n0 1 0\n1 0 0\nend\n")
    sent = tmp_path / "s.txt"
    sent.write_text("forall x\nexists y\nconstraint ONE x x y\n")
    args = ["solve", "--language", lang, "--sentence", sent, "--method", method, "--r", "2",
            "--override-witness"]
    assert run_cli([*args, "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["conditional"] is False
    assert (data["combined"] if method == "pgp-csp" else data["truth"]) is False
    assert run_cli(args) == 1
    assert "conditional: False" in capsys.readouterr().out.splitlines()


def test_solve_pi2_and_power(files, capsys):
    lang, true_s, false_s = files
    assert run_cli(["solve", "--language", lang, "--sentence", true_s,
                    "--method", "pi2", "--r", "2"]) == 0
    capsys.readouterr()
    assert run_cli(["solve", "--language", lang, "--sentence", false_s,
                    "--method", "power-csp", "--r", "2"]) == 1


def test_solve_instance_directly(tmp_path, capsys):
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    inst = tmp_path / "inst.txt"
    inst.write_text("exists a\nexists b\nconstraint NOT a b\n")
    assert run_cli(["solve", "--language", lang, "--instance", inst]) == 0


def test_parse_error_exit_two(tmp_path, capsys):
    lang = tmp_path / "lang.txt"
    lang.write_text("domain 2\nrelation R 2\n0 3\nend\n")
    sent = tmp_path / "s.txt"
    sent.write_text("exists y\n")
    code = run_cli(["solve", "--language", lang, "--sentence", sent])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "doc", [{"domain": True}, {"domain": 2, "relations": [5]}, {"domain": 2, "relations": 5}]
)
def test_malformed_json_language_exit_two(tmp_path, capsys, doc):
    lang = tmp_path / "lang.json"
    lang.write_text(json.dumps(doc))
    code = run_cli(["witness", "--language", lang, "--r", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "witnessed" not in captured.out


@pytest.mark.parametrize(
    "doc, index",
    [
        (
            {"prefix": [["forall", "x"], ["exists", "y"]], "constraints": [["NOT", "x y"]]},
            "constraints entry 0",
        ),
        ({"prefix": [["forall", "x"], ["forall", "x # junk"]]}, "prefix entry 1"),
    ],
)
def test_malformed_json_sentence_exit_two(tmp_path, capsys, doc, index):
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    sent = tmp_path / "s.json"
    sent.write_text(json.dumps(doc))
    code = run_cli(["solve", "--language", lang, "--sentence", sent])
    assert code == 2
    assert index in capsys.readouterr().err


def test_transform_json_payload_is_refused_whole_as_an_instance(files, tmp_path, capsys):
    # the payload holds the instance under "sentence"; read whole, it would be
    # the empty instance, true, where the sentence is false
    lang, _, false_s = files
    assert run_cli(["transform", "--language", lang, "--sentence", false_s,
                    "--transform", "eliminate-universals", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    derived = tmp_path / "derived.json"
    derived.write_text(json.dumps(payload["language"]))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    assert run_cli(["solve", "--language", derived, "--instance", inst]) == 2
    err = capsys.readouterr().err
    # the payload's keys are sorted, so its first unknown key is 'language'
    assert err.startswith("error: sentence JSON: unknown key 'language'")
    inst.write_text(json.dumps(payload["sentence"]))
    assert run_cli(["solve", "--language", derived, "--instance", inst]) == 1


def test_missing_file_exit_two(tmp_path, capsys):
    code = run_cli(["solve", "--language", tmp_path / "nope.txt",
                    "--sentence", tmp_path / "nope2.txt"])
    assert code == 2


def test_witness_subcommand(files, capsys):
    lang, _, _ = files
    code = run_cli(["witness", "--language", lang, "--r", "0",
                    "--max-power", "3", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0  # witness runs always succeed; the verdict is data
    assert data["verdict"] == "refuted-at-bounds"
    code = run_cli(["witness", "--language", lang, "--r", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["verdict"] == "witnessed"
    assert set(data) == {"r", "arities_used", "powers", "verdict"}


def test_classify_subcommand(tmp_path, capsys):
    lang = tmp_path / "affine.txt"
    lang.write_text("domain 2\nrelation XOR0 3\n0 0 0\n0 1 1\n1 0 1\n1 1 0\nend\n")
    code = run_cli(["classify", "--language", lang, "--r", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["verdict"] == "P"
    assert "wnu_table" in data


def test_classify_exit_codes(tmp_path, capsys):
    lang = tmp_path / "affine.txt"
    lang.write_text("domain 2\nrelation XOR0 3\n0 0 0\n0 1 1\n1 0 1\n1 1 0\nend\n")
    assert run_cli(["classify", "--language", lang, "--r", "2"]) == 0
    assert "verdict: P\n" in capsys.readouterr().out
    hard = tmp_path / "ornand.txt"
    hard.write_text(serialize_language(ConstraintLanguage.of(2, ORNAND)))
    assert run_cli(["classify", "--language", hard, "--r", "2"]) == 0
    out, err = capsys.readouterr()
    assert "verdict: P\n" in out
    assert "Traceback" not in err


def test_classify_max_arity_far_above_the_hit_answers_at_once(tmp_path, capsys):
    # the table count of an unsearched arity (2**(2**40) at 40) is never built
    lang = tmp_path / "affine.txt"
    lang.write_text("domain 2\nrelation XOR0 3\n0 0 0\n0 1 1\n1 0 1\n1 1 0\nend\n")
    start = time.perf_counter()
    code = run_cli(["classify", "--language", lang, "--r", "2", "--max-arity", "40", "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "P"
    assert data["searched_arities"] == [2, 3]
    assert data["searched_tables"] == 2**4 + 2**8


@pytest.mark.parametrize("arity", ["1", "0", "-3"])
def test_classify_rejects_max_arity_below_two(tmp_path, capsys, arity):
    lang = tmp_path / "affine.txt"
    lang.write_text("domain 2\nrelation XOR0 3\n0 0 0\n0 1 1\n1 0 1\n1 1 0\nend\n")
    assert run_cli(["classify", "--language", lang, "--r", "2", "--max-arity", arity]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: weak near-unanimity search arity must be >= 2" in err
    assert "Traceback" not in err


def test_verify_agreement(files, capsys):
    lang, true_s, _ = files
    code = run_cli(["verify", "--language", lang, "--sentence", true_s,
                    "--methods", "oracle,pgp-csp", "--r", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["agreement"] is True
    assert data["methods"] == {"oracle": True, "pgp-csp": True}


def test_verify_computes_the_witness_once(files, capsys, monkeypatch):
    import qcsp.cli

    calls = []
    real = qcsp.cli.switchability_witness

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qcsp.cli, "switchability_witness", counting)
    lang, true_s, _ = files
    code = run_cli(["verify", "--language", lang, "--sentence", true_s,
                    "--methods", "pgp-csp,pi2,power-csp", "--r", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["methods"] == {"pgp-csp": True, "pi2": True, "power-csp": True}
    assert len(calls) == 1


def test_negative_switch_bound_exit_two(tmp_path, capsys):
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    sent = tmp_path / "s.txt"
    sent.write_text("forall x\nexists y\nconstraint NOT x x\n")
    for method in ("pgp-csp", "pi2"):
        code = run_cli(["solve", "--language", lang, "--sentence", sent,
                        "--method", method, "--r", "-1", "--override-witness"])
        assert code == 2
        assert "switch bound must be >= 0" in capsys.readouterr().err


def test_sentence_rejects_reserved_names_instance_accepts_them(tmp_path, capsys):
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    sent = tmp_path / "s.txt"
    sent.write_text("forall x\nexists y$d1\nconstraint NOT x y$d1\n")
    for method in ("oracle", "pgp-csp", "pi2", "power-csp"):
        code = run_cli(["solve", "--language", lang, "--sentence", sent,
                        "--method", method, "--r", "2", "--override-witness"])
        assert code == 2
        assert "variable 'y$d1' uses the reserved '$' marker" in capsys.readouterr().err
    inst = tmp_path / "i.txt"
    inst.write_text("exists x\nexists y$d1\nconstraint NOT x y$d1\n")
    assert run_cli(["solve", "--language", lang, "--instance", inst]) == 0


def test_transform_eliminate_round_trips(files, capsys):
    lang, true_s, _ = files
    code = run_cli(["transform", "--language", lang, "--sentence", true_s,
                    "--transform", "eliminate-universals"])
    out = capsys.readouterr().out
    assert code == 0
    base = parse_language(LANG_DOC)
    from qcsp import gamma_star

    star = gamma_star(base)
    parsed = parse_sentence(out, star, allow_reserved=True)
    assert parsed.universal_count() == 0
    assert len(parsed.matrix) == 4


def test_transform_omega_with_indices(files, capsys):
    lang, true_s, _ = files
    code = run_cli(["transform", "--language", lang, "--sentence", true_s,
                    "--transform", "omega", "--indices", "1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    quants = [q for q, _ in data["sentence"]["prefix"]]
    assert quants.count("forall") == 3  # 2k+1 with one kept position


def test_transform_trace(files, capsys):
    lang, true_s, _ = files
    code = run_cli(["transform", "--language", lang, "--sentence", true_s,
                    "--transform", "zeta", "--format", "json", "--trace"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [t["rule"] for t in data["trace"]] == ["normalize", "zeta"]
    for t in data["trace"]:
        assert {"step", "rule", "before", "after"} <= set(t)


def test_transform_to_power_csp_embeds_language(files, capsys):
    lang, true_s, _ = files
    code = run_cli(["transform", "--language", lang, "--sentence", true_s,
                    "--transform", "to-power-csp", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["language"]["domain"] == 16
    names = {r["relation"] for r in data["language"]["relations"]}
    assert {"XOR0", "NOT", "gamma$1", "gamma$2"} <= names


def test_transform_gamma_columns(files, capsys):
    lang, _, _ = files
    code = run_cli(["transform", "--language", lang, "--transform", "gamma-columns",
                    "--k", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["columns"][0]["column"] == [0, 0, 1, 1]
    assert data["columns"][1]["column"] == [0, 1, 0, 1]


def test_transform_from_power_csp(tmp_path, capsys):
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    inst = tmp_path / "power.txt"
    inst.write_text("exists x1\nexists x2\nexists y\n"
                    "constraint XOR0 x1 x2 y\nconstraint gamma$1 x1\nconstraint gamma$2 x2\n")
    code = run_cli(["transform", "--language", lang, "--instance", inst,
                    "--transform", "from-power-csp", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    prefix = data["sentence"]["prefix"]
    assert [q for q, _ in prefix] == ["forall", "forall", "exists"]


def test_witness_gate_through_cli(tmp_path, capsys):
    lang = tmp_path / "not.txt"
    lang.write_text("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    sent = tmp_path / "s.txt"
    sent.write_text("exists y\nforall x\nconstraint NOT x y\n")
    # NOT-only language has no witness at r=0: refuse without the override
    code = run_cli(["solve", "--language", lang, "--sentence", sent,
                    "--method", "pgp-csp", "--r", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "witness" in err
    code = run_cli(["solve", "--language", lang, "--sentence", sent,
                    "--method", "pgp-csp", "--r", "0", "--override-witness",
                    "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["conditional"] is True
    # the conditional answer disagrees with the oracle here; verify reports it
    code = run_cli(["verify", "--language", lang, "--sentence", sent,
                    "--methods", "oracle,pgp-csp", "--r", "0", "--override-witness",
                    "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["agreement"] is False


@pytest.mark.parametrize("max_power", ["1", "0", "-3"])
def test_vacuous_witness_power_exit_two(tmp_path, capsys, max_power):
    lang = tmp_path / "not.txt"
    lang.write_text("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    sent = tmp_path / "s.txt"
    sent.write_text("exists y\nforall x\nconstraint NOT x y\n")
    for method in ("pgp-csp", "pi2", "power-csp"):
        code = run_cli(["solve", "--language", lang, "--sentence", sent,
                        "--method", method, "--r", "0", "--max-power", max_power])
        captured = capsys.readouterr()
        assert code == 2
        assert "witness power bound must be >= 2" in captured.err
        assert captured.out == ""
    code = run_cli(["witness", "--language", lang, "--r", "0", "--max-power", max_power])
    assert code == 2
    code = run_cli(["witness", "--language", lang, "--r", "0", "--max-arity", "0"])
    assert code == 2
    assert "witness arity bound must be >= 1" in capsys.readouterr().err


def test_verify_rejects_a_repeated_method(files, capsys):
    lang, true_s, _ = files
    for methods in ("oracle,oracle", "oracle,pi2,oracle"):
        code = run_cli(["verify", "--language", lang, "--sentence", true_s,
                        "--methods", methods, "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "distinct --methods" in captured.err
        assert captured.out == ""


def test_oracle_trivial_sentence(tmp_path, capsys):
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert run_cli(["solve", "--language", lang, "--sentence", empty]) == 0


def test_budget_error_exit_two(tmp_path, capsys):
    lang = tmp_path / "lang3.txt"
    lang.write_text("domain 3\nrelation LT 2\n0 1\n0 2\n1 2\nend\n")
    sent = tmp_path / "s.txt"
    sent.write_text("exists y\nconstraint LT y y\n")
    code = run_cli(["transform", "--language", lang, "--sentence", sent,
                    "--transform", "to-power-csp"])
    err = capsys.readouterr().err
    assert code == 2
    assert "requires" in err and "budget" in err


def test_env_budget_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QCSP_BUDGET_BYTES", "64")
    lang = tmp_path / "lang.txt"
    lang.write_text(LANG_DOC)
    sent = tmp_path / "s.txt"
    sent.write_text("forall a\nforall b\nexists y\nconstraint XOR0 a b y\n")
    code = run_cli(["transform", "--language", lang, "--sentence", sent,
                    "--transform", "eliminate-universals"])
    assert code == 2
    assert "bytes" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "", "1_0", "+999999", " 7", "-5", "0"],
                         ids=["letters", "empty", "underscore", "plus-sign", "space", "negative", "zero"])
def test_malformed_env_budget_exit_two(files, capsys, monkeypatch, raw):
    # QCSP_BUDGET_BYTES takes the integer syntax of the input files, and only
    # a positive value
    monkeypatch.setenv("QCSP_BUDGET_BYTES", raw)
    lang, true_s, _ = files
    assert run_cli(["solve", "--language", lang, "--sentence", true_s]) == 2
    assert capsys.readouterr().err == f"error: QCSP_BUDGET_BYTES must be a positive integer, got {raw!r}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ("domain 1_0\nrelation R 1\n0\nend\n", "error: line 1, col 8: expected an integer, got '1_0'\n"),
        ("domain 10\nrelation R 1\n+9\nend\n", "error: line 3, col 1: expected an integer, got '+9'\n"),
        ("domain 2\nrelation R 1\n\u0661\nend\n", "error: line 3, col 1: expected an integer, got '\u0661'\n"),
    ],
    ids=["underscore", "plus-sign", "arabic-indic-digit"],
)
def test_malformed_integer_token_exit_two(tmp_path, capsys, doc, message):
    lang = tmp_path / "lang.txt"
    lang.write_text(doc, encoding="utf-8")
    assert run_cli(["witness", "--language", lang, "--r", "1"]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "args, flag, token",
    [
        (["solve", "--sentence", "TRUE", "--r", "\u0662"], "--r", "\u0662"),
        (["solve", "--sentence", "TRUE", "--budget-closure", "1_0"], "--budget-closure", "1_0"),
        (["verify", "--sentence", "TRUE", "--methods", "oracle,pi2", "--max-power", "+4"],
         "--max-power", "+4"),
        (["witness", "--r", "1", "--max-arity", " 2"], "--max-arity", " 2"),
        (["classify", "--r", "2.0"], "--r", "2.0"),
        (["transform", "--sentence", "TRUE", "--transform", "gamma-columns", "--k", "\uff12"],
         "--k", "\uff12"),
        (["transform", "--sentence", "TRUE", "--transform", "omega", "--indices", "\u0661"],
         "--indices", "\u0661"),
        (["transform", "--sentence", "TRUE", "--transform", "omega", "--indices", "1,a"],
         "--indices", "a"),
    ],
    ids=["arabic-indic-r", "underscore-closure", "plus-power", "space-arity", "float-r",
         "fullwidth-k", "arabic-indic-indices", "letter-indices"],
)
def test_malformed_integer_flag_exit_two(files, capsys, args, flag, token):
    lang, true_s, _ = files
    args = [true_s if a == "TRUE" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        run_cli([args[0], "--language", lang, *args[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected an integer, got {token!r}" in err
    assert "invalid literal" not in err


def _le_language(path, size):
    rows = "".join(f"{a} {b}\n" for a in range(size) for b in range(a, size))
    path.write_text(f"domain {size}\nrelation LE 2\n{rows}end\n")
    return path


def _unary_language(path, size):
    path.write_text(f"domain {size}\nrelation R 1\n0\nend\n")
    return path


LE_SENTENCE = "forall x\nexists y\nconstraint LE y x\n"


@pytest.mark.parametrize(
    "args, make, small, large, message",
    [
        (["classify", "--r", "2"], _le_language, 3, 10,
         "power domain: requires 10**10000000000, budget allows 65536"),
        (["transform", "--transform", "to-power-csp", "--sentence", "S"], _le_language, 3, 10,
         "power domain: requires 10**10000000000, budget allows 65536"),
        (["solve", "--method", "power-csp", "--override-witness", "--sentence", "S"], _le_language, 3, 10,
         "power domain: requires 10**10000000000, budget allows 65536"),
        (["witness", "--r", "1"], _unary_language, 8, 10**6,
         "arity-1 operation enumeration: requires 1000000**1000000, budget allows 1048576"),
        (["witness", "--r", "1"], _unary_language, 8, 10**7,
         "arity-1 operation enumeration: requires 10000000**10000000, budget allows 1048576"),
    ],
    ids=["classify", "to-power-csp", "solve-power-csp", "witness-1e6", "witness-1e7"],
)
def test_huge_budget_figure_fails_fast_as_a_small_one(tmp_path, capsys, args, make, small, large, message):
    # the figure is decided without building it, and named by its power when
    # it is too large to print
    sentence = tmp_path / "s.txt"
    sentence.write_text(LE_SENTENCE)
    args = [sentence if a == "S" else a for a in args]
    errors = []
    for size in (small, large):
        language = make(tmp_path / f"lang{size}.txt", size)
        start = time.perf_counter()
        assert run_cli([*args, "--language", language]) == 2
        assert time.perf_counter() - start < 1.0
        errors.append(capsys.readouterr().err)
    assert errors[0].split(": requires")[0] == errors[1].split(": requires")[0]
    assert errors[1] == f"error: {message}\n"


def test_huge_column_width_fails_fast_as_a_small_one(files, capsys):
    lang, _, _ = files
    for k, required in [("17", "131072"), ("1000000000000", "2**1000000000000")]:
        start = time.perf_counter()
        assert run_cli(["transform", "--transform", "gamma-columns", "--k", k, "--language", lang]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: lexicographic column length: requires {required}, budget allows 65536\n"
        )


# ---------------------------------------------------------------------------
# exact output of paths no other test drives

THREE_ALTERNATIONS = (
    "forall a\nexists y\nforall b\nexists w\nforall c\nexists z\n"
    "constraint XOR0 a b y\nconstraint NOT w c\nconstraint NOT y z\n"
)


def test_transform_move_left_exact(files, capsys):
    lang, _, false_s = files
    code = run_cli(["transform", "--language", lang, "--sentence", false_s,
                    "--transform", "move-left"])
    assert code == 0
    assert capsys.readouterr().out == (
        "forall x$1\nforall x$2\nexists y\nconstraint NOT x$1 y\nconstraint NOT x$2 y\n"
    )


def test_transform_reduce_count_exact(files, capsys):
    lang, true_s, _ = files
    code = run_cli(["transform", "--language", lang, "--sentence", true_s,
                    "--transform", "reduce-count"])
    assert code == 0
    assert capsys.readouterr().out == (
        "forall z$u1\nexists y$1\nconstraint NOT z$u1 y$1\n"
    )


def test_transform_omega_two_indices_exact(files, tmp_path, capsys):
    lang, _, _ = files
    s = tmp_path / "three.txt"
    s.write_text(THREE_ALTERNATIONS)
    code = run_cli(["transform", "--language", lang, "--sentence", s,
                    "--transform", "omega", "--indices", "1,3"])
    assert code == 0
    assert capsys.readouterr().out == (
        "forall z$o0\nforall z$o1\nforall z$o2\nexists y$d1\nforall a\nexists y\n"
        "exists w\nforall c\nexists z\n"
        "constraint XOR0 a z$o1 y\nconstraint NOT w c\nconstraint NOT y z\n"
    )


def test_transform_power_relation_exact(files, capsys):
    lang, _, _ = files
    args = ["transform", "--language", lang, "--transform", "power-relation",
            "--relation", "NOT", "--k", "2"]
    assert run_cli(args) == 0
    assert capsys.readouterr().out == "relation NOT 2\n0 3\n1 2\n2 1\n3 0\nend\n"
    assert run_cli([*args, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "arity": 2, "domain": 4, "relation": "NOT", "rows": [[0, 3], [1, 2], [2, 1], [3, 0]]
    }
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "relation, message",
    [([], "error: power-relation needs --relation\n"),
     (["--relation", "NOPE"], "error: unknown relation 'NOPE'\n")],
)
def test_transform_power_relation_errors(files, capsys, relation, message):
    lang, _, _ = files
    code = run_cli(["transform", "--language", lang, "--transform", "power-relation",
                    "--k", "2", *relation])
    assert code == 2
    assert capsys.readouterr() == ("", message)


def test_witness_budget_closure(files, capsys):
    lang, _, _ = files
    assert run_cli(["witness", "--language", lang, "--r", "2", "--budget-closure", "3"]) == 0
    assert capsys.readouterr().out == (
        "r: 2\narities_used:\n  - 1\n  - 2\n  - 3\npowers:\nverdict: inconclusive\n"
    )
    assert run_cli(["witness", "--language", lang, "--r", "2", "--budget-closure", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --budget-closure must be positive\n")


def test_budget_closure_is_checked_before_any_file_is_read(tmp_path, capsys):
    code = run_cli(["solve", "--language", tmp_path / "nope.txt",
                    "--sentence", tmp_path / "nope.txt", "--budget-closure", "0"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --budget-closure must be positive\n")


@pytest.mark.parametrize("which, truth, code", [(1, True, 0), (2, False, 0)])
def test_verify_all_four_methods_exact(files, capsys, which, truth, code):
    lang, sentence = files[0], files[which]
    assert run_cli(["verify", "--language", lang, "--sentence", sentence,
                    "--methods", "oracle,pgp-csp,pi2,power-csp", "--r", "2"]) == code
    assert capsys.readouterr().out == (
        f"methods:\n  oracle: {truth}\n  pgp-csp: {truth}\n  pi2: {truth}\n"
        f"  power-csp: {truth}\nagreement: True\n"
    )


def test_verify_a_user_variable_named_z(files, tmp_path, capsys):
    # omega's collapsed universals must not take the names z$1, z$2, ...
    # that elimination gives the copies of the user's z
    lang = files[0]
    s = tmp_path / "z.txt"
    s.write_text("forall a\nexists y\nforall b\nexists z\nconstraint XOR0 a b y\nconstraint NOT y z\n")
    assert run_cli(["verify", "--language", lang, "--sentence", s,
                    "--methods", "oracle,pgp-csp,pi2,power-csp", "--r", "2"]) == 0
    assert capsys.readouterr() == (
        "methods:\n  oracle: False\n  pgp-csp: False\n  pi2: False\n"
        "  power-csp: False\nagreement: True\n",
        "",
    )


# ---------------------------------------------------------------------------
# flag combinations the CLI rejects instead of ignoring


def test_verify_rejects_an_instance(files, tmp_path, capsys):
    # an instance has one solver, so two "methods" would both run it
    lang, _, _ = files
    inst = tmp_path / "inst.txt"
    inst.write_text("exists a\nexists b\nconstraint NOT a b\n")
    code = run_cli(["verify", "--language", lang, "--instance", inst,
                    "--methods", "oracle,pi2", "--r", "2"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: verify needs --sentence: an --instance has only one solver\n"
    )


@pytest.mark.parametrize("method", ["pgp-csp", "pi2", "power-csp"])
def test_solve_instance_rejects_a_reduction_method(files, tmp_path, capsys, method):
    lang, _, _ = files
    inst = tmp_path / "inst.txt"
    inst.write_text("exists a\nexists b\nconstraint NOT a b\n")
    code = run_cli(["solve", "--language", lang, "--instance", inst,
                    "--method", method, "--r", "2"])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: --method {method} needs --sentence: an --instance is solved as a CSP\n"
    )
    # the default method, and oracle named explicitly, still solve it
    assert run_cli(["solve", "--language", lang, "--instance", inst]) == 0
    assert run_cli(["solve", "--language", lang, "--instance", inst, "--method", "oracle"]) == 0


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--sentence", "TRUE", "--methods", "oracle,pi2", "--trace"],
        ["witness", "--r", "2", "--trace"],
        ["classify", "--r", "2", "--trace"],
        ["transform", "--sentence", "TRUE", "--transform", "zeta", "--budget-closure", "3"],
    ],
)
def test_flags_a_subcommand_does_not_read_exit_two(files, capsys, args):
    lang, true_s, _ = files
    args = [true_s if a == "TRUE" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        run_cli([args[0], "--language", lang, *args[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the module entry point, in a fresh interpreter


def test_module_entry_point_exit_codes(files, tmp_path):
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    lang, true_s, false_s = files

    def run(sentence):
        return subprocess.run(
            [sys.executable, "-m", "qcsp.cli", "solve", "--language", str(lang),
             "--sentence", str(sentence)],
            capture_output=True, text=True, env=env, timeout=120,
        )

    done = run(true_s)
    assert (done.returncode, done.stderr) == (0, "")
    assert "truth: True" in done.stdout
    done = run(false_s)
    assert (done.returncode, done.stderr) == (1, "")
    assert "truth: False" in done.stdout
    done = run(tmp_path / "missing.txt")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and "missing.txt" in done.stderr
    assert "Traceback" not in done.stderr
