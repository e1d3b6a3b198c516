import json

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
