"""Tests of the reference checks against hand-worked cases, and of the
benchmark's description against what it reports.

    python3 -m pytest perfbench/test_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NOT2 = inputs.language(2, inputs.NOT)
XOR0 = inputs.language(2, inputs.XOR0)
DOM3 = inputs.language(3, inputs.LT, inputs.CYC)
ONE_IN_THREE = inputs.language(2, ("ONE", 3, ((0, 0, 1), (0, 1, 0), (1, 0, 0))))
OR2 = inputs.language(2, ("OR", 2, ((0, 1), (1, 0), (1, 1))))

AND = (2, (0, 0, 0, 1))
OR = (2, (0, 1, 1, 1))
MAJORITY = (3, (0, 0, 0, 1, 0, 1, 1, 1))
MINORITY = (3, (0, 1, 1, 0, 1, 0, 0, 1))
IDENTITY = (1, (0, 1))


def sentence(prefix: str, *atoms) -> dict:
    return {"prefix": [("forall" if p[0] == "A" else "exists", p[1:]) for p in prefix.split()], "atoms": list(atoms)}


def test_game_tree_on_hand_worked_sentences():
    assert reference.evaluate(NOT2, sentence("Ax Ey", ("NOT", ("x", "y"))))
    assert not reference.evaluate(NOT2, sentence("Ey Ax", ("NOT", ("x", "y"))))
    assert reference.evaluate(XOR0, sentence("Ax Ay Ez", ("XOR0", ("x", "y", "z"))))
    assert not reference.evaluate(XOR0, sentence("Ez Ax Ay", ("XOR0", ("x", "y", "z"))))
    # x = 2 has no larger element
    assert not reference.evaluate(DOM3, sentence("Ax Ey", ("LT", ("x", "y"))))
    assert reference.evaluate(DOM3, sentence("Ax Ey Ez", ("CYC", ("x", "y", "z"))))
    assert not reference.evaluate(DOM3, sentence("Ax Ey", ("CYC", ("x", "y", "y"))))
    assert reference.evaluate(XOR0, sentence("Ax"))
    for depth in range(1, 5):
        assert reference.evaluate(XOR0, inputs.xor0_ladder(depth))


def test_preservation_double_loop():
    # AND of (0,1) and (1,0) is (0,0), which is not in OR
    assert not reference.preserves(*AND, 2, OR2["relations"]["OR"][1])
    assert reference.preserves(*OR, 2, OR2["relations"]["OR"][1])
    assert reference.preserves(*MAJORITY, 2, OR2["relations"]["OR"][1])
    assert reference.preserves(*MINORITY, 2, XOR0["relations"]["XOR0"][1])
    # majority of (0,0,0), (0,1,1), (1,0,1) is (0,0,1)
    assert not reference.preserves(*MAJORITY, 2, XOR0["relations"]["XOR0"][1])


def test_the_six_boolean_wnu_candidates():
    candidates = reference.boolean_wnu_candidates()
    assert len(set(candidates)) == 6
    assert AND in candidates and OR in candidates
    assert MAJORITY in candidates and MINORITY in candidates
    assert (3, (0, 0, 0, 0, 0, 0, 0, 1)) in candidates
    assert (3, (0, 1, 1, 1, 1, 1, 1, 1)) in candidates


def test_switch_bounded_and_closure():
    assert reference.switch_bounded(3, 1, 2) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert reference.generates_all([], 2, 1, 2)
    # 010 and 101 have two switches and the identity adds nothing
    assert not reference.generates_all([IDENTITY], 3, 1, 2)
    # minority(011, 001, 000) = 010 and minority(100, 110, 111) = 101
    assert reference.generates_all([MINORITY], 3, 1, 2)
    # majority(011, 110, 000) = 010 and majority(100, 001, 111) = 101
    assert reference.generates_all([MAJORITY], 3, 1, 2)


def test_witness_check():
    good = {"verdict": "witnessed", "powers": [[2, True], [3, True], [4, True]], "operations": [list(MINORITY)]}
    assert reference.check_witness(XOR0, 1, 4, good) is None
    assert "power 4" in reference.check_witness(XOR0, 1, 4, dict(good, powers=[[2, True], [3, True], [4, False]]))
    assert "not a polymorphism" in reference.check_witness(XOR0, 1, 4, dict(good, operations=[list(MAJORITY)]))
    assert "verdict" in reference.check_witness(XOR0, 1, 4, dict(good, verdict="refuted-at-bounds"))


def test_classify_check():
    assert reference.check_classify(XOR0, 2, {"verdict": "P", "base_wnu": list(MINORITY)}) is None
    assert reference.check_classify(XOR0, 2, {"verdict": "P", "base_wnu": list(MAJORITY)})
    assert reference.check_classify(XOR0, 2, {"verdict": "not-applicable", "base_wnu": None})
    # the polymorphisms of one-in-three are the projections: no witness
    assert reference.check_classify(ONE_IN_THREE, 2, {"verdict": "not-applicable", "base_wnu": None}) is None


def test_seed_rewrites_keep_meaning_and_change_text():
    for workload in ("bundle", "pi2"):
        a, b = inputs.make_items(workload, 1), inputs.make_items(workload, 2)
        assert inputs.make_items(workload, 1) == a
        assert [x["text"] for x in a] != [y["text"] for y in b]
        for x, y in zip(a, b):
            lang = inputs.SENTENCE_LANGUAGES[x["key"]][0]
            assert reference.evaluate(lang, x["sentence"]) == reference.evaluate(lang, y["sentence"])


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_every_reported_layer_is_traced():
    traced = {f"{module}.{name}" for module, names in tracer.TRACED.items() for name in names}
    assert set(run.PER_LAYER) == traced
    assert set(tracer.SIZES) <= traced
