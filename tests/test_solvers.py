import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsp import (
    Atom,
    BudgetError,
    QcspError,
    Budgets,
    ConstraintLanguage,
    CspInstance,
    QuantifiedSentence,
    Relation,
    SwitchabilityWitness,
    WitnessRequiredError,
    build_power_language,
    classify,
    is_wnu,
    oracle_qcsp,
    preserves,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    solve_csp,
    switchability_witness,
)
from qcsp import solvers
from qcsp.algebra import lift_operation, table_from_function
from qcsp.solvers import pi2_truth
from helpers import (
    CYCLE3,
    LT3,
    NOT,
    ORNAND,
    XOR4,
    lang_dom3,
    lang_mixed2,
    preserves_bruteforce,
    random_pi2,
    random_sentence,
    reversed_relations,
    sat_by_enumeration,
)


def sent(lang, prefix, atoms):
    return QuantifiedSentence(tuple(prefix), tuple(atoms), lang)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_forall_exists_not(mixed_lang):
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "y"))])
    assert oracle_qcsp(s).truth is True


def test_oracle_exists_forall_not(mixed_lang):
    s = sent(mixed_lang, [("exists", "y"), ("forall", "x")], [Atom("NOT", ("x", "y"))])
    assert oracle_qcsp(s).truth is False


def test_oracle_affine_pi2(xor0_lang):
    s = sent(
        xor0_lang,
        [("forall", "x1"), ("forall", "x2"), ("exists", "y")],
        [Atom("XOR0", ("x1", "x2", "y"))],
    )
    assert oracle_qcsp(s).truth is True


def test_oracle_empty_matrix_is_true(mixed_lang):
    assert oracle_qcsp(sent(mixed_lang, [("forall", "x")], [])).truth is True


def test_oracle_budget(mixed_lang):
    names = [f"v{i}" for i in range(30)]
    atoms = [Atom("XOR0", (names[i], names[i + 1], names[i + 2])) for i in range(0, 27, 3)]
    s = sent(mixed_lang, [("forall", v) for v in names], atoms)
    with pytest.raises(BudgetError):
        oracle_qcsp(s)


def test_oracle_skips_unconstrained_variables(mixed_lang):
    # thirty unused universals on top of a satisfiable core stay cheap and exact
    prefix = [("forall", f"pad{i}") for i in range(30)] + [("forall", "x"), ("exists", "y")]
    s = sent(mixed_lang, prefix, [Atom("NOT", ("x", "y"))])
    verdict = oracle_qcsp(s)
    assert verdict.truth is True
    assert verdict.stats["nodes"] <= 8


def test_oracle_rejects_invalid(mixed_lang):
    s = sent(mixed_lang, [], [Atom("NOT", ("a", "b"))])
    with pytest.raises(ValueError):
        oracle_qcsp(s)


# ---------------------------------------------------------------------------
# CSP solver


def test_solve_empty_relation_unsat(mixed_lang):
    lang = ConstraintLanguage.of(2, Relation("E", 1, frozenset()), NOT)
    inst = CspInstance(lang, ("x",), (Atom("E", ("x",)),))
    assert solve_csp(inst).truth is False


def test_solve_zero_atoms_empty_witness(mixed_lang):
    inst = CspInstance(mixed_lang, ("x", "y"), ())
    verdict = solve_csp(inst)
    assert verdict.truth and verdict.witness == {}


def test_solve_witness_satisfies_atoms(mixed_lang):
    inst = CspInstance(
        mixed_lang,
        ("a", "b", "c"),
        (Atom("XOR0", ("a", "b", "c")), Atom("NOT", ("a", "b"))),
    )
    verdict = solve_csp(inst)
    assert verdict.truth
    w = verdict.witness
    assert (w["a"] + w["b"] + w["c"]) % 2 == 0
    assert w["a"] != w["b"]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solve_agrees_with_enumeration(data):
    lang = lang_mixed2()
    nv = data.draw(st.integers(min_value=1, max_value=6))
    names = [f"v{i}" for i in range(nv)]
    n_atoms = data.draw(st.integers(min_value=0, max_value=5))
    atoms = []
    for _ in range(n_atoms):
        rel = data.draw(st.sampled_from(sorted(lang.relations)))
        arity = lang.relations[rel].arity
        atoms.append(Atom(rel, tuple(data.draw(st.sampled_from(names)) for _ in range(arity))))
    inst = CspInstance(lang, tuple(names), tuple(atoms))
    assert solve_csp(inst).truth == sat_by_enumeration(inst)


def test_solve_zero_ary_atoms():
    lang = ConstraintLanguage.of(
        2, Relation("T", 0, frozenset({()})), Relation("F", 0, frozenset()), NOT
    )
    sat = CspInstance(lang, ("x", "y"), (Atom("T", ()), Atom("NOT", ("x", "y"))))
    assert solve_csp(sat).witness == {"x": 0, "y": 1}
    unsat = CspInstance(lang, ("x", "y"), (Atom("F", ()), Atom("NOT", ("x", "y"))))
    assert solve_csp(unsat).truth is False


def test_solve_arc_consistency_alone_decides_chains():
    # a < b < c has one solution over {0, 1, 2} and a 4-chain has none;
    # generalized arc consistency settles both before any branching
    lang = lang_dom3()
    chain = CspInstance(lang, ("a", "b", "c"), (Atom("LT", ("a", "b")), Atom("LT", ("b", "c"))))
    verdict = solve_csp(chain)
    assert verdict.witness == {"a": 0, "b": 1, "c": 2}
    assert verdict.stats["nodes"] == 0
    longer = CspInstance(
        lang, ("a", "b", "c", "d"), chain.atoms + (Atom("LT", ("c", "d")),)
    )
    verdict = solve_csp(longer)
    assert verdict.truth is False
    assert verdict.stats["nodes"] == 0


def test_solve_repeated_variable_needs_search():
    # each position of R(x, x, y) alone supports x in {0, 1}; no value fits both
    lang = ConstraintLanguage.of(3, Relation("R", 3, frozenset({(0, 1, 2), (1, 0, 2)})))
    inst = CspInstance(lang, ("x", "y"), (Atom("R", ("x", "x", "y")),))
    assert solve_csp(inst).truth is False
    assert sat_by_enumeration(inst) is False


def test_solve_witness_check_is_not_an_assert():
    # a support table that claims (1,) for a relation holding only (0,) makes
    # propagation unsound; the final witness check must catch it even under -O
    rel = Relation("E", 1, frozenset({(0,)}))
    rel.__dict__["supports"] = (((1 << 1, 1),),)
    inst = CspInstance(ConstraintLanguage.of(2, rel), ("x",), (Atom("E", ("x",)),))
    with pytest.raises(QcspError, match="violates an atom"):
        solve_csp(inst)


@st.composite
def dom3_instances(draw):
    rows = draw(st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=12))
    lang = ConstraintLanguage.of(3, LT3, CYCLE3, Relation("R", 3, frozenset(rows)))
    nv = draw(st.integers(min_value=1, max_value=5))
    names = [f"v{i}" for i in range(nv)]
    atoms = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        rel = draw(st.sampled_from(sorted(lang.relations)))
        arity = lang.relations[rel].arity
        atoms.append(Atom(rel, tuple(draw(st.sampled_from(names)) for _ in range(arity))))
    if draw(st.booleans()):
        atoms.append(Atom("R", (names[0], names[0], names[-1])))
    return CspInstance(lang, tuple(names), tuple(atoms))


@given(dom3_instances())
@settings(max_examples=150, deadline=None)
def test_solve_dom3_agrees_with_enumeration(inst):
    verdict = solve_csp(inst)
    assert verdict.truth == sat_by_enumeration(inst)
    if verdict.truth and inst.atoms:
        w = verdict.witness
        assert set(w) == set(inst.variables)
        for atom in inst.atoms:
            assert tuple(w[v] for v in atom.args) in inst.language.relations[atom.relation].tuples


def test_solve_agrees_with_enumeration_twelve_vars():
    rnd = random.Random(47)
    lang = lang_mixed2()
    names = [f"v{i:02d}" for i in range(12)]
    for _ in range(40):
        atoms = tuple(
            Atom("XOR0", tuple(rnd.choice(names) for _ in range(3)))
            if rnd.random() < 0.5
            else Atom("NOT", tuple(rnd.choice(names) for _ in range(2)))
            for _ in range(rnd.randint(1, 6))
        )
        inst = CspInstance(lang, tuple(names), atoms)
        assert solve_csp(inst).truth == sat_by_enumeration(inst)


def test_oracle_self_consistency(mixed_lang):
    # a purely existential sentence is just CSP satisfiability
    rnd = random.Random(53)
    for _ in range(80):
        s = random_pi2(rnd, mixed_lang, max_univ=0, max_exist=4, max_atoms=3)
        inst = CspInstance(mixed_lang, tuple(s.prefix_variables()), s.matrix)
        assert oracle_qcsp(s).truth == solve_csp(inst).truth


# ---------------------------------------------------------------------------
# bundle reduction


@pytest.fixture(scope="module")
def xor0_witness():
    from helpers import lang_xor0

    return switchability_witness(lang_xor0(), 2, max_arity=3, max_power=4)


def test_bundle_member_count(xor0_lang, xor0_witness):
    s = sent(
        xor0_lang,
        [("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2"),
         ("exists", "y3"), ("forall", "x3")],
        [Atom("XOR0", ("y1", "x1", "x3"))],
    )
    bundle = reduce_pgp_to_csp(s, 2, witness=xor0_witness)
    assert len(bundle.members) == 1 + 3 + 3
    assert [m.indices for m in bundle.members] == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
    ]
    assert bundle.combined == all(m.verdict.truth for m in bundle.members)


def test_bundle_r0_single_member(xor0_lang, xor0_witness):
    w0 = switchability_witness(xor0_lang, 0, max_arity=2, max_power=2)
    s = sent(xor0_lang, [("exists", "y")], [Atom("XOR0", ("y", "y", "y"))])
    bundle = reduce_pgp_to_csp(s, 0, witness=w0, override=True)
    assert len(bundle.members) == 1
    assert bundle.members[0].indices == ()
    assert bundle.members[0].sentence.universal_count() == 1


def test_bundle_requires_witness(xor0_lang):
    s = sent(xor0_lang, [("forall", "x"), ("exists", "y")], [Atom("XOR0", ("x", "x", "y"))])
    with pytest.raises(WitnessRequiredError):
        reduce_pgp_to_csp(s, 2)
    refuted = switchability_witness(xor0_lang, 0, max_arity=3, max_power=3)
    with pytest.raises(WitnessRequiredError):
        reduce_pgp_to_csp(s, 0, witness=refuted)
    bundle = reduce_pgp_to_csp(s, 0, witness=refuted, override=True)
    assert bundle.conditional is True


def test_override_on_unswitchable_language_goes_wrong_but_says_so():
    # weakening flips truth here, so the conditional bundle answers wrongly;
    # this is exactly what the witness gate exists to flag
    lang = ConstraintLanguage.of(2, NOT)
    refuted = switchability_witness(lang, 0, max_arity=3, max_power=3)
    assert refuted.verdict == "refuted-at-bounds"
    s = sent(lang, [("exists", "y"), ("forall", "x")], [Atom("NOT", ("x", "y"))])
    assert oracle_qcsp(s).truth is False
    bundle = reduce_pgp_to_csp(s, 0, witness=refuted, override=True)
    assert bundle.conditional is True
    assert bundle.combined is True  # disagrees with the oracle, as flagged


def test_bundle_lower_witness_bound_accepted(xor0_lang, xor0_witness):
    s = sent(xor0_lang, [("forall", "x"), ("exists", "y")], [Atom("XOR0", ("x", "x", "y"))])
    bundle = reduce_pgp_to_csp(s, 3, witness=xor0_witness)
    assert bundle.conditional is False


def test_bundle_matches_oracle_random(xor0_lang, xor0_witness):
    rnd = random.Random(59)
    for _ in range(120):
        s = random_sentence(rnd, xor0_lang, max_vars=6, max_atoms=2)
        bundle = reduce_pgp_to_csp(s, 2, witness=xor0_witness)
        assert bundle.combined == oracle_qcsp(s).truth


def test_bundle_deterministic_under_input_order(mixed_lang):
    witness = switchability_witness(mixed_lang, 2, max_arity=3, max_power=4)
    flipped_witness = SwitchabilityWitness(
        witness.r, witness.operations[::-1], witness.powers, witness.verdict
    )
    flipped = reversed_relations(mixed_lang)
    rnd = random.Random(61)
    for _ in range(10):
        s = random_sentence(rnd, mixed_lang, max_vars=5, max_atoms=2)
        a = reduce_pgp_to_csp(s, 2, witness=witness)
        t = QuantifiedSentence(s.prefix, s.matrix, flipped)
        b = reduce_pgp_to_csp(t, 2, witness=flipped_witness)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_bundle_json_lists_members(xor0_lang, xor0_witness):
    s = sent(xor0_lang, [("forall", "x"), ("exists", "y")], [Atom("XOR0", ("x", "x", "y"))])
    data = reduce_pgp_to_csp(s, 2, witness=xor0_witness).to_json()
    assert {"r", "combined", "conditional", "members", "instances_solved"} <= set(data)
    assert all({"indices", "satisfiable", "nodes"} <= set(m) for m in data["members"])


# ---------------------------------------------------------------------------
# reduction to two quantifier levels


def test_pi2_universal_bound(xor0_lang, xor0_witness):
    rnd = random.Random(67)
    roomy = Budgets(max_prefix_vars=1 << 18, max_matrix_atoms=1 << 20)
    for _ in range(20):
        s = random_sentence(rnd, xor0_lang, max_vars=4, max_atoms=1)
        out = reduce_to_pi2(s, 2, witness=xor0_witness, budgets=roomy)
        assert out.is_pi2()
        assert out.universal_count() <= xor0_lang.domain.size


def test_pi2_matches_oracle(xor0_lang, xor0_witness):
    rnd = random.Random(71)
    for _ in range(25):
        s = random_sentence(rnd, xor0_lang, max_vars=3, max_atoms=1)
        out = reduce_to_pi2(s, 2, witness=xor0_witness)
        assert pi2_truth(out) == oracle_qcsp(s).truth


def test_pi2_truth_matches_oracle_dom3():
    rnd = random.Random(73)
    lang = lang_dom3()
    truths = set()
    for _ in range(200):
        s = random_pi2(rnd, lang, max_univ=2, max_exist=3, max_atoms=3)
        truth = oracle_qcsp(s).truth
        assert pi2_truth(s) == truth
        truths.add(truth)
    assert truths == {True, False}


def test_reductions_reject_negative_switch_bound(mixed_lang):
    # false sentence: an empty index set would make the bundle vacuously true
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "x"))])
    assert oracle_qcsp(s).truth is False
    with pytest.raises(ValueError, match="switch bound must be >= 0"):
        reduce_pgp_to_csp(s, -1, override=True)
    with pytest.raises(ValueError, match="switch bound must be >= 0"):
        reduce_to_pi2(s, -1, override=True)


def test_pi2_on_pi2_input(xor0_lang, xor0_witness):
    # already two quantifier levels with few enough universals: truth unchanged
    s = sent(xor0_lang, [("forall", "x"), ("exists", "y")], [Atom("XOR0", ("x", "x", "y"))])
    out = reduce_to_pi2(s, 2, witness=xor0_witness)
    assert oracle_qcsp(s).truth is True
    assert pi2_truth(out) is True
    unsat = sent(xor0_lang, [("forall", "x"), ("exists", "y")], [Atom("XOR0", ("x", "y", "y"))])
    assert oracle_qcsp(unsat).truth is False
    assert pi2_truth(reduce_to_pi2(unsat, 2, witness=xor0_witness)) is False


# pi2_truth decides each component shape once per call


LE3 = Relation("LE", 2, frozenset((a, b) for a in range(3) for b in range(3) if a <= b))


def _pi2_prefix(existentials, universals=("z1", "z2")):
    return [("forall", z) for z in universals] + [("exists", e) for e in existentials]


# Each sentence puts a true component before a false near-twin; a shape key
# that merged the two would answer True from the first one.
NEAR_TWINS = {
    "universal names": (
        lang_mixed2,
        _pi2_prefix(["e", "f"]),
        [("NOT", "z1", "f"), ("NOT", "z1", "f"), ("NOT", "z1", "e"), ("NOT", "z2", "e")],
    ),
    "existential order": (
        lang_dom3,
        _pi2_prefix(["a", "b", "c", "d", "e", "f"], ["z"]),
        [("CYC", "z", "a", "b"), ("CYC", "a", "b", "c"), ("CYC", "z", "d", "e"), ("CYC", "e", "d", "f")],
    ),
    "repeated existential": (
        lang_dom3,
        _pi2_prefix(["a", "b", "c"], []),
        [("LT", "a", "b"), ("LT", "c", "c")],
    ),
    "relation": (
        lambda: ConstraintLanguage.of(3, LT3, LE3),
        _pi2_prefix(["a", "b"], ["z"]),
        [("LE", "z", "a"), ("LT", "z", "b")],
    ),
}


@pytest.mark.parametrize("case", sorted(NEAR_TWINS))
def test_pi2_truth_keeps_near_twin_components_apart(case):
    make_lang, prefix, atoms = NEAR_TWINS[case]
    s = sent(make_lang(), prefix, [Atom(a[0], a[1:]) for a in atoms])
    assert oracle_qcsp(s).truth is False
    assert pi2_truth(s) is False
    # each component alone holds or fails as its twin's key would not say
    first, second = s.matrix[: len(atoms) // 2], s.matrix[len(atoms) // 2 :]
    assert pi2_truth(sent(s.language, prefix, first)) is True
    assert pi2_truth(sent(s.language, prefix, second)) is False


def _counting_compiles(monkeypatch):
    built = []

    class Counting(solvers._CompiledCsp):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(solvers, "_CompiledCsp", Counting)
    return built


def test_pi2_truth_compiles_each_shape_once(mixed_lang, monkeypatch):
    # shape A three times, shape B (A's atoms in the other order) twice, and
    # one component each on z1 alone and on z2 alone: four shapes, seven
    # components, with the copies' atoms interleaved in the matrix
    parts = [[Atom("NOT", ("z1", f"a{i}")), Atom("XOR0", (f"a{i}", "z2", f"b{i}"))] for i in range(3)]
    parts += [[Atom("XOR0", (f"c{i}", "z2", f"d{i}")), Atom("NOT", ("z1", f"c{i}"))] for i in range(2)]
    parts += [[Atom("NOT", ("z1", "p"))], [Atom("NOT", ("z2", "q"))]]
    matrix = [part[k] for k in range(2) for part in parts if k < len(part)]
    existentials = sorted({v for atom in matrix for v in atom.args} - {"z1", "z2"})
    s = sent(mixed_lang, _pi2_prefix(existentials), matrix)
    checks = []
    real_check = Budgets.check

    def counting_check(self, what, required, limit):
        checks.append(what)
        real_check(self, what, required, limit)

    monkeypatch.setattr(Budgets, "check", counting_check)
    built = _counting_compiles(monkeypatch)
    assert pi2_truth(s) is True
    assert len(built) == 4
    assert checks.count("component assignments") == len(parts)
    monkeypatch.undo()
    assert oracle_qcsp(s).truth is True


def test_pi2_truth_stops_at_a_failing_repeated_shape(mixed_lang, monkeypatch):
    # five copies of a false component: one compile, and the answer is False
    matrix = [Atom("NOT", (f"e{i}", f"e{i}")) for i in range(5)]
    s = sent(mixed_lang, _pi2_prefix([f"e{i}" for i in range(5)], []), matrix)
    built = _counting_compiles(monkeypatch)
    assert pi2_truth(s) is False
    assert len(built) == 1


def test_pi2_truth_budget_on_repeated_shapes(mixed_lang):
    # every component touches both universals: 2**2 assignments each
    matrix = [Atom("XOR0", ("z1", "z2", f"e{i}")) for i in range(4)]
    s = sent(mixed_lang, _pi2_prefix([f"e{i}" for i in range(4)]), matrix)
    assert pi2_truth(s, Budgets(max_game_tree=4)) is True
    with pytest.raises(BudgetError) as err:
        pi2_truth(s, Budgets(max_game_tree=3))
    assert err.value.what == "component assignments"
    assert err.value.required == 4


@st.composite
def pi2_with_repeated_components(draw):
    """Pi2 sentences made of a few component templates, each copied with
    fresh existentials, the copies' atoms optionally interleaved."""
    lang = draw(st.sampled_from([lang_dom3(), lang_mixed2()]))
    universals = [f"z{i}" for i in range(draw(st.integers(0, 2)))]
    room = 6 if lang.domain.size == 3 else 9  # existentials, so the oracle stays quick
    rels = sorted(lang.relations)
    parts, used = [], 0
    for _ in range(draw(st.integers(1, 3))):
        slots = draw(st.integers(1, 2))
        template = []
        for _ in range(draw(st.integers(1, 3))):
            rel = draw(st.sampled_from(rels))
            arity = lang.relations[rel].arity
            args = [draw(st.sampled_from(universals + list(range(slots)))) for _ in range(arity)]
            template.append((rel, args))
        for _ in range(draw(st.integers(1, 3))):
            if used + slots > room:
                break
            names = [f"e{used + j}" for j in range(slots)]
            used += slots
            parts.append(
                [
                    Atom(rel, tuple(names[a] if isinstance(a, int) else a for a in args))
                    for rel, args in template
                ]
            )
    if draw(st.booleans()):
        matrix = [a for part in parts for a in part]
    else:
        matrix = [part[k] for k in range(3) for part in parts if k < len(part)]
    prefix = [("forall", z) for z in universals] + [("exists", f"e{j}") for j in range(used)]
    return sent(lang, prefix, matrix)


@given(pi2_with_repeated_components())
@settings(max_examples=200, deadline=None)
def test_pi2_truth_with_repeated_components_matches_oracle(s):
    assert pi2_truth(s) == oracle_qcsp(s).truth


# ---------------------------------------------------------------------------
# classification


def test_classify_affine_is_tractable(xor0_lang):
    report = classify(xor0_lang, 2, wnu_arity=3)
    assert report.verdict == "P"
    f = report.wnu
    assert f.domain.size == 16
    assert is_wnu(f)
    plang_rels = report  # sanity: table preserves the powered relation and both columns
    from qcsp import build_power_language

    plang = build_power_language(xor0_lang)
    assert preserves(f, plang.relations["XOR0"])
    assert preserves(f, plang.relations["gamma$1"])
    assert preserves(f, plang.relations["gamma$2"])
    # the exhibited operation is digitwise minority: xor of the three codes
    for a, b, c in [(1, 2, 4), (15, 3, 5), (9, 9, 2)]:
        assert f.apply((a, b, c)) == a ^ b ^ c


def test_classify_without_witness_not_applicable(one_in_three_lang):
    report = classify(one_in_three_lang, 1, wnu_arity=3)
    assert report.verdict == "not-applicable"


def test_classify_one_in_three_override(one_in_three_lang):
    report = classify(one_in_three_lang, 2, wnu_arity=3, override=True)
    assert report.verdict == "NP-complete-modulo-arity-bound"
    assert "arity" in report.caveat
    assert report.searched_tables == 2**4 + 2**8  # complete through the 256-table space


def test_classify_refuses_dom3(dom3_lang):
    with pytest.raises(BudgetError) as err:
        classify(dom3_lang, 2)
    assert err.value.required == 3**27


def test_classify_json_keys(xor0_lang):
    data = classify(xor0_lang, 2).to_json()
    assert {"verdict", "caveat", "searched_arities", "searched_tables"} <= set(data)
    assert "wnu_table" in data
    assert data["wnu_table"]["domain_size"] == 16


def test_classify_rejects_a_lift_that_breaks_preservation(xor0_lang, monkeypatch):
    # majority is a weak near-unanimity operation but does not preserve XOR0
    majority = table_from_function(xor0_lang.domain, 3, lambda a, b, c: int(a + b + c >= 2))
    monkeypatch.setattr(solvers, "find_wnu", lambda lang, m, budgets: majority)
    with pytest.raises(QcspError, match="does not preserve XOR0"):
        classify(xor0_lang, 2)


def test_classify_four_ary_preservation_budget():
    # the powered relations have 9^4 and 8^4 rows, beyond the preservation
    # cell budget for a ternary operation; the base language certifies both
    majority = (0, 0, 0, 1, 0, 1, 1, 1)
    minority = (0, 1, 1, 0, 1, 0, 0, 1)
    for rel, table in [(ORNAND, majority), (XOR4, minority)]:
        report = classify(ConstraintLanguage.of(2, rel), 2)
        assert report.verdict == "P"
        assert report.base_wnu.arity == 3 and report.base_wnu.table == table
        assert preserves_bruteforce(report.base_wnu, rel)
        assert report.wnu == lift_operation(report.base_wnu, 4)


@pytest.mark.parametrize("arity", [1, 0, -3])
def test_classify_rejects_a_wnu_arity_below_two(xor0_lang, arity):
    with pytest.raises(ValueError, match="arity must be >= 2"):
        classify(xor0_lang, 2, wnu_arity=arity)


def test_classify_seven_ary_boolean_relation_is_tractable():
    # the powered relation has 16 rows of arity 7 over the 16-element domain
    eq7 = Relation("EQ7", 7, frozenset({(0,) * 7, (1,) * 7}))
    report = classify(ConstraintLanguage.of(2, eq7), 2, wnu_arity=3)
    assert report.verdict == "P"


# Schaefer's idempotent operations: AND, OR, majority and minority
SCHAEFER_OPS = [
    (2, min),
    (2, max),
    (3, lambda a, b, c: int(a + b + c >= 2)),
    (3, lambda a, b, c: a ^ b ^ c),
]


def test_classify_ternary_boolean_slice_matches_schaefer():
    # P exactly on the relations closed under a Schaefer operation.  On the
    # small ones the reported lift also passes the direct check against every
    # relation of the power language, a check classify does not make.
    rows = list(product((0, 1), repeat=3))
    for mask in range(1, 2 ** len(rows)):
        rel = Relation("R", 3, frozenset(t for i, t in enumerate(rows) if mask >> i & 1))
        lang = ConstraintLanguage.of(2, rel)
        schaefer = any(
            preserves_bruteforce(table_from_function(lang.domain, m, fn), rel)
            for m, fn in SCHAEFER_OPS
        )
        report = classify(lang, 2)
        assert report.verdict == ("P" if schaefer else "not-applicable"), sorted(rel.tuples)
        if schaefer and len(rel) <= 3:
            plang = build_power_language(lang)
            assert all(preserves(report.wnu, p) for p in plang.relations.values())


def test_bundle_copies_only_the_occurring_universal(dom3_lang):
    # one occurring universal in front of six existentials: normalization puts
    # a dummy universal between every two of them and omega folds the dummies
    # into the shared z$j, but elimination copies the matrix only for g
    prefix = [("forall", "g")] + [("exists", v) for v in "abcdef"]
    matrix = [Atom("CYC", ("g", "a", "b")), Atom("LT", ("c", "d"))]
    s = QuantifiedSentence(tuple(prefix), tuple(matrix), dom3_lang)
    witness = switchability_witness(dom3_lang, 2, max_arity=2)
    bundle = reduce_pgp_to_csp(s, 2, witness=witness)
    assert len(bundle.members) == 1 + 7 + 21
    for member in bundle.members:
        copies = [a for a in member.instance.atoms if a.relation in dom3_lang.relations]
        assert len(copies) <= 3 * len(matrix), member.indices
    assert bundle.combined is oracle_qcsp(s).truth is True
