import dataclasses
import hashlib
import json
import random
from itertools import combinations, product
from pathlib import Path

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
    ReductionBundle,
    Relation,
    SwitchabilityWitness,
    WitnessRequiredError,
    build_power_language,
    classify,
    is_wnu,
    oracle_qcsp,
    preserves,
    qcsp_to_power_csp,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    solve_csp,
    switchability_witness,
)
from qcsp import solvers, transforms
from qcsp.algebra import lift_operation, table_from_function
from qcsp.model import check_wellformed, const_name, gamma_star
from qcsp.parsing import parse_language, parse_sentence
from qcsp.solvers import BundleMember, pi2_truth
from qcsp.transforms import (
    eliminate_universals,
    move_universals_left,
    normalize_alternating,
    omega,
    reduce_universal_count,
)
from helpers import (
    CYCLE3,
    FALSE0,
    LT3,
    NOT,
    ONE_IN_THREE,
    ORNAND,
    TRUE0,
    XOR0,
    XOR4,
    lang_dom3,
    lang_mixed2,
    lang_xor0,
    messy_sentence,
    preserves_bruteforce,
    random_alternating,
    random_language,
    random_matrix,
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


def test_solve_a_chain_deeper_than_the_recursion_limit():
    # one frame per assigned variable: 5,000 nested choices in name order
    le = Relation("LE", 2, frozenset((a, b) for a in range(3) for b in range(3) if a <= b))
    names = [f"v{i:04d}" for i in range(5000)]
    atoms = tuple(Atom("LE", (a, b)) for a, b in zip(names, names[1:]))
    verdict = solve_csp(CspInstance(ConstraintLanguage.of(3, le), tuple(names), atoms))
    assert verdict.truth and verdict.stats["nodes"] == 5000
    assert set(verdict.witness.values()) == {0}


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


def test_solve_requeues_an_atom_whose_variable_repeats():
    # position by position, one revision of LT(v, v) narrows v to {0, 1} and
    # then to {1}, and R(v, a, v) leaves v at {1}, with no valid tuple left;
    # an atom that starts from its tuples equal on the repeated positions
    # sees the wipeout without revising itself again
    lt = CspInstance(lang_dom3(), ("v",), (Atom("LT", ("v", "v")),))
    rel = Relation("R", 3, frozenset({(0, 0, 1), (1, 0, 2)}))
    r = CspInstance(ConstraintLanguage.of(3, rel), ("a", "v"), (Atom("R", ("v", "a", "v")),))
    for inst in (lt, r):
        verdict = solve_csp(inst)
        assert verdict.truth is sat_by_enumeration(inst) is False
        assert verdict.stats["nodes"] == 0


def test_solve_refutes_a_repeated_variable_without_search():
    # NOT(v, v) and CYC(v, a, v) hold no tuple equal on the repeated
    # positions, so the initial propagation refutes both
    not_vv = CspInstance(ConstraintLanguage.of(2, NOT), ("v",), (Atom("NOT", ("v", "v")),))
    cyc = CspInstance(lang_dom3(), ("a", "v"), (Atom("CYC", ("v", "a", "v")),))
    assert sorted(cyc.language.relations) == ["CYC", "LT"]
    for inst in (not_vv, cyc):
        verdict = solve_csp(inst)
        assert verdict.truth is sat_by_enumeration(inst) is False
        assert verdict.stats["nodes"] == 0


def test_agreeing_tuples_are_cached_per_pattern():
    rel = Relation("R", 3, frozenset({(0, 0, 1), (1, 0, 1), (1, 2, 1), (2, 1, 2)}))
    # tuples numbered in sorted order: (0,0,1), (1,0,1), (1,2,1), (2,1,2)
    assert rel.agreeing((0, 1, 2)) == 0b1111
    assert rel.agreeing((0, 0, 2)) == 0b0001
    assert rel.agreeing((0, 1, 0)) == 0b1110
    assert rel.agreeing((0, 0, 0)) == 0
    assert set(rel.__dict__["agreeing_masks"]) == {(0, 1, 2), (0, 0, 2), (0, 1, 0), (0, 0, 0)}


_COMPILED_EXTRA = (
    Relation("E", 1, frozenset()),
    Relation("T", 0, frozenset({()})),
    Relation("F", 0, frozenset()),
)


def _compiled_cases(seed, count):
    """Seeded (language with constants, variables, atoms, pins) cases: random
    relations of arity 1 to 3 plus an empty unary relation and nullary true
    and false ones, atoms drawn from few names so variables repeat, some atoms
    repeated, and some variables pinned to one value as pi2_truth pins them."""
    rnd = random.Random(seed)
    for _ in range(count):
        size = rnd.choice((2, 3))
        base = random_language(rnd, size, (1, 2, 3), max_tuples=2 * size + 1, max_relations=3)
        lang = gamma_star(ConstraintLanguage.of(size, *base.relations.values(), *_COMPILED_EXTRA))
        rels = sorted(lang.relations)
        names = [f"v{i}" for i in range(rnd.randint(1, 5))]
        atoms = []
        for _ in range(rnd.randint(1, 7)):
            rel = rnd.choice(rels)
            if rel in ("E", "F") and rnd.random() < 0.8:
                rel = "T"
            atoms.append(Atom(rel, tuple(rnd.choice(names) for _ in range(lang.relations[rel].arity))))
        atoms += rnd.sample(atoms, rnd.randint(0, min(2, len(atoms))))
        rnd.shuffle(atoms)
        pins = {v: rnd.randrange(size) for v in names if rnd.random() < 0.25}
        yield lang, names, atoms, pins


# sha256 of the (truth, nodes, witness) list below.  It was first recorded
# with a solver that propagated every atom, unary and duplicate ones
# included, and queued each atom again after its own revision; start-domain
# masks and merged duplicates kept it.  It was restated once, when an atom
# whose variable repeats began from its tuples equal on the repeated
# positions: 11 of the 600 cases then searched fewer nodes (396 in all, was
# 415), and every truth and witness stayed the same.
_COMPILED_DIGEST = "6ecb438254936150f9fe08c5ad8d72fbdd292ac3ec1531a751b5d99312d2b45c"


def test_compiled_csp_differential():
    results = []
    for lang, names, atoms, pins in _compiled_cases(2024, 600):
        model = solvers._CompiledCsp(lang, names, solvers._atom_ids(names, atoms))
        domains = [1 << pins[v] if v in pins else model.full for v in names]
        truth, nodes = model.solve(domains)
        pinned = [Atom(const_name(val), (v,)) for v, val in pins.items()]
        assert truth == sat_by_enumeration(CspInstance(lang, tuple(names), tuple(atoms + pinned)))
        witness = None
        if truth:
            assert all(d & (d - 1) == 0 for d in domains)
            witness = tuple(solvers._lowest(d) for d in domains)
            value = dict(zip(names, witness))
            for atom in atoms + pinned:
                assert tuple(map(value.get, atom.args)) in lang.relations[atom.relation].tuples
        results.append((truth, nodes, witness))
    assert sum(truth for truth, _, _ in results) == 257
    assert hashlib.sha256(repr(results).encode()).hexdigest() == _COMPILED_DIGEST


def _components_by_union_find(model, domains):
    """Components of the branching variables, linked through the atoms'
    branching variables, by a union-find: each in name order, ordered by
    first name."""
    parent = list(range(len(domains)))
    for _, _, idxs in model.atoms:
        live = [i for i in idxs if domains[i] & (domains[i] - 1)]
        for a, b in zip(live, live[1:]):
            parent[solvers._find(parent, a)] = solvers._find(parent, b)
    groups = {}
    for i in model.order:
        if domains[i] & (domains[i] - 1):
            groups.setdefault(solvers._find(parent, i), []).append(i)
    return list(groups.values())


def test_components_match_a_union_find():
    # the walk over the watch lists gives the union-find's components, in
    # the same order, on random models and random start domains
    rnd = random.Random(2027)
    several = empty = 0
    for _ in range(400):
        size = rnd.choice((2, 3))
        lang = random_language(rnd, size, (1, 2, 3), max_tuples=2 * size + 1, max_relations=3)
        rels = sorted(lang.relations)
        names = [f"v{rnd.randrange(100):02d}" for _ in range(rnd.randint(1, 14))]
        names = list(dict.fromkeys(names))
        atoms = []
        for _ in range(rnd.randint(1, 9)):
            rel = rnd.choice(rels)
            atoms.append(Atom(rel, tuple(rnd.choice(names) for _ in range(lang.relations[rel].arity))))
        model = solvers._CompiledCsp(lang, names, solvers._atom_ids(names, atoms))
        domains = [rnd.randrange(1, 1 << size) for _ in names]
        got = model.components(domains)
        assert got == _components_by_union_find(model, domains), (names, atoms, domains)
        several += len(got) > 1
        empty += not got
    assert several > 50 and empty > 10


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
    return switchability_witness(lang_xor0(), 2, max_arity=3, max_power=4)


def _padded_sets(n, r):
    """Every collapse pattern of at most r kept positions out of 1..n, those
    that keep a vacuous universal included, smallest first."""
    return [idx for k in range(min(r, n) + 1) for idx in combinations(range(1, n + 1), k)]


def _members(s, index_sets):
    """The given collapse patterns of ``s``, each built, solved and listed
    with its source."""
    alt = normalize_alternating(s)
    return [BundleMember(idx, s, solve_csp(eliminate_universals(omega(alt, idx)))) for idx in index_sets]


def _occurring_positions(alt):
    """The positions i whose universal x_i occurs in the matrix."""
    occurring = alt.sentence.matrix_variables()
    return tuple(i for i, x in enumerate(alt.x_vars(), start=1) if x in occurring)


def _eager_members(s, r):
    """Every padded collapse pattern built and solved, none skipped."""
    return _members(s, _padded_sets(normalize_alternating(s).n, r))


def _eager_verdicts(s, r):
    return [m.verdict.truth for m in _eager_members(s, r)]


def test_bundle_member_count(xor0_lang, xor0_witness):
    prefix = [("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2"),
              ("exists", "y3"), ("forall", "x3")]
    # x1 and x3 occur, x2 does not: the patterns keep only positions 1 and 3,
    # and the bundle decides the maximal ones, which keep min(r, 2) of them
    s = sent(xor0_lang, prefix, [Atom("XOR0", ("y1", "x1", "x3"))])
    occurring = [(), (1,), (3,), (1, 3)]
    assert [m.verdict.truth for m in _members(s, occurring)] == [True, False, False, False]
    bundle = reduce_pgp_to_csp(s, 2, witness=xor0_witness)
    assert list(bundle.index_sets) == [(1, 3)]
    assert [(m.indices, m.verdict.truth) for m in bundle.members] == [((1, 3), False)]
    assert bundle.combined is False is all(_eager_verdicts(s, 2)) is oracle_qcsp(s).truth
    # at r = 1 the maximal patterns are (1,) and (3,); the solved members are
    # the prefix that ends at the first false one
    w1 = switchability_witness(xor0_lang, 1, max_arity=3, max_power=4)
    one = reduce_pgp_to_csp(s, 1, witness=w1)
    assert list(one.index_sets) == [(1,), (3,)]
    assert [(m.indices, m.verdict.truth) for m in one.members] == [((1,), False)]
    assert one.combined is False is all(_eager_verdicts(s, 1))
    # a true sentence over the same prefix decides every pattern; only x1
    # occurs, so the one pattern is (1,) of the 7 padded ones
    t = sent(xor0_lang, prefix, [Atom("XOR0", ("y1", "x1", "y2"))])
    full = reduce_pgp_to_csp(t, 2, witness=xor0_witness)
    assert list(full.index_sets) == [(1,)]
    assert [m.indices for m in full.members] == [(1,)]
    assert full.combined is True is all(_eager_verdicts(t, 2)) is oracle_qcsp(t).truth


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
    assert set(data) == {"r", "combined", "conditional", "members", "instances_solved",
                         "instances_skipped"}
    assert all({"indices", "satisfiable", "nodes"} <= set(m) for m in data["members"])
    # the only occurring universal x is at position 1 of the padded prefix
    # exists y$d1 forall x exists y forall x$d2, so the one maximal pattern is (1,)
    assert [m["indices"] for m in data["members"]] == [[1]]
    assert (data["instances_solved"], data["instances_skipped"]) == (1, 0)
    # a false sentence lists only the solved prefix and counts the rest: of
    # the maximal patterns (1, 2), (1, 3) and (2, 3), the first is false
    prefix = [("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2"),
              ("exists", "y3"), ("forall", "x3")]
    s = sent(xor0_lang, prefix, [Atom("XOR0", ("y1", "x1", "x2")), Atom("XOR0", ("y2", "x2", "x3"))])
    data = reduce_pgp_to_csp(s, 2, witness=xor0_witness).to_json()
    assert data["combined"] is False
    assert data["instances_solved"] == len(data["members"]) == 1
    assert data["instances_skipped"] == 3 - 1
    assert [(m["indices"], m["satisfiable"]) for m in data["members"]] == [([1, 2], False)]


@pytest.mark.parametrize("make_lang, seed", [(lang_xor0, 67), (lang_mixed2, 71)])
def test_lazy_bundle_matches_eager_bundle(make_lang, seed):
    lang = make_lang()
    witness = switchability_witness(lang, 2, max_arity=3, max_power=4)
    flipped = reversed_relations(lang)
    flipped_witness = SwitchabilityWitness(
        witness.r, witness.operations[::-1], witness.powers, witness.verdict
    )
    rnd = random.Random(seed)
    falses = skipped = fewer = 0
    for _ in range(60):
        s = random_sentence(rnd, lang, max_vars=6, max_atoms=3)
        bundle = reduce_pgp_to_csp(s, 2, witness=witness)
        padded = _padded_sets(normalize_alternating(s).n, 2)
        eager = _eager_verdicts(s, 2)
        assert bundle.combined == all(eager) == oracle_qcsp(s).truth, (s.prefix, s.matrix)
        # the patterns are the padded ones that keep occurring universals
        # only, decided in the same order up to the first false one
        assert set(bundle.index_sets) <= set(padded)
        assert sorted(bundle.index_sets, key=padded.index) == list(bundle.index_sets)
        truths = [eager[padded.index(idx)] for idx in bundle.index_sets]
        decided = len(truths) if all(truths) else truths.index(False) + 1
        assert [m.indices for m in bundle.members] == list(bundle.index_sets[:decided])
        assert [m.verdict.truth for m in bundle.members] == truths[:decided]
        t = QuantifiedSentence(s.prefix, s.matrix, flipped)
        again = reduce_pgp_to_csp(t, 2, witness=flipped_witness)
        assert json.dumps(bundle.to_json()) == json.dumps(again.to_json())
        falses += not bundle.combined
        skipped += len(truths) - decided
        fewer += len(bundle.index_sets) < len(padded)
    assert falses and skipped and fewer  # the seed stops early and drops vacuous patterns


def _cut_sentence(rnd, lang, max_vars, max_atoms):
    """A random sentence some of whose universals occur in no atom, so that
    vacuous universals fall between occurring ones."""
    names = [f"v{i}" for i in range(rnd.randint(2, max_vars))]
    prefix = tuple((rnd.choice(["forall", "exists"]), v) for v in names)
    vacuous = {v for q, v in prefix[1:] if q == "forall" and rnd.random() < 0.5}
    atoms = random_matrix(rnd, lang, [v for v in names if v not in vacuous], max_atoms)
    return QuantifiedSentence(prefix, atoms, lang)


@pytest.mark.parametrize("size, seed", [(2, 113), (3, 127)])
def test_occurring_patterns_decide_as_every_padded_pattern(size, seed):
    # both reductions keep only occurring universals; their verdicts equal the
    # eager conjunction over every padded pattern, vacuous kept universals
    # included, under the override and with a witness, and then the oracle's
    rnd = random.Random(seed)
    cuts = padded = witnessed = 0
    truths = set()
    for _ in range(8):
        lang = random_language(rnd, size, (1, 2, 3) if size == 2 else (1, 2), max_tuples=2 * size + 1)
        r = rnd.randint(1, 2)
        witness = switchability_witness(lang, r, max_arity=3 if size == 2 else 2, max_power=3)
        gates = [{"override": True}]
        if witness.verdict == "witnessed":
            gates.append({"witness": witness})
            witnessed += 1
        for _ in range(25):
            s = _cut_sentence(rnd, lang, max_vars=7 if size == 2 else 6, max_atoms=4)
            alt = normalize_alternating(s)
            want = all(_eager_verdicts(s, r))
            for gate in gates:
                assert reduce_pgp_to_csp(s, r, **gate).combined == want, (lang, s.prefix, s.matrix, r)
                assert pi2_truth(reduce_to_pi2(s, r, **gate)) == want, (lang, s.prefix, s.matrix, r)
            if len(gates) == 2:
                assert want == oracle_qcsp(s).truth, (lang, s.prefix, s.matrix, r)
            # a vacuous position between the first and the last occurring one
            positions = _occurring_positions(alt)
            cuts += bool(positions) and positions[-1] - positions[0] >= len(positions)
            padded += alt.n > s.universal_count()
            truths.add(want)
    assert cuts > 10 and padded > 10 and witnessed and truths == {True, False}


@pytest.mark.parametrize("size, seed", [(2, 131), (3, 137)])
def test_maximal_patterns_decide_as_every_padded_pattern(size, seed):
    # the bundle decides only the maximal occurring patterns; its verdict is
    # the eager conjunction over every padded pattern of at most r kept
    # universals, on sentences with vacuous universals and repeated
    # variables, under the override and with a witness, and then the
    # oracle's; each member still equals the solve of its instance
    rnd = random.Random(seed)
    witnessed = several = stopped = repeats = vacuous = 0
    truths = set()
    for _ in range(8):
        lang = random_language(rnd, size, (1, 2, 3) if size == 2 else (1, 2), max_tuples=2 * size + 1)
        r = rnd.randint(1, 2)
        witness = switchability_witness(lang, r, max_arity=3 if size == 2 else 2, max_power=3)
        gates = [{"override": True}]
        if witness.verdict == "witnessed":
            gates.append({"witness": witness})
            witnessed += 1
        for _ in range(40):
            s = messy_sentence(rnd, lang, max_vars=6)
            alt = normalize_alternating(s)
            want = all(_eager_verdicts(s, r))
            for gate in gates:
                bundle = reduce_pgp_to_csp(s, r, **gate)
                assert bundle.combined == want, (lang, s.prefix, s.matrix, r)
                keep = min(r, len(_occurring_positions(alt)))
                assert all(len(idx) == keep for idx in bundle.index_sets)
                for member in bundle.members:
                    assert solve_csp(member.instance) == member.verdict
            if len(gates) == 2:
                assert want == oracle_qcsp(s).truth, (lang, s.prefix, s.matrix, r)
            several += len(bundle.index_sets) > 1
            stopped += len(bundle.members) < len(bundle.index_sets)
            repeats += any(len(set(a.args)) < len(a.args) for a in s.matrix)
            vacuous += alt.n > len(_occurring_positions(alt))
            truths.add(want)
    assert witnessed and several > 10 and stopped and repeats > 20 and vacuous > 20
    assert truths == {True, False}


def test_unlisted_false_collapse_is_refuted_by_a_maximal_member(mixed_lang):
    # forall x1 forall x2 NOT(x1, x2): the collapse at () identifies x1 and x2
    # and is false, but only the maximal pattern (1, 2) is listed, and it is
    # false too, since a false pattern lies under a false maximal one
    s = sent(mixed_lang, [("forall", "x1"), ("forall", "x2")], [Atom("NOT", ("x1", "x2"))])
    [empty] = _members(s, [()])
    assert empty.verdict.truth is False
    bundle = reduce_pgp_to_csp(s, 2, witness=switchability_witness(mixed_lang, 2))
    assert bundle.index_sets == ((1, 2),)
    assert [(m.indices, m.verdict.truth) for m in bundle.members] == [((1, 2), False)]
    assert bundle.combined is False is oracle_qcsp(s).truth
    # at r = 1 the first maximal pattern (1,) refutes it, and in
    # exists y1 forall x1 exists y2 forall x2 XOR0(x1, y2, x2) only the last
    # maximal pattern (2,) is false, and the bundle still reaches it
    w1 = switchability_witness(mixed_lang, 1, max_arity=3, max_power=4)
    assert w1.verdict == "witnessed"
    one = reduce_pgp_to_csp(s, 1, witness=w1)
    assert [(m.indices, m.verdict.truth) for m in one.members] == [((1,), False)]
    prefix = [("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2")]
    last = sent(mixed_lang, prefix, [Atom("XOR0", ("x1", "y2", "x2"))])
    assert [m.verdict.truth for m in _members(last, [(), (1,), (2,)])] == [True, True, False]
    bundle = reduce_pgp_to_csp(last, 1, witness=w1)
    assert [(m.indices, m.verdict.truth) for m in bundle.members] == [((1,), True), ((2,), False)]
    assert bundle.combined is False is oracle_qcsp(last).truth


def test_bundle_lists_only_the_occurring_patterns(dom3_lang):
    # one occurring universal g in front of 80 existentials: normalization
    # puts a dummy universal after each, and at r = 2 the padded patterns
    # number C(81, <= 2) = 3,322, but the one maximal occurring pattern is (1,)
    prefix = [("forall", "g")] + [("exists", f"a{i}") for i in range(80)]
    s = QuantifiedSentence(tuple(prefix), (Atom("CYC", ("g", "a0", "a1")),), dom3_lang)
    assert len(_padded_sets(normalize_alternating(s).n, 2)) == 3322
    witness = switchability_witness(dom3_lang, 2, max_arity=2)
    bundle = reduce_pgp_to_csp(s, 2, witness=witness)
    assert bundle.index_sets == ((1,),)
    assert [m.indices for m in bundle.members] == [(1,)]
    assert bundle.combined is True


def test_bundle_budget_error_precedes_first_false_member(xor0_lang, xor0_witness, monkeypatch):
    # the one maximal pattern (1, 2) of each sentence keeps x1 and x2, the
    # two occurring universals, so its table holds 2 universals, 13
    # variables and 12 atoms (6 of them pins).  In `refuted` that member is
    # refuted from its atoms (XOR0(x1, y1, y1) has no tuple at x1 = 1): it
    # builds nothing and checks nothing, so no budget refuses it.  In
    # `ladder` it is solved, and its own table's figures are checked before
    # anything is solved: one below each raises, and at each it builds
    prefix = [("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2"),
              ("exists", "y3"), ("forall", "x3")]
    refuted = sent(xor0_lang, prefix, [Atom("XOR0", ("x1", "y1", "y1")), Atom("XOR0", ("y2", "x2", "y3"))])
    ladder = sent(xor0_lang, prefix, [Atom("XOR0", ("y1", "x1", "y2")), Atom("XOR0", ("y2", "x2", "y3"))])
    assert not any(_eager_verdicts(refuted, 2))
    calls = []
    real_solve = solvers._solve_ids
    monkeypatch.setattr(solvers, "_solve_ids", lambda *a: calls.append(a) or real_solve(*a))
    nothing = Budgets(max_matrix_copies=0, max_matrix_atoms=0, max_prefix_vars=0, max_bytes=0)
    bundle = reduce_pgp_to_csp(refuted, 2, witness=xor0_witness, budgets=nothing)
    assert [(m.indices, m.verdict) for m in bundle.members] == [
        ((1, 2), solvers.SolveVerdict(False, "csp", None, {"nodes": 0}))
    ]
    assert calls == []
    inst = reduce_pgp_to_csp(ladder, 2, witness=xor0_witness).members[0].instance
    assert (len(inst.variables), len(inst.atoms)) == (13, 12)
    calls.clear()
    for budgets, message in [
        (Budgets(max_matrix_copies=3), "universal elimination copies: requires 4, budget allows 3"),
        (Budgets(max_matrix_atoms=11), "universal elimination atoms: requires 12, budget allows 11"),
        (Budgets(max_prefix_vars=12), "universal elimination prefix: requires 13, budget allows 12"),
        (Budgets(max_bytes=767), "universal elimination (bytes): requires 768, budget allows 767"),
    ]:
        with pytest.raises(BudgetError) as err:
            reduce_pgp_to_csp(ladder, 2, witness=xor0_witness, budgets=budgets)
        assert str(err.value) == message
    assert calls == []
    exact = Budgets(max_matrix_copies=4, max_matrix_atoms=12, max_prefix_vars=13, max_bytes=768)
    bundle = reduce_pgp_to_csp(ladder, 2, witness=xor0_witness, budgets=exact)
    assert [(m.indices, m.verdict.truth) for m in bundle.members] == [((1, 2), True)]
    assert len(calls) == 1


def test_bundle_invariants_are_checked(xor0_lang, xor0_witness):
    prefix = [("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2")]
    # x1 and x2 occur in false_s and stop_s: at r = 1 the maximal patterns
    # are (1,) and (2,), both false in false_s, and in stop_s only the last
    false_s = sent(xor0_lang, prefix, [Atom("XOR0", ("y1", "x1", "x2"))])
    stop_s = sent(xor0_lang, prefix, [Atom("XOR0", ("x1", "y2", "x2"))])
    true_s = sent(xor0_lang, prefix, [Atom("XOR0", ("y1", "x1", "y2"))])
    every_sets = ((), (1,), (2,), (1, 2))
    singles = ((1,), (2,))
    eager = _members(false_s, every_sets)
    assert [m.verdict.truth for m in eager] == [True, False, False, False]
    falses = _members(false_s, singles)
    stop = _members(stop_s, singles)
    assert [m.verdict.truth for m in falses + stop] == [False, False, True, False]
    # x2 occurs in no atom of true_s: its one pattern is (1,), at r = 1 or 2
    full = reduce_pgp_to_csp(true_s, 2, witness=xor0_witness)
    assert full.index_sets == ((1,),)
    for source, r, sets, members, combined, message in [
        # index sets other than the maximal patterns over the occurring universals
        (true_s, 2, ((), (1,)), tuple(_members(true_s, ((), (1,)))), True, "maximal patterns"),
        (false_s, 2, every_sets, tuple(eager[:2]), False, "maximal patterns"),
        (false_s, 1, singles[:1], tuple(falses[:1]), False, "maximal patterns"),
        # not in index-set order
        (stop_s, 1, singles, tuple(stop[::-1]), False, "prefix of the index sets"),
        # solved on past a false member
        (false_s, 1, singles, tuple(falses), False, "after an unsatisfiable member"),
        # stopped at a true member, or before any member
        (stop_s, 1, singles, tuple(stop[:1]), False, "only stop at an unsatisfiable member"),
        (true_s, 2, full.index_sets, (), False, "only stop at an unsatisfiable member"),
        # combined disagrees with a full true bundle, or with a false member
        (true_s, 2, full.index_sets, full.members, False, "conjunction"),
        (false_s, 1, singles, tuple(falses[:1]), True, "conjunction"),
        (stop_s, 1, singles, tuple(stop), True, "conjunction"),
    ]:
        with pytest.raises(ValueError, match=message):
            ReductionBundle(source, r, sets, members, combined, False)
    assert ReductionBundle(false_s, 1, singles, tuple(falses[:1]), False, False).members
    # a false verdict needs no witness, so it is never conditional
    with pytest.raises(ValueError, match="only a true verdict is conditional"):
        ReductionBundle(false_s, 1, singles, tuple(falses[:1]), False, True)
    assert ReductionBundle(true_s, 2, full.index_sets, full.members, True, True).conditional
    assert ReductionBundle(stop_s, 1, singles, tuple(stop), False, False).members


def test_bundle_members_match_their_instances():
    # the bundle solves each member straight from the integer elimination;
    # the instance built on access must give the same truth, witness (in the
    # same order) and node count
    members = witnessed = 0
    for size, seed in [(2, 97), (3, 101)]:
        rels = (XOR0, NOT) if size == 2 else (LT3, CYCLE3)
        lang = ConstraintLanguage.of(size, *rels, TRUE0, FALSE0)
        rnd = random.Random(seed)
        for _ in range(300):
            s = messy_sentence(rnd, lang, max_vars=5 if size == 2 else 4)
            for member in reduce_pgp_to_csp(s, 2, override=True).members:
                assert "instance" not in member.__dict__
                verdict = solve_csp(member.instance)
                assert member.instance is member.instance
                assert verdict == member.verdict, (s, member.indices)
                assert list((verdict.witness or {}).items()) == list((member.verdict.witness or {}).items())
                members += 1
                witnessed += bool(verdict.witness)
    assert members > 250 and witnessed > 30


def _outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except (ValueError, QcspError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("size, seed", [(2, 151), (3, 157)])
def test_collapse_table_is_the_elimination_of_omega(size, seed):
    # the closed-form collapse read off the sentence, for every maximal
    # pattern at r = 0..3, equals the elimination of omega's collapse of the
    # padded sentence, names and atoms in order; and hoisting the collapse
    # built without padding equals hoisting omega's, refusals included
    lang = ConstraintLanguage.of(size, *((XOR0, NOT) if size == 2 else (LT3, CYCLE3)), TRUE0, FALSE0)
    rnd = random.Random(seed)
    tables = hoisted = folded = vacuous = repeats = 0
    for draw in range(120):
        if draw % 2:
            s = messy_sentence(rnd, lang, max_vars=6 if size == 2 else 5)
        else:
            s = random_sentence(rnd, lang, max_vars=6 if size == 2 else 5, max_atoms=3)
        alt = normalize_alternating(s)
        positions = _occurring_positions(alt)
        for r in range(4):
            sets = solvers._index_sets(s, r)
            assert sets == tuple(combinations(positions, min(r, len(positions)))), (s, r)
            for idx in sets:
                w = omega(alt, idx)
                assert transforms._collapse_core(s, idx) == transforms._elimination_core(w), (s, idx)
                tables += 1
                folded += len(idx) < len(positions)
                if len(positions) > r:
                    mine = _outcome(lambda: move_universals_left(transforms._collapse_sentence(s, idx)))
                    assert mine == _outcome(lambda: move_universals_left(w)), (s, idx)
                    hoisted += 1
        vacuous += len(positions) < len(s.universals())
        repeats += any(len(set(a.args)) < len(a.args) for a in s.matrix)
    assert tables > 300 and hoisted > 100 and folded > 100 and vacuous > 20 and repeats > 20


def _refuted_by_enumeration(w):
    """Whether some atom of ``w`` has no tuple under some values of its
    universals, by enumerating the values of its variables."""
    size = w.language.domain.size
    universals = set(w.universals())
    for atom in w.matrix:
        tuples = w.language.relations[atom.relation].tuples
        us = sorted(set(atom.args) & universals)
        es = sorted(set(atom.args) - universals)
        for uvals in product(range(size), repeat=len(us)):
            fixed = dict(zip(us, uvals))
            if not any(
                tuple({**fixed, **dict(zip(es, evals))}[v] for v in atom.args) in tuples
                for evals in product(range(size), repeat=len(es))
            ):
                return True
    return False


def _members_by_omega(s, r, budgets):
    """The (indices, verdict) of each member the bundle decides, and the
    hoisted members of the pi2 route, built from omega's collapses of the
    padded sentence: the bundle's refusals and their order are this
    reference's.  Every prefix name is renamed to a fresh one first, so that
    neither the padding nor a collapse can take it; each collapse then drops
    its vacuous variables, gets its names back and is checked well-formed,
    so it is refused where the collapse built shares a name; every collapse
    is checked before any member is decided.  A member
    refuted by enumerating its atoms' values (:func:`_refuted_by_enumeration`)
    builds nothing; a sentence with a "$" in a prefix name has every member
    built."""
    check_wellformed(s)
    fresh = {v: f"#{i}" for i, (_, v) in enumerate(s.prefix)}
    back = {f: v for v, f in fresh.items()}
    alt = normalize_alternating(s.rename(fresh))
    positions = _occurring_positions(alt)
    sets = list(combinations(positions, min(r, len(positions))))
    reserved = any("$" in v for v in fresh)

    def collapse(idx):
        w = omega(alt, idx)
        occurring = w.matrix_variables()
        prefix = tuple((q, back.get(v, v)) for q, v in w.prefix if v in occurring)
        w = QuantifiedSentence(prefix, tuple(a.rename(back) for a in w.matrix), s.language)
        check_wellformed(w)
        return w

    collapses = [collapse(idx) for idx in sets]
    members = []
    for idx, w in zip(sets, collapses):
        if not reserved and _refuted_by_enumeration(w):
            verdict = solvers.SolveVerdict(False, "csp", None, {"nodes": 0})
        else:
            verdict = solvers._solve_ids(*transforms._elimination_core(w, budgets))
        members.append((idx, verdict))
        if not verdict.truth:
            break
    return members, [move_universals_left(w, budgets) for w in collapses]


_COLLIDING = ["z$o0", "z$o1", "y$d1", "y$d2", "x$d1", "x$d2", "a$1", "z$o0$1"]


@pytest.mark.parametrize("size, seed", [(2, 163), (3, 167)])
def test_collapse_table_refuses_as_omega_does(size, seed):
    # sentences built through the API with names the padding, a collapse or
    # a copy takes, some malformed (a name quantified twice, or an atom over
    # an unquantified one): the bundle's members and the pi2 route's hoisted
    # collapses, or what they raise, are those built from omega's collapses
    # with every name of the sentence kept out of the padding and the
    # collapse.  A padding name or a vacuous z$o... is refused nowhere
    lang = ConstraintLanguage.of(size, *((XOR0, NOT) if size == 2 else (LT3, CYCLE3)), TRUE0, FALSE0)
    rnd = random.Random(seed)
    refused, decided, padding, vacuous = [], 0, 0, 0
    for _ in range(300):
        names = ["a", "b", "c", "d"] + _COLLIDING
        prefix = [(rnd.choice(["forall", "exists"]), rnd.choice(names)) for _ in range(rnd.randint(0, 6))]
        if rnd.random() < 0.8:  # mostly each name once
            firsts = {}
            for q, v in prefix:
                firsts.setdefault(v, q)
            prefix = [(q, v) for v, q in firsts.items()]
        pool = [v for _, v in prefix] if prefix and rnd.random() < 0.9 else names
        atoms = []
        for _ in range(rnd.randint(0, 3)):
            rel = rnd.choice(sorted(lang.relations))
            atoms.append(Atom(rel, tuple(rnd.choice(pool) for _ in range(lang.relations[rel].arity))))
        s = QuantifiedSentence(tuple(prefix), tuple(atoms), lang)
        r = rnd.randint(0, 3)
        budgets = rnd.choice([Budgets(), Budgets(max_matrix_copies=4), Budgets(max_matrix_atoms=6)])

        def by_table():
            bundle = reduce_pgp_to_csp(s, r, override=True, budgets=budgets)
            hoisted = [move_universals_left(transforms._collapse_sentence(s, idx), budgets)
                       for idx in solvers._index_sets(s, r)]
            return [(m.indices, m.verdict) for m in bundle.members], hoisted

        want = _outcome(lambda: _members_by_omega(s, r, budgets))
        assert _outcome(by_table) == want, (s, r, budgets)
        if isinstance(want[0], str):
            refused.append(want[1])
        else:
            decided += 1
            padding += any(v.startswith(("y$d", "x$d")) for _, v in s.prefix)
            vacuous += any(v.startswith("z$o") and v not in s.matrix_variables() for _, v in s.prefix)
    assert decided > 150 and padding > 100 and vacuous > 60
    for taken in ("quantified twice", "not quantified", "z$o", "universal elimination"):
        assert sum(taken in message for message in refused) > 5, taken


@pytest.mark.parametrize("r", [0, 1, 2])
def test_reductions_build_neither_the_padding_nor_omega(xor0_lang, r, monkeypatch):
    # a depth-3 ladder with a vacuous universal and a repeated variable: the
    # bundle and the pi2 route read every collapse off the sentence itself
    prefix = [(q, f"{v}{i}") for i in range(1, 4) for q, v in (("exists", "y"), ("forall", "x"))]
    matrix = [Atom("XOR0", ("y1", "x1", "y2")), Atom("XOR0", ("y2", "x3", "x3")), Atom("XOR0", ("x1", "y3", "y3"))]
    s = sent(xor0_lang, prefix, matrix)
    want_bundle = reduce_pgp_to_csp(s, r, override=True)
    want_pi2 = reduce_to_pi2(s, r, override=True)
    s = sent(xor0_lang, prefix, matrix)  # nothing kept on the sentence
    collapsed, normalized, omegas = _count_collapses(monkeypatch)
    bundle = reduce_pgp_to_csp(s, r, override=True)
    pi2 = reduce_to_pi2(s, r, override=True)
    assert normalized == omegas == []
    assert collapsed == (list(bundle.index_sets) if r < 2 else [])
    monkeypatch.undo()
    assert bundle == want_bundle and pi2 == want_pi2
    assert bundle.combined == pi2_truth(pi2) == oracle_qcsp(s).truth
    # a member's collapse is built on first read, and is omega's
    member = bundle.members[0]
    assert "sentence" not in member.__dict__
    assert member.sentence == omega(normalize_alternating(s), member.indices)
    assert member.source is s


@pytest.mark.parametrize(
    "prefix, matrix, r, message",
    [
        # at r = 1 the first pattern keeps a at position 1 beside z$o0, z$o1;
        # at r = 0 the user's z$o1 is existential and collides with nothing
        ([("forall", "a"), ("exists", "z$o1"), ("forall", "b"), ("exists", "c")],
         [("XOR0", "a", "z$o1", "b"), ("NOT", "b", "c")], 1,
         "malformed sentence: variable z$o1 quantified twice"),
        # padding would put a dummy y$d1 in front of the first universal,
        # but no route builds the padding: both decide it
        ([("forall", "x"), ("exists", "y$d1")], [("NOT", "x", "y$d1")], 0, None),
        # a$1 is also the name of the first copy of a
        ([("exists", "a$1"), ("forall", "a")], [("NOT", "a$1", "a")], 1,
         "malformed instance: variable a$1 quantified twice"),
    ],
    ids=["z$o1", "y$d1", "a$1"],
)
def test_reductions_refuse_colliding_names_as_the_collapse_does(mixed_lang, prefix, matrix, r, message):
    # a sentence built through the API may already hold a name that the
    # padding, a collapse or a copy takes.  A collapse's name is refused
    # where the collapse built holds it, before any budget, so under a
    # budget too tight for the member too, and by the pi2 route as well; the
    # copies' names are checked by the bundle after its budgets.  The
    # padding is never built, so its names are refused nowhere
    s = sent(mixed_lang, prefix, [Atom(rel, tuple(args)) for rel, *args in matrix])
    tight = Budgets(max_matrix_copies=2, max_matrix_atoms=3)
    if message is None:
        bundle = reduce_pgp_to_csp(s, r, override=True)
        assert bundle.combined is pi2_truth(reduce_to_pi2(s, r, override=True, budgets=tight)) is True
        with pytest.raises(ValueError, match=r"variable y\$d1 quantified twice"):
            bundle.members[0].sentence
        return
    with pytest.raises(ValueError) as err:
        reduce_pgp_to_csp(s, r, override=True)
    assert str(err.value) == message
    if message.startswith("malformed instance"):
        # the member's table: 1 universal, 2 + 2 variables, 2 atoms and 2 pins
        with pytest.raises(BudgetError) as err:
            reduce_pgp_to_csp(s, r, override=True, budgets=tight)
        assert str(err.value) == "universal elimination atoms: requires 4, budget allows 3"
        alt = normalize_alternating(s)
        with pytest.raises(ValueError) as err:
            eliminate_universals(omega(alt, solvers._index_sets(s, r)[0]))
        assert str(err.value) == message
        return
    for reduce in (reduce_pgp_to_csp, reduce_to_pi2):
        with pytest.raises(ValueError) as err:
            reduce(s, r, override=True, budgets=tight)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "prefix, matrix, r",
    [
        # no universal occurs, so m = 0 <= r: the pi2 route hoists s itself
        ([("exists", "y")], [("NOT", "y", "x$d1")], 1),
        # padding would put a dummy y$d1 in front of x
        ([("forall", "x")], [("NOT", "x", "y$d1")], 1),
        # one occurring universal above r = 0: the pi2 route collapses
        ([("forall", "x"), ("exists", "y")], [("NOT", "y", "x$d1"), ("NOT", "x", "y")], 0),
    ],
    ids=["m<=r", "y$d1", "m>r"],
)
def test_reductions_refuse_a_name_only_the_padding_quantifies(mixed_lang, prefix, matrix, r):
    # a matrix variable that the prefix does not quantify is refused before
    # the padding could quantify it: normalizing, the bundle and both pi2
    # routes raise the report of the sentence as given
    s = sent(mixed_lang, prefix, [Atom(rel, tuple(args)) for rel, *args in matrix])
    name = next(v for a in s.matrix for v in a.args if "$" in v)
    message = f"malformed sentence: atom 0: variable {name} not quantified"
    for decide in (
        normalize_alternating,
        lambda s: reduce_pgp_to_csp(s, r, override=True),
        lambda s: reduce_to_pi2(s, r, override=True),
    ):
        with pytest.raises(ValueError) as err:
            decide(s)
        assert str(err.value) == message


def _agreement_sentences(rnd, lang, count):
    """API-built sentences whose prefix holds names the padding takes
    (y$d..., x$d...), a name a collapse takes (z$o1), and a vacuous z$o0;
    at times an atom names a variable the prefix does not quantify."""
    everything = ["a", "b", "c", "y$d1", "y$d2", "x$d1", "x$d2", "z$o1"]
    for _ in range(count):
        names = rnd.sample(everything, rnd.randint(1, 5))
        prefix = [(rnd.choice(["forall", "exists"]), v) for v in names]
        prefix.insert(rnd.randint(0, len(prefix)), (rnd.choice(["forall", "exists"]), "z$o0"))
        pool = everything if rnd.random() < 0.15 else names
        atoms = []
        for _ in range(rnd.randint(1, 3)):
            rel = rnd.choice(sorted(lang.relations))
            atoms.append(Atom(rel, tuple(rnd.choice(pool) for _ in range(lang.relations[rel].arity))))
        yield QuantifiedSentence(tuple(prefix), tuple(atoms), lang)


@pytest.mark.parametrize("size, seed", [(2, 223), (3, 227)])
def test_padding_names_get_one_answer_from_every_route(size, seed):
    # neither route builds the padding, so a prefix name it would take is
    # refused by neither, and both refuse a z$oj that a collapse shares
    # before deciding anything: at r = 0..3 the bundle and the pi2 route
    # both decide, or both raise the same message.  Where the witness holds, the
    # verdict is the oracle's; over two elements the power CSP agrees.  The
    # routes build objects of different sizes, so a budget may refuse one
    # and not the other: such a case is counted, not compared
    lang = ConstraintLanguage.of(size, *((XOR0, NOT) if size == 2 else (LT3, CYCLE3)))
    gates = []
    for r in range(4):
        witness = switchability_witness(lang, r, max_arity=3 if size == 2 else 2)
        gates.append({"witness": witness} if witness.verdict == "witnessed" else {"override": True})
    sentences = list(_agreement_sentences(random.Random(seed), lang, 120))
    if size == 2:  # false: for every a, b the one c with NOT(b, c) must be a xor y$d1
        sentences.insert(0, sent(lang, [("forall", "a"), ("exists", "y$d1"), ("forall", "b"), ("exists", "c")],
                                 [Atom("XOR0", ("a", "y$d1", "c")), Atom("NOT", ("b", "c"))]))
    decided = witnessed = raised = shared = budgeted = 0
    for s in sentences:
        truth = None
        for r in range(4):
            bundle = _outcome(lambda: reduce_pgp_to_csp(s, r, **gates[r]).combined)
            pi2 = _outcome(lambda: reduce_to_pi2(s, r, **gates[r]))
            if any(isinstance(o, tuple) and o[0] == "BudgetError" for o in (bundle, pi2)):
                budgeted += 1
                continue
            if isinstance(pi2, tuple):
                assert bundle == pi2, (s, r)
                raised += 1
                shared += "z$o1 quantified twice" in pi2[1]
                continue
            verdicts = {bundle, pi2_truth(pi2)}
            if size == 2:
                verdicts.add(solve_csp(qcsp_to_power_csp(pi2)).truth)
            assert len(verdicts) == 1, (s, r)
            decided += 1
            if "witness" in gates[r]:
                truth = oracle_qcsp(s).truth if truth is None else truth
                assert bundle is truth, (s, r)
                witnessed += 1
    assert decided > 300 and witnessed > 200 and raised > 40 and shared > 5 and budgeted < 5


def _bench_reductions():
    """Each bench item of the bundle, pi2 and power workloads, seeds 1-29,
    reduced at r = 0..3: the bundle's verdict and members (indices, truth,
    nodes, witness in order), and the pi2 route's output sentence."""
    inputs = pytest.importorskip("inputs")
    langs = {k: parse_language(inputs.language_text(spec)) for k, (spec, _) in inputs.SENTENCE_LANGUAGES.items()}
    out = []
    for workload in ("bundle", "pi2", "power"):
        for seed in range(1, 30):
            for item in inputs.make_items(workload, seed):
                s = parse_sentence(item["text"], langs[item["key"]])
                for r in range(4):
                    if workload == "bundle":
                        b = reduce_pgp_to_csp(s, r, override=True)
                        members = [(m.indices, m.verdict.truth, m.verdict.stats["nodes"],
                                    tuple((m.verdict.witness or {}).items())) for m in b.members]
                        out.append((b.combined, members))
                    else:
                        p = reduce_to_pi2(s, r, override=True)
                        out.append((p.prefix, p.matrix))
    return out


# the digest of _bench_reductions() as the code gave it before the budgets
# counted only what is built
_BENCH_DIGEST = "99ad1f3b42b74d7d6ef140a387ef15c8f153259b3739c385e2cac280224767d3"


def test_bench_items_reduce_as_before(monkeypatch):
    # where no budget refuses, counting only what is built changes no
    # verdict, member, node count, witness or pi2 output
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    digest = hashlib.sha256(repr(_bench_reductions()).encode()).hexdigest()
    assert digest == _BENCH_DIGEST


def _members_by_collapse_core(s, r):
    """The (indices, verdict) of each member the bundle decides, each solved
    from ``_collapse_core``, the table of its collapse's elimination."""
    members = []
    for idx in solvers._index_sets(s, r):
        members.append((idx, solvers._solve_ids(*transforms._collapse_core(s, idx))))
        if not members[-1][1].truth:
            break
    return members


def _reserved_names(rnd, s):
    """``s`` with its first variable renamed to a name holding "$", and at
    times an occurring variable renamed to the first copy name of an
    occurring universal."""
    first = s.prefix[0][1]
    mapping = {first: f"{first}$x"}
    occurring = sorted(s.matrix_variables())
    universals = [v for v in s.universals() if v in occurring]
    if universals and len(occurring) > 1 and rnd.random() < 0.7:
        a = rnd.choice(universals)
        mapping[rnd.choice([v for v in occurring if v != a])] = mapping.get(a, a) + "$1"
    return s.rename(mapping)


@pytest.mark.parametrize("size, seed", [(2, 173), (3, 179)])
def test_members_refuted_from_their_atoms_are_the_solved_collapses(size, seed):
    # a member refuted from its atoms has the verdict that solving its
    # collapse's elimination gives (false, 0 nodes, no witness), and every
    # other member is solved from that table: over random and messy
    # sentences with repeated variables, universals folded into one z$oj,
    # nullary and const_a (the unary) atoms, and reserved names, at r = 0..3.
    # Where the witness holds, the bundle's verdict is the oracle's; a false
    # one is the oracle's everywhere
    consts = [Relation(const_name(a), 1, frozenset({(a,)})) for a in range(size)]
    lang = ConstraintLanguage.of(size, *((XOR0, NOT) if size == 2 else (LT3, CYCLE3)), *consts, TRUE0, FALSE0)
    gates = []
    for r in range(4):
        witness = switchability_witness(lang, r, max_arity=3 if size == 2 else 2)
        gates.append({"witness": witness} if witness.verdict == "witnessed" else {"override": True})
    rnd = random.Random(seed)
    seen = dict.fromkeys(
        ["refuted", "solved", "folded", "nullary", "const", "reserved", "raised", "witnessed"], 0
    )
    for draw in range(160):
        if draw % 2:
            s = messy_sentence(rnd, lang, max_vars=6 if size == 2 else 5)
        else:
            s = random_sentence(rnd, lang, max_vars=6 if size == 2 else 5, max_atoms=3)
        reserved = draw % 4 == 3
        if reserved:
            s = _reserved_names(rnd, s)
        for r in range(4):
            want = _outcome(lambda: _members_by_collapse_core(s, r))
            got = _outcome(lambda: reduce_pgp_to_csp(s, r, **gates[r]))
            if isinstance(want[0], str):
                assert got == want, (s, r)
                seen["raised"] += 1
                continue
            mine = [(m.indices, m.verdict) for m in got.members]
            assert mine == want, (s, r)
            for m, (_, verdict) in zip(got.members, want):
                assert list((m.verdict.witness or {}).items()) == list((verdict.witness or {}).items())
            if "witness" in gates[r] or not got.combined:
                assert got.combined == oracle_qcsp(s).truth, (s, r)
                seen["witnessed"] += "witness" in gates[r]
            seen["reserved"] += reserved
            for idx, verdict in want:
                prefix, fold = transforms._fold(s, idx)
                if reserved or not solvers._refuted_from_atoms(s, prefix, fold):
                    seen["solved"] += 1
                    continue
                assert verdict == solvers.SolveVerdict(False, "csp", None, {"nodes": 0})
                seen["refuted"] += 1
                seen["folded"] += len(set(fold.values())) < len(fold)
                seen["nullary"] += any(not a.args for a in s.matrix)
                seen["const"] += any(a.relation.startswith("const_") for a in s.matrix)
    assert min(seen.values()) > 5, seen
    assert seen["refuted"] > 200 and seen["solved"] > 200 and seen["reserved"] > 100, seen


def test_refuted_member_builds_no_copies_and_solves_nothing(xor0_lang, mixed_lang, monkeypatch):
    # XOR0(x, y, y) has no tuple at x = 1, and NOT(x1, x2) none once r = 0
    # folds x1 and x2 into z$o0: neither member builds its copy table or
    # calls the solver.  XOR0(x, y, x) holds at y = 0 for each x, so that
    # member is solved
    refuted = [
        (sent(xor0_lang, [("exists", "y"), ("forall", "x")], [Atom("XOR0", ("x", "y", "y"))]), 1),
        (sent(mixed_lang, [("forall", "x1"), ("exists", "y"), ("forall", "x2")],
              [Atom("NOT", ("x1", "x2")), Atom("XOR0", ("x1", "y", "x2"))]), 0),
    ]
    solved = sent(xor0_lang, [("exists", "y"), ("forall", "x")], [Atom("XOR0", ("x", "y", "x"))])
    want = [reduce_pgp_to_csp(s, r, override=True) for s, r in refuted]
    want_solved = reduce_pgp_to_csp(solved, 1, override=True)
    rows, solves = [], []
    real_rows, real_solve = solvers._copy_rows, solvers._solve_ids
    monkeypatch.setattr(solvers, "_copy_rows", lambda *a: rows.append(a) or real_rows(*a))
    monkeypatch.setattr(solvers, "_solve_ids", lambda *a: solves.append(a) or real_solve(*a))
    for (s, r), bundle in zip(refuted, want):
        assert reduce_pgp_to_csp(s, r, override=True) == bundle
        assert [(m.indices, m.verdict) for m in bundle.members] == [
            (bundle.index_sets[0], solvers.SolveVerdict(False, "csp", None, {"nodes": 0}))
        ]
    assert rows == solves == []
    for (s, _), bundle in zip(refuted, want):
        assert solve_csp(bundle.members[0].instance) == bundle.members[0].verdict
        assert oracle_qcsp(s).truth is False
    rows.clear()
    solves.clear()
    assert reduce_pgp_to_csp(solved, 1, override=True) == want_solved
    assert want_solved.combined is oracle_qcsp(solved).truth is True
    assert len(rows) == len(solves) == 1


@pytest.mark.parametrize("size, seed", [(2, 107), (3, 109)])
def test_false_override_verdicts_match_the_oracle(size, seed):
    # every collapse is entailed by the sentence, so a false collapse refutes
    # it over any language: without a witness only a true verdict can be
    # wrong, and only a true one is marked conditional
    rnd = random.Random(seed)
    languages = falses = wrong = 0
    while languages < 6:
        lang = random_language(rnd, size, (1, 2, 3), max_tuples=2 * size + 1)
        r = rnd.randint(0, 2)
        if switchability_witness(lang, r, max_arity=2, max_power=3).verdict == "witnessed":
            continue
        languages += 1
        for _ in range(25):
            s = random_sentence(rnd, lang, max_vars=5, max_atoms=3)
            truth = oracle_qcsp(s).truth
            bundle = reduce_pgp_to_csp(s, r, override=True)
            assert bundle.conditional is bundle.combined
            pi2 = reduce_to_pi2(s, r, override=True)
            verdicts = [bundle.combined, pi2_truth(pi2)]
            if size == 2:  # the power domain of three elements is over budget
                verdicts.append(solve_csp(qcsp_to_power_csp(pi2)).truth)
            for verdict in verdicts:
                assert verdict or not truth, (s.prefix, s.matrix, r)
                falses += not verdict
                wrong += verdict and not truth
    assert falses > 100 and wrong  # the languages are unwitnessed indeed


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


def _method_verdicts(s, r, witness, power: bool) -> dict:
    pi2 = reduce_to_pi2(s, r, witness=witness)
    verdicts = {
        "oracle": oracle_qcsp(s).truth,
        "pgp-csp": reduce_pgp_to_csp(s, r, witness=witness).combined,
        "pi2": pi2_truth(pi2),
    }
    if power:
        verdicts["power-csp"] = solve_csp(qcsp_to_power_csp(pi2)).truth
    return verdicts


@pytest.mark.parametrize(
    "size, r, arities, max_tuples, max_arity, seed",
    [
        (2, 1, (1, 2, 3), 6, 3, 101),
        (2, 2, (2, 3), 6, 3, 102),
        (3, 1, (1, 2), 6, 2, 103),
        (3, 1, (2, 3), 8, 2, 104),
    ],
    ids=["bool-r1", "bool-r2", "dom3-arity12", "dom3-arity23"],
)
def test_methods_agree_on_random_witnessed_languages(size, r, arities, max_tuples, max_arity, seed):
    # six sentences per language object, so its power language and its
    # language with constants are built once and reused; power-csp runs on
    # Boolean languages only, as 3 elements need a 3^27-element power domain
    rnd = random.Random(seed)
    witnessed, truths = 0, []
    for _ in range(30):
        lang = random_language(rnd, size, arities, max_tuples)
        witness = switchability_witness(lang, r, max_arity=max_arity, max_power=4)
        if witness.verdict != "witnessed":
            continue
        for _ in range(6):
            s = random_sentence(rnd, lang, max_vars=6 - size, max_atoms=3)
            verdicts = _method_verdicts(s, r, witness, power=size == 2)
            assert len(set(verdicts.values())) == 1, (lang, s.prefix, s.matrix, verdicts)
            truths.append(verdicts["oracle"])
        witnessed += 1
        if witnessed == 6:
            break
    assert witnessed == 6 and set(truths) == {True, False}


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


def test_collapse_keeping_more_universals_implies_one_keeping_fewer():
    # the lemma behind conjoining only the maximal patterns: for J a subset
    # of I, omega(alt, I) entails omega(alt, J)
    rnd = random.Random(5)
    implied = one_way = 0
    for lang, depths, count in [(lang_mixed2(), (1, 2, 3, 4), 200), (lang_dom3(), (1, 2, 3), 120)]:
        for _ in range(count):
            alt = normalize_alternating(random_alternating(rnd, lang, rnd.choice(depths), max_atoms=3))
            truth = {idx: oracle_qcsp(omega(alt, idx)).truth for idx in _padded_sets(alt.n, 3)}
            for big, big_truth in truth.items():
                for k in range(len(big)):
                    for small in combinations(big, k):
                        if big_truth:
                            implied += 1
                            assert truth[small], (alt.sentence, big, small)
                        elif truth[small]:
                            one_way += 1
    assert implied > 1000 and one_way > 100


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_pi2_reduction_is_the_conjunction_over_every_pattern(r):
    # with override and no witness the reduction promises no more than the
    # conjunction over every collapse pattern of at most r kept universals
    rnd = random.Random(7 + r)
    truths, shallow = set(), 0
    for _ in range(60):
        size = rnd.choice((2, 3))
        lang = random_language(rnd, size, (1, 2, 3) if size == 2 else (1, 2), 6)
        s = random_sentence(rnd, lang, max_vars=7 - size, max_atoms=2)
        alt = normalize_alternating(s)
        want = all(oracle_qcsp(omega(alt, idx)).truth for idx in _padded_sets(alt.n, r))
        assert pi2_truth(reduce_to_pi2(s, r, override=True)) == want, (lang, s.prefix, s.matrix)
        truths.add(want)
        shallow += alt.n < r
    assert truths == {True, False}
    assert shallow > 0 or r < 2


def _count_collapses(monkeypatch):
    """Record the patterns ``reduce_to_pi2`` collapses, and every call of
    ``normalize_alternating`` and ``omega`` from either module."""
    collapsed, normalized, omegas = [], [], []
    real_collapse = solvers._collapse_sentence

    def counting_collapse(s, indices):
        collapsed.append(tuple(indices))
        return real_collapse(s, indices)

    monkeypatch.setattr(solvers, "_collapse_sentence", counting_collapse)
    for module in (solvers, transforms):
        monkeypatch.setattr(module, "normalize_alternating", lambda s: normalized.append(s) or normalize_alternating(s))
        monkeypatch.setattr(module, "omega", lambda alt, idx: omegas.append(idx) or omega(alt, idx))
    return collapsed, normalized, omegas


def test_pi2_reduction_collapses_at_the_maximal_patterns_only(xor0_lang, xor0_witness, monkeypatch):
    prefix = [(q, f"{v}{i}") for i in range(1, 4) for q, v in (("exists", "y"), ("forall", "x"))]
    s = sent(xor0_lang, prefix, [Atom("XOR0", ("x1", "y2", "x3")), Atom("XOR0", ("y1", "x2", "y3"))])
    collapsed, normalized, omegas = _count_collapses(monkeypatch)
    out = reduce_to_pi2(s, 2, witness=xor0_witness)
    assert collapsed == [(1, 2), (1, 3), (2, 3)]
    assert normalized == omegas == []
    monkeypatch.undo()
    assert pi2_truth(out) == oracle_qcsp(s).truth


def test_pi2_reduction_collapses_only_more_occurring_universals_than_r(xor0_lang, monkeypatch):
    # x1 and x3 occur and x2 is vacuous, so m = 2
    prefix = [(q, f"{v}{i}") for i in range(1, 4) for q, v in (("exists", "y"), ("forall", "x"))]
    s = sent(xor0_lang, prefix, [Atom("XOR0", ("x1", "y2", "x3")), Atom("XOR0", ("y1", "y3", "y3"))])
    collapsed, normalized, omegas = _count_collapses(monkeypatch)
    outs = {}
    for r, patterns in [(3, []), (2, []), (1, [(1,), (3,)]), (0, [()])]:
        outs[r] = reduce_to_pi2(s, r, override=True)
        assert collapsed == patterns, r
        assert normalized == omegas == [], r
        collapsed.clear()
    monkeypatch.undo()

    # one member is count-reduced without the ladder's renaming; two are not
    for r in (0, 2, 3):
        assert not [v for v in outs[r].prefix_variables() if "z$s" in v or "$c" in v], r
    assert [v for v in outs[1].prefix_variables() if "$c" in v]
    assert outs[2] == outs[3]
    assert pi2_truth(outs[2]) == oracle_qcsp(s).truth


@pytest.mark.parametrize("size, seed", [(2, 131), (3, 137)])
def test_pi2_reduction_hoists_a_sentence_with_at_most_r_universals_itself(size, seed):
    # the maximal pattern keeping every occurring universal hoists to the
    # hoisted sentence; with m <= r it is the one pattern, and a one-rung
    # ladder changes only the names of what the count reduction builds
    lang = ConstraintLanguage.of(size, *((XOR0, NOT) if size == 2 else (LT3, CYCLE3)), TRUE0, FALSE0)
    rnd = random.Random(seed)
    checked, vacuous, padded = 0, 0, 0
    for draw in range(160):
        if draw % 2:
            s = messy_sentence(rnd, lang, max_vars=6 - size)
        else:
            s = random_sentence(rnd, lang, max_vars=6 - size, max_atoms=3)
        alt = normalize_alternating(s)
        occurring = s.matrix_variables()
        positions = tuple(i for i, x in enumerate(alt.x_vars(), start=1) if x in occurring)
        hoisted = move_universals_left(s)
        assert hoisted == move_universals_left(omega(alt, positions)), s
        ladder = {u: f"z$s{i}" for i, u in enumerate(hoisted.universals(), start=1)}
        ladder.update({e: f"{e}$c1" for e in hoisted.existentials()})
        want = reduce_universal_count(hoisted.rename(ladder))
        truth = oracle_qcsp(s).truth
        for r in range(len(positions), 4):
            out = reduce_to_pi2(s, r, override=True)
            sizes = (len(out.prefix), len(out.matrix), out.universal_count())
            assert sizes == (len(want.prefix), len(want.matrix), want.universal_count()), (s, r)
            assert pi2_truth(out) == truth, (s, r)
            checked += 1
        vacuous += len(positions) < len(s.universals())
        padded += 2 * alt.n > len(s.prefix)
    assert checked > 300 and vacuous > 40 and padded > 100


def _ladder(lang, depth):
    prefix = [(q, f"{v}{i}") for i in range(1, depth + 1) for q, v in (("exists", "y"), ("forall", "x"))]
    return sent(lang, prefix, [Atom("XOR0", (f"y{i}", f"x{i}", f"y{i + 1}")) for i in range(1, depth)])


def test_pi2_reduction_count_reduces_only_above_the_domain_size(mixed_lang, monkeypatch):
    reduced = []

    def counting_reduce(s, budgets=Budgets()):
        reduced.append(s.universal_count())
        return reduce_universal_count(s, budgets)

    monkeypatch.setattr(solvers, "reduce_universal_count", counting_reduce)
    # conjoined sentences of at most |A| = 2 universals come back as built:
    # hoisted names, or the ladder's z$s1, z$s2 over two members at r = 1
    skipped = {
        "no universal": (sent(mixed_lang, [("exists", "y"), ("exists", "w")], [Atom("NOT", ("y", "w"))]), "y"),
        "pi2 form": (sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "y"))]), "x"),
        "one hoist": (
            sent(mixed_lang, [("exists", "y"), ("forall", "x"), ("exists", "w")], [Atom("XOR0", ("y", "x", "w"))]),
            "x$1",
        ),
        "two members": (
            sent(
                mixed_lang,
                [("forall", "x1"), ("forall", "x2"), ("exists", "y")],
                [Atom("NOT", ("x1", "y")), Atom("XOR0", ("x1", "x2", "y"))],
            ),
            "z$s1",
        ),
    }
    for name, (s, first) in skipped.items():
        for r in range(4):
            out = reduce_to_pi2(s, r, override=True)
            assert reduced == [] and out.universal_count() <= 2, (name, r)
            assert not [v for v in out.prefix_variables() if v.startswith("z$u")], (name, r)
        assert reduce_to_pi2(s, 1, override=True).prefix[0][1] == first, name
    # the depth-3 XOR0 ladder hoists to 6 universals at r = 2, and is reduced
    out = reduce_to_pi2(_ladder(mixed_lang, 3), 2, override=True)
    assert reduced == [6]
    assert (out.universals(), len(out.matrix)) == (["z$u1", "z$u2"], 744)


@pytest.mark.parametrize("seed", [211, 223])
def test_pi2_reduction_without_count_reduction_is_exact(seed):
    # the output's sizes are those of its own count reduction, which renames
    # at most |A| universals bijectively, and where the witness holds its
    # pi2 and (|A| = 2) power-CSP verdicts are the oracle's; most outputs
    # with a universal keep their hoisted names
    rnd = random.Random(seed)
    fixed = [
        ConstraintLanguage.of(2, XOR0, NOT, TRUE0, FALSE0),
        ConstraintLanguage.of(2, ONE_IN_THREE),
        ConstraintLanguage.of(3, LT3, CYCLE3, TRUE0),
    ]
    checked, witnessed, unwitnessed, powered, hoisted = 0, 0, 0, 0, 0
    for draw in range(90):
        if draw % 3:
            size = rnd.choice((2, 3))
            lang = random_language(rnd, size, (1, 2, 3) if size == 2 else (1, 2), 6)
        else:
            lang = fixed[draw // 3 % 3]
        if draw % 2 and "T0" in lang.relations:
            s = messy_sentence(rnd, lang, max_vars=7 - lang.domain.size)
        else:
            s = random_sentence(rnd, lang, max_vars=7 - lang.domain.size, max_atoms=3)
        truth = oracle_qcsp(s).truth
        # a witness at bound b gates every r >= b
        arity = 3 if lang.domain.size == 2 else 2
        bound = next((b for b in range(4) if switchability_witness(lang, b, max_arity=arity).verdict == "witnessed"), 4)
        for r in range(4):
            try:
                out = reduce_to_pi2(s, r, override=True)
            except BudgetError:
                continue
            again = reduce_universal_count(out)
            assert (len(out.prefix), len(out.matrix), out.universal_count()) == (
                len(again.prefix), len(again.matrix), again.universal_count()
            ), (s, r)
            hoisted += out.universal_count() > 0 and not out.universals()[0].startswith("z$u")
            checked += 1
            if r < bound:
                unwitnessed += 1
                continue
            witnessed += 1
            assert pi2_truth(out) == truth, (s, r)
            if lang.domain.size == 2:
                assert solve_csp(qcsp_to_power_csp(out)).truth == truth, (s, r)
                powered += 1
    assert checked > 300 and witnessed > 150 and unwitnessed > 80 and powered > 80 and hoisted > 100


# A Π2 sentence of one universal that hoisting leaves as it is: its count
# reduction builds 3 atoms, S(1, 1) = 1 copy over 1 + 2 prefix variables
_COUNT_BUDGET_FAILURES = [
    (Budgets(max_matrix_copies=0), "universal-count reduction copies: requires 1, budget allows 0"),
    (Budgets(max_matrix_atoms=2), "universal-count reduction atoms: requires 3, budget allows 2"),
    (Budgets(max_prefix_vars=2), "universal-count reduction prefix: requires 3, budget allows 2"),
    (Budgets(max_bytes=191), r"universal-count reduction \(bytes\): requires 192, budget allows 191"),
]


@pytest.mark.parametrize("budgets, message", _COUNT_BUDGET_FAILURES)
def test_pi2_reduction_keeps_the_count_reduction_budgets(mixed_lang, budgets, message):
    atoms = [Atom("NOT", ("x", "y")), Atom("NOT", ("y", "w")), Atom("XOR0", ("x", "y", "w"))]
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y"), ("exists", "w")], atoms)
    # the reduction checks what it builds; the pi2 route, with one member of
    # at most |A| universals, builds no reduced copy and checks none: it
    # returns s itself, or at r = 0 its collapse onto z$o0
    assert move_universals_left(s, budgets) is s
    with pytest.raises(BudgetError, match=f"^{message}$"):
        reduce_universal_count(s, budgets)
    assert reduce_to_pi2(s, 0, override=True, budgets=budgets) == s.rename({"x": "z$o0"})
    for r in range(1, 4):
        assert reduce_to_pi2(s, r, override=True, budgets=budgets) is s
    # with no universal there is nothing to copy, and nothing is checked
    closed = sent(mixed_lang, [("exists", "x"), ("exists", "y"), ("exists", "w")], atoms)
    for r in range(4):
        assert reduce_to_pi2(closed, r, override=True, budgets=budgets) == closed


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
    "universal or existential": (
        lang_dom3,
        _pi2_prefix(["a", "b", "c"], ["z"]),
        [("LT", "a", "b"), ("LT", "z", "c")],
    ),
    "universal and existential numbers": (
        lang_dom3,
        _pi2_prefix(["a", "b", "e", "f"], ["z"]),
        [("LT", "a", "b"), ("LT", "a", "b"), ("LT", "e", "f"), ("LT", "z", "f")],
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
    # one component each on z1 alone and on z2 alone, which are one shape up
    # to renaming the universal: three shapes, seven components, with the
    # copies' atoms interleaved in the matrix
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
    assert len(built) == 3
    assert checks.count("component assignments") == len(parts)
    monkeypatch.undo()
    assert oracle_qcsp(s).truth is True


def test_pi2_truth_compiles_components_on_renamed_universals_once(mixed_lang, monkeypatch):
    # NOT(z1, p) and NOT(z2, q) differ only in bound names
    s = sent(mixed_lang, _pi2_prefix(["p", "q"]), [Atom("NOT", ("z1", "p")), Atom("NOT", ("z2", "q"))])
    built = _counting_compiles(monkeypatch)
    assert pi2_truth(s) is True
    assert built == [["z1", "p"]]


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


def test_classify_override_skips_the_witness(one_in_three_lang, monkeypatch):
    calls = []
    real = solvers.switchability_witness
    monkeypatch.setattr(solvers, "switchability_witness", lambda *a, **k: calls.append(a) or real(*a, **k))
    classify(one_in_three_lang, 2, override=True)
    assert len(calls) == 0
    classify(one_in_three_lang, 2)
    assert len(calls) == 1
    # so the witness's budget checks no longer fire under the override; the
    # search's do: 2 tables at arity 2, 4 at arity 3, against 16 and 256 for
    # the witness's enumeration of every table
    with pytest.raises(BudgetError, match="^arity-2 operation enumeration: requires 16, budget allows 8$"):
        classify(one_in_three_lang, 2, budgets=Budgets(max_op_tables=8))
    report = classify(one_in_three_lang, 2, override=True, budgets=Budgets(max_op_tables=8))
    assert report.verdict == "NP-complete-modulo-arity-bound"
    with pytest.raises(BudgetError, match="^arity-3 symmetric-table enumeration: requires 4, budget allows 2$"):
        classify(one_in_three_lang, 2, override=True, budgets=Budgets(max_op_tables=2))
    # a negative switch bound is still refused, witness or not
    for override in (True, False):
        with pytest.raises(ValueError, match="switch bound must be >= 0"):
            classify(one_in_three_lang, -1, override=override)
    assert len(calls) == 2


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
    # a forged witness lists it ahead of minority, so it is the arity-3 hit
    real = switchability_witness(xor0_lang, 2)
    forged = dataclasses.replace(real, operations=(majority,) + real.operations)
    monkeypatch.setattr(solvers, "switchability_witness", lambda *a, **k: forged)
    with pytest.raises(QcspError, match="does not preserve XOR0"):
        classify(xor0_lang, 2)
    # under the override the hit comes from find_wnu
    monkeypatch.setattr(solvers, "find_wnu", lambda lang, m, budgets: majority)
    with pytest.raises(QcspError, match="does not preserve XOR0"):
        classify(xor0_lang, 2, override=True)


def test_classify_reads_the_wnu_off_the_witness_up_to_its_arity_bound(
    xor0_lang, one_in_three_lang, monkeypatch
):
    calls = []
    real = solvers.find_wnu
    monkeypatch.setattr(
        solvers, "find_wnu", lambda lang, m, budgets: calls.append(m) or real(lang, m, budgets)
    )
    assert classify(xor0_lang, 2).base_wnu == real(xor0_lang, 3)
    assert calls == []
    # at r = 3 every 4-tuple is switch-bounded, so one-in-three is witnessed;
    # it has no weak near-unanimity operation, and arity 4 is above the witness's
    report = classify(one_in_three_lang, 3, wnu_arity=4)
    assert report.verdict == "NP-complete-modulo-arity-bound"
    assert report.searched_arities == (2, 3, 4)
    assert calls == [4]
    calls.clear()
    assert classify(xor0_lang, 2, override=True).base_wnu == real(xor0_lang, 3)
    assert calls == [2, 3]


def test_classify_witnessed_answers_match_the_override():
    # the WNU read off the witness is the one find_wnu finds, at every arity
    rnd = random.Random(31)
    seen = set()
    for _ in range(40):
        lang = random_language(rnd, 2, (1, 2, 3), 5)
        r = rnd.randint(1, 3)
        for arity in (2, 3, 4):
            report = classify(lang, r, wnu_arity=arity)
            if report.verdict == "not-applicable":
                continue
            forced = classify(lang, r, wnu_arity=arity, override=True)
            assert report == forced
            seen.add((report.verdict, report.base_wnu and report.base_wnu.arity))
    assert {("P", 2), ("P", 3), ("NP-complete-modulo-arity-bound", None)} <= seen


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
    # into the shared z$oj, but elimination copies the matrix only for g
    prefix = [("forall", "g")] + [("exists", v) for v in "abcdef"]
    matrix = [Atom("CYC", ("g", "a", "b")), Atom("LT", ("c", "d"))]
    s = QuantifiedSentence(tuple(prefix), tuple(matrix), dom3_lang)
    witness = switchability_witness(dom3_lang, 2, max_arity=2)
    bundle = reduce_pgp_to_csp(s, 2, witness=witness)
    # g is the only occurring universal, at position 1, so of the 1 + 7 + 21
    # padded patterns the one maximal occurring pattern is (1,)
    assert bundle.index_sets == ((1,),)
    assert [m.indices for m in bundle.members] == [(1,)]
    for member in bundle.members:
        copies = [a for a in member.instance.atoms if a.relation in dom3_lang.relations]
        assert len(copies) <= 3 * len(matrix), member.indices
    assert bundle.combined is oracle_qcsp(s).truth is True


@pytest.mark.parametrize(
    "matrix, truth",
    [((("XOR0", "a", "b", "y"), ("NOT", "y", "z")), False), ((("NOT", "a", "y"), ("NOT", "b", "z")), True)],
)
def test_bundle_decides_a_user_variable_named_z(mixed_lang, matrix, truth):
    # elimination copies the user's z to z$1, z$2, ...; omega's collapsed
    # universals must not be named inside that scheme
    prefix = [("forall", "a"), ("exists", "y"), ("forall", "b"), ("exists", "z")]
    s = sent(mixed_lang, prefix, [Atom(rel, args) for rel, *args in matrix])
    bundle = reduce_pgp_to_csp(s, 2, witness=switchability_witness(mixed_lang, 2))
    assert bundle.combined is truth is oracle_qcsp(s).truth


def test_classify_counts_only_the_arities_it_searched(xor0_lang):
    # the search stops at its first hit, and so do the reported figures
    affine = classify(xor0_lang, 2, wnu_arity=40)
    assert affine.verdict == "P"
    assert affine.searched_arities == (2, 3)
    assert affine.searched_tables == 2**4 + 2**8
    le = ConstraintLanguage.of(2, Relation("LE", 2, frozenset({(0, 0), (0, 1), (1, 1)})))
    lattice = classify(le, 2, wnu_arity=3)
    assert lattice.verdict == "P" and lattice.base_wnu.arity == 2
    assert lattice.searched_arities == (2,)
    assert lattice.searched_tables == 2**4
