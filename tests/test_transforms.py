import random
from collections import Counter
from itertools import combinations, product

import pytest

from qcsp import (
    Atom,
    BudgetError,
    Budgets,
    CANONICAL_FALSE,
    ConstraintLanguage,
    CspInstance,
    DomainSpec,
    QuantifiedSentence,
    Relation,
    build_power_language,
    eliminate_universals,
    gamma_columns,
    move_universals_left,
    normalize_alternating,
    omega,
    oracle_qcsp,
    power_csp_to_qcsp,
    power_relation,
    qcsp_to_power_csp,
    reduce_universal_count,
    solve_csp,
    validate_sentence,
    zeta,
)
from qcsp import algebra, transforms
from qcsp.model import check_wellformed, decode_rank, encode_tuple
from qcsp.solvers import pi2_truth, reduce_pgp_to_csp, reduce_to_pi2, truth_of
from helpers import (
    CYCLE3,
    FALSE0,
    LT3,
    NOT,
    ONE_IN_THREE,
    TRUE0,
    XOR0,
    eliminate_universals_reference,
    messy_sentence,
    random_pi2,
    random_sentence,
    stirling2,
)


def sent(lang, prefix, atoms):
    return QuantifiedSentence(tuple(prefix), tuple(atoms), lang)


# ---------------------------------------------------------------------------
# alternation normal form


def test_normalize_inserts_dummies(mixed_lang):
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "y"))])
    alt = normalize_alternating(s)
    assert alt.n == 2
    assert alt.sentence.prefix == (
        ("exists", "y$d1"),
        ("forall", "x"),
        ("exists", "y"),
        ("forall", "x$d2"),
    )
    assert oracle_qcsp(alt.sentence).truth == oracle_qcsp(s).truth


def test_normalize_keeps_alternating_shape(mixed_lang):
    s = sent(
        mixed_lang,
        [("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2")],
        [Atom("NOT", ("x1", "y1"))],
    )
    alt = normalize_alternating(s)
    assert alt.sentence == s


def test_normalize_quantifier_free_true(mixed_lang):
    s = sent(mixed_lang, [], [])
    alt = normalize_alternating(s)
    assert alt.n == 1
    assert [q for q, _ in alt.sentence.prefix] == ["exists", "forall"]
    assert oracle_qcsp(alt.sentence).truth


def test_normalize_adds_at_most_prefix_plus_two(mixed_lang):
    rnd = random.Random(5)
    for _ in range(100):
        s = random_sentence(rnd, mixed_lang, max_vars=6)
        alt = normalize_alternating(s)
        assert len(alt.sentence.prefix) <= len(s.prefix) * 2 + 2
        added = len(alt.sentence.prefix) - len(s.prefix)
        assert added <= len(s.prefix) + 2


# ---------------------------------------------------------------------------
# omega


def build_alternating(lang, n, atoms):
    prefix = []
    for i in range(1, n + 1):
        prefix += [("exists", f"y{i}"), ("forall", f"x{i}")]
    return normalize_alternating(sent(lang, prefix, atoms))


def test_omega_three_case_map(mixed_lang):
    alt = build_alternating(
        mixed_lang, 3, [Atom("XOR0", ("x1", "x2", "x3")), Atom("NOT", ("y1", "y3"))]
    )
    out = omega(alt, (2,))
    assert out.prefix == (
        ("forall", "z$o0"),
        ("forall", "z$o1"),
        ("exists", "y1"),
        ("exists", "y2"),
        ("forall", "x2"),
        ("exists", "y3"),
    )
    assert out.matrix == (Atom("XOR0", ("z$o0", "x2", "z$o1")), Atom("NOT", ("y1", "y3")))


def test_omega_empty_indices_collapses_everything(mixed_lang):
    alt = build_alternating(mixed_lang, 3, [Atom("NOT", ("x1", "x3"))])
    out = omega(alt, ())
    assert out.prefix[0] == ("forall", "z$o0")
    assert out.universal_count() == 1
    assert out.matrix == (Atom("NOT", ("z$o0", "z$o0")),)


def test_omega_universal_count_is_2k_plus_1(mixed_lang):
    rnd = random.Random(9)
    for _ in range(60):
        n = rnd.randint(1, 4)
        alt = build_alternating(
            mixed_lang,
            n,
            [Atom("NOT", (f"y{rnd.randint(1, n)}", f"x{rnd.randint(1, n)}"))],
        )
        k = rnd.randint(0, n)
        indices = tuple(sorted(rnd.sample(range(1, n + 1), k)))
        out = omega(alt, indices)
        assert out.universal_count() == 2 * k + 1
        assert validate_sentence(out).ok


def test_omega_rejects_bad_indices(mixed_lang):
    alt = build_alternating(mixed_lang, 2, [])
    with pytest.raises(ValueError):
        omega(alt, (2, 2))
    with pytest.raises(ValueError):
        omega(alt, (0,))
    with pytest.raises(ValueError):
        omega(alt, (3,))


def test_omega_weakening_on_not_language(mixed_lang):
    # truth of the source forces truth of every collapse
    rnd = random.Random(13)
    checked = 0
    for _ in range(150):
        n = rnd.randint(1, 3)
        alt = build_alternating(
            mixed_lang,
            n,
            [
                Atom("NOT", (f"y{rnd.randint(1, n)}", f"x{rnd.randint(1, n)}"))
                for _ in range(rnd.randint(0, 2))
            ],
        )
        if not oracle_qcsp(alt.sentence).truth:
            continue
        checked += 1
        for k in range(0, n + 1):
            for indices in combinations(range(1, n + 1), k):
                assert oracle_qcsp(omega(alt, indices)).truth
    assert checked > 20


# ---------------------------------------------------------------------------
# universal elimination


def test_eliminate_not_example(mixed_lang):
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "y"))])
    inst = eliminate_universals(s)
    assert set(inst.variables) == {"x$1", "x$2", "y$1", "y$2"}
    assert inst.atoms == (
        Atom("NOT", ("x$1", "y$1")),
        Atom("NOT", ("x$2", "y$2")),
        Atom("const_0", ("x$1",)),
        Atom("const_1", ("x$2",)),
    )
    verdict = solve_csp(inst)
    assert verdict.truth
    assert verdict.witness == {"x$1": 0, "x$2": 1, "y$1": 1, "y$2": 0}


def test_eliminate_without_universals_is_identity(mixed_lang):
    s = sent(mixed_lang, [("exists", "y")], [Atom("NOT", ("y", "y"))])
    inst = eliminate_universals(s)
    assert inst.variables == ("y",)
    assert inst.atoms == s.matrix
    assert "const_0" in inst.language.relations
    assert oracle_qcsp(s).truth is False
    assert solve_csp(inst).truth is False


def test_eliminate_copy_count(mixed_lang):
    s = sent(
        mixed_lang,
        [("forall", "x1"), ("forall", "x2"), ("exists", "y")],
        [Atom("XOR0", ("x1", "x2", "y"))],
    )
    inst = eliminate_universals(s)
    copies = [a for a in inst.atoms if a.relation == "XOR0"]
    consts = [a for a in inst.atoms if a.relation.startswith("const_")]
    assert len(copies) == 4
    assert len(consts) == 2 + 4  # one pin per copy: 2 of x1, 4 of x2
    assert solve_csp(inst).truth


def test_eliminate_lists_copies_in_digit_order(mixed_lang):
    # variables in prefix order, atoms in matrix order, then the pins; each
    # with its copies in digit order, the outer universal's value leading
    s = sent(
        mixed_lang,
        [("forall", "x1"), ("forall", "x2"), ("exists", "y")],
        [Atom("XOR0", ("x1", "x2", "y"))],
    )
    inst = eliminate_universals(s)
    assert inst.variables == (
        "x1$1", "x1$2",
        "x2$1$1", "x2$2$1", "x2$1$2", "x2$2$2",
        "y$1$1", "y$2$1", "y$1$2", "y$2$2",
    )
    assert inst.atoms == (
        Atom("XOR0", ("x1$1", "x2$1$1", "y$1$1")),
        Atom("XOR0", ("x1$1", "x2$2$1", "y$2$1")),
        Atom("XOR0", ("x1$2", "x2$1$2", "y$1$2")),
        Atom("XOR0", ("x1$2", "x2$2$2", "y$2$2")),
        Atom("const_0", ("x1$1",)),
        Atom("const_1", ("x1$2",)),
        Atom("const_0", ("x2$1$1",)),
        Atom("const_1", ("x2$2$1",)),
        Atom("const_0", ("x2$1$2",)),
        Atom("const_1", ("x2$2$2",)),
    )


def test_eliminate_budget(mixed_lang):
    # 15 occurring universals take 2^15 copies; 15 vacuous ones take none,
    # and the instance of 1 variable and 1 atom builds under budgets of 1
    prefix = [("forall", f"x{i}") for i in range(15)] + [("exists", "y")]
    occurring = sent(mixed_lang, prefix, [Atom("XOR0", (f"x{i}", f"x{i + 1}", "y")) for i in range(14)])
    with pytest.raises(BudgetError) as err:
        eliminate_universals(occurring)
    assert str(err.value) == "universal elimination copies: requires 32768, budget allows 4096"
    vacuous = sent(mixed_lang, prefix, [Atom("NOT", ("y", "y"))])
    tight = Budgets(max_matrix_copies=1, max_matrix_atoms=1, max_prefix_vars=1, max_bytes=64)
    inst = eliminate_universals(vacuous, tight)
    assert inst.variables == ("y",) and inst.atoms == (Atom("NOT", ("y", "y")),)


def test_eliminate_truth_random(mixed_lang, dom3_lang):
    rnd = random.Random(17)
    for lang in (mixed_lang, dom3_lang):
        for _ in range(120):
            s = random_sentence(rnd, lang, max_vars=5)
            assert solve_csp(eliminate_universals(s)).truth == oracle_qcsp(s).truth


# ---------------------------------------------------------------------------
# moving universals left


def test_move_left_single_hoist(mixed_lang):
    s = sent(mixed_lang, [("exists", "y"), ("forall", "x")], [Atom("NOT", ("x", "y"))])
    out = move_universals_left(s)
    assert out.prefix == (("forall", "x$1"), ("forall", "x$2"), ("exists", "y"))
    assert out.matrix == (Atom("NOT", ("x$1", "y")), Atom("NOT", ("x$2", "y")))
    assert oracle_qcsp(s).truth is False
    assert oracle_qcsp(out).truth is False


def test_move_left_identity_on_pi2(mixed_lang):
    s = sent(
        mixed_lang,
        [("forall", "x"), ("exists", "y")],
        [Atom("NOT", ("x", "y"))],
    )
    assert move_universals_left(s) == s


def test_move_left_returns_an_input_it_does_not_change(mixed_lang):
    # no hoist and no vacuous variable: the input itself, as the count
    # reduction returns it; a vacuous variable is still dropped into a copy
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "y"))])
    assert move_universals_left(s) is s
    exists_only = sent(mixed_lang, [("exists", "y")], [Atom("NOT", ("y", "y"))])
    assert move_universals_left(exists_only) is exists_only
    vacuous = sent(mixed_lang, [("forall", "x"), ("forall", "v"), ("exists", "y")], [Atom("NOT", ("x", "y"))])
    out = move_universals_left(vacuous)
    assert out is not vacuous and out == s
    # the input is still checked first
    twice = sent(mixed_lang, [("forall", "x"), ("exists", "x")], [Atom("NOT", ("x", "x"))])
    with pytest.raises(ValueError, match="variable x quantified twice"):
        move_universals_left(twice)


def test_move_left_truth_random(mixed_lang, dom3_lang):
    rnd = random.Random(23)
    for lang, rounds in ((mixed_lang, 150), (dom3_lang, 80)):
        for _ in range(rounds):
            s = random_sentence(rnd, lang, max_vars=5)
            out = move_universals_left(s)
            assert out.is_pi2()
            assert validate_sentence(out).ok
            assert pi2_truth(out) == oracle_qcsp(s).truth


# ---------------------------------------------------------------------------
# reducing the universal count


def test_reduce_count_copies_k3(mixed_lang):
    # one copy per partition of x1, x2, x3 into two blocks: S(3, 2) = 3,
    # labelled 001, 010, 011
    s = sent(
        mixed_lang,
        [("forall", "x1"), ("forall", "x2"), ("forall", "x3"), ("exists", "y")],
        [Atom("XOR0", ("x1", "x2", "x3")), Atom("NOT", ("x1", "y"))],
    )
    out = reduce_universal_count(s)
    assert out.prefix == (
        ("forall", "z$u1"), ("forall", "z$u2"), ("exists", "y$1"), ("exists", "y$2"), ("exists", "y$3")
    )
    assert out.matrix == (
        Atom("XOR0", ("z$u1", "z$u1", "z$u2")),
        Atom("NOT", ("z$u1", "y$1")),
        Atom("XOR0", ("z$u1", "z$u2", "z$u1")),
        Atom("NOT", ("z$u1", "y$2")),
        Atom("XOR0", ("z$u1", "z$u2", "z$u2")),
        Atom("NOT", ("z$u1", "y$3")),
    )
    assert pi2_truth(out) == pi2_truth(s)


def test_reduce_count_copies_k1(mixed_lang):
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "y"))])
    out = reduce_universal_count(s)
    assert out.universals() == ["z$u1"]
    assert out.matrix == (Atom("NOT", ("z$u1", "y$1")),)
    assert pi2_truth(out) is True


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_reduce_count_copies_one_per_partition(size):
    # k universals, each in its own atom with one existential: S(k, m) copies
    # over m = min(k, |A|) shared universals, each copy's universals labelled
    # by a distinct partition into exactly m blocks
    lang = ConstraintLanguage.of(size, Relation("EQ", 2, frozenset((a, a) for a in range(size))))
    for k in range(1, 7):
        xs = [f"x{i}" for i in range(k)]
        prefix = [("forall", x) for x in xs] + [("exists", "y")]
        s = sent(lang, prefix, [Atom("EQ", (x, "y")) for x in xs])
        out = reduce_universal_count(s)
        m = min(k, size)
        copies = stirling2(k, m)
        assert out.universals() == [f"z$u{i}" for i in range(1, m + 1)]
        assert out.existentials() == [f"y${j}" for j in range(1, copies + 1)]
        # copy j's atoms are EQ(z$u<label + 1>, y$j), one per universal in order
        labels = [
            tuple(int(a.args[0][len("z$u") :]) - 1 for a in out.matrix[j * k : (j + 1) * k])
            for j in range(copies)
        ]
        assert labels == sorted(set(labels))
        assert all(
            set(p) == set(range(m)) and all(p[i] <= max(p[:i], default=-1) + 1 for i in range(k))
            for p in labels
        )
        assert pi2_truth(out) is oracle_qcsp(s).truth is (k == 1 or size == 1)


def test_reduce_count_one_block_over_many_universals():
    # over one element all universals share one block: the one partition of
    # 3,000 of them is built without a level of recursion per universal
    lang = ConstraintLanguage.of(1, Relation("EQ", 2, frozenset({(0, 0)})))
    xs = [f"x{i}" for i in range(3000)]
    s = sent(lang, [("forall", x) for x in xs] + [("exists", "y")], [Atom("EQ", (x, "y")) for x in xs])
    out = reduce_universal_count(s)
    assert (out.universals(), out.existentials()) == (["z$u1"], ["y$1"])
    assert {a.args for a in out.matrix} == {("z$u1", "y$1")}


def test_reduce_count_no_universals_unchanged(mixed_lang):
    s = sent(mixed_lang, [("exists", "y")], [Atom("NOT", ("y", "y"))])
    assert reduce_universal_count(s) == s


def test_reduce_count_no_universals_returns_the_input_or_a_checked_copy(mixed_lang, monkeypatch):
    # with no universal occurring, the input itself comes back when it has
    # no vacuous variable; otherwise its copy without them is checked too
    checked = []
    monkeypatch.setattr(transforms, "check_wellformed", lambda s: checked.append(s) or check_wellformed(s))
    s = sent(mixed_lang, [("exists", "y")], [Atom("NOT", ("y", "y"))])
    assert reduce_universal_count(s) is s
    assert checked == [s]
    padded = sent(mixed_lang, [("forall", "x"), ("exists", "y"), ("exists", "w")], [Atom("NOT", ("y", "y"))])
    checked.clear()
    out = reduce_universal_count(padded)
    assert out == s and out is not padded
    assert [c is out for c in checked] == [False, True]


def test_reduce_count_rejects_non_pi2(mixed_lang):
    s = sent(mixed_lang, [("exists", "y"), ("forall", "x")], [])
    with pytest.raises(ValueError):
        reduce_universal_count(s)


def test_reduce_count_truth_random(mixed_lang, dom3_lang):
    rnd = random.Random(29)
    for lang in (mixed_lang, dom3_lang):
        for _ in range(100):
            s = random_pi2(rnd, lang, max_univ=3, max_exist=3)
            out = reduce_universal_count(s)
            assert out.universal_count() <= lang.domain.size
            assert pi2_truth(out) == oracle_qcsp(s).truth


NE3 = Relation("NE", 2, frozenset((a, b) for a, b in product(range(3), repeat=2) if a != b))
LE3 = Relation("LE", 2, frozenset((a, b) for a, b in product(range(3), repeat=2) if a <= b))
SUM3 = Relation("SUM", 3, frozenset(t for t in product(range(3), repeat=3) if sum(t) % 3 == 0))


@pytest.mark.parametrize(
    "lang, top",
    [
        (ConstraintLanguage.of(2, XOR0, NOT, ONE_IN_THREE), 5),
        (ConstraintLanguage.of(3, LE3, NE3, SUM3), 4),
    ],
    ids=["2 elements", "3 elements"],
)
def test_reduce_count_matches_oracle_beyond_domain_size(lang, top):
    # more occurring universals than domain elements, up to ``top``, with one
    # or two vacuous universals besides and variables repeated inside atoms;
    # drawn until 40 sentences of each truth value have been checked
    rnd = random.Random(79)
    size = lang.domain.size
    rels = lang.sorted_relations()
    seen = {True: 0, False: 0}
    while min(seen.values()) < 40:
        k = rnd.randint(size + 1, top)
        us = [f"u{i}" for i in range(k)]
        es = [f"e{i}" for i in range(rnd.randint(k - 1, k + 1))]
        atoms = []
        for _ in range(rnd.randint(2, k)):
            rel = rnd.choice(rels)
            args = [rnd.choice(us if i == 0 or rnd.random() < 0.1 else es) for i in range(rel.arity)]
            rnd.shuffle(args)
            atoms.append(Atom(rel.name, tuple(args)))
        if len({v for a in atoms for v in a.args} & set(us)) <= size:
            continue
        us += [f"pu{i}" for i in range(rnd.randint(0, 2))]
        s = sent(lang, [("forall", u) for u in us] + [("exists", e) for e in es], atoms)
        t = oracle_qcsp(s).truth
        out = reduce_universal_count(s)
        assert out.universal_count() == size
        assert pi2_truth(out) is t, s
        seen[t] += 1


# ---------------------------------------------------------------------------
# full expansion


def test_zeta_depth_one_example(mixed_lang):
    alt = build_alternating(mixed_lang, 1, [Atom("NOT", ("x1", "y1"))])
    out = zeta(alt)
    assert out.prefix == (
        ("forall", "x1$1"),
        ("forall", "x1$2"),
        ("exists", "y1"),
    )
    assert out.matrix == (
        Atom("NOT", ("x1$1", "y1")),
        Atom("NOT", ("x1$2", "y1")),
    )
    assert oracle_qcsp(alt.sentence).truth is False
    assert oracle_qcsp(out).truth is False


def test_zeta_copy_count(mixed_lang, dom3_lang):
    # an atom gets one copy per value of the occurring universals up to its
    # last variable, and the j-th occurring universal |A|^j copies
    for lang, n in ((mixed_lang, 2), (mixed_lang, 3), (dom3_lang, 2)):
        size = lang.domain.size
        rel = lang.sorted_relations()[0]
        for last in range(1, n + 1):
            earlier = [f"y{i}" for i in range(1, last + 1)] + [f"x{i}" for i in range(1, last)]
            for var, other in product([f"x{last}", f"y{last}"], earlier):
                if other == var:
                    continue
                args = (other,) * (rel.arity - 1) + (var,)
                k = len({v for v in args if v.startswith("x")})
                out = zeta(build_alternating(lang, n, [Atom(rel.name, args)]))
                assert len(out.matrix) == size**k, (args, n)
                assert out.universal_count() == sum(size**j for j in range(1, k + 1)), (args, n)


def test_zeta_truth_matches_oracle(mixed_lang):
    rnd = random.Random(31)
    for _ in range(80):
        n = rnd.randint(1, 2)
        alt = build_alternating(
            mixed_lang,
            n,
            [
                Atom("NOT", (rnd.choice(["y1", "x1"]), rnd.choice([f"y{n}", f"x{n}"])))
                for _ in range(rnd.randint(0, 2))
            ],
        )
        assert pi2_truth(zeta(alt)) == oracle_qcsp(alt.sentence).truth


def test_zeta_agrees_with_move_left(mixed_lang):
    # two independent routes to a forall*exists* equivalent
    rnd = random.Random(37)
    for _ in range(60):
        s = random_sentence(rnd, mixed_lang, max_vars=4)
        alt = normalize_alternating(s)
        assert pi2_truth(zeta(alt)) == pi2_truth(move_universals_left(s))


def test_zeta_is_elimination_with_universals_for_pins(mixed_lang, dom3_lang):
    # both read one copy table: zeta's matrix is elimination's atoms before
    # the pins, and its universals are the pinned copies, in pin order
    rnd = random.Random(41)
    for lang in (mixed_lang, dom3_lang):
        for _ in range(60):
            alt = normalize_alternating(random_sentence(rnd, lang, max_vars=4))
            out = zeta(alt)
            inst = eliminate_universals(alt.sentence)
            pins = len(out.universals())
            body, pinned = inst.atoms[: len(inst.atoms) - pins], inst.atoms[len(inst.atoms) - pins :]
            assert out.matrix == body
            assert all(a.relation.startswith("const_") for a in pinned)
            assert not any(a.relation.startswith("const_") for a in body)
            assert out.universals() == [a.args[0] for a in pinned]
            assert out.existentials() == [v for v in inst.variables if v not in set(out.universals())]
            assert out.language is alt.sentence.language


def test_zeta_drops_the_alternation_padding(mixed_lang):
    # padding dummies occur in no atom, so none of them is copied
    rnd = random.Random(47)
    padded = 0
    for _ in range(80):
        s = random_sentence(rnd, mixed_lang, max_vars=4)
        alt = normalize_alternating(s)
        dummies = [v for v in alt.sentence.prefix_variables() if v.startswith(("y$d", "x$d"))]
        padded += bool(dummies)
        out = zeta(alt)
        assert not any(v.startswith(("y$d", "x$d")) for v in out.prefix_variables())
        assert {v.split("$")[0] for v in out.prefix_variables()} <= s.matrix_variables()
    assert padded > 40


def test_zeta_budget(dom3_lang):
    # both universals occur: 3^2 copies; with no atom nothing occurs, and
    # the empty expansion builds under budgets of 0
    alt = build_alternating(dom3_lang, 2, [Atom("LT", ("x1", "x2"))])
    with pytest.raises(BudgetError) as err:
        zeta(alt, Budgets(max_matrix_copies=4))
    assert str(err.value) == "full expansion copies: requires 9, budget allows 4"
    nothing = Budgets(max_matrix_copies=1, max_matrix_atoms=0, max_prefix_vars=0, max_bytes=0)
    out = zeta(build_alternating(dom3_lang, 2, []), nothing)
    assert out.prefix == () and out.matrix == ()


# ---------------------------------------------------------------------------
# lexicographic columns and relational powers


def test_gamma_columns_width_two():
    cols = gamma_columns(2, DomainSpec(2))
    assert [c.column for c in cols] == [(0, 0, 1, 1), (0, 1, 0, 1)]


def test_gamma_columns_width_one():
    for size in (2, 3):
        (col,) = gamma_columns(1, DomainSpec(size))
        assert col.column == tuple(range(size))


def test_gamma_columns_dom3():
    cols = gamma_columns(2, DomainSpec(3))
    assert cols[0].column == (0, 0, 0, 1, 1, 1, 2, 2, 2)
    assert cols[1].column == (0, 1, 2, 0, 1, 2, 0, 1, 2)


def test_gamma_columns_digit_law():
    for size in (2, 3):
        for k in (1, 2, 3):
            cols = gamma_columns(k, DomainSpec(size))
            for row in range(size**k):
                digits = decode_rank(row, size, k)
                for c in cols:
                    assert c.column[row] == digits[c.index - 1]


def test_power_relation_not_squared():
    p = power_relation(NOT, 2, DomainSpec(2))
    # elements encode pairs (a1,a2); membership is digitwise disagreement
    expected = set()
    for a in product(range(2), repeat=2):
        b = (1 - a[0], 1 - a[1])
        expected.add((encode_tuple(a, 2), encode_tuple(b, 2)))
    assert p.tuples == frozenset(expected)
    assert len(p) == 4


def test_power_relation_cardinality():
    p = power_relation(XOR0, 4, DomainSpec(2))
    assert len(p) == 4**4 == 256


def test_power_relation_empty():
    empty = Relation("E", 2, frozenset())
    assert power_relation(empty, 3, DomainSpec(2)).tuples == frozenset()


@pytest.mark.parametrize("block_cells", [5, algebra._BLOCK_CELLS])
@pytest.mark.parametrize(
    "size, base",
    [
        (2, Relation("R", 2, frozenset({(0, 1), (1, 1), (1, 0)}))),
        (3, Relation("T", 2, frozenset({(0, 1), (1, 2), (2, 2), (2, 0)}))),
        (2, Relation("TOP", 0, frozenset({()}))),
        (2, Relation("BOT", 0, frozenset())),
    ],
)
def test_power_relation_slice_law(size, base, block_cells, monkeypatch):
    # membership in the power equals the conjunction of digit-slice memberships
    monkeypatch.setattr(algebra, "_BLOCK_CELLS", block_cells)
    for k in (1, 2, 3, 4):
        p = power_relation(base, k, DomainSpec(size))
        for t in product(range(size**k), repeat=base.arity):
            digits = [decode_rank(v, size, k) for v in t]
            slices_ok = all(tuple(d[i] for d in digits) in base.tuples for i in range(k))
            assert (t in p.tuples) == slices_ok


def test_power_relation_budget():
    with pytest.raises(BudgetError):
        power_relation(XOR0, 9, DomainSpec(2))


# ---------------------------------------------------------------------------
# power-language translation


def test_power_csp_affine_example(xor0_lang):
    s = sent(
        xor0_lang,
        [("forall", "x1"), ("forall", "x2"), ("exists", "y")],
        [Atom("XOR0", ("x1", "x2", "y"))],
    )
    inst = qcsp_to_power_csp(s)
    assert inst.language.domain.size == 16
    gammas = sorted(a.relation for a in inst.atoms if a.relation.startswith("gamma$"))
    assert gammas == ["gamma$1", "gamma$2"]
    verdict = solve_csp(inst)
    assert verdict.truth
    # the solution decodes to y = x1 + x2 on every row of the assignment matrix
    y = verdict.witness["y"]
    digits = decode_rank(y, 2, 4)
    for row, (c1, c2) in enumerate(product(range(2), repeat=2)):
        assert digits[row] == c1 ^ c2


def test_power_csp_unsatisfiable_example(mixed_lang):
    s = sent(
        mixed_lang,
        [("forall", "x1"), ("forall", "x2"), ("exists", "y")],
        [Atom("NOT", ("x1", "y")), Atom("NOT", ("x2", "y"))],
    )
    assert oracle_qcsp(s).truth is False
    assert solve_csp(qcsp_to_power_csp(s)).truth is False


def test_power_csp_pads_missing_universals(mixed_lang):
    s = sent(mixed_lang, [("forall", "x"), ("exists", "y")], [Atom("NOT", ("x", "y"))])
    inst = qcsp_to_power_csp(s)
    gammas = [a for a in inst.atoms if a.relation.startswith("gamma$")]
    assert len(gammas) == 2
    assert any(a.args[0].startswith("x$pad") for a in gammas)
    assert solve_csp(inst).truth == oracle_qcsp(s).truth is True


def test_power_csp_rejects_too_many_universals(mixed_lang):
    s = sent(mixed_lang, [("forall", "a"), ("forall", "b"), ("forall", "c")], [])
    with pytest.raises(ValueError):
        qcsp_to_power_csp(s)


def test_power_csp_dom3_budget(dom3_lang):
    s = sent(dom3_lang, [("exists", "y")], [])
    with pytest.raises(BudgetError) as err:
        qcsp_to_power_csp(s)
    assert err.value.required == 3**27


# the power language is built once per language object; the checks run per call

EMPTY2 = Relation("EMPTY", 2, frozenset())
TOP0 = Relation("TOP", 0, frozenset({()}))
POWER_BASES = {"xor0": (XOR0,), "xor0-not": (XOR0, NOT), "empty-nullary": (XOR0, EMPTY2, TOP0)}


def _raised(call) -> tuple[type, str]:
    with pytest.raises((BudgetError, ValueError)) as err:
        call()
    return type(err.value), str(err.value)


def _unbuilt(lang):
    """An equal language object that has built nothing yet."""
    return ConstraintLanguage(lang.domain, dict(lang.relations))


@pytest.mark.parametrize("rels", POWER_BASES.values(), ids=POWER_BASES)
def test_power_language_is_built_once_per_language(rels):
    lang = ConstraintLanguage.of(2, *rels)
    warm = build_power_language(lang)
    assert build_power_language(lang) is warm
    assert build_power_language(lang, Budgets(max_power_tuples=256)) is warm
    cold = build_power_language(_unbuilt(lang))
    assert cold is not warm and cold == warm
    assert list(cold.relations) == list(warm.relations)
    assert all(cold.relations[n].supports == r.supports for n, r in warm.relations.items())
    # every sentence over the language gets the same power language
    for prefix in ([("forall", "x"), ("exists", "y")], [("exists", "y")]):
        assert qcsp_to_power_csp(sent(lang, prefix, [])).language is warm


@pytest.mark.parametrize(
    "rels, budgets",
    [
        ((XOR0, NOT), Budgets(max_power_tuples=255)),
        ((XOR0, EMPTY2, TOP0), Budgets(max_power_tuples=255)),
        ((XOR0,), Budgets(max_power_domain=15)),
        ((NOT,), Budgets(max_power_domain=15)),
    ],
)
def test_power_language_checks_budgets_on_every_call(rels, budgets):
    lang = ConstraintLanguage.of(2, *rels)
    s = sent(lang, [("forall", "x"), ("exists", "y")], [])
    cold = _raised(lambda: build_power_language(_unbuilt(lang), budgets))
    assert cold[0] is BudgetError
    warm = build_power_language(lang)
    assert _raised(lambda: build_power_language(lang, budgets)) == cold
    assert _raised(lambda: qcsp_to_power_csp(s, budgets)) == cold
    assert build_power_language(lang) is warm
    # a build that fails keeps nothing; the next call builds afresh
    failed = _unbuilt(lang)
    assert _raised(lambda: build_power_language(failed, budgets)) == cold
    assert build_power_language(failed) == warm


def test_power_language_runs_the_checks_once_per_budgets_value(monkeypatch):
    # the budgets that passed are kept on the language: an equal value runs
    # no check again, and tighter ones after looser ones raise what a first
    # build raises, and are not kept
    lang = ConstraintLanguage.of(2, XOR0, NOT)
    loose, tight = Budgets(max_power_tuples=1 << 20), Budgets(max_power_tuples=255)
    cold = _raised(lambda: build_power_language(_unbuilt(lang), tight))
    warm = build_power_language(lang, loose)
    checked = []
    real = Budgets.check_power
    monkeypatch.setattr(Budgets, "check_power", lambda self, what, *a: checked.append(what) or real(self, what, *a))
    assert build_power_language(lang, loose) is warm
    assert build_power_language(lang, Budgets(max_power_tuples=1 << 20)) is warm
    assert checked == []
    for _ in range(2):
        assert _raised(lambda: build_power_language(lang, tight)) == cold
    # NOT's 2**4 power tuples fit, XOR0's 4**4 do not
    assert checked == ["power domain", "power relation tuples", "power relation tuples"] * 2
    checked.clear()
    assert build_power_language(lang) is warm
    assert build_power_language(lang) is warm
    assert checked == ["power domain", "power relation tuples", "power relation tuples", "lexicographic column length"]


def test_power_language_name_check_runs_on_every_call():
    gamma1 = Relation("gamma$1", 1, frozenset({(0,)}))
    lang = ConstraintLanguage.of(2, XOR0, gamma1)
    clash = (ValueError, "base relation name 'gamma$1' collides with column constraints")
    assert _raised(lambda: build_power_language(lang)) == clash
    assert _raised(lambda: build_power_language(lang)) == clash
    # relations are checked in name order, so XOR0's power size comes first
    tight = Budgets(max_power_tuples=255)
    assert _raised(lambda: build_power_language(lang, tight)) == (
        BudgetError, str(BudgetError("power relation tuples", 256, 255))
    )
    assert _raised(lambda: build_power_language(lang)) == clash


def test_power_round_trip_recovers_sentence(xor0_lang):
    s = sent(
        xor0_lang,
        [("forall", "x1"), ("forall", "x2"), ("exists", "y")],
        [Atom("XOR0", ("x1", "x2", "y"))],
    )
    back = power_csp_to_qcsp(qcsp_to_power_csp(s))
    assert back.prefix == (("forall", "x$u1"), ("forall", "x$u2"), ("exists", "y"))
    assert back.matrix == (Atom("XOR0", ("x$u1", "x$u2", "y")),)
    assert oracle_qcsp(back).truth == oracle_qcsp(s).truth


def test_power_csp_gamma_conflict_is_false(xor0_lang):
    plang = build_power_language(xor0_lang)
    inst = CspInstance(
        plang, ("z",), (Atom("gamma$1", ("z",)), Atom("gamma$2", ("z",)))
    )
    assert power_csp_to_qcsp(inst) is CANONICAL_FALSE
    assert solve_csp(inst).truth is False


def test_power_csp_foreign_relation(xor0_lang):
    plang = build_power_language(xor0_lang)
    inst = CspInstance.__new__(CspInstance)
    object.__setattr__(inst, "language", plang)
    object.__setattr__(inst, "variables", ("z",))
    object.__setattr__(inst, "atoms", (Atom("gamma$9", ("z",)),))
    with pytest.raises(ValueError, match="foreign"):
        power_csp_to_qcsp(inst)


def test_power_csp_without_gammas(xor0_lang):
    plang = build_power_language(xor0_lang)
    inst = CspInstance(plang, ("a", "b", "c"), (Atom("XOR0", ("a", "b", "c")),))
    back = power_csp_to_qcsp(inst)
    assert back.universal_count() == 2  # fresh unconstrained universals
    assert set(back.existentials()) == {"a", "b", "c"}
    assert truth_of(back) == solve_csp(inst).truth


def test_power_round_trip_random(mixed_lang):
    rnd = random.Random(41)
    for _ in range(40):
        s = random_pi2(rnd, mixed_lang, max_univ=2, max_exist=2)
        inst = qcsp_to_power_csp(s)
        t = oracle_qcsp(s).truth
        assert solve_csp(inst).truth == t
        assert truth_of(power_csp_to_qcsp(inst)) == t


# ---------------------------------------------------------------------------
# renaming hygiene


def test_transform_outputs_only_add_reserved_names(mixed_lang):
    rnd = random.Random(43)
    for _ in range(60):
        s = random_sentence(rnd, mixed_lang, max_vars=4)
        user_vars = set(s.prefix_variables())
        alt = normalize_alternating(s)
        outputs = [
            alt.sentence,
            move_universals_left(s),
            zeta(alt) if alt.n <= 2 else alt.sentence,
        ]
        inst = eliminate_universals(s)
        for out in outputs:
            assert validate_sentence(out).ok
            for v in out.prefix_variables():
                assert v in user_vars or "$" in v
        for v in inst.variables:
            assert v in user_vars or "$" in v


# ---------------------------------------------------------------------------
# vacuous quantifiers: the copy-making transforms drop prefix variables that
# occur in no atom


def strip(s):
    """The sentence without the prefix variables that occur in no atom."""
    occurring = {v for atom in s.matrix for v in atom.args}
    prefix = tuple((q, v) for q, v in s.prefix if v in occurring)
    return QuantifiedSentence(prefix, s.matrix, s.language)


def padded_sentences(rnd, lang, count):
    """Random sentences, their alternation normal forms and up to three of
    their collapses with at most two kept universals; normalization and
    omega pad the prefix with variables that occur in no atom."""
    for _ in range(count):
        s = random_sentence(rnd, lang, max_vars=4, max_atoms=2)
        alt = normalize_alternating(s)
        yield s
        yield alt.sentence
        sets = [c for k in range(min(2, alt.n) + 1) for c in combinations(range(1, alt.n + 1), k)]
        for indices in rnd.sample(sets, min(3, len(sets))):
            yield omega(alt, indices)


def padded_pi2(rnd, lang, count):
    """Forall*exists* sentences with vacuous padding in both blocks, and the
    collapses of random sentences that fold every universal into z$o0."""
    for _ in range(count):
        s = random_pi2(rnd, lang, max_univ=3, max_exist=3)
        us = s.universals() + [f"pu{i}" for i in range(rnd.randint(0, 2))]
        es = s.existentials() + [f"pe{i}" for i in range(rnd.randint(0, 2))]
        rnd.shuffle(us)
        rnd.shuffle(es)
        yield sent(lang, [("forall", u) for u in us] + [("exists", e) for e in es], s.matrix)
        yield omega(normalize_alternating(random_sentence(rnd, lang, max_vars=4)), ())


@pytest.mark.parametrize("which", ["mixed", "dom3"])
def test_eliminate_and_move_left_ignore_vacuous_variables(which, mixed_lang, dom3_lang):
    lang = mixed_lang if which == "mixed" else dom3_lang
    rnd = random.Random(71)
    vacuous = 0
    for s in padded_sentences(rnd, lang, 150):
        vacuous += strip(s) != s
        t = oracle_qcsp(s).truth
        inst = eliminate_universals(s)
        assert inst == eliminate_universals(strip(s)), s
        assert solve_csp(inst).truth == t, s
        out = move_universals_left(s)
        assert out == move_universals_left(strip(s)), s
        assert pi2_truth(out) == t, s
    assert vacuous > 400


@pytest.mark.parametrize("which", ["mixed", "dom3"])
def test_reduce_count_ignores_vacuous_variables(which, mixed_lang, dom3_lang):
    lang = mixed_lang if which == "mixed" else dom3_lang
    rnd = random.Random(73)
    vacuous = 0
    for s in padded_pi2(rnd, lang, 150):
        vacuous += strip(s) != s
        out = reduce_universal_count(s)
        assert out == reduce_universal_count(strip(s)), s
        assert out.universal_count() <= lang.domain.size
        assert pi2_truth(out) == oracle_qcsp(s).truth, s
    assert vacuous > 150


def test_eliminate_expands_only_occurring_universals(mixed_lang):
    s = sent(
        mixed_lang,
        [("forall", "p"), ("forall", "x"), ("exists", "q"), ("exists", "y"), ("forall", "r")],
        [Atom("NOT", ("x", "y"))],
    )
    inst = eliminate_universals(s)
    assert inst.variables == ("x$1", "x$2", "y$1", "y$2")
    assert inst.atoms == (
        Atom("NOT", ("x$1", "y$1")),
        Atom("NOT", ("x$2", "y$2")),
        Atom("const_0", ("x$1",)),
        Atom("const_1", ("x$2",)),
    )


def test_eliminate_keeps_an_atom_before_the_universal_once(mixed_lang):
    # NOT(y, w) mentions neither x nor the tail after it: its copies would be
    # one atom repeated, so it is kept once, under its own names
    s = sent(
        mixed_lang,
        [("exists", "y"), ("exists", "w"), ("forall", "x"), ("exists", "v")],
        [Atom("NOT", ("y", "w")), Atom("XOR0", ("w", "x", "v"))],
    )
    inst = eliminate_universals(s)
    assert inst.variables == ("y", "w", "x$1", "x$2", "v$1", "v$2")
    assert inst.atoms == (
        Atom("NOT", ("y", "w")),
        Atom("XOR0", ("w", "x$1", "v$1")),
        Atom("XOR0", ("w", "x$2", "v$2")),
        Atom("const_0", ("x$1",)),
        Atom("const_1", ("x$2",)),
    )
    assert solve_csp(inst).truth is oracle_qcsp(s).truth is True


def test_move_left_drops_vacuous_universals(mixed_lang):
    s = sent(
        mixed_lang,
        [("exists", "y"), ("forall", "p"), ("exists", "q"), ("forall", "r")],
        [Atom("NOT", ("y", "y"))],
    )
    out = move_universals_left(s)
    assert out.prefix == (("exists", "y"),)
    assert out.matrix == s.matrix


def test_reduce_count_with_only_vacuous_universals(mixed_lang):
    s = sent(
        mixed_lang,
        [("forall", "a"), ("forall", "b"), ("forall", "c"), ("exists", "y"), ("exists", "w")],
        [Atom("NOT", ("y", "y"))],
    )
    out = reduce_universal_count(s)
    assert out.prefix == (("exists", "y"),)
    assert out.matrix == s.matrix
    assert pi2_truth(out) is oracle_qcsp(s).truth is False


def test_reduce_count_budget_counts_vacuous_universals(mixed_lang):
    # vacuous universals are not counted: with 14 of them nothing is copied
    # and nothing is checked.  Occurring ones are: S(13, 2) = 4095 copies
    # fit the default 4096, and S(14, 2) = 8191 do not
    def sentence(n, occurring):
        prefix = [("forall", f"x{i}") for i in range(n)] + [("exists", "y")]
        if not occurring:
            return sent(mixed_lang, prefix, [Atom("NOT", ("y", "y"))])
        return sent(mixed_lang, prefix, [Atom("XOR0", (f"x{i}", f"x{min(i + 1, n - 1)}", "y")) for i in range(0, n, 2)])

    nothing = Budgets(max_matrix_copies=0, max_matrix_atoms=0, max_prefix_vars=0)
    assert reduce_universal_count(sentence(14, False), nothing).prefix == (("exists", "y"),)
    with pytest.raises(BudgetError) as err:
        reduce_universal_count(sentence(14, True))
    assert err.value.what == "universal-count reduction copies"
    assert err.value.required == 8191
    with pytest.raises(BudgetError) as err:
        reduce_universal_count(sentence(13, True), Budgets(max_matrix_copies=4094))
    assert err.value.required == 4095


def test_instance_reports_every_broken_invariant_at_once(mixed_lang):
    atoms = (Atom("NOPE", ("x",)), Atom("NOT", ("x", "y", "y")), Atom("NOT", ("x", "z")))
    with pytest.raises(ValueError) as err:
        CspInstance(mixed_lang, ("x", "y", "x"), atoms)
    assert str(err.value) == (
        "malformed instance: variable x quantified twice; "
        "atom 0: relation NOPE not in language; "
        "atom 1: NOT expects 2 arguments, got 3; "
        "atom 2: variable z not quantified"
    )


# ---------------------------------------------------------------------------
# universal elimination against the one-universal-at-a-time reference


@pytest.mark.parametrize("size, seed", [(2, 101), (3, 103)])
def test_eliminate_matches_reference(size, seed):
    rels = (XOR0, NOT) if size == 2 else (LT3, CYCLE3)
    lang = ConstraintLanguage.of(size, *rels, TRUE0, FALSE0)
    rnd = random.Random(seed)
    universals = zero_ary = 0
    for _ in range(300):
        s = messy_sentence(rnd, lang, max_vars=5 if size == 2 else 4)
        inst = eliminate_universals(s)
        ref = eliminate_universals_reference(s)
        # the same instance; the reference lists it in its expansion order
        assert sorted(inst.variables) == sorted(ref.variables), s
        assert Counter(inst.atoms) == Counter(ref.atoms), s
        assert inst.language is ref.language
        universals += any(v.count("$") > 1 for v in inst.variables)
        zero_ary += any(not a.args for a in s.matrix)
    assert universals > 30 and zero_ary > 30  # nested copies and 0-ary atoms are exercised


@pytest.mark.parametrize(
    "prefix, atoms, message",
    [
        ([("forall", "x")], [("NOPE", "x")], "malformed sentence: atom 0: relation NOPE not in language"),
        ([("forall", "x")], [("NOT", "x")], "malformed sentence: atom 0: NOT expects 2 arguments, got 1"),
        ([("forall", "x")], [("NOT", "x", "y")], "malformed sentence: atom 0: variable y not quantified"),
        ([("forall", "x"), ("exists", "x")], [("NOT", "x", "x")],
         "malformed sentence: variable x quantified twice"),
        # a$1 is also the name of the first copy of a
        ([("exists", "a$1"), ("forall", "a")], [("NOT", "a$1", "a")],
         "malformed instance: variable a$1 quantified twice"),
        # a sentence is checked over its own language, which has no constants
        ([("forall", "x")], [("const_0", "x")], "malformed sentence: atom 0: relation const_0 not in language"),
    ],
)
def test_eliminate_rejects_malformed_input(mixed_lang, prefix, atoms, message):
    # the bundle compiles elimination's atoms without building the instance,
    # so elimination checks its input and its names itself
    s = sent(mixed_lang, prefix, [Atom(rel, tuple(args)) for rel, *args in atoms])
    with pytest.raises(ValueError) as err:
        eliminate_universals(s)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        reduce_pgp_to_csp(s, 1, override=True)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "prefix",
    [
        [("exists", "x"), ("forall", "x"), ("exists", "y")],
        [("forall", "x"), ("exists", "x"), ("exists", "y")],
    ],
    ids=["exists-forall", "forall-exists"],
)
def test_hoisting_and_count_reduction_reject_a_variable_quantified_twice(xor0_lang, prefix):
    # reduce_to_pi2 hoists a sentence with at most r occurring universals
    # without normalizing it, so hoisting's entry check is its input check
    s = sent(xor0_lang, prefix, [Atom("XOR0", ("x", "x", "y"))])
    calls = [
        move_universals_left,
        reduce_universal_count,
        lambda s: reduce_to_pi2(s, 0, override=True),
        lambda s: reduce_to_pi2(s, 2, override=True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^malformed sentence: variable x quantified twice$"):
            call(s)
