from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsp import (
    Atom,
    ConstraintLanguage,
    DomainSpec,
    QuantifiedSentence,
    Relation,
    eliminate_universals,
    enumerate_switch_bounded,
    gamma_star,
    switch_bounded_count,
    switch_count,
    validate_sentence,
)
from qcsp.model import check_wellformed

from helpers import NOT, XOR0


def test_switch_count_worked_example():
    assert switch_count((1, 1, 0, 2, 0, 0, 0)) == 3


def test_switch_count_degenerate():
    assert switch_count(()) == 0
    assert switch_count((2,)) == 0
    assert switch_count((0, 0, 0, 0)) == 0
    assert switch_count((0, 1, 0)) == 2


def test_enumerate_constants_only():
    assert enumerate_switch_bounded(2, 0, DomainSpec(2)) == ((0, 0), (1, 1))


def test_enumerate_matches_filter_n3_k1():
    got = enumerate_switch_bounded(3, 1, DomainSpec(2))
    expected = tuple(
        t for t in sorted(product(range(2), repeat=3)) if switch_count(t) <= 1
    )
    assert got == expected
    assert len(got) == 6
    assert (0, 1, 0) not in got and (1, 0, 1) not in got


def test_enumerate_count_n4_k2_dom3():
    got = enumerate_switch_bounded(4, 2, DomainSpec(3))
    assert len(got) == 57 == switch_bounded_count(4, 2, 3)
    brute = [t for t in product(range(3), repeat=4) if switch_count(t) <= 2]
    assert set(got) == set(brute)


@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=0, max_value=6),
    size=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_enumerate_properties(n, k, size):
    dom = DomainSpec(size)
    got = enumerate_switch_bounded(n, k, dom)
    # lexicographic and duplicate-free
    assert list(got) == sorted(set(got))
    # counting identity against the closed form and a full filter
    brute = [t for t in product(range(size), repeat=n) if switch_count(t) <= k]
    assert list(got) == brute
    assert len(got) == switch_bounded_count(n, k, size)
    # monotone in k; k = n-1 already exhausts the power
    assert set(got) <= set(enumerate_switch_bounded(n, k + 1, dom))
    if k >= n - 1:
        assert len(got) == size**n


def test_enumerate_deterministic():
    a = enumerate_switch_bounded(5, 2, DomainSpec(3))
    b = enumerate_switch_bounded(5, 2, DomainSpec(3))
    assert a == b


def test_enumerate_is_memoized_on_length_bound_and_domain():
    a = enumerate_switch_bounded(4, 2, DomainSpec(3))
    assert enumerate_switch_bounded(4, 2, DomainSpec(3)) is a
    assert enumerate_switch_bounded(4, 2, DomainSpec(2)) is not a
    with pytest.raises(ValueError):
        enumerate_switch_bounded(0, 2, DomainSpec(3))


def test_relation_invariants():
    with pytest.raises(ValueError):
        Relation("R", 2, frozenset({(0, 1, 0)}))
    r = Relation("R", 2, frozenset({(0, 1), (0, 1)}))
    assert len(r) == 1


def test_language_range_check():
    with pytest.raises(ValueError):
        ConstraintLanguage.of(2, Relation("R", 1, frozenset({(5,)})))


def test_gamma_star_adds_constants(xor0_lang):
    star = gamma_star(xor0_lang)
    assert star.relations["const_0"].tuples == frozenset({(0,)})
    assert star.relations["const_1"].tuples == frozenset({(1,)})
    assert "XOR0" in star.relations
    # idempotent
    assert gamma_star(star) == star


def test_gamma_star_rejects_conflicting_name():
    bad = ConstraintLanguage.of(2, Relation("const_0", 1, frozenset({(1,)})))
    with pytest.raises(ValueError):
        gamma_star(bad)


NON_CONSTANTS = [
    Relation("const_0", 1, frozenset({(1,)})),
    Relation("const_0", 1, frozenset({(0,), (1,)})),
    Relation("const_0", 2, frozenset({(0, 0)})),
    Relation("const_1", 1, frozenset()),
]
STAR_BASES = {
    "xor0": (XOR0,),
    "xor0-not": (XOR0, NOT),
    "empty-nullary": (XOR0, Relation("EMPTY", 2, frozenset()), Relation("TOP", 0, frozenset({()}))),
    "with-const_1": (Relation("const_1", 1, frozenset({(1,)})), NOT),
}


@pytest.mark.parametrize("rels", STAR_BASES.values(), ids=STAR_BASES)
def test_gamma_star_is_built_once_per_language(rels):
    lang = ConstraintLanguage.of(2, *rels)
    star = gamma_star(lang)
    assert gamma_star(lang) is star
    cold = gamma_star(ConstraintLanguage(lang.domain, dict(lang.relations)))
    assert cold is not star and cold == star
    assert list(cold.relations) == list(star.relations)
    assert all(cold.relations[n].supports == r.supports for n, r in star.relations.items())
    # every instance the elimination builds over the language shares it
    for prefix in ((("forall", "x"),), (("exists", "x"), ("forall", "y"))):
        matrix = (Atom("NOT", ("x", "x")),) if "NOT" in lang.relations else ()
        s = QuantifiedSentence(prefix, matrix, lang)
        assert eliminate_universals(s).language is star


@pytest.mark.parametrize("rel", NON_CONSTANTS, ids=["other-value", "two-values", "binary", "empty"])
def test_gamma_star_name_check_runs_on_every_call(rel):
    lang = ConstraintLanguage.of(2, XOR0, rel)
    message = f"relation name {rel.name} already taken by a non-constant relation"
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            gamma_star(lang)
        assert str(err.value) == message


def test_validate_clean_sentence(xor0_lang):
    s = QuantifiedSentence(
        (("forall", "x"), ("exists", "y")),
        (Atom("XOR0", ("x", "x", "y")),),
        xor0_lang,
    )
    assert validate_sentence(s).ok


def test_validate_reports_arity(xor0_lang):
    s = QuantifiedSentence(
        (("exists", "x"), ("exists", "y")),
        (Atom("XOR0", ("x", "y")),),
        xor0_lang,
    )
    report = validate_sentence(s)
    assert [i.kind for i in report] == ["arity-mismatch"]


def test_validate_reports_duplicate_quantifier(xor0_lang):
    s = QuantifiedSentence((("forall", "x"), ("exists", "x")), (), xor0_lang)
    report = validate_sentence(s)
    assert [i.kind for i in report] == ["duplicate-quantifier"]


def test_validate_reports_unknown_and_unquantified(xor0_lang):
    s = QuantifiedSentence((), (Atom("NOPE", ("z",)),), xor0_lang)
    kinds = {i.kind for i in validate_sentence(s)}
    assert kinds == {"unknown-relation", "unquantified-variable"}


def test_validation_report_is_kept_on_the_sentence(xor0_lang):
    # a later stage's entry check reuses the report of an earlier postcondition
    s = QuantifiedSentence((("forall", "x"), ("exists", "y")), (Atom("XOR0", ("x", "x", "y")),), xor0_lang)
    report = validate_sentence(s)
    assert report.ok and validate_sentence(s) is report
    check_wellformed(s)
    # an invalid sentence keeps its failing report and fails every check
    bad = QuantifiedSentence((("exists", "x"),), (Atom("XOR0", ("x", "y")),), xor0_lang)
    first = validate_sentence(bad)
    assert validate_sentence(bad) is first
    assert [i.kind for i in first] == ["arity-mismatch", "unquantified-variable"]
    for _ in range(2):
        with pytest.raises(ValueError, match="malformed sentence: atom 0: XOR0 expects 3 arguments"):
            check_wellformed(bad)


@given(st.sets(st.tuples(*[st.integers(0, 3)] * 3), max_size=20))
@settings(max_examples=60, deadline=None)
def test_relation_supports_match_tuple_scan(rows):
    rel = Relation("R", 3, frozenset(rows))
    ordered = rel.sorted_tuples()
    assert rel.supports is rel.supports  # built once per relation
    for p in range(3):
        table = rel.supports[p]
        assert [bit.bit_length() - 1 for bit, _ in table] == sorted({t[p] for t in ordered})
        for bit, mask in table:
            v = bit.bit_length() - 1
            assert [i for i in range(len(ordered)) if mask >> i & 1] == [
                i for i, t in enumerate(ordered) if t[p] == v
            ]
