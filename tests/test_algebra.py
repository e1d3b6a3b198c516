import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsp import (
    BudgetError,
    Budgets,
    ConstraintLanguage,
    DomainSpec,
    OperationTable,
    Relation,
    enumerate_switch_bounded,
    find_wnu,
    generate_closure,
    is_wnu,
    polymorphisms,
    preserves,
    switchability_witness,
    table_from_function,
)
from qcsp import algebra
from qcsp.algebra import lift_operation, projection_table
from qcsp.model import encode_tuple
from helpers import (
    XOR0,
    ONE_IN_THREE,
    closure_bruteforce,
    first_wnu_bruteforce,
    polymorphisms_bruteforce,
    preserves_bruteforce,
    reversed_relations,
)

DOM2 = DomainSpec(2)
MINORITY = table_from_function(DOM2, 3, lambda a, b, c: a ^ b ^ c)
MAX2 = table_from_function(DOM2, 2, max)
CONST1 = table_from_function(DOM2, 1, lambda a: 1)


def test_minority_preserves_xor0():
    assert preserves(MINORITY, XOR0)


def test_projection_preserves_everything():
    proj = projection_table(DOM2, 2, 0)
    assert preserves(proj, XOR0)
    assert preserves(proj, ONE_IN_THREE)


def test_constant_one_breaks_xor0():
    assert not preserves(CONST1, XOR0)


def test_preserves_domain_mismatch():
    r = Relation("R", 1, frozenset({(2,)}))
    with pytest.raises(ValueError):
        preserves(CONST1, r)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_preserves_agrees_with_double_loop(data):
    size = data.draw(st.integers(min_value=2, max_value=3))
    dom = DomainSpec(size)
    m = data.draw(st.integers(min_value=1, max_value=3))
    table = data.draw(
        st.tuples(*[st.integers(min_value=0, max_value=size - 1)] * (size**m))
    )
    f = OperationTable(m, dom, table)
    arity = data.draw(st.integers(min_value=1, max_value=3))
    universe = sorted(product(range(size), repeat=arity))
    rows = data.draw(st.sets(st.sampled_from(universe), max_size=8))
    rel = Relation("R", arity, frozenset(rows))
    assert preserves(f, rel) == preserves_bruteforce(f, rel)


def test_numpy_path_agrees_with_double_loop():
    # every image of the full relation is a member
    dom = DomainSpec(2)
    rel = Relation("ALL4", 4, frozenset(product(range(2), repeat=4)))
    f = table_from_function(dom, 3, lambda a, b, c: a ^ b ^ c)
    assert preserves(f, rel) == preserves_bruteforce(f, rel) is True
    g = table_from_function(dom, 3, lambda a, b, c: max(a, b, c))
    assert preserves(g, rel) == preserves_bruteforce(g, rel)


def test_unary_polymorphisms_of_xor0(xor0_lang):
    got = polymorphisms(xor0_lang, 1)
    tables = {f.table for f in got}
    assert tables == {(0, 1), (0, 0)}  # identity and constant zero


def test_unary_polymorphisms_of_empty_language():
    lang = ConstraintLanguage.of(2)
    assert len(polymorphisms(lang, 1)) == 4


def test_ternary_polymorphisms_contain_minority(xor0_lang):
    got = polymorphisms(xor0_lang, 3)
    assert MINORITY in got
    # membership is exactly preservation of every relation
    members = {f.table for f in got}
    for f in got:
        assert preserves_bruteforce(f, XOR0)
    for table in product(range(2), repeat=8):
        if table not in members:
            f = OperationTable(3, DOM2, table)
            assert not preserves_bruteforce(f, XOR0)


def test_polymorphisms_budget():
    lang = ConstraintLanguage.of(3)
    with pytest.raises(BudgetError) as err:
        polymorphisms(lang, 3)
    assert err.value.required == 3**27


def test_closure_low_switch_seeds_fill_cube():
    seeds = enumerate_switch_bounded(3, 1, DOM2)
    closed = generate_closure(seeds, [MINORITY], 3)
    assert closed == frozenset(product(range(2), repeat=3))


def test_closure_fixed_point_on_singleton():
    closed = generate_closure([(0, 0, 0)], [MINORITY], 3)
    assert closed == frozenset({(0, 0, 0)})


def test_closure_no_ops_is_identity():
    seeds = [(0, 1), (1, 1)]
    assert generate_closure(seeds, [], 2) == frozenset(seeds)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_closure_laws(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    universe = sorted(product(range(2), repeat=n))
    seeds = data.draw(st.sets(st.sampled_from(universe), min_size=1, max_size=4))
    more = data.draw(st.sets(st.sampled_from(universe), max_size=2))
    pool = [MINORITY, MAX2, projection_table(DOM2, 2, 1)]
    ops = data.draw(st.sets(st.sampled_from(pool), max_size=3))
    closed = generate_closure(seeds, ops, n)
    # extensive
    assert seeds <= closed
    # idempotent
    assert generate_closure(closed, ops, n) == closed
    # monotone in seeds
    assert closed <= generate_closure(seeds | more, ops, n)
    # monotone in ops
    assert closed <= generate_closure(seeds, list(ops) + [MINORITY], n)


def test_closure_unchanged_by_extra_projections():
    # supersets of operations generate supersets; projections add nothing
    seeds = enumerate_switch_bounded(4, 2, DOM2)
    base = generate_closure(seeds, [MINORITY], 4)
    extra = [MINORITY, projection_table(DOM2, 2, 0), projection_table(DOM2, 3, 2)]
    assert generate_closure(seeds, extra, 4) == base


def test_witness_xor0_r2(xor0_lang):
    w = switchability_witness(xor0_lang, 2, max_arity=3, max_power=4)
    assert w.verdict == "witnessed"
    assert w.powers == ((2, True), (3, True), (4, True))
    assert w.arities_used() == [1, 2, 3]


def test_witness_xor0_r0_refuted(xor0_lang):
    w = switchability_witness(xor0_lang, 0, max_arity=3, max_power=3)
    assert w.verdict == "refuted-at-bounds"
    assert w.powers[0] == (2, False)


def test_witness_xor0_r1_trivial_power(xor0_lang):
    w = switchability_witness(xor0_lang, 1, max_arity=3, max_power=2)
    assert w.verdict == "witnessed"
    assert w.powers == ((2, True),)


def test_witness_deterministic_under_input_order(mixed_lang):
    w = switchability_witness(mixed_lang, 2, max_arity=3, max_power=4)
    v = switchability_witness(reversed_relations(mixed_lang), 2, max_arity=3, max_power=4)
    assert json.dumps(w.to_json()) == json.dumps(v.to_json())
    assert w.operations == v.operations
    for n in (2, 3, 4):
        seeds = enumerate_switch_bounded(n, 1, DOM2)
        forward = generate_closure(seeds, w.operations, n)
        backward = generate_closure(seeds[::-1], w.operations[::-1], n)
        assert sorted(forward) == sorted(backward)


def test_witness_inconclusive_on_budget_exhaustion(xor0_lang):
    tight = Budgets(max_closure_points=3)
    w = switchability_witness(xor0_lang, 2, max_arity=1, max_power=4, budgets=tight)
    assert w.verdict == "inconclusive"
    assert len(w.powers) < 3


@pytest.mark.parametrize(
    "bounds", [{"max_power": 1}, {"max_power": 0}, {"max_power": -1}, {"max_arity": 0}]
)
def test_witness_rejects_vacuous_bounds(bounds):
    # max_power 1 checks no power at all and used to answer "witnessed" for
    # NOT, whose sentence exists y forall x NOT(x, y) the bundle then got wrong
    lang = ConstraintLanguage.of(2, Relation("NOT", 2, frozenset({(0, 1), (1, 0)})))
    with pytest.raises(ValueError, match="bound must be >= "):
        switchability_witness(lang, 0, **bounds)


def test_witness_json_shape(xor0_lang):
    w = switchability_witness(xor0_lang, 1, max_arity=2, max_power=3)
    data = w.to_json()
    assert set(data) == {"r", "arities_used", "powers", "verdict"}
    assert all(set(p) == {"n", "generated"} for p in data["powers"])


def test_is_wnu_examples():
    assert is_wnu(MINORITY)
    assert is_wnu(MAX2)
    assert not is_wnu(projection_table(DOM2, 3, 0))
    with pytest.raises(ValueError):
        is_wnu(table_from_function(DOM2, 1, lambda a: a))


def test_is_wnu_not_idempotent():
    f = table_from_function(DOM2, 2, lambda a, b: 1 - max(a, b))
    assert not is_wnu(f)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_is_wnu_invariant_under_argument_permutation(data):
    size = data.draw(st.integers(min_value=2, max_value=3))
    dom = DomainSpec(size)
    m = data.draw(st.integers(min_value=2, max_value=3))
    table = data.draw(st.tuples(*[st.integers(min_value=0, max_value=size - 1)] * (size**m)))
    f = OperationTable(m, dom, table)
    perm = data.draw(st.permutations(range(m)))
    g = table_from_function(dom, m, lambda *args: f.apply(tuple(args[p] for p in perm)))
    assert is_wnu(f) == is_wnu(g)


def test_find_wnu_xor0(xor0_lang):
    f = find_wnu(xor0_lang, 3)
    assert f is not None
    assert is_wnu(f)
    assert preserves_bruteforce(f, XOR0)
    assert f == MINORITY  # the only ternary near-unanimity table preserving it


def test_find_wnu_one_in_three_none(one_in_three_lang):
    assert find_wnu(one_in_three_lang, 3) is None


def test_find_wnu_empty_language():
    lang = ConstraintLanguage.of(2)
    f = find_wnu(lang, 2)
    assert f is not None and is_wnu(f)


def test_lift_operation_digitwise():
    lifted = lift_operation(MINORITY, 4)
    assert lifted.domain.size == 16
    # digitwise xor on 4-bit codes
    for a, b, c in [(3, 5, 6), (0, 15, 9), (7, 7, 7)]:
        assert lifted.apply((a, b, c)) == a ^ b ^ c
    assert is_wnu(lifted)


def digitwise_entries(size, m, k):
    """For each argument tuple of an arity-m operation on k-digit codes, in
    lexicographic order, the rank in A^m of each digit column of the
    arguments, most significant digit first."""
    codes = list(product(range(size), repeat=k))  # code c -> its digits
    return [
        [sum(a[j] * size ** (m - 1 - i) for i, a in enumerate(args)) for j in range(k)]
        for args in product(codes, repeat=m)
    ]


def test_lift_operation_matches_digitwise_application():
    # every Boolean table of arity 1-3 at k = 1..4, seeded 3-element ones at k = 1, 2
    rnd = random.Random(11)
    dom3 = DomainSpec(3)
    cases = [
        (m, k, [OperationTable(m, DOM2, t) for t in product((0, 1), repeat=2**m)])
        for m in (1, 2, 3)
        for k in (1, 2, 3, 4)
    ] + [
        (m, k, [OperationTable(m, dom3, tuple(rnd.randrange(3) for _ in range(3**m)))])
        for m in (1, 2, 3)
        for k in (1, 2)
    ]
    for m, k, tables in cases:
        size = tables[0].domain.size
        entries = digitwise_entries(size, m, k)
        for f in tables:
            lifted = lift_operation(f, k)
            assert lifted.arity == m and lifted.domain.size == size**k
            assert lifted.table == tuple(
                sum(f.table[e] * size ** (k - 1 - j) for j, e in enumerate(row)) for row in entries
            )


# ---------------------------------------------------------------------------
# differential checks against the brute-force references


def random_language(rnd, size, max_arity):
    """One to three random relations, plus an empty and a 0-ary one."""
    rels = [
        Relation("EMPTY", 2, frozenset()),
        Relation("NULLARY", 0, frozenset({()})),
    ]
    for j in range(rnd.randint(1, 3)):
        arity = rnd.randint(1, max_arity)
        universe = list(product(range(size), repeat=arity))
        rows = rnd.sample(universe, rnd.randint(1, min(5, len(universe))))
        rels.append(Relation(f"R{j}", arity, frozenset(rows)))
    return ConstraintLanguage.of(size, *rels)


@pytest.mark.parametrize("block_cells", [5, algebra._BLOCK_CELLS])
@pytest.mark.parametrize(
    "size, arities, count", [(2, (1, 2, 3), 12), (3, (1, 2), 3)]
)
def test_polymorphisms_and_find_wnu_match_bruteforce(
    size, arities, count, block_cells, monkeypatch
):
    monkeypatch.setattr(algebra, "_BLOCK_CELLS", block_cells)
    rnd = random.Random(size)
    for _ in range(count):
        lang = random_language(rnd, size, 3)
        for m in arities:
            got = polymorphisms(lang, m)
            assert list(got) == polymorphisms_bruteforce(lang, m)
            if m >= 2:
                assert find_wnu(lang, m) == first_wnu_bruteforce(lang, m)


def test_find_wnu_none_matches_bruteforce(one_in_three_lang):
    assert first_wnu_bruteforce(one_in_three_lang, 3) is None
    assert find_wnu(one_in_three_lang, 3) is None


@pytest.mark.parametrize("block_cells", [3, 64, algebra._BLOCK_CELLS])
def test_closure_matches_naive_fixpoint(block_cells, monkeypatch):
    monkeypatch.setattr(algebra, "_BLOCK_CELLS", block_cells)
    rnd = random.Random(17)
    for size, max_n, max_m in [(2, 4, 3), (3, 3, 2)]:
        dom = DomainSpec(size)
        for _ in range(40):
            n = rnd.randint(1, max_n)
            universe = list(product(range(size), repeat=n))
            seeds = rnd.sample(universe, rnd.randint(1, min(6, len(universe))))
            ops = []
            for _ in range(rnd.randint(1, 3)):
                m = rnd.randint(1, max_m)
                table = tuple(rnd.randrange(size) for _ in range(size**m))
                ops.append(OperationTable(m, dom, table))
            assert generate_closure(seeds, ops, n) == closure_bruteforce(seeds, ops, n)


def test_closure_full_at_seeds_and_mid_pass():
    cube = frozenset(product(range(2), repeat=3))
    assert generate_closure(cube, [MINORITY], 3) == cube
    # the first pass fills the cube before it has combined every triple
    seeds = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert closure_bruteforce(seeds, [MINORITY], 3) == cube
    assert generate_closure(seeds, [MINORITY], 3) == cube
    # a budget of exactly |A^n| points is enough: it stops when full
    tight = Budgets(max_closure_points=8)
    assert generate_closure(seeds, [MINORITY, MAX2], 3, tight) == cube


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("block_cells", [5, 1000, algebra._BLOCK_CELLS])
def test_preserves_chunked_matches_bruteforce(m, block_cells, monkeypatch):
    monkeypatch.setattr(algebra, "_BLOCK_CELLS", block_cells)
    rnd = random.Random(m)
    dom = DomainSpec(3)
    universe = list(product(range(3), repeat=4))
    for count in (20, 34):
        rows = rnd.sample(universe, count)
        for rel in (
            Relation("R", 4, frozenset(rows)),
            Relation("C", 4, frozenset(rows) | {(v,) * 4 for v in range(3)}),
        ):
            for f in (
                projection_table(dom, m, m - 1),
                table_from_function(dom, m, lambda *a: min(a)),
                OperationTable(m, dom, tuple(rnd.randrange(3) for _ in range(3**m))),
            ):
                assert preserves(f, rel) == preserves_bruteforce(f, rel)


@pytest.mark.parametrize("block_cells", [1, 7, 100, 10**6])
@pytest.mark.parametrize("copies", [1, 5])
def test_entry_blocks_enumerate_in_order_within_the_cell_bound(block_cells, copies, monkeypatch):
    monkeypatch.setattr(algebra, "_BLOCK_CELLS", block_cells)
    rnd = random.Random(block_cells)
    args = [np.array([[rnd.randrange(3) for _ in range(2)] for _ in range(k)]) for k in (4, 3, 5)]
    blocks = list(algebra._entry_blocks(args, 3, copies))
    want = [
        [encode_tuple((a[j], b[j], c[j]), 3) for j in range(2)]
        for a, b, c in product(*args)
    ]
    assert np.concatenate(blocks).tolist() == want
    assert all(block.size * copies <= max(block_cells, 2 * copies) for block in blocks)


def test_preserves_checks_cells_before_allocating():
    rel = Relation("ALL", 4, frozenset(product(range(2), repeat=4)))
    with pytest.raises(BudgetError) as err:
        preserves(MINORITY, rel, Budgets(max_preserve_cells=16**3 * 4 - 1))
    assert err.value.what == "preservation check cells"
    assert err.value.required == 16**3 * 4


def test_preserves_exact_beyond_int64_codes():
    # |A|^arity = 2^70: the row codes are folded in stages, not wrapped
    dom = DomainSpec(2)
    ones = (1,) * 70
    rel = Relation("W", 70, frozenset({(0,) * 70, ones, (1,) + (0,) * 69}))
    assert preserves_bruteforce(MINORITY, rel) is False
    assert preserves(MINORITY, rel) is False
    mixed = Relation("M", 70, frozenset({(0,) * 70, ones, (0,) * 6 + (1,) * 64}))
    maj = table_from_function(dom, 3, lambda a, b, c: int(a + b + c >= 2))
    assert preserves(maj, mixed) == preserves_bruteforce(maj, mixed)
    assert polymorphisms(ConstraintLanguage.of(2, rel), 1) == tuple(
        polymorphisms_bruteforce(ConstraintLanguage.of(2, rel), 1)
    )


def test_preserves_wide_domain_reads_values_in_digits():
    # one value of a 2^20-element domain would not fit in a stage of the row
    # index, so values are read in base-2^k digits and the index stays small
    size = 1 << 20
    rnd = random.Random(20)
    f = OperationTable(1, DomainSpec(size), tuple(v ^ 1 for v in range(size)))
    rows = {tuple(rnd.randrange(size) for _ in range(3)) for _ in range(150)}
    closed = rows | {tuple(v ^ 1 for v in t) for t in rows}
    for rel in (Relation("C", 3, frozenset(closed)), Relation("R", 3, frozenset(rows))):
        assert preserves(f, rel) == preserves_bruteforce(f, rel)
        _, (base, stages) = algebra._row_index(rel, 1, size, Budgets())
        assert base < size
        assert sum(step.size for *_, step in stages) <= len(stages) * algebra._BLOCK_CELLS // 3


def test_polymorphisms_rejects_arity_zero(xor0_lang):
    with pytest.raises(ValueError, match="arity must be >= 1"):
        polymorphisms(xor0_lang, 0)
