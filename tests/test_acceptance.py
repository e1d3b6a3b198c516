"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Randomized parts are seeded; every expected value is either computed
by an independent brute-force check inside the test or asserted structurally.
"""

import json
import random
import time
from itertools import combinations, product

import pytest

from qcsp import (
    Atom,
    ConstraintLanguage,
    DomainSpec,
    QuantifiedSentence,
    build_power_language,
    classify,
    CspInstance,
    eliminate_universals,
    enumerate_switch_bounded,
    generate_closure,
    is_wnu,
    move_universals_left,
    normalize_alternating,
    omega,
    oracle_qcsp,
    power_csp_to_qcsp,
    preserves,
    qcsp_to_power_csp,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    reduce_universal_count,
    solve_csp,
    SwitchabilityWitness,
    switch_bounded_count,
    switch_count,
    switchability_witness,
    table_from_function,
    truth_of,
    zeta,
)
from qcsp.algebra import projection_table
from qcsp.solvers import pi2_truth
from qcsp.transforms import CANONICAL_FALSE
from helpers import (
    ONE_IN_THREE,
    alternating_family,
    lang_dom3,
    lang_mixed2,
    lang_xor0,
    prefix_family,
    random_pi2,
    random_sentence,
    reversed_relations,
)

DOM2 = DomainSpec(2)
MINORITY = table_from_function(DOM2, 3, lambda a, b, c: a ^ b ^ c)


def report(num: int, name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} [{name}]: PASS{suffix}")


@pytest.fixture(scope="module")
def xor0_lang():
    return lang_xor0()


@pytest.fixture(scope="module")
def witnessed_r2(xor0_lang):
    w = switchability_witness(xor0_lang, 2, max_arity=3, max_power=4)
    assert w.verdict == "witnessed"
    return w


def max_component_assignments(sentence: QuantifiedSentence) -> int:
    """Cost of the component-wise evaluation of a forall*exists* sentence."""
    size = sentence.language.domain.size
    universals = set(sentence.universals())
    parent = {v: v for v in sentence.existentials()}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for atom in sentence.matrix:
        evars = sorted(set(atom.args) - universals)
        for a, b in zip(evars, evars[1:]):
            parent[find(a)] = find(b)
    touched: dict[str, set] = {}
    worst = 1
    for atom in sentence.matrix:
        evars = sorted(set(atom.args) - universals)
        uvars = set(atom.args) & universals
        if not evars:
            worst = max(worst, size ** len(uvars))
            continue
        key = find(evars[0])
        touched.setdefault(key, set()).update(uvars)
    for us in touched.values():
        worst = max(worst, size ** len(us))
    return worst


# ---------------------------------------------------------------------------
# 1. bundle equivalence at desk scale


def test_criterion_1_bundle_equivalence(xor0_lang, witnessed_r2):
    start = time.time()
    checked = 0
    for n in (1, 2):
        for s in alternating_family(xor0_lang, n, max_atoms=2):
            bundle = reduce_pgp_to_csp(s, 2, witness=witnessed_r2)
            assert bundle.combined == oracle_qcsp(s).truth, (s.prefix, s.matrix)
            checked += 1
    rnd = random.Random(20260810)
    for _ in range(200):
        s = random_sentence(rnd, xor0_lang, max_vars=8, max_atoms=3)
        bundle = reduce_pgp_to_csp(s, 2, witness=witnessed_r2)
        assert bundle.combined == oracle_qcsp(s).truth, (s.prefix, s.matrix)
        checked += 1
    elapsed = time.time() - start
    assert checked >= 2118 + 200
    assert elapsed < 60.0
    report(1, f"bundle equals oracle on {checked} sentences", elapsed)


# ---------------------------------------------------------------------------
# 2. transformation truth preservation


def _exhaustive_dom2():
    lang = lang_mixed2()
    for n_vars in range(1, 6):
        yield from prefix_family(lang, n_vars, atom_count=1)


def test_criterion_2_transform_truth_preservation():
    start = time.time()
    lang3 = lang_dom3()
    exhaustive = {"eliminate": 0, "move-left": 0, "reduce-count": 0, "zeta": 0}
    randomized = {"eliminate": 0, "move-left": 0, "reduce-count": 0, "zeta": 0}
    family_size = 0

    for s in _exhaustive_dom2():
        family_size += 1
        t = oracle_qcsp(s).truth
        assert solve_csp(eliminate_universals(s)).truth == t, s
        exhaustive["eliminate"] += 1
        assert pi2_truth(move_universals_left(s)) == t, s
        exhaustive["move-left"] += 1
        if s.is_pi2():
            assert pi2_truth(reduce_universal_count(s)) == t, s
            exhaustive["reduce-count"] += 1
        assert pi2_truth(zeta(normalize_alternating(s))) == t, s
        exhaustive["zeta"] += 1

    # random domain-3 instances; draws whose independent evaluation would
    # exceed the per-component budget are resampled
    rnd = random.Random(31337)
    while randomized["eliminate"] < 100:
        s = random_sentence(rnd, lang3, max_vars=5, max_atoms=2)
        assert solve_csp(eliminate_universals(s)).truth == oracle_qcsp(s).truth, s
        randomized["eliminate"] += 1
    while randomized["move-left"] < 100:
        s = random_sentence(rnd, lang3, max_vars=5, max_atoms=2)
        out = move_universals_left(s)
        if max_component_assignments(out) <= 2000:
            assert pi2_truth(out) == oracle_qcsp(s).truth, s
            randomized["move-left"] += 1
    while randomized["reduce-count"] < 100:
        s = random_pi2(rnd, lang3, max_univ=3, max_exist=3, max_atoms=2)
        assert pi2_truth(reduce_universal_count(s)) == oracle_qcsp(s).truth, s
        randomized["reduce-count"] += 1
    while randomized["zeta"] < 100:
        s = random_sentence(rnd, lang3, max_vars=4, max_atoms=2)
        alt = normalize_alternating(s)
        if alt.n > 2:
            continue
        z = zeta(alt)
        if max_component_assignments(z) <= 2000:
            assert pi2_truth(z) == oracle_qcsp(alt.sentence).truth, s
            randomized["zeta"] += 1

    elapsed = time.time() - start
    assert family_size == sum(2**n * (n**3 + n**2) for n in range(1, 6))
    assert exhaustive["eliminate"] == exhaustive["move-left"] == exhaustive["zeta"] == family_size
    assert all(v >= 100 for v in randomized.values())
    assert elapsed < 60.0
    report(
        2,
        f"truth preserved on {family_size}-sentence exhaustive suite "
        f"(zeta on {exhaustive['zeta']}) plus {randomized} random domain-3 runs",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 3. collapse weakening


def test_criterion_3_omega_weakening(xor0_lang):
    start = time.time()
    counterexamples = 0
    checked = 0
    for n in (1, 2):
        for s in alternating_family(xor0_lang, n, max_atoms=2):
            if not oracle_qcsp(s).truth:
                continue
            alt = normalize_alternating(s)
            for k in range(0, alt.n + 1):
                for indices in combinations(range(1, alt.n + 1), k):
                    checked += 1
                    if not oracle_qcsp(omega(alt, indices)).truth:
                        counterexamples += 1
    rnd = random.Random(20260810)
    for _ in range(200):
        s = random_sentence(rnd, xor0_lang, max_vars=8, max_atoms=3)
        if not oracle_qcsp(s).truth:
            continue
        alt = normalize_alternating(s)
        for k in range(0, alt.n + 1):
            for indices in combinations(range(1, alt.n + 1), k):
                checked += 1
                if not oracle_qcsp(omega(alt, indices)).truth:
                    counterexamples += 1
    elapsed = time.time() - start
    assert counterexamples == 0
    assert checked > 2000
    report(3, f"collapse weakening holds on {checked} collapses", elapsed)


# ---------------------------------------------------------------------------
# 4. universal-count bounds


def test_criterion_4_universal_count_bounds(xor0_lang, witnessed_r2):
    start = time.time()
    rnd = random.Random(97)
    n_omega = n_pi2 = n_elim = 0
    for _ in range(60):
        s = random_sentence(rnd, xor0_lang, max_vars=5, max_atoms=2)
        alt = normalize_alternating(s)
        for k in range(0, alt.n + 1):
            for indices in combinations(range(1, alt.n + 1), k):
                out = omega(alt, indices)
                assert out.universal_count() == 2 * k + 1, (s.prefix, indices)
                n_omega += 1
        inst = eliminate_universals(s)
        assert all(q == "exists" for q, _ in inst.as_sentence().prefix)
        n_elim += 1
    for _ in range(15):
        s = random_sentence(rnd, xor0_lang, max_vars=3, max_atoms=1)
        out = reduce_to_pi2(s, 2, witness=witnessed_r2)
        assert out.is_pi2()
        assert out.universal_count() <= xor0_lang.domain.size
        n_pi2 += 1
    elapsed = time.time() - start
    report(
        4,
        f"{n_omega} collapses at exactly 2k+1 universals, "
        f"{n_pi2} two-level reductions within the domain bound, "
        f"{n_elim} eliminations with zero universals",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 5. power-language round trip


def test_criterion_5_power_round_trip(xor0_lang):
    start = time.time()
    lang = lang_mixed2()
    rnd = random.Random(101)
    checked = 0
    for _ in range(30):
        s = random_pi2(rnd, lang, max_univ=2, max_exist=2, max_atoms=2)
        t = oracle_qcsp(s).truth
        inst = qcsp_to_power_csp(s)
        assert solve_csp(inst).truth == t, s
        assert truth_of(power_csp_to_qcsp(inst)) == t, s
        checked += 1
    # direct instances over the power language, including column conflicts
    plang = build_power_language(lang)
    names = ["p", "q", "w"]
    for _ in range(25):
        atoms = []
        for _ in range(rnd.randint(1, 3)):
            rel = rnd.choice(["XOR0", "NOT", "gamma$1", "gamma$2"])
            arity = plang.relations[rel].arity
            atoms.append(Atom(rel, tuple(rnd.choice(names) for _ in range(arity))))
        inst = CspInstance(plang, tuple(names), tuple(atoms))
        assert truth_of(power_csp_to_qcsp(inst)) == solve_csp(inst).truth, atoms
        checked += 1
    conflicted = CspInstance(
        plang, ("z", "e"), (Atom("gamma$1", ("z",)), Atom("gamma$2", ("z",)), Atom("NOT", ("z", "e")))
    )
    assert power_csp_to_qcsp(conflicted) is CANONICAL_FALSE
    assert solve_csp(conflicted).truth is False
    checked += 1
    elapsed = time.time() - start
    assert checked >= 50
    assert elapsed < 60.0
    report(5, f"power translation truth-exact on {checked} instances", elapsed)


# ---------------------------------------------------------------------------
# 6. switch-closure facts


def test_criterion_6_switch_closure_facts():
    start = time.time()
    for n in (2, 3, 4):
        seeds = enumerate_switch_bounded(n, 2, DOM2)
        closed = generate_closure(seeds, [MINORITY], n)
        assert closed == frozenset(product(range(2), repeat=n)), n
    constant_closure = generate_closure(
        enumerate_switch_bounded(2, 0, DOM2), [MINORITY], 2
    )
    assert constant_closure == frozenset({(0, 0), (1, 1)})
    assert constant_closure < frozenset(product(range(2), repeat=2))
    report(6, "low-switch seeds generate the cube; constants stay closed", time.time() - start)


# ---------------------------------------------------------------------------
# 7. counting identity


def test_criterion_7_counting_identity():
    start = time.time()
    for size in (1, 2, 3):
        dom = DomainSpec(size)
        for n in range(1, 7):
            for k in range(0, n + 1):
                got = enumerate_switch_bounded(n, k, dom)
                brute = [t for t in product(range(size), repeat=n) if switch_count(t) <= k]
                assert list(got) == brute
                assert len(got) == switch_bounded_count(n, k, size)
    report(7, "closed-form switch counts match full enumeration", time.time() - start)


# ---------------------------------------------------------------------------
# 8. classification instances


def test_criterion_8_classification(xor0_lang):
    start = time.time()
    affine = classify(xor0_lang, 2, wnu_arity=3)
    assert affine.verdict == "P"
    f = affine.wnu
    assert f.domain.size == 16 and is_wnu(f)
    plang = build_power_language(xor0_lang)
    assert preserves(f, plang.relations["XOR0"])
    assert preserves(f, plang.relations["gamma$1"])
    assert preserves(f, plang.relations["gamma$2"])
    # digitwise minority on 4-digit codes
    for a, b, c in product(range(16), repeat=3):
        if a % 5 == 0:  # sampled rows keep this under a second
            assert f.apply((a, b, c)) == a ^ b ^ c

    one_in_three = ConstraintLanguage.of(2, ONE_IN_THREE)
    hard = classify(one_in_three, 2, wnu_arity=3, override=True)
    assert hard.verdict == "NP-complete-modulo-arity-bound"
    assert 3 in hard.searched_arities and hard.searched_tables >= 256
    assert "arity" in hard.caveat

    elapsed = time.time() - start
    assert elapsed < 120.0
    report(8, "affine power language tractable, positive one-in-three not (at bound)", elapsed)


# ---------------------------------------------------------------------------
# 9. closure laws and determinism under input order


def test_criterion_9_closure_laws_and_determinism():
    start = time.time()
    rnd = random.Random(103)
    universe = sorted(product(range(2), repeat=3))
    ops_pool = [MINORITY, projection_table(DOM2, 2, 0), projection_table(DOM2, 1, 0)]
    for _ in range(40):
        seeds = frozenset(rnd.sample(universe, rnd.randint(1, 5)))
        ops = rnd.sample(ops_pool, rnd.randint(0, len(ops_pool)))
        closed = generate_closure(seeds, ops, 3)
        assert seeds <= closed
        assert generate_closure(closed, ops, 3) == closed
        extra = seeds | {rnd.choice(universe)}
        assert closed <= generate_closure(extra, ops, 3)
        assert closed <= generate_closure(seeds, list(ops) + [MINORITY], 3)

    # permuting the relations of the language and the witness operations
    # changes no byte of the output
    mixed = lang_mixed2()
    flipped = reversed_relations(mixed)
    w = switchability_witness(mixed, 2, max_arity=3, max_power=4)
    v = switchability_witness(flipped, 2, max_arity=3, max_power=4)
    assert json.dumps(w.to_json()) == json.dumps(v.to_json())
    assert w.operations == v.operations
    v = SwitchabilityWitness(v.r, v.operations[::-1], v.powers, v.verdict)
    for _ in range(6):
        s = random_sentence(rnd, mixed, max_vars=6, max_atoms=2)
        a = reduce_pgp_to_csp(s, 2, witness=w)
        b = reduce_pgp_to_csp(QuantifiedSentence(s.prefix, s.matrix, flipped), 2, witness=v)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    report(9, "closure laws hold; output byte-identical under permuted input", time.time() - start)
