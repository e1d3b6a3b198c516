import random
from itertools import product

import pytest

from qcsp import (
    Atom,
    BudgetError,
    Budgets,
    ConstraintLanguage,
    QuantifiedSentence,
    Relation,
    eliminate_universals,
    normalize_alternating,
    omega,
    reduce_universal_count,
    zeta,
)
from qcsp import solvers, transforms
from qcsp.model import const_name
from qcsp.solvers import reduce_to_pi2
from helpers import (
    CYCLE3,
    FALSE0,
    LT3,
    NOT,
    TRUE0,
    XOR0,
    messy_sentence,
    random_alternating,
    random_sentence,
    stirling2,
)

# (base, exp, value) for every a**b over 0..4 and every a**(b**c) over 0..3
POWERS = [(a, b, a**b) for a, b in product(range(5), repeat=2)] + [
    (a, (b, c), a ** (b**c)) for a, b, c in product(range(4), repeat=3)
]


@pytest.mark.parametrize("limit", [0, 1, 7, 64, 1 << 20])
def test_check_power_agrees_with_the_built_figure(limit):
    for base, exp, value in POWERS:
        for scale in (0, 1, 3):
            figure = scale * value
            if figure <= limit:
                assert Budgets().check_power("w", limit, base, exp, scale=scale) == figure
                continue
            with pytest.raises(BudgetError) as err:
                Budgets().check_power("w", limit, base, exp, scale=scale)
            assert (err.value.what, err.value.required, err.value.limit) == ("w", figure, limit)


def test_check_power_of_zero_or_one_over_a_huge_exponent():
    assert Budgets().check_power("w", 1, 1, (10, (10, 10))) == 1
    assert Budgets().check_power("w", 1, 0, (10, (10, 10))) == 0


@pytest.mark.parametrize(
    "base, exp, scale, message",
    [
        (2, 2048, 1, f"w: requires {2**2048}, budget allows 64"),
        (2, 2049, 1, "w: requires 2**2049, budget allows 64"),
        (10, (10, 10), 1, "w: requires 10**10000000000, budget allows 64"),
        (7, (7, (7, 7)), 1, "w: requires 7**7**823543, budget allows 64"),
        (10**6, 10**6, 4, "w: requires 4*1000000**1000000, budget allows 64"),
    ],
    ids=["2**2048", "2**2049", "10**10**10", "7**7**7**7", "4*(10**6)**(10**6)"],
)
def test_check_power_names_an_unprintable_figure_by_its_power(base, exp, scale, message):
    with pytest.raises(BudgetError) as err:
        Budgets().check_power("w", 64, base, exp, scale=scale)
    assert str(err.value) == message


@pytest.mark.parametrize("limit", [0, 1, 7, 64, 1 << 20])
def test_check_partitions_agrees_with_the_built_figure(limit):
    for n in range(10):
        for m in range(n + 1):
            figure = stirling2(n, m)
            if figure <= limit:
                assert Budgets().check_partitions("w", limit, n, m) == figure
                continue
            with pytest.raises(BudgetError) as err:
                Budgets().check_partitions("w", limit, n, m)
            assert (err.value.what, err.value.required, err.value.limit) == ("w", figure, limit)


@pytest.mark.parametrize(
    "n, m, required",
    [(2050, 2, 2**2049 - 1), (2051, 2, "S(2051, 2)"), (10**9, 3, "S(1000000000, 3)")],
    ids=["S(2050, 2)", "S(2051, 2)", "S(10**9, 3)"],
)
def test_check_partitions_names_an_unprintable_figure_by_its_expression(n, m, required):
    # S(n, m) >= m**(n - m): it is built exactly when that power would be
    with pytest.raises(BudgetError) as err:
        Budgets().check_partitions("w", 64, n, m)
    assert err.value.required == required


# ---------------------------------------------------------------------------
# every copy-making step checks the object it is about to build

_FIELDS = {
    "copies": "max_matrix_copies",
    "atoms": "max_matrix_atoms",
    "prefix": "max_prefix_vars",
    "(bytes)": "max_bytes",
}


def _assert_checks_what_it_builds(build, what, want, **figures):
    """``build(budgets)`` raises the check ``"<what> <name>"`` requiring the
    figure under a budget one below each figure, and builds ``want`` under
    budgets of exactly those figures."""
    figures["(bytes)"] = 64 * figures["atoms"]
    for name, figure in figures.items():
        with pytest.raises(BudgetError) as err:
            build(Budgets(**{_FIELDS[name]: figure - 1}))
        assert (err.value.what, err.value.required) == (f"{what} {name}", figure)
    assert build(Budgets(**{_FIELDS[name]: figure for name, figure in figures.items()})) == want


def _occurring_universals(s):
    occurring = s.matrix_variables()
    return sum(1 for v in s.universals() if v in occurring)


def _languages():
    for size in (2, 3):
        consts = [Relation(const_name(a), 1, frozenset({(a,)})) for a in range(size)]
        rels = (XOR0, NOT) if size == 2 else (LT3, CYCLE3)
        yield ConstraintLanguage.of(size, *rels, *consts, TRUE0, FALSE0)


def _sentences(rnd, lang, count):
    """Random and messy sentences: vacuous variables, padding, repeated
    variables, nullary and const_a atoms."""
    for draw in range(count):
        if draw % 2:
            yield messy_sentence(rnd, lang, max_vars=5 if lang.domain.size == 2 else 4)
        else:
            yield random_sentence(rnd, lang, max_vars=5 if lang.domain.size == 2 else 4, max_atoms=3)


@pytest.mark.parametrize("seed", [181, 191])
def test_elimination_and_full_expansion_check_what_they_build(seed):
    # eliminate_universals, each bundle member's table (_collapse_core) at
    # r = 0..3, and zeta: the figures are |A|^k for the k universals that
    # occur in what is built, and the atoms and variables built
    rnd = random.Random(seed)
    seen = {"members": 0, "vacuous": 0, "pins": 0}
    for lang in _languages():
        size = lang.domain.size
        for s in _sentences(rnd, lang, 40):
            inst = eliminate_universals(s)
            k = _occurring_universals(s)
            _assert_checks_what_it_builds(
                lambda b: eliminate_universals(s, b), "universal elimination", inst,
                copies=size**k, atoms=len(inst.atoms), prefix=len(inst.variables),
            )
            alt = normalize_alternating(s)
            out = zeta(alt)
            _assert_checks_what_it_builds(
                lambda b: zeta(alt, b), "full expansion", out,
                copies=size**k, atoms=len(out.matrix), prefix=len(out.prefix),
            )
            for r in range(4):
                for idx in solvers._index_sets(s, r):
                    w = omega(alt, idx)
                    member = eliminate_universals(w)
                    _assert_checks_what_it_builds(
                        lambda b: transforms._collapse_core(s, idx, b), "universal elimination",
                        transforms._collapse_core(s, idx),
                        copies=size ** _occurring_universals(w),
                        atoms=len(member.atoms), prefix=len(member.variables),
                    )
                    seen["members"] += 1
            seen["vacuous"] += k < len(s.universals())
            seen["pins"] += k > 0
    assert seen["members"] > 300 and seen["vacuous"] > 30 and seen["pins"] > 25, seen


@pytest.mark.parametrize("seed", [193, 197])
def test_count_reduction_checks_what_it_builds(seed):
    # a random sentence with its universals moved in front: S(k, min(k, |A|))
    # copies for its k occurring universals, and the atoms and prefix built;
    # with no occurring universal nothing is copied, and nothing is checked
    rnd = random.Random(seed)
    reduced = unchecked = 0
    nothing = Budgets(max_matrix_copies=0, max_matrix_atoms=0, max_prefix_vars=0, max_bytes=0)
    for lang in _languages():
        for s in _sentences(rnd, lang, 60):
            prefix = sorted(s.prefix, key=lambda entry: entry[0] == "exists")
            pi2 = QuantifiedSentence(tuple(prefix), s.matrix, lang)
            out = reduce_universal_count(pi2)
            k = _occurring_universals(pi2)
            if k == 0:
                assert reduce_universal_count(pi2, nothing) == out
                unchecked += 1
                continue
            _assert_checks_what_it_builds(
                lambda b: reduce_universal_count(pi2, b), "universal-count reduction", out,
                copies=stirling2(k, min(k, lang.domain.size)), atoms=len(out.matrix), prefix=len(out.prefix),
            )
            reduced += 1
    assert reduced > 40 and unchecked > 20


@pytest.mark.parametrize("seed", [199, 211])
def test_ladder_checks_the_sentence_it_conjoins(seed, monkeypatch):
    # reduce_to_pi2 with several members checks the atoms and prefix of the
    # ladder it conjoins, as built (the count reduction's input when it
    # runs), over random alternating sentences at r = 1, 2
    rnd = random.Random(seed)
    conjoined = []
    real = solvers.reduce_universal_count
    monkeypatch.setattr(solvers, "reduce_universal_count", lambda s, b: conjoined.append(s) or real(s, b))

    def reduce(s, r, budgets=Budgets()):
        # the output, or the name of the count reduction's check that refused it
        conjoined.clear()
        try:
            return reduce_to_pi2(s, r, override=True, budgets=budgets)
        except BudgetError as err:
            if not (conjoined and err.what.startswith("universal-count reduction")):
                raise
            return err.what

    ladders = counted = 0
    for lang in _languages():
        cases = []
        while len(cases) < 30:
            s = random_alternating(rnd, lang, 3, max_atoms=4)
            cases.extend((s, r) for r in (1, 2) if len(solvers._index_sets(s, r)) > 1)
        for s, r in cases:
            out = reduce(s, r)
            ladder = conjoined[0] if conjoined else out
            counted += bool(conjoined)
            figures = {"atoms": len(ladder.matrix), "prefix": len(ladder.prefix)}
            figures["(bytes)"] = 64 * figures["atoms"]
            for name, figure in figures.items():
                with pytest.raises(BudgetError) as err:
                    reduce(s, r, Budgets(**{_FIELDS[name]: figure - 1}))
                assert (err.value.what, err.value.required) == (f"universal ladder {name}", figure)
            exact = reduce(s, r, Budgets(**{_FIELDS[name]: figure for name, figure in figures.items()}))
            # the count reduction may build more than the ladder
            assert exact == out or conjoined and exact.startswith("universal-count reduction")
            ladders += 1
    assert ladders > 50 and counted > 20


def _recorded_checks(monkeypatch):
    """The name of every copies check and expansion check run, in order."""
    log = []
    for name in ("check_power", "check_partitions", "check_expansion"):
        real = getattr(Budgets, name)
        monkeypatch.setattr(Budgets, name, lambda self, what, *a, real=real, **k: log.append(what) or real(self, what, *a, **k))
    return log


def test_copies_are_checked_before_any_figure_is_formed(monkeypatch):
    # 5000 occurring universals over two elements: each copy-making step
    # runs its copies check first, which refuses 2**5000 copies (or
    # S(5000, 2)) without building the figure, and no other figure is
    # checked, so none was formed
    lang = ConstraintLanguage.of(2, XOR0, NOT)
    n = 5000
    prefix = tuple(("forall", f"x{i}") for i in range(n)) + (("exists", "y"),)
    matrix = tuple(Atom("XOR0", (f"x{i}", f"x{i + 1}", "y")) for i in range(0, n, 2))
    s = QuantifiedSentence(prefix, matrix, lang)
    log = _recorded_checks(monkeypatch)
    for build, what, required in [
        (lambda: eliminate_universals(s), "universal elimination copies", f"2**{n}"),
        (lambda: zeta(normalize_alternating(s)), "full expansion copies", f"2**{n}"),
        (lambda: transforms._collapse_core(s, tuple(range(1, n + 1))), "universal elimination copies", f"2**{n}"),
        (lambda: reduce_universal_count(s), "universal-count reduction copies", f"S({n}, 2)"),
    ]:
        log.clear()
        with pytest.raises(BudgetError) as err:
            build()
        assert (err.value.what, err.value.required) == (what, required)
        assert log == [what]
