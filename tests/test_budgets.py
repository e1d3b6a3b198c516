from itertools import product

import pytest

from qcsp import BudgetError, Budgets
from helpers import stirling2

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
