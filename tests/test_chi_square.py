import math

import pytest

from chi_square import chi2_sf, chi_square_p_value


def finite_sum_sf(x, dof):
    """The chi-square tail at ``x`` by its finite sum (Abramowitz and Stegun,
    26.4.4 and 26.4.5): a sum of positive terms, exact to a few ulps each."""
    if dof % 2 == 0:
        term, total = math.exp(-x / 2), 0.0
        for r in range(dof // 2):
            total += term
            term *= x / 2 / (r + 1)
        return total
    term, total = math.sqrt(2 * x / math.pi) * math.exp(-x / 2), math.erfc(math.sqrt(x / 2))
    for r in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return total


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 7, 16, 63, 256])
def test_chi2_sf_matches_the_finite_sum_on_both_sides_of_the_switch(dof):
    # The series runs below statistic = dof + 2, the continued fraction above;
    # the last statistic reaches a p-value under 1e-9.
    for statistic in (1e-6, dof / 4, dof, dof + 1.99, dof + 2.01, 3 * dof + 45):
        exact = finite_sum_sf(statistic, dof)
        assert chi2_sf(statistic, dof) == pytest.approx(exact, rel=1e-9, abs=0)
    assert chi2_sf(0, dof) == 1.0


def test_chi_square_p_value_pools_rare_outcomes_and_rejects_impossible_ones():
    # 20 draws, of which "c" expects 1: it is pooled into the likeliest, "a",
    # which then expects 11 and holds 12 draws, against 8 "b" for 9 expected.
    law = {"a": 0.5, "b": 0.45, "c": 0.05}
    outcomes = list("a" * 11 + "b" * 8 + "c")
    statistic = 1 / 11 + 1 / 9
    assert chi_square_p_value([(outcomes, law)]) == pytest.approx(chi2_sf(statistic, 1))
    with pytest.raises(AssertionError):
        chi_square_p_value([(outcomes + ["d"], law)])
    with pytest.raises(AssertionError):
        chi_square_p_value([(outcomes, {"a": 0.5, "b": 0.5, "c": 0.0})])
