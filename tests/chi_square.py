"""Pearson's chi-square test, with the standard library only.

The test modules import it by name: ``tests/`` has no ``__init__.py``, so
pytest puts this directory on ``sys.path``.
"""

import math
from collections import Counter

_EPS = 1e-15  # below the last digit of a double's mantissa
_TINY = 1e-300  # stands for 0 in a Lentz denominator
_MAX_TERMS = 100_000  # 65,535 degrees of freedom need at most about 1,400


def chi2_sf(statistic, dof):
    """The chance that a chi-square variable of ``dof`` degrees of freedom is
    at least ``statistic``: the regularized upper incomplete gamma Q(a, x)
    with a = dof / 2 and x = statistic / 2.

    Below x = a + 1 the series of the lower function P = 1 - Q converges
    fast; above it, the continued fraction of Q by the modified Lentz method
    (Press et al., Numerical Recipes, 3rd ed., section 6.2). The common factor
    x^a e^-x / Gamma(a) is taken through its logarithm, so neither a large
    ``dof`` nor a far tail overflows. Raises ArithmeticError when the terms do
    not settle, as for an infinite statistic.
    """
    a, x = dof / 2, statistic / 2
    if x == 0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        for n in range(1, _MAX_TERMS):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * _EPS:
                return 1 - total * front
    else:
        b = x + 1 - a
        c, d = 1 / _TINY, 1 / b
        fraction = d
        for n in range(1, _MAX_TERMS):
            an = -n * (n - a)
            b += 2
            d = an * d + b
            d = 1 / (d if abs(d) >= _TINY else _TINY)
            c = b + an / c
            c = c if abs(c) >= _TINY else _TINY
            fraction *= d * c
            if abs(d * c - 1) < _EPS:
                return fraction * front
    raise ArithmeticError(f"chi2_sf({statistic!r}, {dof!r}) did not converge")


def chi_square_p_value(cells):
    """The p-value of Pearson's statistic summed over ``cells``, each a list
    of drawn outcomes and the law they are drawn from, a dict outcome ->
    chance.

    An outcome the law rules out must not occur. One of expected count under
    5 is pooled into its cell's likeliest outcome.
    """
    statistic, dof = 0.0, 0
    for outcomes, law in cells:
        observed = Counter(outcomes)
        assert set(observed) <= set(law)
        expected = {v: len(outcomes) * p for v, p in law.items()}
        assert all(observed[v] == 0 for v, e in expected.items() if e == 0)
        likeliest = max(expected, key=expected.get)
        for outcome, e in list(expected.items()):
            if outcome != likeliest and e < 5:
                observed[likeliest] += observed.pop(outcome, 0)
                expected[likeliest] += expected.pop(outcome)
        statistic += sum((observed[v] - e) ** 2 / e for v, e in expected.items())
        dof += len(expected) - 1
    return chi2_sf(statistic, dof)
