from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, strategies as st

from zetaident.exactmath import (
    BernoulliCache,
    Polynomial,
    bernoulli,
    bernoulli_over_factorial,
    bernoulli_ratios,
    divide_linear,
    faulhaber,
    times_linear,
)

from listpoly import add, horner, mul, shift


def bernoulli_oracle(n):
    """Independent route: Akiyama-Tanigawa, which also lands on B1 = +1/2."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


# ---- Polynomial ----


def test_trims_trailing_zeros_and_degree():
    assert Polynomial((1, 2, 0, 0)).degree == 1
    assert Polynomial().degree == -1
    assert Polynomial((0,)).is_zero
    assert Polynomial.from_integers((0, 0, 0, 2, 0), 2).coefficients == (0, 0, 0, 1)


def test_evaluation_is_exact():
    p = Polynomial((Fraction(1, 3), 0, 1))
    assert p(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 4)
    assert p(2) == Fraction(13, 3)


def test_str_formatting():
    p = Polynomial((Fraction(1, 2), Fraction(1, 12)))
    assert p.to_str("s") == "1/2 + 1/12*s"
    assert Polynomial((0, -1)).to_str("t") == "-t"
    assert Polynomial().to_str() == "0"


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
small_polys = st.lists(small_fractions, max_size=8).map(Polynomial)


@given(small_polys, small_fractions)
def test_evaluation_is_the_fraction_horner(poly, x):
    assert poly(x) == horner(poly.coefficients, x)
    assert poly(x.numerator) == poly(Fraction(x.numerator))


def test_integer_coefficients():
    p = Polynomial((Fraction(1, 2), Fraction(-1, 3), 2))
    assert p.integer_coefficients() == ((3, -2, 12), 6)
    assert Polynomial.from_integers(*p.integer_coefficients()) == p
    assert Polynomial().integer_coefficients() == ((), 1)


# ---- integer coefficient lists, against schoolbook list arithmetic ----


def test_divmod_exact_division():
    # (x^2 + 5x - 6) = (x + 6)(x - 1)
    assert divide_linear([-6, 5, 1], -1) == ([6, 1], 0)


def test_divmod_with_remainder():
    # x^2 + 1 = (x - 1)(x + 1) + 2
    assert divide_linear([1, 0, 1], 1) == ([-1, 1], 2)


small_ints = st.lists(st.integers(-50, 50), max_size=8)


@given(small_ints, st.integers(-9, 9))
def test_linear_factor_helpers(a, c):
    product = times_linear(a, c)
    assert add(product, []) == mul(a, [c, 1])
    assert divide_linear(product, c) == (list(a) + [0] * (len(product) - 1 - len(a)), 0)


@given(small_ints.filter(bool), st.integers(-9, 9))
def test_divmod_reconstructs(a, c):
    q, r = divide_linear(a, c)
    assert len(q) == len(a) - 1
    assert add(mul(q, [c, 1]), [r]) == add(a, [])


# ---- Bernoulli ----


def test_bernoulli_anchors():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for m in range(3, 31, 2):
        assert bernoulli(m) == 0


def test_bernoulli_against_independent_oracle():
    for m in [*range(0, 61), 100, 150, 200]:
        assert bernoulli(m) == bernoulli_oracle(m), m


def test_bernoulli_cache_grows_safely_across_threads():
    cache = BernoulliCache()
    indices = [120, 7, 64, 2, 99, 31, 80, 0] * 4
    with ThreadPoolExecutor(max_workers=4) as pool:
        values = list(pool.map(cache.get, indices))
        ratios = list(pool.map(cache.ratio, [i // 2 for i in indices]))
    assert values == [bernoulli(m) for m in indices]
    assert ratios == [bernoulli_over_factorial(i // 2) for i in indices]


def test_bernoulli_over_factorial():
    for j in range(0, 80):
        q = bernoulli(2 * j) / factorial(2 * j)
        assert bernoulli_over_factorial(j) == (q.numerator, q.denominator), j
    cache = BernoulliCache()
    assert cache.ratio(6) == bernoulli_over_factorial(6)
    with pytest.raises(ValueError):
        bernoulli_over_factorial(-1)


def test_bernoulli_ratios_share_one_denominator():
    # n_j / D = B_2j/(2j)! for every j <= count, D the least common
    # denominator of those ratios
    den, numerators = bernoulli_ratios(120)
    assert len(numerators) == 121
    assert den == lcm(*(bernoulli_over_factorial(j)[1] for j in range(121)))
    for j, n in enumerate(numerators):
        assert Fraction(n, den) == Fraction(*bernoulli_over_factorial(j)), j
    assert bernoulli_ratios(0) == (1, (1,))
    with pytest.raises(ValueError):
        bernoulli_ratios(-1)


def test_bernoulli_ratios_grow_safely_across_threads():
    # threads grow one fresh table to different counts at once; every
    # snapshot holds the exact ratios, and a count has one snapshot
    cache = BernoulliCache()
    counts = [120, 7, 64, 2, 99, 31, 80, 0] * 4
    with ThreadPoolExecutor(max_workers=4) as pool:
        snapshots = list(pool.map(cache.common, counts))
    for count, (den, numerators) in zip(counts, snapshots):
        assert len(numerators) == count + 1
        assert [Fraction(n, den) for n in numerators] == [
            Fraction(*bernoulli_over_factorial(j)) for j in range(count + 1)
        ]
        assert cache.common(count) is cache.common(count)
        assert (den, numerators) == bernoulli_ratios(count)


def test_bernoulli_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_cache_instance_grows():
    cache = BernoulliCache()
    assert cache.get(20) == bernoulli(20)
    assert cache.get(3) == 0


# ---- Faulhaber ----


def test_faulhaber_printed_forms():
    assert faulhaber(1) == Polynomial((0, Fraction(1, 2), Fraction(1, 2)))
    assert faulhaber(4) == Polynomial(
        (0, Fraction(-1, 30), 0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 5))
    )
    p10 = faulhaber(10)
    assert p10.degree == 11
    assert p10.coefficients[11] == Fraction(1, 11)
    assert p10(1) == 1


def test_faulhaber_brute_force():
    for m in range(0, 13):
        poly = faulhaber(m)
        total = 0
        for n in range(1, 201):
            total += n**m
            assert poly(n) == total


def test_faulhaber_structure():
    for m in range(0, 13):
        poly = faulhaber(m)
        assert poly.coefficients[0] == 0
        assert poly.degree == m + 1
        assert poly(0) == 0
        assert poly(1) == 1


def test_faulhaber_difference_identity():
    # P_m(y) - P_m(y-1) = y^m as polynomials
    for m in range(0, 13):
        poly = faulhaber(m).coefficients
        assert add(poly, [-c for c in shift(poly, -1)]) == [0] * m + [1]


def test_faulhaber_negative():
    with pytest.raises(ValueError):
        faulhaber(-1)
