import dataclasses
from fractions import Fraction
from math import factorial

import pytest

from zetaident import derive
from zetaident.derive import (
    CancellationError,
    IdentitySpec,
    closed_form_part,
    derive_identity,
    identities_equal,
    periodic_remainder,
    series_poly,
    subtraction_poly,
)
from zetaident.exactmath import Polynomial
from zetaident.reference import reference_identity


def F(n, d=1):
    return Fraction(n, d)


def recursion_terms(p, k_max):
    """r_k for k = p..k_max by repeated integration by parts, one step at a
    time: the route series_poly collapses into a closed form."""
    h = periodic_remainder(p)
    out = []
    for k in range(p, k_max + 1):
        h = h.antiderivative()
        out.append((k, h(1) * F(factorial(k + 1), factorial(p - 1))))
    return out


# ---- subtraction polynomial and periodic remainder ----


def test_subtraction_poly_depth_one_is_x():
    assert subtraction_poly(1) == Polynomial((0, 1))


def test_subtraction_poly_depth_two():
    # (x^2 - x)/2
    assert subtraction_poly(2) == Polynomial((0, F(-1, 2), F(1, 2)))


def test_subtraction_poly_depth_five():
    # (6x^5 - 15x^4 + 10x^3 - x)/30
    expected = Polynomial((0, F(-1, 30), 0, F(1, 3), F(-1, 2), F(1, 5)))
    assert subtraction_poly(5) == expected


def test_subtraction_poly_depth_eleven():
    # x(6x^10 - 33x^9 + 55x^8 - 66x^6 + 66x^4 - 33x^2 + 5)/66
    inner = Polynomial((5, 0, -33, 0, 66, 0, -66, 0, 55, -33, 6)) / 66
    assert subtraction_poly(11) == inner * Polynomial((0, 1))


def test_subtraction_poly_interpolates_partial_sums():
    for p in range(2, 13):
        f = subtraction_poly(p)
        total = 0
        for x in range(1, 30):
            assert f(x) == total
            total += x ** (p - 1)


def test_periodic_remainder_depth_one():
    assert periodic_remainder(1) == Polynomial((0, -1))


def test_periodic_remainder_depth_three():
    # -t^3/3 + t^2/2 - t/6
    assert periodic_remainder(3) == Polynomial((0, F(-1, 6), F(1, 2), F(-1, 3)))


def test_periodic_remainder_endpoint_vanishing():
    for p in range(2, 13):
        g = periodic_remainder(p)
        assert g(0) == 0
        assert g(1) == 0


def test_depth_validation():
    for func in (subtraction_poly, periodic_remainder, closed_form_part):
        with pytest.raises(ValueError):
            func(0)


# ---- closed-form part ----


def test_closed_form_part_small_depths():
    assert closed_form_part(1) == (F(1), Polynomial((1,)))
    assert closed_form_part(2) == (F(1), Polynomial((F(1, 2),)))
    assert closed_form_part(3) == (F(1), Polynomial((F(1, 2), F(1, 12))))


def test_closed_form_part_depth_seven():
    pole, q = closed_form_part(7)
    assert pole == 1
    assert q * 30240 == Polynomial((15120, 2460, -76, -7, 10, 1))


def test_closed_form_part_depth_eleven():
    pole, q = closed_form_part(11)
    assert pole == 1
    expected = Polynomial(
        (119750400, 19542240, -403272, 213628, 270090, 85515, 18522, 2532, 180, 5)
    )
    assert q * 239500800 == expected


def test_pole_coefficient_is_one_through_depth_twenty():
    for p in range(1, 21):
        pole, _ = closed_form_part(p)
        assert pole == 1


def test_q_degree_pattern():
    # odd depths (and p=2) have deg Q = max(0, p-2); even p >= 4 reuse the
    # previous odd depth, one degree lower
    for p in range(2, 13):
        _, q = closed_form_part(p)
        if p == 2 or p % 2 == 1:
            assert q.degree == max(0, p - 2)
        else:
            assert q.degree == p - 3


# ---- derivation ----


def test_derive_depth_one(specs64):
    spec = specs64[1]
    assert spec.k0 == 1
    assert spec.pole_coefficient == 1
    assert spec.q_poly == Polynomial((1,))
    assert all(r == -1 for _, r in spec.terms)
    assert spec.closed_form == Polynomial((-1,))
    assert spec.validity_re_gt == 0
    assert spec.extended_validity_re_gt is None


def test_derive_depth_two(specs64):
    spec = specs64[2]
    assert spec.k0 == 2
    for k, r in spec.terms:
        assert r == F(k - 1, 2)


def test_derive_depth_three(specs64):
    spec = specs64[3]
    assert spec.k0 == 4  # r_3 = 0 is trimmed
    assert spec.series_coefficient(3) == 0
    assert spec.series_coefficient(4) == F(-1, 6)
    assert spec.extended_validity_re_gt == -3
    assert spec.effective_validity == -3


def test_derive_depth_five(specs64):
    spec = specs64[5]
    assert spec.k0 == 6
    assert spec.series_coefficient(6) == F(1, 6)


def test_leading_zero_block_for_odd_depths(specs64):
    for p in range(3, 12, 2):
        assert specs64[p].k0 == p + 1
    for p in (1, 2, 4, 6, 8, 10, 12):
        assert specs64[p].k0 == p


def test_extension_only_for_odd_depths(specs64):
    for p, spec in specs64.items():
        if p % 2 == 1 and p >= 3:
            assert spec.extended_validity_re_gt == -p
        else:
            assert spec.extended_validity_re_gt is None


def test_closed_form_reproduces_all_stored_terms(specs64):
    for spec in specs64.values():
        assert spec.closed_form is not None
        for k, r in spec.terms:
            assert spec.closed_form(Fraction(k)) == r


def test_series_coefficient_extrapolates(specs64):
    spec = specs64[2]
    assert spec.series_coefficient(200) == F(199, 2)
    assert spec.series_coefficient(0) == 0


@pytest.mark.parametrize("p", range(1, 13))
def test_series_coefficient_past_k_max_is_the_closed_form(specs64, p):
    # the integer Horner form equals the polynomial's own Fraction value
    spec = specs64[p]
    for k in range(spec.k0, 401):
        assert spec.series_coefficient(k) == spec.closed_form(F(k)), k
    assert dataclasses.replace(spec, closed_form=None).series_coefficient(65) is None


@pytest.mark.parametrize("p", range(1, 13))
def test_series_taylor_is_the_shifted_closed_form(specs64, p):
    spec = specs64[p]
    for k in (0, spec.k0 + 8, 200):
        b, den = spec.series_taylor(k)
        assert Polynomial(b) / den == spec.closed_form.shift(k), k
    assert dataclasses.replace(spec, closed_form=None).series_taylor(65) is None


def test_derive_argument_validation():
    with pytest.raises(ValueError):
        derive_identity(0)
    with pytest.raises(ValueError):
        derive_identity(5, 6)  # k_max below p + 2


def test_derive_minimal_k_max():
    spec = derive_identity(3, 5)
    assert spec.k0 == 4
    assert spec.k_max == 5
    assert spec.closed_form == series_poly(3)
    assert spec.series_coefficient(6) == dict(recursion_terms(3, 6))[6]


def test_vanishing_series_is_a_cancellation_error(monkeypatch):
    monkeypatch.setattr(derive, "series_poly", lambda p: Polynomial.zero())
    with pytest.raises(CancellationError):
        derive_identity(3)


# ---- series_poly against the integration-by-parts recursion ----


def test_series_poly_matches_recursion():
    for p in range(1, 21):
        poly = series_poly(p)
        assert poly.degree <= p - 1
        terms = recursion_terms(p, 64)
        # so the polynomial also vanishes on p <= k < k0
        assert derive_identity(p, p + 2).k0 == next(k for k, r in terms if r)
        for k, r in terms:
            assert poly(k) == r, (p, k)


def test_series_poly_pairs_odd_with_next_even():
    for p in range(1, 32):
        same = series_poly(p) == series_poly(p + 1)
        assert same == (p % 2 == 1 and p >= 3), p


# ---- identities_equal ----


def test_even_depth_pairs_with_preceding_odd(specs64):
    assert identities_equal(specs64[3], specs64[4], 64)
    assert identities_equal(specs64[11], specs64[12], 64)


def test_depths_one_and_two_differ(specs64):
    assert not identities_equal(specs64[1], specs64[2], 64)
    # first difference sits at k = 2: -1 vs 1/2
    assert specs64[1].series_coefficient(2) == -1
    assert specs64[2].series_coefficient(2) == F(1, 2)


def test_identities_equal_needs_enough_terms(specs64):
    short = derive_identity(3, 10)
    with pytest.raises(ValueError):
        identities_equal(short, specs64[4], 64)


# ---- matching the reference tables ----


def test_derivation_matches_reference_everywhere(specs64):
    for p, spec in specs64.items():
        ref = reference_identity(p, 64)
        assert identities_equal(spec, ref, 64)
        assert spec.k0 == ref.k0
        assert spec.validity_re_gt == ref.validity_re_gt
        assert spec.extended_validity_re_gt == ref.extended_validity_re_gt
        assert spec.closed_form == ref.closed_form
        assert spec == ref


def test_reference_depth_range():
    with pytest.raises(ValueError):
        reference_identity(0)
    with pytest.raises(ValueError):
        reference_identity(13)


# ---- IdentitySpec structural validation ----


def _records(spec):
    return dict(
        p=spec.p,
        k0=spec.k0,
        pole_coefficient=spec.pole_coefficient,
        q_poly=spec.q_poly,
        terms=spec.terms,
        closed_form=spec.closed_form,
        validity_re_gt=spec.validity_re_gt,
        extended_validity_re_gt=spec.extended_validity_re_gt,
    )


def test_spec_rejects_nonconsecutive_terms(specs64):
    fields = _records(specs64[2])
    fields["terms"] = ((2, F(1, 2)), (4, F(3, 2)))
    with pytest.raises(ValueError):
        IdentitySpec(**fields)


def test_spec_rejects_zero_leading_coefficient(specs64):
    fields = _records(specs64[2])
    fields["terms"] = ((2, F(0)),) + fields["terms"][1:]
    with pytest.raises(ValueError):
        IdentitySpec(**fields)


def test_spec_rejects_k0_mismatch(specs64):
    fields = _records(specs64[2])
    fields["k0"] = 3
    with pytest.raises(ValueError):
        IdentitySpec(**fields)


def test_cancellation_error_is_internal():
    assert issubclass(CancellationError, ArithmeticError)
