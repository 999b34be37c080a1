import dataclasses
import hashlib
from fractions import Fraction
from math import factorial

import pytest

from zetaident import derive
from zetaident.derive import (
    CancellationError,
    IdentitySpec,
    closed_form_part,
    derive_identity,
    first_difference,
    identities_equal,
    identities_to_json_text,
    identity_from_json,
    identity_to_json,
    periodic_remainder,
    series_poly,
    subtraction_poly,
)
from zetaident.exactmath import Polynomial, bernoulli, faulhaber
from zetaident.reference import reference_identity

from listpoly import (
    add,
    antiderivative,
    closed_form_part_oracle,
    horner,
    mul,
    series_poly_oracle,
    shift,
)


def F(n, d=1):
    return Fraction(n, d)


def recursion_terms(p, k_max):
    """r_k for k = p..k_max by repeated integration by parts, one step at a
    time: the route series_poly collapses into a closed form."""
    h = periodic_remainder(p).coefficients
    out = []
    for k in range(p, k_max + 1):
        h = antiderivative(h)
        out.append((k, sum(h) * F(factorial(k + 1), factorial(p - 1))))
    return out


def falling_factorial_coefficients(poly):
    """beta_0..beta_d, d the degree, with
    poly(k) = sum_i beta_i (k+1) k ... (k+2-i), i factors in term i: in
    u = k + 1 the basis is the falling factorial u(u-1)...(u-i+1), so beta_i
    is the i-th forward difference of poly at k = -1 over i! (Newton's
    forward-difference formula), on Fractions. The oracle the Bernoulli
    coefficients of IdentitySpec.euler_maclaurin_coefficients are checked
    against."""
    values = [poly(k) for k in range(-1, poly.degree)]
    out = []
    for i in range(poly.degree + 1):
        out.append(values[0] / factorial(i))
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(out)


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
    expected = Polynomial.from_integers((0, 5, 0, -33, 0, 66, 0, -66, 0, 55, -33, 6), 66)
    assert subtraction_poly(11) == expected


def test_subtraction_poly_interpolates_partial_sums():
    for p in range(2, 13):
        f = subtraction_poly(p)
        total = 0
        for x in range(1, 30):
            assert f(x) == total
            total += x ** (p - 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 11, 12, 63, 64, 127, 128])
def test_subtraction_poly_is_the_shifted_power_sum(p):
    # f_p = P_(p-1)(x - 1) by a Taylor shift on lists, the route the engine
    # no longer takes: it negates g_p, since P_m(x - 1) = P_m(x) - x^m
    shifted = shift(faulhaber(p - 1).coefficients, -1) if p > 1 else [0, 1]
    assert subtraction_poly(p) == Polynomial(shifted)
    assert subtraction_poly(p).coefficients == tuple(-c for c in periodic_remainder(p).coefficients)


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
    assert q == Polynomial.from_integers((15120, 2460, -76, -7, 10, 1), 30240)


def test_closed_form_part_depth_eleven():
    pole, q = closed_form_part(11)
    assert pole == 1
    expected = Polynomial.from_integers(
        (119750400, 19542240, -403272, 213628, 270090, 85515, 18522, 2532, 180, 5), 239500800
    )
    assert q == expected


@pytest.mark.parametrize("k_max", [64, 128])
@pytest.mark.parametrize("p", range(1, 33))
def test_derivation_is_the_fraction_oracle(p, k_max):
    # the integer routes of closed_form_part, series_poly and the stored
    # terms give exactly what schoolbook Fraction arithmetic on lists gives
    spec = derive_identity(p, k_max)
    pole, q = closed_form_part_oracle(p)
    assert closed_form_part(p)[0] == pole
    assert spec.q_poly == Polynomial(q)
    closed = series_poly_oracle(p)
    assert spec.closed_form == Polynomial(closed)
    assert spec.terms == tuple((k, horner(closed, F(k))) for k in range(spec.k0, k_max + 1))


def test_engine_output_is_pinned():
    # SHA-256 of this JSON text as written by the engine at commit 18e8055,
    # which summed the closed-form part term by term over synthetic
    # divisions, f_p by a Taylor shift, and r_k falling factorial by
    # falling factorial; the same expression there printed this digest
    depths = [*range(1, 65), 95, 96, 127, 128, 255, 512]
    text = identities_to_json_text([derive_identity(p, p + 2) for p in depths])
    digest = "668c9883eadb734316a4fe4198eeaf5f4a4a515524dff783022a08a975c87697"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pole_other_than_one_is_a_cancellation_error(monkeypatch):
    # twice f_p = -g_p doubles the pole; the old division by (s)_(p-1) had
    # a zero remainder whatever f_p was, so only the pole check can catch this
    g, den = derive._remainder_integers(5)
    monkeypatch.setattr(derive, "_remainder_integers", lambda p: ([2 * x for x in g], den))
    with pytest.raises(CancellationError, match="pole coefficient 2 != 1"):
        closed_form_part(5)


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
    assert closed_form_part(1)[0] == 1
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


@pytest.mark.parametrize("p", range(1, 14))
def test_each_derivation_runs_the_engine_once(p, monkeypatch):
    # the extension is read off k0, not off a second derivation at p + 1;
    # and g_p's integers are built once, for both
    calls = {"closed_form_part": [], "series_poly": [], "_remainder_integers": []}
    for name, log in calls.items():
        wrapped = getattr(derive, name)
        logged = lambda q, *rest, f=wrapped, log=log: log.append(q) or f(q, *rest)
        monkeypatch.setattr(derive, name, logged)
    derive_identity(p, p + 2)
    assert calls == {"closed_form_part": [p], "series_poly": [p], "_remainder_integers": [p]}


@pytest.mark.parametrize("p", [13, 14, 31, 32, 63, 64, 127, 128])
def test_extension_past_the_reference_tables_is_one_minus_k0(p):
    spec = derive_identity(p, p + 2)
    if p % 2:
        assert spec.k0 == p + 1
        assert spec.extended_validity_re_gt == -p == 1 - spec.k0
    else:
        assert spec.extended_validity_re_gt is None


def test_closed_form_reproduces_all_stored_terms(specs64):
    for spec in specs64.values():
        assert spec.closed_form is not None
        assert [k for k, _ in spec.terms] == list(range(spec.k0, spec.k_max + 1))
        assert spec.k_max == 64
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
    for k in range(-3, spec.k0):
        # integer Horner at an int k below k0 is the polynomial's Fraction value
        assert spec.closed_form(k) == spec.closed_form(F(k)), k


@pytest.mark.parametrize("p", range(1, 33))
def test_falling_coefficients_are_the_closed_form(p):
    # r_k = sum_i beta_i (k+1) k ... (k+2-i) as a polynomial identity, so it
    # holds at every k, those below k0 included
    closed = series_poly(p)
    beta = falling_factorial_coefficients(closed)
    assert len(beta) == closed.degree + 1
    total, falling = [], [F(1)]
    for i, b in enumerate(beta):
        total = add(total, [x * b for x in falling])
        falling = mul(falling, [1 - i, 1])  # times (k + 1 - i)
    assert Polynomial(total) == closed


@pytest.mark.parametrize("p", [*range(1, 65), 96, 128, 256])
def test_every_derived_depth_is_euler_maclaurin_at_one(p):
    # the gate passes, and the three exact conditions hold for the falling
    # coefficients of the closed form, taken by forward differences; those
    # are the gate's Bernoulli coefficients beta_i = B_i/L, 0 from k0 on
    spec = derive_identity(p, p + 2)
    B, L = spec.euler_maclaurin_coefficients
    k0, beta = spec.k0, falling_factorial_coefficients(spec.closed_form)
    assert len(B) == k0 >= len(beta)
    assert [F(x, L) for x in B] == [*beta, *[0] * (k0 - len(beta))]
    # beta_0 = -pole; g_0 = 1 and g_j = 0 for j >= 1, with
    # g_j = beta_(j+1) - [j < k0] h_j and h_j = r(j)/(j+1)!; and
    # Q = -sum_{j<k0} h_j (s)_j, on Fraction polynomials
    assert beta[0] == -closed_form_part(p)[0]
    h = [spec.closed_form(j) / factorial(j + 1) for j in range(k0)]
    for j in range(k0):
        assert (beta[j + 1] if j + 1 < len(beta) else 0) - h[j] == (1 if j == 0 else 0), j
    total, rising = [], [F(1)]
    for j, x in enumerate(h):
        total = add(total, [-c * x for c in rising])
        rising = mul(rising, [j, 1])  # times (s + j)
    assert Polynomial(total) == spec.q_poly


def test_bernoulli_coefficients_meet_the_conditions_at_every_k0():
    # beta_i = -B_i/i! (B_1 = -1/2) for i < k0, beta_k0 = 0, and the closed
    # form r(k) = sum_{i<k0} beta_i (k+1) k ... (k+2-i) meet the conditions
    # at every k0, derived or not: beta_0 = -1 = -pole; with
    # h_j = r(j)/(j+1)! = sum_{i<=j+1, i<k0} beta_i/(j+1-i)!, g_j =
    # beta_(j+1) - h_j is 1 at j = 0 and 0 for 1 <= j < k0 (the Bernoulli
    # recurrence), and every later beta is 0; and Q = -sum_{j<k0} h_j (s)_j
    # is the Bernoulli Q, -sum_{j<k0} (beta_(j+1) - [j = 0]) (s)_j, by the
    # same equalities, the (s)_j being a basis
    top = 131
    b = [(-1) ** (i + 1) * bernoulli(i) / factorial(i) for i in range(top)]
    inverse = [F(1, factorial(n)) for n in range(top + 1)]
    # h_j with every beta_i, i <= j + 1: k0 = j + 1 drops beta_(j+1) from it
    full = [sum(b[i] * inverse[j + 1 - i] for i in range(j + 2)) for j in range(top - 1)]
    for k0 in range(1, top):
        beta = b[:k0]
        assert beta[0] == -1
        h = [*full[: k0 - 1], full[k0 - 1] - b[k0]]
        g = [(beta[j + 1] if j + 1 < k0 else 0) - h[j] for j in range(k0)]
        assert g == [1] + [0] * (k0 - 1), k0


def test_derive_argument_validation():
    with pytest.raises(ValueError):
        derive_identity(0)
    with pytest.raises(ValueError):
        derive_identity(5, 6)  # k_max below p + 2


def test_derive_minimal_k_max():
    spec = derive_identity(3, 5)
    assert spec.k0 == 4
    assert spec.k_max == 5
    assert spec.terms == ((4, F(-1, 6)), (5, F(-1, 2)))
    assert spec.closed_form == series_poly(3)
    assert spec.series_coefficient(6) == dict(recursion_terms(3, 6))[6]


def test_vanishing_series_is_a_cancellation_error(monkeypatch):
    monkeypatch.setattr(derive, "series_poly", lambda p, remainder: Polynomial())
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


def test_first_difference_of_a_shared_closed_form_is_at_the_lesser_k0(specs64):
    # depth 3's closed form vanishes at k = 2, 3; read as a depth-5 series
    # it starts at k0 = 5, so the two differ first at r_4 = -1/6
    a = specs64[3]
    b = dataclasses.replace(a, p=5)
    assert (a.k0, b.k0, a.closed_form == b.closed_form) == (4, 5, True)
    assert first_difference(a, b, 64) == "k=4: coefficient -1/6 != reference 0"
    assert first_difference(b, a, 64) == "k=4: coefficient 0 != reference -1/6"
    assert first_difference(a, b, 3) is None  # past the k compared
    assert first_difference(a, a, 64) is None


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
    return {field.name: getattr(spec, field.name) for field in dataclasses.fields(spec)}


def test_spec_stores_no_terms(specs64):
    # r_k lives only in the closed form, so no spec can carry a second,
    # disagreeing copy of it: a spec with r_10 doubled is not accepted
    spec = specs64[5]
    assert "terms" not in {field.name for field in dataclasses.fields(IdentitySpec)}
    doubled = tuple((k, 2 * r if k == 10 else r) for k, r in spec.terms)
    with pytest.raises(TypeError):
        dataclasses.replace(spec, terms=doubled)


def test_spec_rejects_nonconsecutive_terms(specs64):
    # the JSON reader owns the check: a spec lists no terms of its own
    record = identity_to_json(specs64[2])
    record["terms"] = [{"k": 2, "r": "1/2"}, {"k": 4, "r": "3/2"}]
    with pytest.raises(ValueError, match="consecutive k from k0 = 2"):
        identity_from_json(record)


def test_spec_rejects_zero_leading_coefficient(specs64):
    # a record that lists r_2 = 0 disagrees with its closed form ...
    record = identity_to_json(specs64[2])
    record["terms"][0]["r"] = "0/1"
    with pytest.raises(ValueError, match=r"depth-2 record has a closed_form that gives r_2 = 1/2"):
        identity_from_json(record)
    # ... and a spec's k0 is where its closed form starts: (k - 2)/2 gives
    # r_2 = 0, so depth 2 with it starts at k0 = 3, validity extended to -2
    fields = _records(specs64[2])
    fields["closed_form"] = Polynomial((-1, F(1, 2)))
    spec = IdentitySpec(**fields)
    assert (spec.k0, spec.series_coefficient(2), spec.series_coefficient(3)) == (3, 0, F(1, 2))
    assert (spec.validity_re_gt, spec.extended_validity_re_gt, spec.effective_validity) == (-1, -2, -2)
    # a closed form that is zero has no k0, and is refused
    fields["closed_form"] = Polynomial()
    with pytest.raises(ValueError, match="depth-2 identity has a zero closed form"):
        IdentitySpec(**fields)


def test_spec_rejects_k_max_below_k0(specs64):
    fields = _records(specs64[3])
    fields["k_max"] = 3
    with pytest.raises(ValueError, match="k_max must be at least k0"):
        IdentitySpec(**fields)


def test_spec_rejects_k0_mismatch(specs64):
    # k0 is no field of a spec; a record that states another k0 than its
    # closed form's is refused when it is read
    with pytest.raises(TypeError):
        dataclasses.replace(specs64[2], k0=3)
    record = identity_to_json(specs64[2])
    record["k0"] = 3
    record["terms"] = record["terms"][1:]
    with pytest.raises(ValueError, match="depth-2 record states k0 = 3, not the derived 2"):
        identity_from_json(record)


def test_cancellation_error_is_internal():
    assert issubclass(CancellationError, ArithmeticError)
