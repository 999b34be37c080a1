import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from zetaident import derive_identity, evalzeta
from zetaident.evalzeta import (
    CapacityError,
    EvalReport,
    PoleError,
    _InnerSums,
    eval_identities,
    eval_identity,
    pochhammer,
    supports,
    sum_zeta_m1,
    trivial_zero_report,
    zeta_em_reference,
    zeta_m1,
    zeta_prime_at_zero,
)


def F(n, d=1):
    return Fraction(n, d)


def _mp_point(s):
    """s as an mpf/mpc at the current precision, from a Fraction or an
    (re, im) pair of Fractions."""
    if isinstance(s, tuple):
        return mp.mpc(*(mp.mpf(x.numerator) / x.denominator for x in s))
    return mp.mpf(s.numerator) / s.denominator


# ---- pochhammer ----


def test_pochhammer_integers():
    assert pochhammer(3, 2) == 12
    assert pochhammer(5, 0) == 1
    assert pochhammer(0, 3) == 0


def test_pochhammer_exact_fraction():
    assert pochhammer(F(1, 2), 3) == F(15, 8)


def test_pochhammer_float_context():
    with mp.workdps(30):
        assert pochhammer(mp.mpf("0.5"), 3) == mp.mpf(15) / 8


def test_pochhammer_negative_order():
    with pytest.raises(ValueError):
        pochhammer(2, -1)


# ---- zeta_m1 ----


def test_zeta_m1_at_two():
    with mp.workdps(60):
        assert abs(zeta_m1(2, 40) - (mp.pi**2 / 6 - 1)) < mp.mpf(10) ** -44


def test_zeta_m1_at_four():
    with mp.workdps(60):
        assert abs(zeta_m1(4, 40) - (mp.pi**4 / 90 - 1)) < mp.mpf(10) ** -44


def test_zeta_m1_keeps_relative_accuracy_when_tiny():
    with mp.workdps(60):
        value = zeta_m1(60, 40)
        assert abs(value * mp.mpf(2) ** 60 - 1) < mp.mpf(10) ** -9


def test_zeta_m1_complex_argument():
    with mp.workdps(60):
        value = zeta_m1(mp.mpc(2, 20), 40)
        assert abs(value) < 1


def test_zeta_m1_domain():
    with pytest.raises(ValueError):
        zeta_m1(1.2, 40)
    zeta_m1(1.5, 40)  # boundary is allowed


def test_digits_floor():
    for call in (
        lambda: zeta_m1(2, 14),
        lambda: zeta_em_reference(2, 14),
        lambda: sum_zeta_m1(14),
    ):
        with pytest.raises(ValueError):
            call()


# ---- zeta_em_reference ----


def test_em_reference_matches_constants():
    with mp.workdps(60):
        assert abs(zeta_em_reference(2, 40) - mp.pi**2 / 6) < mp.mpf(10) ** -44
        assert abs(zeta_em_reference(0, 40) + F(1, 2)) < mp.mpf(10) ** -44
        assert abs(zeta_em_reference(-1, 40) + F(1, 12)) < mp.mpf(10) ** -40


def test_em_reference_trivial_zero():
    with mp.workdps(60):
        assert abs(zeta_em_reference(-8, 40)) < mp.mpf(10) ** -40


def test_em_reference_pole():
    with pytest.raises(PoleError):
        zeta_em_reference(1, 40)


def test_em_reference_deterministic():
    a = zeta_em_reference(F(-21, 2), 40)
    b = zeta_em_reference(F(-21, 2), 40)
    assert a == b


# ---- eval_identity: values ----


def test_zeta_zero_is_exact_minus_half(specs64):
    with mp.workdps(60):
        for p in range(2, 13):
            report = eval_identity(specs64[p], 0, 40)
            assert abs(report.value + F(1, 2)) < mp.mpf(10) ** -39


def test_zeta_of_two_through_depth_five(specs64):
    with mp.workdps(60):
        report = eval_identity(specs64[5], 2, 40)
        assert abs(report.value - mp.pi**2 / 6) < mp.mpf(10) ** -40


def test_zeta_at_minus_one(specs64):
    with mp.workdps(60):
        report = eval_identity(specs64[3], -1, 40)
        assert abs(report.value + F(1, 12)) < mp.mpf(10) ** -40


def test_depths_agree_with_each_other(specs64):
    # p=1 is excluded: its inner series at s=1/4 starts at zeta(5/4).
    with mp.workdps(60):
        values = [
            eval_identity(specs64[p], F(1, 4), 40).value for p in range(2, 13)
        ]
        for v in values[1:]:
            assert abs(v - values[0]) < mp.mpf(10) ** -38


def test_identity_agrees_with_em_reference_spot(specs64):
    with mp.workdps(60):
        s = (F(1, 2), F(29, 2))
        direct = zeta_em_reference(s, 40)
        via_identity = eval_identity(specs64[3], s, 40).value
        assert abs(direct - via_identity) < mp.mpf(10) ** -36


def test_input_forms_agree(specs64):
    a = eval_identity(specs64[3], complex(0.5, 14.5), 40).value
    b = eval_identity(specs64[3], (F(1, 2), F(29, 2)), 40).value
    c = eval_identity(specs64[3], "0.5+14.5i", 40).value
    assert a == b == c


def test_decimal_strings_are_read_exactly(specs64):
    # 0.1 is not a binary fraction: reading it at 53 bits would move s by
    # about 1e-18, far above the 40-digit estimate
    report = eval_identity(specs64[3], "0.1", 40)
    assert report.value == eval_identity(specs64[3], F(1, 10), 40).value
    with mp.workdps(60):
        err = abs(report.value - mp.zeta(mp.mpf(1) / 10))
    assert err <= report.error_estimate <= 1e-40
    assert eval_identity(specs64[3], ("0.5", "14.5"), 40).value == eval_identity(
        specs64[3], (F(1, 2), F(29, 2)), 40
    ).value


def test_pole_laurent_behavior(specs64):
    s = 1 + F(1, 10**6)
    with mp.workdps(60):
        report = eval_identity(specs64[2], s, 40)
        assert abs(report.value * F(1, 10**6) - 1) < mp.mpf(10) ** -5


def test_deterministic_bits(specs64):
    a = eval_identity(specs64[7], (F(-9, 4), F(3, 2)), 40)
    b = eval_identity(specs64[7], (F(-9, 4), F(3, 2)), 40)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.terms_used == b.terms_used


# ---- eval_identity: report contents ----


def test_report_fields(specs64):
    report = eval_identity(specs64[2], 3, 40)
    assert report.p_used == 2
    assert report.terms_used >= specs64[2].k0 + 8
    assert report.error_estimate >= 0
    assert report.inner_sum_cutoffs == {
        "direct_terms": 50,
        "correction_order": 15,
        "last_em_k": 25,
    }


def test_series_short_circuits_at_negative_even_integers(specs64):
    # all rising factorials vanish there, so only k0+8 terms are touched
    report = eval_identity(specs64[5], -2, 40)
    assert report.terms_used == specs64[5].k0 + 8
    assert abs(report.value) < 1e-40


def test_error_estimate_covers_observed_error(specs64):
    points = [
        (1, F(5, 2)),
        (2, F(1, 4)),
        (3, (F(-3, 4), F(0))),
        (7, (F(-9, 2), F(2))),
        (12, F(-21, 2)),
    ]
    with mp.workdps(80):
        for p, s in points:
            coarse = eval_identity(specs64[p], s, 40)
            fine = eval_identity(specs64[p], s, 60)
            assert abs(coarse.value - fine.value) <= coarse.error_estimate


# ---- eval_identity: contract against mpmath.zeta ----
# mp.zeta is an algorithm independent of both the identities and the
# Euler-Maclaurin oracle.


@pytest.mark.parametrize(
    "p, s, digits",
    [
        (1, (F(1, 2), F(14134725, 10**6)), 40),
        (1, (F(1, 2), F(21022040, 10**6)), 40),
        (1, (F(1, 2), F(25010858, 10**6)), 40),
        (1, (F(5, 2), F(20)), 40),
        (1, F(33, 4), 40),
        (1, F(7, 2), 100),
        (8, F(-13, 2), 100),
        # large |Im s|: the outer terms grow like |Im s|^k / k! before they
        # decay, and the fixed-point scale carries the bits they cancel
        (1, (F(1, 2), F(40)), 40),
        (1, (F(1, 2), F(100)), 20),
        (4, (F(-8, 5), F(31)), 40),
        # large Re s: 2^(1 - Re s - k) is far below one ulp, and the outer
        # terms grow for a few hundred k before they fall
        (1, F(300), 40),
        (1, F(200), 15),
        (1, (F(120), F(50)), 20),
    ],
)
def test_contract_against_mpmath_zeta(specs64, p, s, digits):
    report = eval_identity(specs64[p], s, digits)
    with mp.workdps(digits + 20):
        err = abs(report.value - mp.zeta(_mp_point(s)))
    assert err <= report.error_estimate, mp.nstr(err, 3)
    assert report.error_estimate <= 10.0**-digits, report.error_estimate


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(1, 12),
    re_steps=st.integers(1, 10**6),
    im_steps=st.integers(-(10**6), 10**6),
    digits=st.integers(15, 60),
)
def test_error_estimate_covers_mpmath_zeta_in_every_strip(
    specs64, p, re_steps, im_steps, digits
):
    # Re s runs over (left, left + 2], where left is the edge of what the
    # depth-p identity accepts; |Im s| <= 10. Every depth that accepts s
    # is evaluated in one batch.
    spec = specs64[p]
    left = max(spec.effective_validity, F(3, 2) - spec.k0)
    s = (left + F(re_steps, 5 * 10**5), F(im_steps, 10**5))
    assume(s != (1, 0))
    batch = [other for other in specs64.values() if supports(other, s)]
    assert spec in batch
    reports = eval_identities(batch, s, digits)
    with mp.workdps(digits + 20):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate, (report.p_used, mp.nstr(err, 3))


# ---- eval_identities: several depths in one pass ----


@pytest.mark.parametrize("s", [F(2), F(-4), F(-11, 4), (F(1, 2), F(14134725, 10**6))])
def test_batch_of_every_supporting_depth_meets_the_contract(specs64, s):
    # at s = -4, (s)_k vanishes for k >= 5 while r_k does not
    batch = [spec for spec in specs64.values() if supports(spec, s)]
    reports = eval_identities(batch, s, 40)
    assert [r.p_used for r in reports] == [spec.p for spec in batch]
    with mp.workdps(60):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate <= 1e-40, (report.p_used, mp.nstr(err, 3))


def test_guard_bits_cover_every_depth_at_sixty_digits(specs64):
    # |r_k| grows like k^(p-1): the fixed-point scale must count it
    s = F(22, 5)
    batch = [spec for spec in specs64.values() if supports(spec, s)]
    reports = eval_identities(batch, s, 60)
    with mp.workdps(80):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate <= 1e-60, (report.p_used, mp.nstr(err, 3))


@pytest.mark.parametrize("s", [F(-145, 14), (F(1, 2), F(40)), (F(-8, 5), F(31)), (F(3, 4), F(2))])
def test_error_estimate_holds_at_a_coarse_scale(specs64, monkeypatch, s):
    # with 2 guard bits instead of 24 the rounding tally dominates the
    # estimate; the estimate must still bound the error
    monkeypatch.setattr(evalzeta, "_GUARD_BITS", 2)
    batch = [spec for spec in specs64.values() if supports(spec, s)]
    reports = eval_identities(batch, s, 40)
    with mp.workdps(70):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate, (report.p_used, mp.nstr(err, 3))


def test_three_hundred_digits(specs64):
    # every bound is an integer tally: nothing overflows a float
    report = eval_identity(specs64[5], 2, 300)
    with mp.workdps(320):
        err = abs(report.value - mp.pi**2 / 6)
    assert err <= report.error_estimate <= 1e-300, mp.nstr(err, 3)


def test_batch_mixes_first_indices(specs64):
    # k0 = 12 listed before k0 = 1: the pass starts at k = 1 and the
    # depth-12 series joins it at k = 12
    s = (F(3, 4), F(2))
    deep, shallow = specs64[12], specs64[1]
    assert (deep.k0, shallow.k0) == (12, 1)
    reports = eval_identities([deep, shallow], s, 40)
    assert [r.p_used for r in reports] == [12, 1]
    assert reports[0].inner_sum_cutoffs == reports[1].inner_sum_cutoffs
    with mp.workdps(60):
        target = mp.zeta(_mp_point(s))
        for spec, report in zip([deep, shallow], reports):
            alone = eval_identity(spec, s, 40)
            assert report.terms_used == alone.terms_used
            assert abs(report.value - target) <= report.error_estimate <= 1e-40
            assert abs(report.value - alone.value) <= (
                report.error_estimate + alone.error_estimate
            )


@pytest.mark.parametrize("p, s", [(5, F(2)), (1, (F(1, 2), F(14134725, 10**6))), (12, F(-21, 2))])
def test_batch_of_one_is_eval_identity(specs64, p, s):
    batch = eval_identities([specs64[p]], s, 40)
    assert len(batch) == 1
    alone = eval_identity(specs64[p], s, 40)
    for field in dataclasses.fields(EvalReport):
        assert getattr(batch[0], field.name) == getattr(alone, field.name), field.name


# ---- inner-sum kernel ----


def _ulps_to_mp(pair, bits):
    return mp.mpc(*pair) / mp.mpf(2) ** bits


@pytest.mark.parametrize("stride", [1, 7])  # 7: table entries step several shifts at once
@pytest.mark.parametrize("z, k0", [((F(2), F(0)), 0), ((F(1, 2), F(14134725, 10**6)), 1)])
def test_inner_sums_within_their_bounds(z, k0, stride):
    digits, bits = 40, 200
    budget = (1 << bits) // 10**50  # 1e-50 in ulps
    routes = set()
    inner = _InnerSums(z, digits, bits)
    results = []
    for k in range(k0, 201, stride):
        value, err, rounding = inner(k, budget)
        routes.add("em" if inner.last_em_k == k else "direct")
        assert err <= budget
        results.append((k, value, err + rounding))
    with mp.workdps(80):
        z = _mp_point(z)
        for k, value, bound in results:
            err = abs(_ulps_to_mp(value, bits) - (mp.zeta(z + k) - 1))
            assert err <= mp.mpf(bound) / mp.mpf(2) ** bits, k
    assert routes == {"direct", "em"}


def test_inner_sum_reports_an_unmet_budget():
    # 50 direct terms cannot take zeta(1.5 + 14i) - 1 to 1e-200: the
    # Euler-Maclaurin terms stop shrinking near 1e-129
    bits = 700
    budget = (1 << bits) // 10**200
    z = (F(3, 2), F(14))
    value, err, rounding = _InnerSums(z, 40, bits)(0, budget)
    assert err > budget
    with mp.workdps(80):
        bound = mp.mpf(err + rounding) / mp.mpf(2) ** bits
        assert abs(_ulps_to_mp(value, bits) - (mp.zeta(_mp_point(z)) - 1)) <= bound


@pytest.mark.parametrize("z", [(F(2), F(0)), (F(3, 2), F(7))])
def test_inner_sum_rounding_is_tallied(z):
    # at a scale of 2^-64 the floors of the Euler-Maclaurin route cost more
    # than its truncation: only the rounding bound covers them
    bits = 64
    value, err, rounding = _InnerSums(z, 40, bits)(0, 4)
    with mp.workdps(60):
        actual = abs(mp.mpc(*value) - (mp.zeta(_mp_point(z)) - 1) * mp.mpf(2) ** bits)
    assert err < actual <= err + rounding


# ---- eval_identity: errors ----


def test_outside_validity(specs64):
    with pytest.raises(ValueError, match="validity"):
        eval_identity(specs64[3], -5, 40)


def test_inner_argument_constraint(specs64):
    with pytest.raises(ValueError, match="deeper"):
        eval_identity(specs64[1], F(1, 4), 40)
    with pytest.raises(ValueError, match="deeper"):
        eval_identity(specs64[2], F(-3, 4), 40)


def test_pole_guard(specs64):
    with pytest.raises(PoleError):
        eval_identity(specs64[2], 1 + F(1, 10**25), 40)
    eval_identity(specs64[2], F(5, 4), 40)  # outside the guard radius


def test_capacity_error_names_required_index(specs64):
    stripped = dataclasses.replace(specs64[2], closed_form=None)
    with pytest.raises(CapacityError, match=r"k=65"):
        eval_identity(stripped, F(1, 4), 40)


def test_no_closed_form_leaves_the_tail_unproven():
    # r_k past k_max is unknown, so no stopping point inside the stored
    # terms bounds the tail
    stripped = dataclasses.replace(derive_identity(1, 200), closed_form=None)
    with pytest.raises(CapacityError, match=r"k=201"):
        eval_identity(stripped, 2, 15)


def test_digits_floor_eval(specs64):
    with pytest.raises(ValueError):
        eval_identity(specs64[2], 3, 14)


@pytest.mark.parametrize(
    "good, bad, s, error, match",
    [
        (12, 3, -5, ValueError, "validity"),
        (5, 1, F(1, 4), ValueError, "deeper"),
        (5, 2, 1 + F(1, 10**25), PoleError, "pole guard"),
        (5, "stripped 2", F(1, 4), CapacityError, r"k=65"),
    ],
)
def test_batch_raises_what_its_bad_spec_raises(specs64, good, bad, s, error, match):
    if bad == "stripped 2":
        bad_spec = dataclasses.replace(specs64[2], closed_form=None)
    else:
        bad_spec = specs64[bad]
    with pytest.raises(error, match=match) as alone:
        eval_identity(bad_spec, s, 40)
    for batch in ([specs64[good], bad_spec], [bad_spec, specs64[good]]):
        with pytest.raises(error) as batched:
            eval_identities(batch, s, 40)
        assert str(batched.value) == str(alone.value)


def test_empty_batch_is_an_error():
    with pytest.raises(ValueError):
        eval_identities([], 2, 40)


# ---- supports ----


def test_supports_half_plane(specs64):
    assert supports(specs64[3], F(-5, 2))
    assert not supports(specs64[3], -3)
    assert not supports(specs64[3], F(-7, 2))
    assert supports(specs64[12], F(-21, 2))
    assert not supports(specs64[2], F(-3, 4))  # inner constraint
    assert supports(specs64[3], complex(-0.75, 2.0))


# ---- derivative, sums, trivial zeros ----


def test_zeta_prime_at_zero_two_depths(specs64):
    with mp.workdps(60):
        target = -mp.log(2 * mp.pi) / 2
        v2 = zeta_prime_at_zero(specs64[2], 40)
        v3 = zeta_prime_at_zero(specs64[3], 40)
        assert abs(v2 - target) < mp.mpf(10) ** -38
        assert abs(v3 - target) < mp.mpf(10) ** -38
        assert abs(v2 - v3) < mp.mpf(10) ** -38


def test_zeta_prime_needs_validity_at_zero(specs64):
    with pytest.raises(ValueError):
        zeta_prime_at_zero(specs64[1], 40)


def test_sum_zeta_m1_totals_one():
    with mp.workdps(60):
        assert abs(sum_zeta_m1(40) - 1) < mp.mpf(10) ** -40


def test_trivial_zero_report_domains(specs64):
    assert trivial_zero_report(specs64[2], 40) == []
    report = trivial_zero_report(specs64[5], 40)
    assert [s for s, _ in report] == [-2, -4]
    assert all(magnitude < 1e-39 for _, magnitude in report)
    deep = trivial_zero_report(specs64[12], 40)
    assert [s for s, _ in deep] == [-2, -4, -6, -8, -10]
