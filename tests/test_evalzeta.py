import dataclasses
import hashlib
import os
import re as _re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial, gcd, isqrt, perm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import MPContext, ctx_mp_python, mp
from mpmath.libmp import from_man_exp, libelefun

from zetaident import derive_identity, evalzeta, exactmath
from zetaident.cli import ORACLE_GRID
from zetaident.derive import closed_form_part, identity_from_json, identity_to_json
from zetaident.evalzeta import (
    EvalReport,
    PoleError,
    PrecisionError,
    _InnerSums,
    _exact_point,
    _format_bound,
    _last_weight,
    _modulus_up,
    eval_identities,
    eval_identity,
    supports,
    sum_zeta_m1,
    zeta_em_reference,
    zeta_prime_at_zero,
)

from listpoly import horner


def F(n, d=1):
    return Fraction(n, d)


def _mp_point(s):
    """s as an mpf/mpc at the current precision, from a Fraction or an
    (re, im) pair of Fractions."""
    if isinstance(s, tuple):
        return mp.mpc(*(mp.mpf(x.numerator) / x.denominator for x in s))
    return mp.mpf(s.numerator) / s.denominator


def _inner_for(z, digits, bits, start):
    """_InnerSums for the exact z at the N an evaluation takes at digits."""
    point = _exact_point(z)
    return _InnerSums(point, evalzeta._split_point(digits, *point[1:]), bits, start)


def _record_scales(monkeypatch):
    """The scale bits P of every call from here on, in order."""
    scales = []
    scale_bits = evalzeta._scale_bits

    def recording(digits, peak):
        scales.append(scale_bits(digits, peak))
        return scales[-1]

    monkeypatch.setattr(evalzeta, "_scale_bits", recording)
    return scales


def _reports_or_raised(call):
    """The reports of call(), or those of the PrecisionError it raises,
    with whether it raised."""
    try:
        return call(), False
    except PrecisionError as raised:
        return raised.reports, True


def _without_closed_form(spec):
    """spec read back from its JSON record with a null closed_form."""
    return identity_from_json({**identity_to_json(spec), "closed_form": None})


def test_digits_floor():
    for call in (
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


def test_em_reference_threads_get_the_serial_bits():
    # the oracle uses no mpmath context: no call sets mpmath's shared
    # precision, so calls at other digits cannot change its bits
    points = [F(-21, 2), (F(1, 2), F(5)), F(5, 2)]
    tasks = [(s, digits) for s in points for digits in (20, 100)]
    run = lambda task: _raw(zeta_em_reference(*task))
    dps = mp.dps
    serial = [run(task) for task in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(run, tasks * 10, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 10
    assert mp.dps == dps


@pytest.mark.parametrize("digits", [15, 40, 60, 100])
def test_em_reference_meets_its_digits_on_the_oracle_grid(digits):
    # the correction order follows |s| as well as digits: with an order
    # fixed by digits alone the reference missed 10^-55 at s = -10.5 and
    # 60 digits by four orders of magnitude. 0.5 + 30i and -3.5 + 40i lie
    # past the grid's |Im s| <= 20
    for point in ORACLE_GRID + (0.5 + 30j, -3.5 + 40j):
        s = (Fraction(point.real), Fraction(point.imag))
        value = zeta_em_reference(s, digits)
        with mp.workdps(digits + 20):
            err = abs(value - mp.zeta(_mp_point(s)))
            assert err <= mp.mpf(10) ** -(digits + 1), (point, mp.nstr(err, 3))


@pytest.mark.parametrize(
    "t, digits, order", [(200, 20, 3), (1000, 40, 2), (100, 20, 81), (-100, 20, 81)]
)
def test_em_reference_raises_where_its_terms_stop_falling(t, digits, order):
    # N = 10 + digits direct terms leave the asymptotic series no order that
    # meets 10^-(digits + 10) at 0.5 + ti: it stopped there and returned a
    # value 0.771 off at t = 200, 20 digits, and 1.03 off at t = 1000, 40
    # digits, and now raises, naming s and the order whose term stopped
    # falling
    s = (F(1, 2), F(t))
    point = f"1/2{t:+d}i"
    with pytest.raises(ValueError, match=rf"s = {_re.escape(point)}: .* order j = {order},"):
        zeta_em_reference(s, digits)


def test_em_reference_works_in_integers(monkeypatch):
    # every power comes from the fixed-point kernels: no mpmath context
    # computes one, and mpmath's shared precision is neither set nor read
    tasks = [(F(-21, 2), 40), ((F(1, 2), F(5)), 20), (F(5, 2), 100)]
    run = lambda: [_raw(zeta_em_reference(*task)) for task in tasks]
    expected = run()
    with mp.workdps(300):
        assert run() == expected

    def refuse(*args):
        raise AssertionError("the oracle used an mpmath context")

    context = ctx_mp_python.PythonMPContext
    monkeypatch.setattr(MPContext, "power", refuse)
    monkeypatch.setattr(context, "prec", property(lambda ctx: ctx._prec, refuse))
    monkeypatch.setattr(context, "dps", property(lambda ctx: ctx._dps, refuse))
    assert run() == expected


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
    # at s = -n with n < k0 every (-n)_k of the series is 0, so the identity
    # gives zeta(-n) = -B_(n+1)/(n+1) exactly (B_1 = +1/2: n = 0 gives
    # -1/2, n = 1 gives -1/12): every depth p <= 32 at every such n where it
    # accepts s = -n, each value within its own error estimate
    specs = [*specs64.values(), *(derive_identity(p, p + 2) for p in range(13, 33))]
    cases = 0
    with mp.workdps(60):
        for n in range(max(spec.k0 for spec in specs)):
            batch = [spec for spec in specs if n < spec.k0 and supports(spec, -n)]
            if not batch:
                continue
            exact = _mp_point(-exactmath.bernoulli(n + 1) / (n + 1))
            for report in eval_identities(batch, -n, 40):
                assert abs(report.value - exact) <= report.error_estimate, (report.p_used, n)
                assert report.error_estimate <= mp.mpf(10) ** -40
            cases += len(batch)
    assert cases == 511


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
    assert report.terms_used >= specs64[2].k0
    assert report.error_estimate >= 0
    # m + 1 = 64 at 40 digits: every inner sum is Euler-Maclaurin at n = 64,
    # with the band's order J and through the pass's last k
    assert (report.split_point, report.correction_order, report.last_em_k) == (64, 13, 24)
    assert report.terms_used == 24
    with mp.workdps(60):
        assert abs(report.value - mp.zeta(3)) <= report.error_estimate <= 1e-40


def test_series_short_circuits_at_negative_even_integers(specs64):
    # all rising factorials vanish there, so the series stops at k0
    report = eval_identity(specs64[5], -2, 40)
    assert report.terms_used == specs64[5].k0
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
        # N^-s is far below one ulp while the terms grow by hundreds of
        # bits past the first: the error of each V_m is capped by its size
        (1, F(10**4), 20),
        (1, F(3 * 10**4), 20),
    ],
)
def test_contract_against_mpmath_zeta(specs64, p, s, digits):
    report = eval_identity(specs64[p], s, digits)
    with mp.workdps(digits + 20):
        err = abs(report.value - mp.zeta(_mp_point(s)))
    assert err <= report.error_estimate, mp.nstr(err, 3)
    assert report.error_estimate <= 10.0**-digits, report.error_estimate


@pytest.mark.parametrize(
    "t, digits, n",
    [(100, 20, 64), (200, 20, 64), (400, 40, 128), (1000, 40, 512), (3000, 40, 1024)],
)
def test_large_imaginary_part_meets_the_contract(specs64, t, digits, n):
    # depth 1 at 0.5 + ti: N is the least power of two >= 10 + digits with
    # |Im s| <= 333/106 N, so each Euler-Maclaurin order gains at least 2
    # bits and one band of orders meets the target. At t = 100 and 20
    # digits that is the digits' own N_1 = 32, and 100 is past half its
    # reach, so N = 2 N_1
    s = (F(1, 2), F(t))
    start = time.process_time()
    [report] = eval_identities([specs64[1]], s, digits)
    assert time.process_time() - start < 1
    assert report.split_point == n
    assert report.error_estimate <= 10.0**-digits
    with mp.workdps(digits + 40):
        err = abs(report.value - mp.zeta(_mp_point(s)))
    assert err <= report.error_estimate, (mp.nstr(err, 3), report.error_estimate)


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


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(1, 12),
    re_steps=st.integers(1, 10**6),
    im_steps=st.integers(-(3 * 10**7), 3 * 10**7),
    digits=st.integers(15, 60),
)
@example(p=7, re_steps=1, im_steps=9767658, digits=22)
def test_every_strip_meets_or_raises_up_to_three_hundred(specs64, p, re_steps, im_steps, digits):
    # as test_error_estimate_covers_mpmath_zeta_in_every_strip, with
    # |Im s| <= 300: N grows with |Im s| (_split_point), and doubles past
    # half the reach of the digits' own N_1, so every batch meets its
    # target in one pass, raising nothing, and every bound holds. The
    # example missed at N_1 = 32. |zeta(s)| is below 10^30 here, so the
    # reference carries digits + 60.
    spec = specs64[p]
    left = max(spec.effective_validity, F(3, 2) - spec.k0)
    s = (left + F(re_steps, 5 * 10**5), F(im_steps, 10**5))
    assume(s != (1, 0))
    batch = [other for other in specs64.values() if supports(other, s)]
    reports = eval_identities(batch, s, digits)
    assert all(r.error_estimate <= 10.0**-digits for r in reports)
    with mp.workdps(digits + 60):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate, (report.p_used, mp.nstr(err, 3))


def _check_one_pass_at_twice_n1(specs, s, digits):
    """Every depth that accepts s, one batch: one pass (one _InnerSums
    built), at 2 N_1, meeting 10^-digits and mp.zeta; the reports."""
    n1 = _least_power_of_two(10 + digits)
    batch = [spec for spec in specs.values() if supports(spec, s)]
    built = []
    inner_sums = evalzeta._InnerSums

    def counting(point, n, bits, start):
        built.append(n)
        return inner_sums(point, n, bits, start)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(evalzeta, "_InnerSums", counting)
        reports = eval_identities(batch, s, digits)
    assert built == [2 * n1]
    assert [r.split_point for r in reports] == [2 * n1] * len(batch)
    with mp.workdps(digits + 60):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate <= mp.mpf(10) ** -digits, (
                report.p_used,
                mp.nstr(err, 3),
            )
    return reports


@pytest.mark.parametrize(
    "s, digits, bound",
    [
        ((F(-3249999, 500000), F(4883829, 50000)), 22, "1.855e-27"),
        ((F(-19, 2), F(100)), 20, "5.846e-25"),
        ((F(-11, 2), F(201)), 54, "2.271e-59"),
    ],
)
def test_past_half_the_reach_one_pass_runs_at_twice_n1(specs64, s, digits, bound):
    # |Im s| > 333/212 N_1, N_1 the digits' own N: the least
    # Euler-Maclaurin remainder at N_1 falls short of the peak term of
    # depths 7..12 here, so N is 2 N_1 from the start, and the one pass
    # there meets with the largest bound a pass at 2 N_1 gives
    n1 = _least_power_of_two(10 + digits)
    assert 333 * n1 < 212 * s[1] <= 666 * n1
    reports = _check_one_pass_at_twice_n1(specs64, s, digits)
    assert _format_bound(max(r.error_estimate for r in reports)) == bound


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(1, 12),
    re_steps=st.integers(1, 10**5),
    im_steps=st.integers(1, 10**6),
    negative=st.booleans(),
    digits=st.integers(15, 60),
)
def test_every_left_edge_past_half_the_reach_meets_in_one_pass(
    specs64, p, re_steps, im_steps, negative, digits
):
    # Re s in (left, left + 1/2] at the edge of what the depth-p identity
    # accepts, and |Im s| in (333/212 N_1, 333/106 N_1], where N_1 alone
    # could miss at the top digits of its band: every depth that accepts s
    # meets in one pass at 2 N_1
    spec = specs64[p]
    left = max(spec.effective_validity, F(3, 2) - spec.k0)
    half = F(333 * _least_power_of_two(10 + digits), 212)
    im = half * (1 + F(im_steps, 10**6))
    s = (left + F(re_steps, 2 * 10**5), -im if negative else im)
    _check_one_pass_at_twice_n1(specs64, s, digits)


@pytest.mark.parametrize("s", [F(10**4), F(3 * 10**4)])
def test_large_real_part_runs_one_pass(specs64, s):
    # N^-s is far below one ulp, and so is every V_m = (s)_m N^-(s+m) the
    # series reaches: the error of V_m is capped by its size, not grown by
    # |s + m| / N at each step, so the one pass meets the target
    report = eval_identity(specs64[1], s, 20)
    assert report.error_estimate <= 1e-20


@pytest.mark.parametrize("s, terms", [(F(10**4), 90), (F(10**5), 618), (F(10**6), 4538)])
def test_large_real_part_stops_at_the_majorant(specs64, s, terms):
    # every term past k0 is far below the threshold. The majorant of the
    # tail past k carries y 2^ceil(3y/2), y = |s + k|/(N - 1), from the
    # terms that grow before they fall, and 1/(k+1)! outgrows it at about
    # k = 90 for s = 10^4 (N = 32), where the ratio test of each term's
    # successor needed |s + k|/(k + 2) < N, k > 300. At 10^6 the majorant
    # and (k+1)! run to tens of thousands of bits
    start = time.process_time()
    report = eval_identity(specs64[1], s, 20)
    assert time.process_time() - start < 2
    assert report.terms_used <= terms
    with mp.workdps(40):
        err = abs(report.value - mp.zeta(s))
    assert err <= report.error_estimate <= 10.0**-20


def test_deep_zeta_prime_at_zero_stops_at_k0():
    # r_k/(k(k+1)) zeta(k, N) falls like N^-k from k0 = 128: the majorant
    # of the tail past k0 is under the threshold at once
    # (test_zeta_prime_at_zero_meets_the_contract checks its value)
    spec = derive_identity(128, 130)
    report = zeta_prime_at_zero(spec, 40)
    assert report.terms_used == spec.k0


def test_scale_carries_no_first_coefficient_bits(monkeypatch):
    # at depth 128 the first outer coefficient is about 2^371 for zeta'(0)
    # and 2^363 at s = -126.25, yet every term it multiplies is tiny: P
    # takes the head weights' bits and no more (547 and 506 bits when it
    # carried the coefficient), and the one pass meets the contract
    spec = derive_identity(128, 130)
    scales = _record_scales(monkeypatch)
    zeta0 = zeta_prime_at_zero(spec, 40)
    far = eval_identity(spec, F(-505, 4), 30)
    assert scales[0] <= 200 and scales[1] <= 160
    assert _format_bound(far.error_estimate) == "2.893e-35"
    with mp.workdps(60):
        assert abs(zeta0.value + mp.log(2 * mp.pi) / 2) <= zeta0.error_estimate <= 1e-40
    with mp.workdps(330):
        assert abs(far.value - mp.zeta(mp.mpf(-505) / 4)) <= far.error_estimate <= 1e-30


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
    # with a scale 2 bits finer than 10^-45, and no bits for the head
    # weights or guard, the rounding tally dominates the estimate, which
    # must still bound the error, whether the call returns its reports or
    # raises PrecisionError with them
    monkeypatch.setattr(
        evalzeta, "_scale_bits", lambda digits, peak: evalzeta._threshold_bits(digits) + 2
    )
    batch = [spec for spec in specs64.values() if supports(spec, s)]
    reports, _ = _reports_or_raised(lambda: eval_identities(batch, s, 40))
    assert len(reports) == len(batch)
    # more than the truncation threshold
    assert min(r.error_estimate for r in reports) > 1e-45
    with mp.workdps(70):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate, (report.p_used, mp.nstr(err, 3))


@pytest.mark.parametrize("p, s", [(1, (F(1, 2), F(40))), (12, (F(-8, 5), F(31))), (5, F(-13, 4))])
def test_every_inner_sum_rounding_counts_against_its_term(specs64, monkeypatch, p, s):
    # at a coarse scale, each G_k is moved by 2^40 times its rounding bound
    # and reports a bound that covers the move, so the G_k roundings times
    # |r_k/(k+1)!|, about 10^-9 at depth 12, dominate the estimate, which
    # must still hold. Left as they are, the G_k roundings stay below an
    # eighth of the estimate wherever they were tried (|Im s| up to 1500,
    # depths 1 to 128), too little for any other test to miss them
    monkeypatch.setattr(
        evalzeta, "_scale_bits", lambda digits, peak: evalzeta._threshold_bits(digits) + 2
    )
    call = lambda: eval_identities([specs64[p]], s, 40)
    [plain], _ = _reports_or_raised(call)
    sums = _InnerSums.sums

    def widened(inner, pairs):
        out = sums(inner, pairs)
        return [((vr + (err << 40), vi - (err << 40)), err << 41) for (vr, vi), err in out]

    monkeypatch.setattr(_InnerSums, "sums", widened)
    [report], _ = _reports_or_raised(call)
    assert report.error_estimate > 3 * plain.error_estimate
    with mp.workdps(70):
        err = abs(report.value - mp.zeta(_mp_point(s)))
    assert err <= report.error_estimate, (mp.nstr(err, 3), report.error_estimate)


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
    schedule = lambda r: (r.split_point, r.correction_order, r.last_em_k)
    assert schedule(reports[0]) == schedule(reports[1])
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


def _count_depths(monkeypatch, specs):
    """The depth of every _Depth built from here on, in order: that of the
    first of specs with its k0."""
    built = []
    depth = evalzeta._Depth

    def counting(k0, length):
        built.append(next(s.p for s in specs if s.k0 == k0))
        return depth(k0, length)

    monkeypatch.setattr(evalzeta, "_Depth", counting)
    return built


# the fields a report takes from the whole pass, not from its identity
_SCHEDULE = ("correction_order", "last_em_k")


@pytest.mark.parametrize("s", [F(-9, 4), (F(1, 2), F(14134725, 10**6))])
def test_twins_share_one_evaluation(specs64, monkeypatch, s):
    # depths 3 and 4, and 5 and 6, are one identity each (the pairing
    # check): the batch evaluates each once, and every spec still gets a
    # report of its own, that of its identity
    batch = [specs64[p] for p in (3, 4, 5, 6)]
    alone = [eval_identity(spec, s, 40) for spec in batch]
    built = _count_depths(monkeypatch, batch)
    reports = eval_identities(batch, s, 40)
    assert built == [3, 5]
    assert [r.p_used for r in reports] == [3, 4, 5, 6]
    for report, single in zip(reports, alone):
        for field in dataclasses.fields(EvalReport):
            if field.name not in _SCHEDULE:
                assert getattr(report, field.name) == getattr(single, field.name), field.name
    schedule = lambda r: tuple(getattr(r, name) for name in _SCHEDULE)
    assert len({schedule(r) for r in reports}) == 1
    # a pass of one identity is the pass eval_identity runs
    twins = eval_identities(batch[:2], s, 40)
    assert built == [3, 5, 3]
    assert twins == alone[:2]


def test_a_twin_with_another_closed_form_is_evaluated_on_its_own(specs64, monkeypatch):
    # twins are found by k0, not by depth: depth 5's identity relabelled
    # as a depth-4 record (validity -3, extended to -5 by its k0 = 6)
    # shares the evaluation of depths 5 and 6, not that of depth 3
    other = dataclasses.replace(specs64[5], p=4)
    assert (other.k0, other.validity_re_gt, other.extended_validity_re_gt) == (6, -3, -5)
    batch = [specs64[3], other, specs64[5], specs64[6]]
    s = F(5, 2)
    alone = eval_identity(specs64[5], s, 40)
    built = _count_depths(monkeypatch, batch)
    reports = eval_identities(batch, s, 40)
    assert built == [3, 4]
    assert [r.p_used for r in reports] == [3, 4, 5, 6]
    assert reports[0].value != reports[1].value == reports[2].value == reports[3].value
    assert reports[1].value == alone.value
    assert reports[1].error_estimate == alone.error_estimate


def test_a_batch_of_twins_raises_with_a_report_per_spec(specs64):
    # one evaluation per identity, but PrecisionError still carries one
    # report per spec, in order, and names every depth that missed: at
    # s = -254.5 the Euler-Maclaurin budget of depths 255..258 is far more
    # than N = 64 reaches at 30 digits
    depths = (255, 256, 257, 258)
    batch = [derive_identity(p, p + 2) for p in depths]
    s = F(-509, 2)
    with pytest.raises(PrecisionError, match="cannot meet 10\\^-30") as raised:
        eval_identities(batch, s, 30)
    reports = raised.value.reports
    assert [r.p_used for r in reports] == list(depths)
    for p in depths:
        assert f"(depth {p})" in str(raised.value)
    for first, second in (reports[:2], reports[2:]):
        assert dataclasses.replace(second, p_used=first.p_used) == first
    # |zeta(-254.5)| is about 10^300
    with mp.workdps(360):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            assert abs(report.value - target) <= report.error_estimate


# ---- the shifted split ----


def _false_identity(specs64, which):
    """(spec, depth, condition) of a record that loads but is no identity:
    depth 4 with Q's constant set to 7/6, depth 4 with its closed form
    doubled, and depth 3 with k0 = 5, which drops r_4 = -1/6."""
    four = specs64[4]
    if which == "q":
        q = (F(7, 6), *four.q_poly.coefficients[1:])
        return dataclasses.replace(four, q_poly=exactmath.Polynomial(q)), 4, "Q(s) != "
    if which == "closed_form":
        return dataclasses.replace(four, closed_form=exactmath.Polynomial(2 * c for c in four.closed_form.coefficients)), 4, "closed form r_k != "
    return dataclasses.replace(specs64[3], p=5), 5, "closed form r_k != "


@pytest.mark.parametrize("which", ["q", "closed_form", "k0"])
@pytest.mark.parametrize("call", ["eval_identity", "eval_identities", "zeta_prime_at_zero"])
def test_a_false_identity_is_refused_before_any_work(specs64, monkeypatch, which, call):
    # every evaluator reads IdentitySpec.euler_maclaurin_coefficients first,
    # so a record that is not Euler-Maclaurin at n = 1 never reaches the pass
    spec, p, condition = _false_identity(specs64, which)
    monkeypatch.setattr(evalzeta, "_outer_series", None)  # any call would raise
    run = {
        "eval_identity": lambda: eval_identity(spec, F(5, 2), 40),
        "eval_identities": lambda: eval_identities([specs64[2], spec], F(-1, 2), 40),
        "zeta_prime_at_zero": lambda: zeta_prime_at_zero(spec, 40),
    }[call]
    with pytest.raises(ValueError) as raised:
        run()
    message = str(raised.value)
    assert f"depth-{p} identity is not Euler-Maclaurin at n = 1" in message
    assert condition in message


@pytest.mark.parametrize("which", ["q", "closed_form"])
def test_a_false_twin_is_refused_beside_a_true_one(specs64, monkeypatch, which):
    # twins are keyed on k0 only once each is proved: a false depth-4 record
    # has the k0 of depth 3, but cannot ride on depth 3's evaluation
    spec, p, condition = _false_identity(specs64, which)
    assert spec.k0 == specs64[3].k0
    monkeypatch.setattr(evalzeta, "_outer_series", None)
    with pytest.raises(ValueError) as raised:
        eval_identities([specs64[3], spec], F(5, 2), 40)
    message = str(raised.value)
    assert f"depth-{p} identity is not Euler-Maclaurin at n = 1" in message
    assert condition in message


@pytest.mark.parametrize("m", [2, 3, 7, 15, 31, 63])
@pytest.mark.parametrize("p", [1, 4, 12])
@pytest.mark.parametrize("s", [F(5, 2), (F(3, 4), F(2))])
def test_head_weights_are_the_split_off_sum(specs64, s, p, m):
    # 1 + sum_{n=2..m-1} n^-s + m^-s W_m against the head it replaces,
    # pole/(s-1) + Q(s) + sum_{n=2..m} sum_{k>=k0} r_k (s)_k/(k+1)! n^(-s-k),
    # summed term by term, so the pole and Q are checked numerically too
    spec = specs64[p]
    wr, wi, wd = _last_weight(spec, _exact_point(s), m)
    with mp.workdps(60):
        z = _mp_point(s)
        ns = range(2, m + 1)
        # powers[i] = n^-(s+k) for n = ns[i], at k = 0, 1, ...
        powers = [mp.mpf(n) ** -z for n in ns]
        split = 1 + sum(powers[:-1]) + powers[-1] * mp.mpc(wr, wi) / wd
        direct, a = _mp_point(closed_form_part(p)[0]) / (z - 1) + horner(spec.q_poly.coefficients, z), 1
        for k in range(400):
            if k >= spec.k0:
                direct += spec.series_coefficient(k) * a * sum(powers)
            a *= (z + k) / (k + 2)
            powers = [x / n for x, n in zip(powers, ns)]
        assert abs(split - direct) < mp.mpf(10) ** -50, mp.nstr(abs(split - direct), 3)


def _least_power_of_two(n):
    b = 1
    while b < n:
        b *= 2
    return b


# the real centres of the `points` benchmark, one in each depth strip, and
# complex points with |Im s| <= 40
_STRIP_CENTRES = (F(-19, 2), F(-15, 2), F(-11, 2), F(-7, 2), F(-3, 2), F(0), F(2), F(5), F(33, 4))
_COMPLEX_POINTS = ((F(-3, 2), F(2)), (F(3, 2), F(43, 2)), (F(-3, 2), F(40)), (F(9, 2), F(-40)))


@pytest.mark.parametrize(
    "s, digits",
    [(s, digits) for s in _STRIP_CENTRES + _COMPLEX_POINTS for digits in (15, 40, 100, 300)]
    + [
        # far right the tail bound (m+1)^(1 - Re s - k) is far below an ulp
        (F(300), 40),
        # large |Im s|: the tail is proven only once |s+k|/(k+2) < m + 1
        ((F(1, 2), F(100)), 20),
        # near the pole the weights grow like 1/|s - 1|
        (1 + F(1, 10**15), 40),
    ],
)
def test_shifted_split_meets_the_contract_at_every_depth(specs64, s, digits):
    # every depth that accepts s, in one batch; at s = 2 that is all twelve
    batch = [spec for spec in specs64.values() if supports(spec, s)]
    reports = eval_identities(batch, s, digits)
    # N_1, the digits' own N, but 2 N_1 at 0.5 + 100i and 20 digits: 100
    # is past half N_1's reach, 333/212 N_1
    n = _least_power_of_two(10 + digits) * (2 if s == (F(1, 2), F(100)) else 1)
    # 30 more digits: at 1 + 10^-15, zeta moves 10^30 times as far as s
    with mp.workdps(digits + 50):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            assert report.split_point == n
            err = abs(report.value - target)
            assert err <= report.error_estimate <= 10.0**-digits, (report.p_used, mp.nstr(err, 3))


@pytest.mark.parametrize(
    "p, s, digits",
    [
        # deep identities far left: the partial sum's entries n^-s run to
        # m^126.25 > 10^227, far above zeta(s), and W_m has k0 = 96 and 128
        # terms
        (96, F(-189, 2), 30),
        (128, F(-505, 4), 60),
        (12, (F(-37, 4), F(3, 2)), 300),
        # V_m = (s)_m N^-(s+m) grows where |s + m| > N = 64: each
        # B_2j/(2j)! V_m must keep the relative precision of its V_m
        (128, F(-505, 4), 30),
    ],
)
def test_shifted_head_meets_the_contract_far_left(specs64, p, s, digits):
    spec = specs64[p] if p in specs64 else derive_identity(p, p + 2)
    report = eval_identity(spec, s, digits)
    with mp.workdps(digits + 300):
        err = abs(report.value - mp.zeta(_mp_point(s)))
    assert err <= report.error_estimate <= 10.0**-digits, mp.nstr(err, 3)


@pytest.mark.parametrize("s", [1 + F(1, 10**12), (F(-37, 4), F(3, 2))])
def test_head_weights_are_tallied(specs64, monkeypatch, s):
    # a scale that ignores the weights' size: near the pole |W_m| is about
    # 10^13, and m^-s, within 3 ulps, then costs 10^13 ulps. Only the tally
    # of 3 |W_m| ulps for m^-s covers that. Near the pole the call raises PrecisionError; either way
    # each bound must hold
    monkeypatch.setattr(
        evalzeta, "_scale_bits", lambda digits, peak: evalzeta._threshold_bits(digits) + 2
    )
    batch = [spec for spec in specs64.values() if supports(spec, s)]
    reports, _ = _reports_or_raised(lambda: eval_identities(batch, s, 30))
    assert len(reports) == len(batch)
    # more than the truncation threshold
    assert min(r.error_estimate for r in reports) > 1e-35
    with mp.workdps(80):
        target = mp.zeta(_mp_point(s))
        for report in reports:
            err = abs(report.value - target)
            assert err <= report.error_estimate, (report.p_used, mp.nstr(err, 3))


def _majorant(B, k):
    """sum_i |B_i| (k+1) k ... (k+2-i): L times the sum_i |beta_i| (k+1)!/(k+1-i)!
    of _tail_factors, term by term."""
    return sum(abs(b) * perm(k + 1, i) for i, b in enumerate(B))


@pytest.mark.parametrize("base_bits", [5, 6, 7])  # N at 15..22, 23..54 and 55..118 digits
@pytest.mark.parametrize("p, s", [(1, (F(50), F(1000))), (1, F(300)), (5, (F(1, 2), F(100)))])
def test_tail_proof_holds_where_it_claims(specs64, p, s, base_bits):
    # at every k >= k0 the a-priori majorant of the tail past k
    # (_tail_factors) is at least the tail
    # sum_{j>k} |r_j (s)_j/(j+1)!| zeta(Re s + j, N), summed here; also at
    # 50 + 1000i, where the terms grow until |s + k| is about N k. The
    # proof holds at any N, so N is held at 2^base_bits, below what
    # _split_point takes at |Im s| = 1000
    spec = specs64[p]
    bits = 3000  # |V_k| is many ulps at every k the test reaches
    re = s[0] if isinstance(s, tuple) else s
    inner = _InnerSums(_exact_point(s), 1 << base_bits, bits, 0)
    n = inner.n
    assert n == 1 << base_bits
    B, L = spec.euler_maclaurin_coefficients
    with mp.workdps(30):
        z, sigma = _mp_point(s), _mp_point(re)
        terms, a = [], mp.mpf(1)
        for j in range(400):
            terms.append(abs(spec.series_coefficient(j) * a) * mp.zeta(sigma + j, n))
            a *= (z + j) / (j + 2)
        # past j = 400 each term is below a fifth of the one before
        tails = [mp.zero]
        for term in reversed(terms[1:]):
            tails.append(tails[-1] + term)
        tails.reverse()  # tails[k] = sum_{k<j<400} terms[j]
        factors = evalzeta._tail_factors(inner, spec.k0)
        for k, (size, growth, below) in zip(range(spec.k0, 200), factors):
            assert size == inner.size(k), k
            majorant = -(-growth * _majorant(B, k) // (below * L * factorial(k + 1)))
            assert tails[k] * 2**bits <= majorant, k


@pytest.mark.parametrize("digits, first_n", [(15, 32), (40, 64), (100, 128), (300, 512)])
def test_split_point_is_the_euler_maclaurin_cutoff(specs64, digits, first_n):
    # m + 1 is the least power of two >= 10 + digits, and every inner sum
    # is an Euler-Maclaurin sum at n = m + 1 with no direct terms
    for s in (F(2), (F(-3, 2), F(40))):
        batch = [spec for spec in specs64.values() if supports(spec, s)]
        for report in eval_identities(batch, s, digits):
            assert report.split_point == first_n and report.last_em_k is not None, report
    # and so is every inner sum zeta(k, N) of zeta'(0)
    report = zeta_prime_at_zero(specs64[2], digits)
    assert report.split_point == first_n and report.last_em_k is not None, report


@pytest.mark.parametrize("digits", [15, 22, 23, 40, 100, 300])
def test_split_point_grows_with_the_imaginary_part(digits):
    # N is the least power of two >= 10 + digits with |Im s| <= 333/106 N,
    # 333/106 just below pi, doubled where that is the digits' own N_1 and
    # |Im s| is past half its reach, 333/212 N_1: N_1 up to that edge,
    # 2 N_1 just past it and at N_1's reach, and an N that |Im s| sets,
    # past N_1, up to its own reach and twice N just past it
    def split(im):
        return evalzeta._split_point(digits, im.numerator, im.denominator)

    base = _least_power_of_two(10 + digits)
    half = F(333 * base, 212)
    for im in (F(0), F(-20), half):
        assert split(im) == base
    for im in (-half - F(1, 10**9), F(333 * base, 106)):
        assert split(im) == 2 * base
    for n in (2 * base, 8 * base):
        reach = F(333 * n, 106)
        assert split(reach) == n
        assert split(-reach - F(1, 10**9)) == 2 * n


def test_the_doubling_stops_at_the_split_limit():
    # at 2^16 - 10 digits the digits' own N is 2^16, the limit: past half
    # its reach it is not doubled, and past its reach the call raises
    digits = (1 << 16) - 10
    assert evalzeta._split_point(digits, 333 << 16, 106) == 1 << 16
    with pytest.raises(ValueError, match=r"past the limit N <= 2\^16"):
        evalzeta._split_point(digits, (333 << 16) + 1, 106)


def test_the_split_limit_raises_before_any_power(specs64, monkeypatch):
    # N = 2^16 reaches |Im s| = 333/106 2^16, about 2.06 10^5: past it, and
    # past 2^16 - 10 digits, every evaluator raises ValueError naming the
    # limit before _InnerSums computes a power
    def no_powers(self):
        raise AssertionError("powers computed")

    monkeypatch.setattr(_InnerSums, "_powers", no_powers)
    reach = F(333 << 16, 106)
    limit = r"past the limit N <= 2\^16"
    for s in [(F(1, 2), reach + F(1, 10**9)), (F(1, 2), F(10**9)), "0.5-1e300i"]:
        with pytest.raises(ValueError, match=limit):
            eval_identity(specs64[1], s, 40)
    for call in (
        lambda: eval_identities([specs64[1]], 2, (1 << 16) - 9),
        lambda: zeta_prime_at_zero(specs64[2], (1 << 16) - 9),
        lambda: sum_zeta_m1((1 << 16) - 9),
    ):
        with pytest.raises(ValueError, match=limit):
            call()
    # at the limit itself the pass goes on to the powers
    with pytest.raises(AssertionError, match="powers computed"):
        eval_identity(specs64[1], (F(1, 2), reach), 40)


@pytest.mark.parametrize("s", [F(10**8), "1e308", (F(10**8), F(3)), sys.float_info.max])
def test_a_huge_real_part_raises_at_the_tail_limit(specs64, monkeypatch, s):
    # the tail majorant holds the series on until (k+1)! outgrows
    # 2^ceil(3y/2), y = |s + k|/(N - 1): millions of bits at Re s = 10^8,
    # where the pass ran out of memory, and more digits than an int may
    # print at 10^308. Past a shift of 2^16 bits at the least k0 the call
    # raises ValueError naming the limit, before any power, at once
    def no_powers(self):
        raise AssertionError("powers computed")

    monkeypatch.setattr(_InnerSums, "_powers", no_powers)
    start = time.process_time()
    with pytest.raises(ValueError, match=r"past the limit of 2\^16 bits"):
        eval_identity(specs64[1], s, 20)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("digits, n", [(20, 32), (40, 64)])
def test_the_tail_limit_is_a_shift_of_two_to_the_sixteen_bits(specs64, monkeypatch, digits, n):
    # at a real integer s and k0 = 1 the shift is ceil(3 (s + 2)/(2 (N - 1))),
    # _modulus_up(s + 1) = s + 2: the largest s it accepts (1,354,408 at 20
    # digits, 2,752,510 at 40) goes on to the powers, and the next raises
    def no_powers(self):
        raise AssertionError("powers computed")

    monkeypatch.setattr(_InnerSums, "_powers", no_powers)
    largest = 2 * (n - 1) * 2**16 // 3 - 2
    with pytest.raises(AssertionError, match="powers computed"):
        eval_identity(specs64[1], largest, digits)
    with pytest.raises(ValueError, match=r"past the limit of 2\^16 bits"):
        eval_identity(specs64[1], largest + 1, digits)


def test_each_call_reads_its_point_and_decides_n_once(specs64, monkeypatch):
    # _exact_point is the one reading of a point and _split_point the one
    # decision of N: each evaluator makes each at most once, and passes the
    # triple and N down. zeta'(0) and the sum start from the triple (0, 0, 1)
    calls = []
    for name in ("_exact_point", "_split_point"):

        def counted(*args, name=name, original=getattr(evalzeta, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(evalzeta, name, counted)

    def count(call):
        calls.clear()
        call()
        return calls.count("_exact_point"), calls.count("_split_point")

    batch = [specs64[p] for p in (6, 7, 8, 12)]
    assert count(lambda: eval_identities(batch, (F(1, 2), F(14)), 40)) == (1, 1)
    assert count(lambda: eval_identities(batch, -3.5, 100)) == (1, 1)
    assert count(lambda: eval_identity(specs64[1], "2", 15)) == (1, 1)
    assert count(lambda: zeta_prime_at_zero(specs64[2], 40)) == (0, 1)
    assert count(lambda: sum_zeta_m1(40)) == (0, 1)
    assert count(lambda: zeta_em_reference("0.5+14i", 40)) == (1, 0)
    assert count(lambda: zeta_em_reference(-10.5, 15)) == (1, 0)


def test_each_pass_sweeps_its_band_once(specs64, monkeypatch):
    # J is taken once, by one _InnerSums.order call at k*, and the band is
    # swept once: one remainders call and one sums call over the same
    # (k, M) pairs, here at points like those of the benchmark and for each
    # caller of the pass
    log, inside = [], []
    order, remainders, sums = _InnerSums.order, _InnerSums.remainders, _InnerSums.sums

    def logged_order(self, k, budget):
        log.append("order")
        inside.append(k)
        try:
            return order(self, k, budget)
        finally:
            inside.pop()

    def logged_remainders(self, pairs):
        if not inside:
            log.append(("remainders", pairs))
        return remainders(self, pairs)

    def logged_sums(self, pairs):
        log.append(("sums", pairs))
        return sums(self, pairs)

    monkeypatch.setattr(_InnerSums, "order", logged_order)
    monkeypatch.setattr(_InnerSums, "remainders", logged_remainders)
    monkeypatch.setattr(_InnerSums, "sums", logged_sums)
    batch = [spec for spec in specs64.values() if supports(spec, F(-11, 4))]
    passes = [
        lambda: eval_identity(specs64[1], (F(1, 2), F(100)), 20),
        lambda: eval_identity(specs64[1], (F(9, 2), F(38)), 40),
        lambda: eval_identity(specs64[1], (F(9, 2), F(38)), 100),
        lambda: eval_identity(specs64[1], (F(1, 2), F(3000)), 40),
        lambda: eval_identities(batch, F(-11, 4), 40),
        lambda: zeta_prime_at_zero(specs64[2], 40),
        lambda: sum_zeta_m1(40),
    ]
    for call in passes:
        log.clear()
        call()
        assert len(log) == 3 and log[0] == "order", log
        (first, band), (second, swept) = log[1:]
        assert (first, second) == ("remainders", "sums") and swept == band and len(band) > 1


def _record_inner(monkeypatch):
    """The _InnerSums of every pass from here on, in order, read off the
    first call of _tail_factors in each."""
    passes = []
    factors = evalzeta._tail_factors

    def recording(inner, k):
        if not passes or passes[-1] is not inner:
            passes.append(inner)
        return factors(inner, k)

    monkeypatch.setattr(evalzeta, "_tail_factors", recording)
    return passes


def _stop_walk_batches(specs64):
    """(batch, s, digits): depths 2..12 at every ORACLE_GRID point, 31..34
    at -30.5 and 1..12 at 2.5 + 20i."""
    at_zero = [specs64[p] for p in range(2, 13)]
    for point in ORACLE_GRID:
        s = (Fraction(point.real), Fraction(point.imag))
        yield [spec for spec in at_zero if supports(spec, s)], s, 40
    yield [derive_identity(p, p + 2) for p in range(31, 35)], F(-61, 2), 40
    yield list(specs64.values()), (F(5, 2), F(20)), 40


def test_each_depth_stops_at_its_own_first_passing_k(specs64, monkeypatch):
    # the pass tests only the shallowest running depth at each k, since the
    # majorants are nested; each depth must still stop at the first k >= k0
    # where its own majorant is under the threshold, found here depth by
    # depth from _tail_factors
    passes = _record_inner(monkeypatch)
    for batch, s, digits in _stop_walk_batches(specs64):
        reports = eval_identities(batch, s, digits)
        inner = passes[-1]
        threshold = (1 << inner.bits) // 10 ** (digits + 5)
        for spec, report in zip(batch, reports):
            B, L = spec.euler_maclaurin_coefficients
            for k, (_, growth, below) in enumerate(evalzeta._tail_factors(inner, spec.k0), spec.k0):
                if growth * _majorant(B, k) < threshold * below * L * factorial(k + 1):
                    break
            assert report.terms_used == k, (s, spec.p)


def test_each_pass_makes_one_failed_tail_test_per_k(specs64, monkeypatch):
    # a pass tests the majorant of the shallowest running series at each k
    # and moves on only while it passes, so it makes at most one test per k
    # plus one per distinct series
    tests = []
    tail_bound = evalzeta._tail_bound

    def counting(bound, scale, threshold):
        tests.append(bound)
        return tail_bound(bound, scale, threshold)

    monkeypatch.setattr(evalzeta, "_tail_bound", counting)
    # (the k0 of each series, the call)
    cases = [
        ([spec.k0 for spec in batch], lambda b=batch, s=s, d=digits: eval_identities(b, s, d))
        for batch, s, digits in _stop_walk_batches(specs64)
    ]
    cases.append(([specs64[2].k0], lambda: [zeta_prime_at_zero(specs64[2], 40)]))
    cases.append(([2], lambda: [sum_zeta_m1(40)]))
    for k0s, call in cases:
        tests.clear()
        reports = call()
        ks = max(r.terms_used for r in reports) - min(k0s) + 1
        distinct = len(set(k0s))
        assert distinct <= len(tests) <= ks + distinct, (k0s, len(tests), ks)


def test_evaluator_output_is_pinned(specs64):
    # every report's exact value and schedule over a spread of batches and
    # callers: the digest moves with any bit of any value or estimate
    start = time.process_time()
    at_zero = [specs64[p] for p in range(2, 13)]
    reports = []
    for digits in (15, 40, 100):
        for point in ORACLE_GRID:
            s = (Fraction(point.real), Fraction(point.imag))
            reports += eval_identities([spec for spec in at_zero if supports(spec, s)], s, digits)
    s = -2
    while batch := [spec for spec in at_zero if supports(spec, s)]:
        reports += eval_identities(batch, s, 40)
        s -= 2
    deep = derive_identity(32, 34)
    reports += [zeta_prime_at_zero(spec, 40) for spec in (specs64[2], specs64[3], deep)]
    reports += [sum_zeta_m1(digits) for digits in (15, 40, 300)]
    points = [
        (specs64[1], F(2)),
        (specs64[1], F(33, 4)),
        (specs64[1], F(30)),
        (specs64[6], F(-7, 2)),
        (specs64[12], F(-19, 2)),
        (deep, F(-61, 2)),
        (specs64[1], (F(1, 2), F(14134725, 10**6))),
        (specs64[1], (F(9, 2), F(38))),
        (specs64[1], (F(5, 2), F(20))),
        (specs64[2], (F(1, 4), F(30))),
        (specs64[4], (F(-3, 2), F(20))),
        (specs64[8], (F(-13, 2), F(3))),
    ]
    for digits in (40, 100):
        reports += [eval_identity(spec, s, digits) for spec, s in points]
    text = "\n".join(
        repr((_raw(r.value), r.p_used, _raw(r.error_estimate), r.terms_used, r.correction_order, r.last_em_k, r.split_point))
        for r in reports
    )
    assert len(reports) == 723
    assert hashlib.sha256(text.encode()).hexdigest() == "00dd41230854c048591d66becbd52069746862fbb25ef69b4a70749e03c62328"
    assert time.process_time() - start < 3


def test_shifted_split_shrinks_the_outer_series(specs64):
    # the paper's split (inner sums from n = 2) needed 151 terms here, and
    # inner sums from n = 16 needed 37
    assert eval_identity(specs64[1], 2, 40).terms_used <= 25


def test_a_null_closed_form_runs_the_shifted_split(specs64):
    # a record without a closed form reads as series_poly(p), so its batch
    # gets the weights and the split point like any derived spec
    loaded = _without_closed_form(specs64[5])
    assert loaded == specs64[5]
    bare, full = eval_identities([loaded, specs64[5]], -2, 40)
    assert bare.split_point == full.split_point == 64
    assert bare == full == eval_identity(specs64[5], -2, 40)
    assert abs(bare.value) <= bare.error_estimate <= 1e-40


# ---- inner-sum kernel ----


def _ulps_to_mp(pair, bits):
    return mp.mpc(*pair) / mp.mpf(2) ** bits


def _shift(z, k):
    """z + k for z an (re, im) pair of Fractions."""
    return z[0] + k, z[1]


def _inner_sum(inner, k, budget):
    """G_k at the least order whose remainder meets budget:
    (value, truncation bound, rounding bound), all in ulps."""
    order = inner.order(k, budget)
    [(value, rounding)] = inner.sums([(k, order)])
    [truncation] = inner.remainders([(k, order)])
    return value, truncation, rounding


def _rising_budget(c, j, bits, digits):
    """|(c)_j| 10^-digits in ulps of 2^-bits, rounded down: a budget of
    10^-digits for zeta(w, N), in the ulps of G = (c)_j zeta(w, N)."""
    with mp.workdps(60):
        return int(abs(mp.rf(_mp_point(c), j)) * mp.mpf(2) ** bits / mp.mpf(10) ** digits)


@pytest.mark.parametrize("stride", [1, 7])  # 7: k skips several shifts at once
@pytest.mark.parametrize("z, k0", [((F(2), F(0)), 0), ((F(1, 2), F(14134725, 10**6)), 1)])
def test_inner_sums_within_their_bounds(z, k0, stride):
    # G_k = (z + k0)_(k - k0) zeta(z + k, N) for k > k0, N = 64 at 40
    # digits, from the one sequence V_m started at N^-(z+k0): several
    # correction terms while V_k is large, none once V_(k-1) + V_k/2 alone
    # meets the budget, 1e-50 scaled as G_k is
    digits, bits = 40, 200
    ks = range(k0 + 1, 201, stride)
    orders, results = set(), []
    inner = _inner_for(z, digits, bits, k0)
    assert inner.n == 64
    for k in ks:
        budget = _rising_budget(_shift(z, k0), k - k0, bits, 50)
        orders.add(inner.order(k, budget))
        value, err, rounding = _inner_sum(inner, k, budget)
        assert err <= budget
        results.append((k, value, err + rounding))
    assert 0 in orders and max(orders) > 1
    for k, value, bound in results:
        # mpmath subtracts sum_{n<64} n^-w from zeta(w), which cancels
        # 2 digits per k
        with mp.workdps(80 + 2 * k):
            w = _mp_point(z) + k
            target = mp.zeta(w, 64) * mp.rf(_mp_point(_shift(z, k0)), k - k0)
            assert abs(_ulps_to_mp(value, bits) - target) <= mp.mpf(bound) / mp.mpf(2) ** bits, k


def test_inner_sum_reports_an_unmet_budget():
    # Euler-Maclaurin at N = 64 cannot take G_1 = z zeta(z + 1, 64),
    # z = 1.5 + 14i, to 1e-200: its terms stop shrinking near 1e-167
    bits = 700
    budget = (1 << bits) // 10**200
    z = (F(3, 2), F(14))
    value, err, rounding = _inner_sum(_inner_for(z, 40, bits, 0), 1, budget)
    assert err > budget
    # G_1 is a product: its reference needs the digits of 2^-700 as well
    with mp.workdps(230):
        bound = mp.mpf(err + rounding) / mp.mpf(2) ** bits
        target = _mp_point(z) * mp.zeta(_mp_point(z) + 1, 64)
        assert abs(_ulps_to_mp(value, bits) - target) <= bound


# z = 3/2, so G_1 = z zeta(5/2, 64); at z = 2 (and at 5/2) the floors of
# G_1 stay under its truncation bound
@pytest.mark.parametrize("z", [(F(3, 2), F(0)), (F(3, 2), F(7))])
def test_inner_sum_rounding_is_tallied(z):
    # at a scale of 2^-64 the floors of the Euler-Maclaurin route to
    # G_1 = z zeta(z + 1, 64) cost more than its truncation: only the
    # rounding bound covers them
    bits = 64
    value, err, rounding = _inner_sum(_inner_for(z, 40, bits, 0), 1, 4)
    with mp.workdps(60):
        target = _mp_point(z) * mp.zeta(_mp_point(z) + 1, 64)
        actual = abs(mp.mpc(*value) - target * mp.mpf(2) ** bits)
    assert err < actual <= err + rounding


@pytest.mark.parametrize(
    "z, k, digits",
    [
        ((F(1, 2), F(40)), 1, 40),
        ((F(1, 2), F(-100)), 1, 40),
        ((F(2), F(0)), 1, 100),
        ((F(3, 2), F(14134725, 10**6)), 1, 100),
        ((F(1, 4), F(30)), 2, 300),
        # a point of the `points` benchmark, on its grid of 10^-6
        ((F(1801021, 400000), F(8670021, 500000)), 1, 40),
    ],
)
def test_shifted_inner_sums_within_their_bounds(z, k, digits):
    # N = _split_point(digits), from start 0 and a budget of
    # 10^-(digits+5) |(z)_k|, as in the shifted split: the Euler-Maclaurin
    # route at n = N, against G_k = (z)_k zeta(z + k, N)
    bits = evalzeta._threshold_bits(digits) + evalzeta._GUARD_BITS
    n = _least_power_of_two(10 + digits)
    budget = _rising_budget(z, k, bits, digits + 5)
    inner = _inner_for(z, digits, bits, 0)
    value, err, rounding = _inner_sum(inner, k, budget)
    assert inner.n == n
    assert err <= budget
    with mp.workdps(digits + 20):
        target = mp.zeta(_mp_point(z) + k, n) * mp.rf(_mp_point(z), k)
        actual = abs(_ulps_to_mp(value, bits) - target)
        assert actual <= mp.mpf(err + rounding) / mp.mpf(2) ** bits


@pytest.mark.parametrize("digits", [15, 40, 100, 300])
@pytest.mark.parametrize(
    "z",
    [
        (F(-21, 2), F(0)),
        # entries up to (N - 1)^126: exp_fixed shifts left by hundreds of bits
        (F(-126), F(7, 3)),
        # large |Im z|: cos_sin_fixed reduces arguments of thousands of pi/2
        (F(1, 2), F(1000)),
        (F(1, 2), F(-123456, 100)),
        (F(3, 2), F(10**5)),
        # a point of the `points` benchmark, on its grid of 10^-6
        (F(1801021, 400000), F(8670021, 500000)),
        # at 40 digits wp = 398 and wp = 401, either side of 400 bits, where
        # cos_sin_fixed would switch from its table to the Taylor series
        (F(-61, 2), F(10**5)),
        (F(-63, 2), F(7, 3)),
    ],
)
def test_head_entries_within_two_ulps(z, digits):
    # every component of every entry n^-(z + shift), n < N, is within
    # 2 + 2^-16 ulps of its value, as _ENTRY_ULPS = 3 assumes; the head
    # takes them at shift 0
    bits = evalzeta._scale_bits(digits, 0)
    n_split = _least_power_of_two(10 + digits)
    inner = _inner_for(z, digits, bits, 0)
    bound = 2 + mp.mpf(2) ** -16
    # the entries are as large as N^-Re z; 40 bits more than that resolve
    # the reference to 2^-40 ulps
    extra = max(0, -z[0]) * n_split.bit_length()
    with mp.workprec(bits + int(extra) + 40):
        w = _mp_point(z)
        for shift in (0, 3):
            for n in range(2, n_split):
                xr, xi = inner._entry(n, shift)
                x = mp.power(n, -(w + shift)) * mp.mpf(2) ** bits
                assert abs(xr - x.real) <= bound and abs(xi - x.imag) <= bound, (n, shift)


def test_evaluation_fills_no_cos_sin_table_cell(specs64, monkeypatch):
    # below 400 bits cos_sin_fixed reads mpmath's process-wide cos_sin_cache
    # and fills one cell per new argument; the evaluator's cosines and sines
    # come from the Taylor series alone, so an empty table stays empty
    cache = {}
    monkeypatch.setattr(libelefun, "cos_sin_cache", cache)
    for digits in (15, 40):
        inner = _inner_for((F(9, 2), F(38)), digits, evalzeta._scale_bits(digits, 0), 0)
        assert inner.wp <= libelefun.COS_SIN_CACHE_PREC
        eval_identity(specs64[1], (F(9, 2), F(38)), digits)
    assert sorted(cache) == []
    # the oracle still calls cos_sin_fixed, so the table is the one it reads
    zeta_em_reference((F(9, 2), F(38)), 15)
    assert cache


@pytest.mark.parametrize("n", [2, 3, 4, 25, 32, 64, 1000, 1 << 10])
def test_least_factors_is_a_sieve_of_least_prime_factors(n):
    # each entry against trial division: the least d >= 2 dividing i
    least = evalzeta._least_factors(n)
    assert least[:2] == [0, 1] and len(least) == n + 1
    for i in range(2, n + 1):
        assert least[i] == next(d for d in range(2, i + 1) if i % d == 0), i


@pytest.mark.parametrize("digits", [15, 40, 100, 300])
def test_head_entries_are_exact_at_zero(digits):
    # at z = 0 every power n^-z is exactly 1, so each entry n^-shift is the
    # floor of 2^bits / n^shift, with no error at all
    bits = evalzeta._scale_bits(digits, 0)
    inner = _inner_for((F(0), F(0)), digits, bits, 0)
    for shift in (0, 1, 2, 7):
        expected = [((1 << bits) // n**shift, 0) for n in range(2, inner.n)]
        assert [inner._entry(n, shift) for n in range(2, inner.n)] == expected, shift


@pytest.mark.parametrize("bits", [8, 16, 30, 60])
@pytest.mark.parametrize("digits", [15, 40])
@pytest.mark.parametrize(
    "z",
    [
        (F(5, 2), F(0)),
        (F(1, 2), F(40)),
        (F(-7, 4), F(3)),
        (F(3, 4), F(100)),
        (F(300), F(0)),
        (F(61, 2), F(5)),
    ],
)
def test_each_v_is_within_its_own_error(z, digits, bits):
    # every V_m = (z)_m N^-(z+m), m = 0..119, that `size` steps to is within
    # its own err[m] ulps of the exact value, at coarse scales where the
    # floors of the steps are what V_m's error is made of (the worst case
    # here uses 0.96 of err[m]). This catches a step error without the 2
    # ulps of its floors. It cannot catch a cap of err[m] at the stored
    # |V_m| + 1 alone, without 2^level: that cap is wrong only where the
    # computed V_m is off by more than its own size plus an ulp, so where
    # the exact |V_m| is a few ulps and the floors have lost as much; the
    # floors lose far less than their tally, and no sampled point shows it.
    # The term stays, for the worst case the _InnerSums docstring proves.
    inner = _inner_for(z, digits, bits, 0)
    inner.size(119)
    with mp.workdps(200):
        w, n = _mp_point(z), inner.n
        exact = mp.power(n, -w) * mp.mpf(2) ** bits
        for m in range(120):
            computed = mp.mpc(inner.re[m], inner.im[m])
            assert abs(computed - exact) <= inner.err[m], m
            exact *= (w + m) / n


@pytest.mark.parametrize("bits", [6, 8, 16])
@pytest.mark.parametrize(
    "z",
    [
        (F(5, 2), F(0)),
        (F(1, 2), F(40)),
        (F(97, 8), F(1165, 8)),
        (F(35, 2), F(665, 8)),
    ],
)
def test_each_g_is_within_its_own_rounding(z, bits):
    # G_k with M correction terms against the exact truncated sum
    # V_(k-1) + V_k/2 + sum_{j<=M} B_2j/(2j)! V_(k+2j-1), from the exact V_m:
    # the truncation leaves the comparison, so the rounding bound of `sums`
    # alone must cover the difference. At coarse scales and large |Im z| it
    # is nearly all of it: this kills the mutants that drop the half of E_k
    # and its floors, or the dot product's tally and floor, from the bound
    inner = _inner_for(z, 15, bits, 0)
    pairs = [(k, m) for k in range(1, 80) for m in (0, 1, 2, 3, 5, 10, 30)]
    with mp.workdps(250):
        w, n = _mp_point(z), inner.n
        exact = [mp.power(n, -w) * mp.mpf(2) ** bits]
        for m in range(140):
            exact.append(exact[-1] * (w + m) / n)
        for (k, m), ((vr, vi), rounding) in zip(pairs, inner.sums(pairs)):
            target = exact[k - 1] + exact[k] / 2
            for j in range(1, m + 1):
                numerator, denominator = exactmath.bernoulli_over_factorial(j)
                target += exact[k + 2 * j - 1] * numerator / denominator
            assert abs(mp.mpc(vr, vi) - target) <= rounding, (k, m)


@pytest.mark.parametrize("digits", [15, 40, 100])
def test_every_product_floor_is_tallied(monkeypatch, digits):
    # sum_zeta_m1 on known G_k: each exactly -1 ulp, with no truncation and
    # no rounding of its own, at the least scale, where the tail majorant
    # is below one ulp. The pass has no head weights, so what is left of
    # its error is the floor of the exact head and of each rho_k G_k, and
    # G_k = -1 makes that floor lose 1 - rho_k = 1 - 1/(k-1)!: nearly an
    # ulp per term, which only the 2 ulps per product of the bound cover
    monkeypatch.setattr(evalzeta, "_scale_bits", lambda digits, peak: evalzeta._threshold_bits(digits))
    monkeypatch.setattr(_InnerSums, "remainders", lambda inner, pairs: [0] * len(pairs))
    summed = []

    def known(inner, pairs):
        summed.append((inner.bits, [k for k, _ in pairs]))
        return [((-1, 0), 0)] * len(pairs)

    monkeypatch.setattr(_InnerSums, "sums", known)
    report = evalzeta.sum_zeta_m1(digits)
    [(bits, ks)] = summed
    n = report.split_point
    exact = F(n - 2, n - 1) - sum(F(1, factorial(k - 1)) for k in ks) / 2**bits
    lost = abs(evalzeta._exact_real(report.value.real) - exact) * 2**bits
    assert lost > len(ks) / 2 > 4
    assert lost <= evalzeta._exact_real(report.error_estimate) * 2**bits


@pytest.mark.parametrize("digits", [15, 40, 100, 300])
def test_logs_within_two_ulps(digits):
    # zeta_prime_at_zero's log m and log((m-1)!), m = N - 1, at several scales
    for bits in (64, 201, evalzeta._scale_bits(digits, 0)):
        inner = _inner_for((F(0), F(0)), digits, bits, 0)
        m = inner.n - 1
        (log_m, zero), (log_factorial, _) = inner.logs()
        assert zero == 0
        with mp.workprec(bits + 80):
            unit = mp.mpf(2) ** bits
            assert abs(log_m - mp.log(m) * unit) <= 2, bits
            assert abs(log_factorial - mp.loggamma(m) * unit) <= 2, bits


_BIG = st.integers(min_value=-(2**2000), max_value=2**2000)


@given(_BIG, _BIG)
def test_modulus_up_is_a_tight_upper_bound(a, b):
    root = isqrt(a * a + b * b)
    assert root < _modulus_up(a, b) <= (9 * root) // 8 + 2


# ---- bounds below the floats ----


@pytest.mark.parametrize(
    "name, digits",
    [("zeta(2)", 400), ("zeta(1/2+7i)", 400), ("zeta(-13/2)", 400), ("zeta'(0)", 400), ("sum", 400), ("zeta(3)", 1000)],
)
def test_a_bound_below_the_floats_is_exact(specs64, name, digits):
    # every bound here lies far below the least float 2^-1074 (about
    # 4.9e-324): the estimate is the pass's exact tally, an mpf, so it still
    # shows the contract at 400 and 1000 digits
    runs = {
        "zeta(2)": (lambda: eval_identity(specs64[1], 2, digits), lambda: mp.zeta(2)),
        "zeta(1/2+7i)": (lambda: eval_identity(specs64[6], (F(1, 2), F(7)), digits), lambda: mp.zeta(mp.mpc(0.5, 7))),
        "zeta(-13/2)": (lambda: eval_identity(specs64[8], F(-13, 2), digits), lambda: mp.zeta(mp.mpf(-13) / 2)),
        "zeta'(0)": (lambda: zeta_prime_at_zero(specs64[2], digits), lambda: -mp.log(2 * mp.pi) / 2),
        "sum": (lambda: sum_zeta_m1(digits), lambda: mp.mpf(1)),
        "zeta(3)": (lambda: eval_identity(specs64[1], 3, digits), lambda: mp.zeta(3)),
    }
    run, target = runs[name]
    report = run()
    assert isinstance(report.error_estimate, mp.mpf)
    with mp.workdps(digits + 50):
        err = abs(report.value - target())
    assert err <= report.error_estimate <= mp.mpf(10) ** -digits, (mp.nstr(err, 3), _format_bound(report.error_estimate))


@pytest.mark.parametrize(
    "x, text",
    [
        ("3.7e-46", "3.700e-46"),
        ("1.5e-5", "1.500e-05"),
        ("2", "2.000e+00"),
        ("1.797e308", "1.797e+308"),
        ("1.7444e-405", "1.744e-405"),
        ("3.30149e343", "3.301e+343"),
        ("9.99961e-1001", "1.000e-1000"),
    ],
)
def test_a_bound_prints_as_a_float_would_at_any_exponent(x, text):
    # the exponent keeps its sign and at least two digits, as '%.3e' writes
    # a float's, inside the float range and past it
    assert _format_bound(mp.mpf(x)) == text
    if 0 < float(x) < float("inf"):
        assert f"{float(x):.3e}" == text


def test_a_far_left_bound_is_finite():
    # depth 384 at s = -765/2 misses 30 digits at N = 64 by far: its bound,
    # about 10^343, is beyond the float range, and the message and the
    # report both carry it
    spec = derive_identity(384, 386)
    with pytest.raises(PrecisionError, match=r"error bound 3\.301e\+343 \(depth 384\)") as caught:
        eval_identity(spec, F(-765, 2), 30)
    [report] = caught.value.reports
    assert isinstance(report.error_estimate, mp.mpf)
    assert mp.isfinite(report.error_estimate) and report.error_estimate > mp.mpf(10) ** -30


# ---- eval_identity: errors ----


@pytest.mark.parametrize(
    "s",
    [
        float("inf"),
        float("nan"),
        complex(2, float("-inf")),
        mp.inf,
        mp.mpc(2, mp.nan),
        (F(2), float("inf")),
        F(10**400),
        "1e400",
        "2-1e309i",
    ],
)
def test_non_finite_or_out_of_range_s_is_a_value_error(specs64, s):
    with pytest.raises(ValueError, match="finite|float range"):
        eval_identity(specs64[1], s, 20)
    with pytest.raises(ValueError, match="finite|float range"):
        supports(specs64[1], s)


def _decimal_case(sign, whole, fraction, exponent):
    """A decimal literal and its value, built digit by digit."""
    text = f"{sign}{whole}" + (f".{fraction}" if fraction else "") + (f"e{exponent}" if exponent else "")
    value = (whole + F(int(fraction or "0"), 10 ** len(fraction))) * F(10) ** exponent
    return text, -value if sign == "-" else value


_DECIMALS = st.builds(
    _decimal_case,
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 10**30),
    st.text("0123456789", max_size=20),
    st.integers(-400, 400),
)
_MPFS = st.builds(
    lambda man, exp: (mp.make_mpf(from_man_exp(man, exp)), man * F(2) ** exp),
    st.integers(-(2**200), 2**200),
    st.integers(-1300, 1100),
)
# (input, exact value) for every kind of real s
_REALS = st.one_of(
    st.integers(-(2**1100), 2**1100).map(lambda n: (n, F(n))),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (x, Fraction(x))),
    st.fractions().map(lambda q: (q, q)),
    _DECIMALS,
    _MPFS,
)
# (s, Re s, Im s) for every kind of point
_POINTS = st.one_of(
    _REALS.map(lambda x: (x[0], x[1], F(0))),
    st.tuples(_REALS, _REALS).map(lambda p: ((p[0][0], p[1][0]), p[0][1], p[1][1])),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(lambda z: (z, Fraction(z.real), Fraction(z.imag))),
    st.tuples(_MPFS, _MPFS).map(
        lambda p: (mp.make_mpc((p[0][0]._mpf_, p[1][0]._mpf_)), p[0][1], p[1][1])
    ),
    st.tuples(_DECIMALS, _DECIMALS).map(
        lambda p: (f"{p[0][0]}{'-' if p[1][1] < 0 else '+'}{p[1][0].lstrip('+-')}i", p[0][1], p[1][1])
    ),
)


@settings(max_examples=400, deadline=None)
@given(_POINTS)
def test_exact_point_is_the_fraction_reading(case):
    # the one reading of a point: the exact (Re s, Im s) pair over its least
    # common denominator, den > 0 and the triple in lowest terms, or
    # ValueError for a part beyond the float range
    s, re, im = case
    if max(abs(re), abs(im)) > Fraction(sys.float_info.max):
        with pytest.raises(ValueError, match="float range"):
            _exact_point(s)
        return
    zr, zi, den = _exact_point(s)
    assert den > 0 and gcd(zr, zi, den) == 1
    assert (F(zr, den), F(zi, den)) == (re, im)


def test_exact_point_takes_the_whole_float_range():
    top = Fraction(sys.float_info.max)
    for s in (sys.float_info.max, complex(0, -sys.float_info.max), (top, -top), str(int(top))):
        zr, zi, den = _exact_point(s)
        assert den == 1 and top in (abs(zr), abs(zi))
    above = top + F(1, 10**400)
    for s in (above, (0, -above), f"{int(top)}.{'0' * 399}1", f"1+{int(top)}.5i"):
        with pytest.raises(ValueError, match="float range"):
            _exact_point(s)


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


@pytest.mark.parametrize("p, k_max, s, digits", [(2, 10, F(1, 4), 40), (1, 3, F(2), 15)])
def test_a_null_closed_form_extends_past_the_stored_terms(p, k_max, s, digits):
    # the closed form read for the record supplies r_k past k_max and
    # proves the tail, so the record evaluates as the derived spec does
    spec = derive_identity(p, k_max)
    report = eval_identity(_without_closed_form(spec), s, digits)
    assert report == eval_identity(spec, s, digits)
    assert report.terms_used > k_max
    with mp.workdps(digits + 30):
        err = abs(report.value - mp.zeta(_mp_point(s)))
    assert err <= report.error_estimate <= mp.mpf(10) ** -digits


def test_digits_floor_eval(specs64):
    with pytest.raises(ValueError):
        eval_identity(specs64[2], 3, 14)


@pytest.mark.parametrize(
    "good, bad, s, error, match",
    [
        (12, 3, -5, ValueError, "validity"),
        (5, 1, F(1, 4), ValueError, "deeper"),
        (5, 2, 1 + F(1, 10**25), PoleError, "pole guard"),
    ],
)
def test_batch_raises_what_its_bad_spec_raises(specs64, good, bad, s, error, match):
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
        v2 = zeta_prime_at_zero(specs64[2], 40).value
        v3 = zeta_prime_at_zero(specs64[3], 40).value
        assert abs(v2 - target) < mp.mpf(10) ** -38
        assert abs(v3 - target) < mp.mpf(10) ** -38
        assert abs(v2 - v3) < mp.mpf(10) ** -38


def test_zeta_prime_needs_validity_at_zero(specs64):
    with pytest.raises(ValueError):
        zeta_prime_at_zero(specs64[1], 40)


# 300 digits: N moves the most there, from 10 + digits = 310 to 512.
# p >= 32: r_k / (k (k+1)) grows like k^(p-3), and the exact W_m'(0)
# sums H_j (j-1)! m^-j for j = 1..k0 - 1
@pytest.mark.parametrize("digits", [15, 40, 100, 300])
@pytest.mark.parametrize("p", [2, 3, 5, 12, 32, 64, 128])
def test_zeta_prime_at_zero_meets_the_contract(specs64, p, digits):
    spec = specs64[p] if p in specs64 else derive_identity(p, p + 2)
    report = zeta_prime_at_zero(spec, digits)
    assert report.p_used == p
    assert report.terms_used >= spec.k0
    # the reference resolves the estimate as well as the target: where the
    # series stops at k0 itself (p >= 32 at 15 digits, p >= 64 at 40), the
    # estimate is a few ulps of a scale _GUARD_BITS below 10^-(digits+5)
    below = int(-mp.log10(report.error_estimate))
    with mp.workdps(20 + max(digits, below)):
        err = abs(report.value + mp.log(2 * mp.pi) / 2)
    assert err <= report.error_estimate <= 10.0**-digits


# the outer series falls like N^-k from k0 on: N = 64 at 40 digits and 512
# at 300, where the split m = 1 of the paper took 145/303/1054 terms at 40
# digits and 1006/1225/2041 at 300
@pytest.mark.parametrize("digits, extra", [(40, 40), (300, 150)])
@pytest.mark.parametrize("p", [2, 32, 128])
def test_zeta_prime_at_zero_work_is_pinned(specs64, p, digits, extra):
    spec = specs64[p] if p in specs64 else derive_identity(p, p + 2)
    assert zeta_prime_at_zero(spec, digits).terms_used <= spec.k0 + extra


# ---- no shared precision ----


def _raw(x):
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


def test_evaluator_never_sets_mpmath_precision(specs64, monkeypatch):
    calls = [
        lambda: [_raw(r.value) for r in eval_identities([specs64[3], specs64[5]], F(-9, 4), 40)],
        lambda: _raw(eval_identity(specs64[2], (F(1, 2), F(14134725, 10**6)), 30).value),
        lambda: _raw(zeta_prime_at_zero(specs64[2], 40).value),
        lambda: _raw(sum_zeta_m1(25).value),
    ]
    expected = [call() for call in calls]

    def refuse(ctx, value):
        raise AssertionError("the evaluator set mpmath's shared precision")

    context = ctx_mp_python.PythonMPContext
    monkeypatch.setattr(context, "prec", property(lambda ctx: ctx._prec, refuse))
    monkeypatch.setattr(context, "dps", property(lambda ctx: ctx._dps, refuse))
    assert [call() for call in calls] == expected


def test_threads_get_the_serial_bits(specs64, monkeypatch):
    spec = specs64[5]
    points = [F(-13, 4), F(-3, 2), F(-1, 4), F(5, 2), (F(1, 2), F(3)), (F(-2), F(5, 2))]
    tasks = [(s, digits) for s in points for digits in (15, 40, 120, 300)]

    def run(task):
        report = eval_identity(spec, *task)
        return _raw(report.value), report.error_estimate, report.terms_used

    serial = [run(task) for task in tasks]
    # a fresh Bernoulli table: the threads grow its common-denominator
    # snapshots at 40 and 300 digits while others read them
    monkeypatch.setattr(exactmath, "_BERNOULLI", exactmath.BernoulliCache())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(run, tasks * 8, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 8


_HISTORY_SCRIPT = """
import sys
from fractions import Fraction as F
from zetaident import derive_identity
from zetaident.evalzeta import _InnerSums, _exact_point, _split_point, eval_identity

spec = derive_identity(6, 64)
if sys.argv[1] == "warm":
    # mpmath caches ln 2, pi and log n at the highest precision asked for
    # and serves lower ones by shifting: fill them at about 3400 bits
    eval_identity(spec, (F(1, 2), F(7)), 1000)
    eval_identity(spec, (F(-5, 2), F(3)), 300)
points = [F(-13, 4), F(5, 2), (F(1, 2), F(3)), (F(-2), F(5, 2))]
results = []
# the powers n^-z before any shift, at rising working precisions: the cold
# interpreter's caches serve each from just above it, the warm one's from
# about 3400 bits
for s in points:
    z = _exact_point(s)
    for bits in range(150, 250):
        inner = _InnerSums(z, _split_point(40, *z[1:]), bits, 0)
        inner.head()
        results.append(inner.powers)
for s in points:
    for digits in (15, 40, 100):
        report = eval_identity(spec, s, digits)
        value = report.value
        raw = value._mpc_ if hasattr(value, "_mpc_") else value._mpf_
        results.append((raw, report.error_estimate))
print(repr(results))
"""


def test_bits_do_not_depend_on_call_history():
    # two fresh interpreters evaluate the same points; one of them first
    # runs 1000- and 300-digit evaluations, so mpmath's fixed-point caches
    # serve the second from higher precisions than the first
    env = dict(os.environ)
    src = str(Path(evalzeta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HISTORY_SCRIPT, mode],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=600,
        ).stdout
        for mode in ("cold", "warm")
    ]
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_sum_zeta_m1_totals_one():
    # at N = 32, 64, 128 and 512: the exact (N-2)/(N-1) plus the series
    # sum_{k>=2} zeta(k, N), which stops where its tail majorant does
    for digits, terms in ((15, 14), (40, 26), (100, 51), (300, 113)):
        report = sum_zeta_m1(digits)
        assert report.p_used == 0 and report.terms_used == terms, digits
        with mp.workdps(digits + 20):
            err = abs(report.value - 1)
            assert err <= report.error_estimate <= mp.mpf(10) ** -digits, digits
