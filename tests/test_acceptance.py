"""End-to-end acceptance checks, one per deliverable guarantee.

Each test prints a single PASS/FAIL line (run with -v -s to see them all)
and pins its tolerance and time budget in that line. The checks exercise
the public API the way a user would: fresh derivations, the reference
tables, the high-precision evaluator, and the direct-summation oracle.
"""

import time
from fractions import Fraction

from mpmath import mp

from zetaident.cli import ORACLE_GRID
from zetaident.derive import (
    closed_form_part,
    derive_identity,
    identities_equal,
    identity_from_json,
    identity_to_json,
    periodic_remainder,
)
from zetaident.evalzeta import (
    _format_bound,
    eval_identities,
    eval_identity,
    sum_zeta_m1,
    supports,
    zeta_em_reference,
    zeta_prime_at_zero,
)
from zetaident.exactmath import faulhaber
from zetaident.reference import reference_identity


def F(n, d=1):
    return Fraction(n, d)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_derivation_matches_reference_tables():
    t0 = time.perf_counter()
    bad = []
    for p in range(1, 13):
        derived = derive_identity(p, 64)
        ref = reference_identity(p, 64)
        if derived != ref or not identities_equal(derived, ref, 64):
            bad.append(p)
    elapsed = time.perf_counter() - t0
    detail = (
        f"p = 1..12 reproduce the printed tables exactly ({elapsed:.2f}s, budget 5s)"
        if not bad
        else f"mismatch at p = {bad}"
    )
    _report("derivation", not bad and elapsed < 5.0, detail)


def test_odd_even_depth_pairing():
    t0 = time.perf_counter()
    bad = []
    for j in range(2, 7):
        odd = derive_identity(2 * j - 1, 64)
        even = derive_identity(2 * j, 64)
        if not identities_equal(odd, even, 64):
            bad.append((2 * j - 1, 2 * j))
    elapsed = time.perf_counter() - t0
    detail = (
        f"depths (3,4)..(11,12) give identical identities ({elapsed:.2f}s, budget 5s)"
        if not bad
        else f"pairs {bad} differ"
    )
    _report("pairing", not bad and elapsed < 5.0, detail)


def test_zeta_at_zero_all_depths():
    tol = mp.mpf(10) ** -35
    worst = mp.mpf(0)
    with mp.workdps(60):
        for p in range(2, 13):
            spec = derive_identity(p, 64)
            diff = abs(eval_identity(spec, 0, 40).value + mp.mpf(1) / 2)
            worst = max(worst, diff)
    _report(
        "zeta(0)",
        worst < tol,
        f"= -1/2 for every p = 2..12 (worst |diff| {mp.nstr(worst, 3)}, "
        f"tolerance 1e-35)",
    )


def test_trivial_zeros_vanish():
    worst = 0.0
    count = 0
    specs = [derive_identity(p, 64) for p in range(2, 13)]
    s = -2
    # one batch per zero: the depths whose half-plane holds it
    while batch := [spec for spec in specs if supports(spec, s)]:
        for report in eval_identities(batch, s, 40):
            count += 1
            worst = max(worst, float(abs(report.value)))
        s -= 2
    _report(
        "trivial zeros",
        count >= 20 and worst < 1e-35,
        f"{count} values |zeta(-2m)| vanish (worst {worst:.3e}, tolerance 1e-35)",
    )


def test_zeta_prime_at_zero_two_routes():
    tol = mp.mpf(10) ** -35
    with mp.workdps(60):
        target = -mp.log(2 * mp.pi) / 2
        d2 = abs(zeta_prime_at_zero(derive_identity(2, 64), 40).value - target)
        d3 = abs(zeta_prime_at_zero(derive_identity(3, 64), 40).value - target)
    _report(
        "zeta'(0)",
        d2 < tol and d3 < tol,
        f"p=2 and p=3 both give -log(2*pi)/2 (diffs {mp.nstr(d2, 3)} and "
        f"{mp.nstr(d3, 3)}, tolerance 1e-35)",
    )


def test_depth_five_series_literal_at_two():
    # Independent transcription of the depth-5 identity at s = 2, where
    # (s)_k/(k+1)! collapses to 1:
    #   zeta(2) = 49/30 + (1/720) sum_{k>=6} (k-2)(k-4)(k-5)(k+9) (zeta(k+2)-1)
    # summed term by term against mpmath's zeta, bypassing eval_identity
    # entirely.
    tol = mp.mpf(10) ** -35
    with mp.workdps(60):
        total = mp.mpf(49) / 30
        for k in range(6, 161):
            coef = F((k - 2) * (k - 4) * (k - 5) * (k + 9), 720)
            total += mp.mpf(coef.numerator) / coef.denominator * (mp.zeta(k + 2) - 1)
        diff = abs(total - mp.pi**2 / 6)
    _report(
        "series at s=2",
        diff < tol,
        f"literal depth-5 sum hits pi^2/6 (|diff| {mp.nstr(diff, 3)}, "
        f"tolerance 1e-35)",
    )


def test_sum_of_zeta_minus_one():
    t0 = time.perf_counter()
    report = sum_zeta_m1(30)
    with mp.workdps(45):
        diff = abs(report.value - 1)
    elapsed = time.perf_counter() - t0
    _report(
        "sum identity",
        diff <= report.error_estimate < 1e-30 and elapsed < 1.0,
        f"sum over k >= 2 of (zeta(k)-1) = 1 (|diff| {mp.nstr(diff, 3)}, "
        f"error estimate {_format_bound(report.error_estimate)}, tolerance 1e-30, "
        f"{elapsed:.2f}s, budget 1s)",
    )


def test_identity_values_match_direct_summation():
    t0 = time.perf_counter()
    tol = mp.mpf(10) ** -35
    specs = {p: derive_identity(p, 64) for p in range(1, 13)}
    worst = mp.mpf(0)
    count = 0
    with mp.workdps(60):
        for point in ORACLE_GRID:
            s = (Fraction(point.real), Fraction(point.imag))
            arg = s[0] if s[1] == 0 else s
            reference = zeta_em_reference(arg, 40)
            for spec in specs.values():
                if not supports(spec, arg):
                    continue
                diff = abs(eval_identity(spec, arg, 40).value - reference)
                count += 1
                worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _report(
        "oracle grid",
        worst < tol and count >= 150 and elapsed < 60.0,
        f"{count} (s, p) evaluations match direct summation (worst "
        f"{mp.nstr(worst, 3)}, tolerance 1e-35, {elapsed:.1f}s, budget 60s)",
    )


def test_structural_properties():
    failures = []

    # power-sum polynomials against brute force
    for m in range(1, 13):
        poly = faulhaber(m)
        running = F(0)
        for n in range(1, 201):
            running += F(n) ** m
            if poly(F(n)) != running:
                failures.append(f"power sums m={m} n={n}")
                break

    # the periodic remainder vanishes at both endpoints of its period
    for p in range(2, 13):
        g = periodic_remainder(p)
        if g(F(0)) != 0 or g(F(1)) != 0:
            failures.append(f"remainder endpoints p={p}")

    specs = {p: derive_identity(p, 64) for p in range(1, 13)}

    # odd depths start one index late because the leading term cancels
    for p in range(3, 12, 2):
        if specs[p].k0 != p + 1 or specs[p].series_coefficient(p) != 0:
            failures.append(f"k0 shift p={p}")

    # simple pole at s = 1 with residue 1, at every depth
    for p in specs:
        if closed_form_part(p)[0] != 1:
            failures.append(f"pole residue p={p}")

    # serialization round trip is lossless
    for p, spec in specs.items():
        if identity_from_json(identity_to_json(spec)) != spec:
            failures.append(f"round trip p={p}")

    # reported error estimates bound the observed error
    sample = [
        (2, F(3, 2)),
        (5, F(-1, 2)),
        (8, F(-9, 2)),
        (11, (F(-2), F(3))),
        (12, F(-21, 2)),
    ]
    with mp.workdps(80):
        for p, s in sample:
            r40 = eval_identity(specs[p], s, 40)
            r60 = eval_identity(specs[p], s, 60)
            if not abs(r40.value - r60.value) <= mp.mpf(r40.error_estimate):
                failures.append(f"error estimate p={p} s={s}")

    _report(
        "structure",
        not failures,
        "power sums, remainder endpoints, odd-depth k0 shift, pole residue, "
        "serialization round trip, error-estimate soundness"
        if not failures
        else ", ".join(failures[:6]),
    )
