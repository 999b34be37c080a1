"""Arbitrary-precision evaluation of the derived identities.

The identity evaluator works in fixed point on Python integers. One call
chooses a scale 2^P; a real number x is held as an integer within a few
units of x * 2^P (a unit 2^-P is an "ulp" below) and a complex number as a
pair of them. Sums are exact integer additions, products are integer
products shifted right by P, and every rounding is a floor. The error of
each operation is tallied in ulps as an integer, rounded up, so no float
enters any bound. mpmath is used once per call for the irrational inputs:
n^-s for each n of the inner-sum table and 2^(-Re s). Everything rational
(s itself, (s)_k0 / (k0+1)!, the head pole/(s-1) + Q(s), r_k and the
Euler-Maclaurin coefficients B_2j/(2j)!) is converted from exact values
with one floor. Values are returned as mpmath numbers, converted exactly.

P is the bit length of 10^(digits+5), plus log2 of the largest outer
coefficient |r_k (s)_k / (k+1)!| the call will meet, plus _GUARD_BITS. The
peak comes from a float pre-scan that mirrors the outer stopping rule, so
the large coefficients of points with large |Im s| (which grow like
|Im s|^k / k! before they decay) get the bits their cancellation costs. The
scan only sets how tight the bound is; every bound is a tally of the ulps
actually lost, whatever P is.

The independent cross-check `zeta_em_reference` computes zeta directly by
Euler-Maclaurin summation in mpmath floats and shares nothing with
`eval_identity` except the Bernoulli table, so agreement between the two is
meaningful.

`eval_identities` evaluates several depths at one point in one pass over
k: every depth's identity has the same inner sums zeta(s + k) - 1 and the
same factor (s)_k/(k+1)!, and only r_k differs. `eval_identity` is the
batch of one.

Each call computes its inner sums zeta(s + k) - 1 from one table of
n^-(s+k), n = 2..N with N = 10 + digits: every power is computed once and
stepped from k to k + 1 by a floor division by n. Each k gets the budget
10^-(digits+5) / (16 |coefficient_k|), the smallest such budget over the
depths of a batch, and the cheaper route that meets it:
a direct sum alone when some cutoff M <= N has a small enough tail bound,
else the direct sum to N plus as many Euler-Maclaurin terms as the
remainder bound asks for. The oracle keeps its own fixed schedule, N direct
terms and ceil(digits/4) + 5 correction terms. Truncation of each depth's
outer series stops at the first k >= k0 + 8 whose bound
|r_k| * |(s)_k| / (k+1)! * 2^(1 - Re s - k) * 4 drops below 10^-(digits+5)
and where the later terms are proven to fall fast enough for that bound to
hold (_tail_bounded). That proof fails while |s + k| / (k + 2) is large, so
at large |s| the series runs on past the terms that grow before they fall.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import ceil, comb, factorial, floor, hypot, inf, isqrt, lcm, log2, nextafter
from typing import Optional, Sequence, Union

from mpmath import mp

from .derive import IdentitySpec
from .exactmath import bernoulli

_GUARD = 10
# Bits of the fixed-point scale beyond 10^-(digits+5) and the peak outer
# coefficient; the ulp tally of a few hundred terms stays far below them.
_GUARD_BITS = 24
# Each inner sum gets the budget threshold / (|coefficient| * _INNER_SAFETY).
_INNER_SAFETY = 16
# Each outer series runs to at least k0 + _MIN_TERMS.
_MIN_TERMS = 8
# An outer tail is within its bound once sum_i |b_i| S_i(q) <= _TAIL_RATIO
# |r_k|: see _tail_bounded.
_TAIL_RATIO = 6
# Every n^-(z+k) table entry is within this many ulps (in modulus) of its
# value, at any shift: see _InnerSums.
_ENTRY_ULPS = 3

Number = Union[int, float, complex, Fraction, str]


class PoleError(ValueError):
    """Evaluation point is at (or numerically indistinguishable from) s = 1."""


class CapacityError(ValueError):
    """The identity does not store (or extrapolate to) enough series terms
    for the requested precision."""


@dataclass
class EvalReport:
    """Result of one identity evaluation.

    value is an mpmath mpc, the fixed-point result converted exactly.
    error_estimate bounds |value - zeta(s)|, rounded up to a float. It is
    the sum of, in ulps of the call's scale 2^-P: the outer truncation
    bound; the inner truncation bounds, each times its |coefficient|; and
    the rounding tally, which covers the head, every floor of the (s)_k
    recurrence and of each coefficient as it propagates into its term, the
    rounding of each inner sum times its |coefficient|, and the floor of
    each term product.
    inner_sum_cutoffs records the inner schedule the call used:
    direct_terms, the largest n in its n^-(s+k) table (at most
    N = 10 + digits; 0 if no inner sum was needed); correction_order, the
    largest Euler-Maclaurin order any k needed; last_em_k, the last k that
    needed Euler-Maclaurin terms (None if direct sums sufficed). The
    reports of one eval_identities batch share one schedule, so they all
    carry the same cutoffs, those of the whole pass.
    """

    value: object
    p_used: int
    terms_used: int
    error_estimate: float
    inner_sum_cutoffs: dict


def _check_digits(digits: int) -> None:
    if not isinstance(digits, int) or digits < 15:
        raise ValueError("digits must be an integer >= 15")


def _direct_terms(digits: int) -> int:
    return 10 + digits


def _em_order(digits: int) -> int:
    """Fixed Euler-Maclaurin order of the oracle `zeta_em_reference`; the
    identity evaluator sizes its order per inner sum instead."""
    return (digits + 3) // 4 + 5


def _fraction_to_mp(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _to_mp(x):
    """Convert to mpf/mpc at the current working precision.

    Accepts ints, floats, complex, Fractions, mpf/mpc, and (re, im) pairs
    of exact rationals (how the CLI passes decimal complex literals without
    a float round trip).
    """
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, complex):
        return mp.mpc(x)
    if isinstance(x, tuple) and len(x) == 2:
        return mp.mpc(_to_mp(x[0]), _to_mp(x[1]))
    return mp.mpmathify(x)


_DECIMAL = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"


def parse_complex_literal(text: str) -> tuple[Fraction, Fraction]:
    """Parse "a", "a+bi", or "a-bi" with decimal a, b into exact parts."""
    text = text.strip()
    m = _re.fullmatch(
        rf"({_DECIMAL})(?:([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?",
        text,
    )
    if not m:
        raise ValueError(
            f'cannot parse complex literal {text!r}; use "a", "a+bi", or "a-bi"'
        )
    re_part = Fraction(m.group(1))
    im_part = Fraction(m.group(2)) if m.group(2) else Fraction(0)
    return re_part, im_part


def _exact_real(x) -> Fraction:
    if isinstance(x, (int, float, Fraction, str)):
        return Fraction(x)
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    sign, man, exp, _ = x._mpf_
    value = Fraction(-man if sign else man)
    return value * 2**exp if exp >= 0 else value / 2**-exp


def _exact_point(s) -> tuple[Fraction, Fraction]:
    """s as an exact (re, im) pair of rationals. Ints, floats, complex and
    mpmath numbers are binary fractions, and a string is read as a decimal
    literal "a", "a+bi" or "a-bi", so nothing rounds."""
    if isinstance(s, tuple) and len(s) == 2:
        return _exact_real(s[0]), _exact_real(s[1])
    if isinstance(s, str):
        return parse_complex_literal(s)
    if isinstance(s, complex):
        return Fraction(s.real), Fraction(s.imag)
    if isinstance(s, mp.mpc):
        return _exact_real(s.real), _exact_real(s.imag)
    return _exact_real(s), Fraction(0)


def pochhammer(s, k: int):
    """Rising factorial s(s+1)...(s+k-1); empty product 1 for k = 0.

    Exact for int/Fraction input, working-precision floats otherwise.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    result = 1
    for i in range(k):
        result = result * (s + i)
    return result


# ---- fixed point: integers in units of 2^-bits ----


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _modulus_up(re: int, im: int) -> int:
    """An integer >= |re + i im|."""
    return isqrt(re * re + im * im) + 1


def _fixed(q: Fraction, bits: int) -> int:
    """floor(q * 2^bits): within 1 ulp."""
    return (q.numerator << bits) // q.denominator


def _mp_fixed(x, bits: int) -> int:
    """floor(x * 2^bits) of an mpf, exactly."""
    sign, man, exp, _ = x._mpf_
    if sign:
        man = -man
    exp += bits
    return man << exp if exp >= 0 else man >> -exp


def _mp_value(re: int, im: Optional[int], bits: int):
    """(re + i im) * 2^-bits as an mpc, or re * 2^-bits as an mpf when im is
    None, exactly."""
    with mp.workprec(max(re.bit_length(), (im or 0).bit_length(), 53)):
        if im is None:
            return mp.mpf((re, -bits))
        return mp.mpc(mp.mpf((re, -bits)), mp.mpf((im, -bits)))


def _float_up(ulps: int, bits: int) -> float:
    """The least float >= ulps * 2^-bits."""
    exact = Fraction(ulps, 1 << bits)
    x = float(exact)
    return x if x >= exact else nextafter(x, inf)


def _pow2_up(e: Fraction) -> int:
    """An integer in [2^e, 2^e + 2], for e >= 0."""
    whole = floor(e)
    frac = e - whole
    if not frac:
        return 1 << whole
    # relative error about 2^-(whole + 18): far below one unit
    with mp.workprec(whole + 20):
        x = mp.ldexp(mp.power(2, mp.mpf(frac.numerator) / frac.denominator), whole)
        return int(mp.ceil(x)) + 1


def _threshold_bits(digits: int) -> int:
    """Bits below the point that resolve 10^-(digits+5)."""
    return (10 ** (digits + 5)).bit_length()


def _scale_bits(digits: int, peak_log2: float) -> int:
    """P for a call whose largest outer coefficient is about 2^peak_log2."""
    return _threshold_bits(digits) + (int(peak_log2) + 1 if peak_log2 > 0 else 0) + _GUARD_BITS


def _log2_fraction(q: Fraction) -> float:
    return log2(abs(q.numerator)) - log2(q.denominator) if q else -inf


def _integer_point(re: Fraction, im: Fraction) -> tuple[int, int, int]:
    """(zr, zi, den) with re + i im = (zr + i zi) / den."""
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


class _InnerSums:
    """zeta(z + k) - 1 in fixed point at scale 2^-bits, for one exact z and
    shifts k taken in nondecreasing order, each with a truncation bound and
    a rounding bound in ulps.

    z = (zr + i zi) / den with integers zr, zi, den, so every z + k, and
    every factor the Euler-Maclaurin terms need, is exact.

    The powers n^-(z+k), n = 2..N with N = _direct_terms(digits), live in
    one table for the whole call. An entry is computed when first needed
    as floor(X / n^k) with X = floor(n^-z * 2^bits), and stepped to each
    later shift by a floor division by n; nested floor divisions by
    integers are one, so an entry at shift k is always floor(X / n^k).
    mpmath computes p^-z for each prime p at `prec` bits, with an error
    (rounding z included) assumed under 4 + |z| log p units of that
    precision, and n^-z = a^-z * b^-z for composite n = a b, each product
    adding at most 2 units. So n^-z is within (6 + |z|) log2 N units, which
    prec makes under 2^-16 ulps once divided by n^k. (A product costs about
    a fifth of an mp.power; on the `points` benchmark the products cut the
    median time per evaluation by about 15 %.) Each component of an
    entry is thus within 2 + 2^-16 ulps, and the entry within
    _ENTRY_ULPS = 3 in modulus.

    Each shift is summed by the cheaper of two routes that meets its
    budget:

    - direct only: sum_{2 <= n < M} n^-w for the first M <= N whose tail
      bound M^-sigma + M^(1-sigma)/(sigma-1) is under budget;
    - the direct sum to N plus N^(1-w)/(w-1) + N^-w/2 plus Euler-Maclaurin
      terms B_2j/(2j)! (w)_(2j-1) N^-(w+2j-1), added until the remainder
      bound (first omitted term * |w+2m+1|/(sigma+2m+1)) is under budget.

    The rounding bound adds _ENTRY_ULPS per summed entry and, for each
    further product or quotient, the entry error it propagates plus 2 ulps
    for its floors. When neither route meets the budget the returned bound
    is the one reached, not the budget.
    """

    def __init__(self, z: tuple[Fraction, Fraction], digits: int, bits: int):
        re, im = z
        self.zr, self.zi, self.den = _integer_point(re, im)
        self.bits = bits
        self.n_max = _direct_terms(digits)
        # (6 + |z|) log2 N bounds the relative error of any n^-z in units
        # of 2^-prec: see the class docstring
        spread = (abs(self.zr) + abs(self.zi)) // self.den + 1
        self.prec = bits + 16 + ((6 + spread) * self.n_max.bit_length()).bit_length()
        with mp.workprec(self.prec):
            self.z_mp = mp.mpc(_fraction_to_mp(re), _fraction_to_mp(im)) if im else _fraction_to_mp(re)
        # index n: n^-z from mpmath
        self.powers = [None, None]
        # index n: n^-(z + shift[n]) as an (re, im) pair of ulps
        self.re = [0, 0]
        self.im = [0, 0]
        self.shift = [0, 0]
        # B_2j/(2j)! at index j as (numerator, denominator)
        self.em_coefs = [None]
        self.max_order = 0
        self.last_em_k = None

    def cutoffs(self) -> dict:
        """The schedule used: the largest n tabulated (0 when no inner sum
        was needed), the largest Euler-Maclaurin order, and the last k that
        needed one (None when direct sums sufficed throughout)."""
        top = len(self.re) - 1
        return {
            "direct_terms": top if top >= 2 else 0,
            "correction_order": self.max_order,
            "last_em_k": self.last_em_k,
        }

    def _table(self, k: int, top: int) -> tuple[list, list]:
        """The table through n = top, every entry at shift k."""
        re, im, shift = self.re, self.im, self.shift
        for n in range(2, min(top + 1, len(re))):
            steps = k - shift[n]
            if steps:
                q = n if steps == 1 else n**steps
                re[n] //= q
                im[n] //= q
                shift[n] = k
        while len(re) <= top:
            n = len(re)
            p = 2  # the least prime factor of n, if n is composite
            while p * p <= n and n % p:
                p += 1
            with mp.workprec(self.prec):
                if p * p > n:
                    x = mp.power(n, -self.z_mp)
                else:
                    x = self.powers[p] * self.powers[n // p]
            self.powers.append(x)
            scale = n**k
            re.append(_mp_fixed(mp.re(x), self.bits) // scale)
            im.append(_mp_fixed(mp.im(x), self.bits) // scale)
            shift.append(k)
        return re, im

    def _direct_cutoff(self, sigma: float, log2_budget: int):
        """First M in 2..N with M^-sigma + M^(1-sigma)/(sigma-1) under
        2^log2_budget, or None. The bound falls as M grows."""

        def log2_tail(m: int) -> float:
            return -sigma * log2(m) + log2(1 + m / (sigma - 1))

        lo, hi = 2, self.n_max
        if log2_tail(hi) > log2_budget:
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if log2_tail(mid) <= log2_budget:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _em_coef(self, j: int) -> tuple[int, int]:
        coefs = self.em_coefs
        while len(coefs) <= j:
            i = len(coefs)
            q = bernoulli(2 * i) / factorial(2 * i)
            coefs.append((q.numerator, q.denominator))
        return coefs[j]

    def __call__(self, k: int, budget: int):
        """((re, im) of zeta(z+k) - 1, truncation bound, rounding bound),
        all in ulps, aiming for a truncation bound <= budget."""
        den = self.den
        wr, wi = self.zr + k * den, self.zi  # w = z + k = (wr + i wi) / den
        # sigma = Re w = wr / den; bit_length - bits - 2 is the log2 of a
        # power of two below the budget
        cutoff = self._direct_cutoff(wr / den, budget.bit_length() - self.bits - 2)
        top = self.n_max if cutoff is None else cutoff
        re, im = self._table(k, top)
        vr, vi = sum(re[2:top]), sum(im[2:top])
        rounding = (top - 2) * _ENTRY_ULPS
        if cutoff is not None:
            # top^-sigma (1 + top/(sigma - 1))
            last = _modulus_up(re[top], im[top]) + _ENTRY_ULPS
            err = last + _ceil_div(last * top * den, wr - den)
            return (vr, vi), err, rounding
        n = top
        xr, xi = re[n], im[n]  # n^-w
        # n * n^-w / (w - 1) = x * n * den * conj(c) / |c|^2, c = (w - 1) den
        cr, ci = wr - den, wi
        q = cr * cr + ci * ci
        m = n * den
        vr += m * (xr * cr + xi * ci) // q
        vi += m * (xi * cr - xr * ci) // q
        rounding += _ceil_div(_ENTRY_ULPS * m, isqrt(q)) + 2
        vr += xr >> 1
        vi += xi >> 1
        rounding += (_ENTRY_ULPS + 1) // 2 + 2
        # t = (w)_(2j-1) n^-(w+2j-1), from w n^-w / n, and its error
        dn = den * n
        tr, ti = (xr * wr - xi * wi) // dn, (xr * wi + xi * wr) // dn
        t_err = _ceil_div(_ENTRY_ULPS * _modulus_up(wr, wi), dn) + 2
        dn2 = dn * dn
        prev = None
        j = 1
        while True:
            bn, bd = self._em_coef(j)
            term_r, term_i = tr * bn // bd, ti * bn // bd
            term_err = _ceil_div(t_err * abs(bn), bd) + 2
            # |term| * |w + 2j - 1| / (sigma + 2j - 1)
            gr = wr + (2 * j - 1) * den
            size = _modulus_up(term_r, term_i) + term_err
            err = _ceil_div(size * _modulus_up(gr, wi), gr)
            # stop once under budget, or once the asymptotic terms grow
            if err <= budget or (prev is not None and err >= prev):
                break
            vr += term_r
            vi += term_i
            rounding += term_err
            prev = err
            # t *= (w + 2j - 1)(w + 2j) / n^2
            hr = gr + den
            fr, fi = gr * hr - wi * wi, (gr + hr) * wi
            tr, ti = (tr * fr - ti * fi) // dn2, (tr * fi + ti * fr) // dn2
            t_err = _ceil_div(t_err * _modulus_up(fr, fi), dn2) + 2
            j += 1
        order = j - 1
        self.max_order = max(self.max_order, order)
        self.last_em_k = k
        return (vr, vi), err, rounding


def zeta_m1(sigma, digits: int = 40):
    """zeta(sigma) - 1, keeping full relative accuracy when the value is
    tiny (large Re sigma). Requires Re sigma >= 1.5. Returns an mpf for
    real sigma, else an mpc."""
    _check_digits(digits)
    re, im = _exact_point(sigma)
    if not re >= Fraction(3, 2):
        raise ValueError(
            "zeta_m1 requires Re(sigma) >= 1.5; identity evaluation keeps "
            "inner arguments in this range"
        )
    # the scale resolves 10^-(digits+5) relative to 2^-Re z, the size of
    # zeta(z) - 1 for large Re z, and so does the budget
    bits = _threshold_bits(digits) + floor(re) + 1 + _GUARD_BITS
    budget = _pow2_up(bits - re) // 10 ** (digits + 5)
    (vr, vi), _, _ = _InnerSums((re, im), digits, bits)(0, budget)
    return _mp_value(vr, vi if im else None, bits)


def zeta_em_reference(s, digits: int = 40):
    """Independent zeta oracle: direct Euler-Maclaurin continuation.

    Shares only the Bernoulli table with the identity evaluator. For
    Re s < 1 the direct sum grows like N^(1-Re s) while zeta(s) = O(1), so
    the lost leading digits are compensated with extra working precision.
    """
    _check_digits(digits)
    n_direct = _direct_terms(digits)
    order = _em_order(digits)
    with mp.workdps(digits + _GUARD):
        probe = _to_mp(s)
        if probe == 1:
            raise PoleError("zeta has a pole at s = 1")
        re_s = mp.re(probe)
        extra = 0
        if re_s < 1:
            extra = int(mp.ceil((1 - re_s) * mp.log10(n_direct))) + 2
    with mp.workdps(digits + _GUARD + extra):
        z = _to_mp(s)
        total = mp.mpf(0)
        for n in range(1, n_direct):
            total += mp.power(n, -z)
        nf = mp.mpf(n_direct)
        total += mp.power(nf, 1 - z) / (z - 1)
        total += mp.power(nf, -z) / 2
        poch = z
        npow = mp.power(nf, -z - 1)
        inv_n2 = 1 / (nf * nf)
        fact = 2
        for j in range(1, order + 1):
            b = bernoulli(2 * j)
            total += _fraction_to_mp(b) / fact * poch * npow
            poch = poch * (z + 2 * j - 1) * (z + 2 * j)
            npow = npow * inv_n2
            fact = fact * (2 * j + 1) * (2 * j + 2)
    return total


def supports(spec: IdentitySpec, s: Number) -> bool:
    """Whether eval_identity accepts s for this identity: inside the
    validity half-plane and with inner arguments Re(s) + k0 >= 1.5."""
    re_s = _exact_point(s)[0]
    return re_s > spec.effective_validity and re_s + spec.k0 >= Fraction(3, 2)


def _check_point(spec: IdentitySpec, re: Fraction, im: Fraction, digits: int) -> None:
    """Raise what eval_identity raises when spec cannot be evaluated at
    s = re + i im."""
    bound = spec.effective_validity
    if not re > bound:
        raise ValueError(
            f"s with Re s = {mp.nstr(_fraction_to_mp(re), 8)} is outside the validity "
            f"half-plane Re s > {bound} of the depth-{spec.p} identity"
        )
    if (re - 1) ** 2 + im**2 <= Fraction(1, 10**digits):
        raise PoleError(
            f"s is within the pole guard radius 10^-({digits}/2) of s = 1"
        )
    if not re + spec.k0 >= Fraction(3, 2):
        raise ValueError(
            f"inner series argument Re(s) + k0 = Re(s) + {spec.k0} falls "
            f"below 1.5; use a deeper identity (larger p)"
        )


def _capacity_error(spec: IdentitySpec, k: int, digits: int) -> CapacityError:
    return CapacityError(
        f"depth-{spec.p} identity stores coefficients through "
        f"k={spec.k_max} and has no closed form; k={k} is needed "
        f"at digits={digits}"
    )


def _head(spec: IdentitySpec, re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    """pole/(s - 1) + Q(s), exactly."""
    hr = hi = Fraction(0)
    for c in reversed(spec.q_poly.coefficients):
        hr, hi = hr * re - hi * im + c, hr * im + hi * re
    ar = re - 1
    scale = spec.pole_coefficient / (ar * ar + im * im)
    return hr + ar * scale, hi - im * scale


def _log2_abs(re: float, im: float) -> float:
    h = hypot(re, im)
    return log2(h) if h else -inf


class _Depth:
    """One identity's share of a batch: its coefficients r_k (memoized, so
    the peak scan and the outer loop share them), its running outer sum (an
    (re, im) pair of ulps) and error tallies, and, once its tail bound is
    met, where it stopped."""

    def __init__(self, spec: IdentitySpec):
        self.spec = spec
        self.coefficients = {}
        self.total_re = self.total_im = 0
        self.inner_err = 0  # sum of size * inner truncation, ulps^2
        self.rounding = 0  # sum of propagated errors, ulps^2
        self.products = 0  # term products, each floored
        # r_k (s)_k / (k+1)! at the current k, its error, and a bound on
        # its absolute value, all in ulps
        self.coef_re = self.coef_im = self.coef_err = self.size = 0
        self.terms_used = self.tail_bound = None

    def r(self, k: int) -> Optional[Fraction]:
        if k not in self.coefficients:
            self.coefficients[k] = self.spec.series_coefficient(k)
        return self.coefficients[k]


def _tail_bounded(spec: IdentitySpec, point: tuple[int, int, int], k: int) -> bool:
    """Whether the outer tail past k >= k0 + _MIN_TERMS,
    sum_{j>k} |r_j (s)_j / (j+1)!| (zeta(Re s + j) - 1), is at most the tail
    bound |r_k (s)_k / (k+1)!| * 4 * 2^(1 - Re s - k), for
    s = (zr + i zi) / den given as point = (zr, zi, den).

    The bound assumes the terms fall by half per k; this proves that they
    fall fast enough. For j >= k, |s + j| / (j + 2) is at most
    rho = max(1, |s + k| / (k + 2)), because its square is convex in
    1/(j + 2) and so peaks at an end of the range; and
    zeta(x + 1) - 1 <= (zeta(x) - 1) / 2. With r_(k+m) = sum_i b_i m^i,
    the tail is thus at most |(s)_k / (k+1)!| (zeta(x) - 1) times
    sum_i |b_i| S_i(q), for x = Re s + k, q = rho / 2 and
    S_i(q) = sum_{m>=1} m^i q^m. Since x >= 9.5,
    zeta(x) - 1 <= 2^-x (1 + 2/(x - 1)) < 2^-x * 8/6, so the tail bound
    holds once sum_i |b_i| S_i(q) <= 6 |b_0|. Without a closed form r_j is
    unknown past k_max and nothing bounds the tail.

    Everything is exact: q is rounded up to a/c, and
    S_i(q) = T_i / u^(i+1) with u = c - a, T_0 = a and
    T_i = c sum_{l<i} C(i, l) (-1)^(i-l+1) T_l u^(i-1-l), from
    (1 - q) S_i = sum_{m>=1} (m^i - (m-1)^i) q^m.
    """
    taylor = spec.series_taylor(k)
    if taylor is None:
        return False
    b = taylor[0]
    zr, zi, den = point
    c = 2 * den * (k + 2)
    a = max(den * (k + 2), _modulus_up(zr + k * den, zi))
    u = c - a
    if u <= 0:
        return False
    t = [a]
    for i in range(1, len(b)):
        t.append(c * sum(comb(i, l) * (-1) ** (i - l + 1) * t[l] * u ** (i - 1 - l) for l in range(i)))
    d = len(b) - 1
    return sum(abs(b_i) * t_i * u ** (d - i) for i, (b_i, t_i) in enumerate(zip(b, t))) <= (
        _TAIL_RATIO * abs(b[0]) * u ** (d + 1)
    )


def _tail_met(d: _Depth, k: int, tail_bound, threshold, point, vanished: bool) -> bool:
    """The outer stopping rule: k at least k0 + _MIN_TERMS, the tail bound
    under the threshold (both in ulps, or both as log2), and the tail
    proven to be within its bound, which it is at once when every later
    coefficient vanishes."""
    return (
        k >= d.spec.k0 + _MIN_TERMS
        and tail_bound < threshold
        and (vanished or _tail_bounded(d.spec, point, k))
    )


def _peak_log2(depths: list[_Depth], factors, point, tail_log2: float, digits: int) -> float:
    """log2 of the largest outer coefficient |r_k f_k| a loop over k will
    meet, from a float scan that stops each depth where the loop does
    (_tail_met, with the tail bound |r_k f_k| 2^(tail_log2 - k)); -inf when
    every coefficient vanishes. factors yields (k, log2 |f_k|) from the
    loop's first k, -inf once f_k and every later factor vanish. The scan
    also stops a depth where the loop raises CapacityError. The peak sets
    only how tight the error tally is."""
    threshold = -(digits + 5) * log2(10)
    peak = -inf
    running = list(depths)
    for k, log_f in factors:
        if not running:
            return peak
        for d in [d for d in running if d.spec.k0 <= k]:
            r = d.r(k)
            if r is None:
                running.remove(d)
                continue
            size = log_f + _log2_fraction(r)
            peak = max(peak, size)
            if _tail_met(d, k, size + tail_log2 - k, threshold, point, log_f == -inf):
                running.remove(d)
    return peak


def _log2_rising(re: float, im: float, k: int):
    """(j, log2 |(s)_j / (j+1)!|) for j = k, k+1, ..."""
    log_a = sum(_log2_abs(re + j, im) - log2(j + 2) for j in range(k))
    while True:
        yield k, log_a
        log_a += _log2_abs(re + k, im) - log2(k + 2)
        k += 1


def eval_identity(spec: IdentitySpec, s: Number, digits: int = 40) -> EvalReport:
    """Evaluate zeta(s) through the depth-p identity at the given target
    precision.

    Raises ValueError outside the validity half-plane or when the inner
    series arguments would leave Re >= 1.5, PoleError within 10^(-digits/2)
    of s = 1, and CapacityError when more series terms are needed than the
    spec stores and no closed form is available to extrapolate.
    """
    return eval_identities([spec], s, digits)[0]


def eval_identities(
    specs: Sequence[IdentitySpec], s: Number, digits: int = 40
) -> list[EvalReport]:
    """Evaluate zeta(s) through several identities in one pass over k; one
    report per spec, in order.

    The identities share z, (s)_k / (k+1)!, 2^(1 - Re s - k), the
    fixed-point scale (the largest any of them needs) and at each k one
    inner sum zeta(s + k) - 1, computed at the tightest budget among the
    depths that need it. Each depth keeps its own total, error tallies and
    tail bound, and stops on its own. Every spec is checked before any
    work: the first that cannot be evaluated at s raises what eval_identity
    raises for it. An empty specs raises ValueError.
    """
    _check_digits(digits)
    if not specs:
        raise ValueError("eval_identities needs at least one identity")
    re, im = _exact_point(s)
    for spec in specs:
        _check_point(spec, re, im, digits)
    depths = [_Depth(spec) for spec in specs]
    k = k_start = min(spec.k0 for spec in specs)
    point = zr, zi, den = _integer_point(re, im)
    # the tail bound is |coefficient| * 4 * 2^(1 - Re s - k)
    factors = _log2_rising(float(re), float(im), k)
    bits = _scale_bits(digits, _peak_log2(depths, factors, point, 3 - float(re), digits))
    one = 1 << bits
    threshold = one // 10 ** (digits + 5)
    inner = _InnerSums((re, im), digits, bits)
    # a = (s)_k / (k+1)! in ulps, within a_err; a_err = 0 marks an exact a
    pr, pi = 1, 0
    for j in range(k):
        fr = zr + j * den
        pr, pi = pr * fr - pi * zi, pr * zi + pi * fr
    scale = den**k * factorial(k + 1)
    ar, ai = (pr << bits) // scale, (pi << bits) // scale
    a_err = 2 if pr or pi else 0
    # 4 * 2^(1 - Re s - k_start) in units of 2^-(bits + extra), rounded
    # up, with extra >= 0 keeping it at least 2^bits for any Re s; shifted
    # right by k - k_start at each k, never halved in place
    extra = max(0, ceil(re) + k - 3)
    tail_factor = _pow2_up(bits + extra + 3 - k - re)
    running = list(depths)
    while True:
        active = [d for d in running if d.spec.k0 <= k]
        exact_zero = not (a_err or ar or ai)
        largest = 0
        for d in active:
            r = d.r(k)
            if r is None:
                raise _capacity_error(d.spec, k, digits)
            num, rden = r.numerator, r.denominator
            if exact_zero or not num:
                d.coef_re = d.coef_im = d.coef_err = d.size = 0
                continue
            d.coef_re, d.coef_im = ar * num // rden, ai * num // rden
            d.coef_err = _ceil_div(a_err * abs(num), rden) + 2
            d.size = _modulus_up(d.coef_re, d.coef_im) + d.coef_err
            largest = max(largest, d.size)
        # size, not r_k, decides: (s)_k vanishes at nonpositive integers
        if largest:
            budget = (threshold << bits) // (largest * _INNER_SAFETY)
            (vr, vi), trunc, rounding = inner(k, budget)
            v_size = _modulus_up(vr, vi)
            for d in active:
                if d.size:
                    cr, ci = d.coef_re, d.coef_im
                    d.total_re += (cr * vr - ci * vi) >> bits
                    d.total_im += (cr * vi + ci * vr) >> bits
                    d.inner_err += d.size * trunc
                    d.rounding += d.coef_err * v_size + d.size * rounding
                    d.products += 1
        for d in active:
            tail_bound = _ceil_div(d.size * tail_factor, one << (k - k_start + extra))
            if _tail_met(d, k, tail_bound, threshold, point, exact_zero):
                d.terms_used, d.tail_bound = k, tail_bound
                running.remove(d)
        if not running:
            break
        # a *= (s + k) / (k + 2)
        fr = zr + k * den
        if exact_zero or not (fr or zi):
            ar = ai = a_err = 0
        else:
            q = den * (k + 2)
            ar, ai = (ar * fr - ai * zi) // q, (ar * zi + ai * fr) // q
            a_err = _ceil_div(a_err * _modulus_up(fr, zi), q) + 2
        k += 1
    reports = []
    for d in depths:
        hr, hi = _head(d.spec, re, im)
        # the head's two floors and each term product's two: 2 ulps each
        rounding = _ceil_div(d.rounding, one) + 2 * (d.products + 1)
        error = d.tail_bound + _ceil_div(d.inner_err, one) + rounding
        value = _mp_value(d.total_re + _fixed(hr, bits), d.total_im + _fixed(hi, bits), bits)
        reports.append(
            EvalReport(
                value=value,
                p_used=d.spec.p,
                terms_used=d.terms_used,
                error_estimate=_float_up(error, bits),
                inner_sum_cutoffs=inner.cutoffs(),
            )
        )
    return reports


def zeta_prime_at_zero(spec: IdentitySpec, digits: int = 40):
    """zeta'(0) from the term-by-term derivative of the identity at s = 0:
    -pole + Q'(0) + sum_k r_k / (k(k+1)) * (zeta(k) - 1).

    Needs an identity valid at 0, i.e. depth p >= 2.
    """
    _check_digits(digits)
    if spec.effective_validity >= 0:
        raise ValueError(
            f"depth-{spec.p} identity is not valid at s = 0; use p >= 2"
        )
    d = _Depth(spec)
    # the weights are r_k / (k(k+1)), the tail bound |weight| * 4 * 2^(1 - k);
    # from k to k + 1 a weight changes by r_(k+1)/r_k times k/(k+2), as an
    # outer coefficient does at s = 0, so _tail_bounded applies at s = 0
    point = (0, 0, 1)
    weights = ((k, -log2(k * (k + 1))) for k in count(spec.k0))
    bits = _scale_bits(digits, _peak_log2([d], weights, point, 3, digits))
    one = 1 << bits
    threshold = one // 10 ** (digits + 5)
    qprime0 = spec.q_poly.derivative().coefficient(0)
    total = _fixed(qprime0 - spec.pole_coefficient, bits)
    k = spec.k0
    inner = _InnerSums((Fraction(0), Fraction(0)), digits, bits)
    while True:
        rk = d.r(k)
        if rk is None:
            raise _capacity_error(spec, k, digits)
        num, den = rk.numerator, rk.denominator
        weight = (num << bits) // (den * k * (k + 1))
        size = abs(weight) + 1
        if num:
            budget = (threshold << bits) // (size * _INNER_SAFETY)
            total += (weight * inner(k, budget)[0][0]) >> bits
        if _tail_met(d, k, _ceil_div(size * 8, 1 << k), threshold, point, False):
            break
        k += 1
    return _mp_value(total, None, bits)


def sum_zeta_m1(digits: int = 40):
    """Partial sum of sum_{k>=2} (zeta(k) - 1), truncated at the first K
    with 2*2^-K < 10^-digits. The full sum is exactly 1."""
    _check_digits(digits)
    k_top = 2
    limit = 2 * 10**digits
    while 2**k_top <= limit:
        k_top += 1
    bits = _scale_bits(digits, 0)
    budget = (1 << bits) // 10 ** (digits + 5) // _INNER_SAFETY
    inner = _InnerSums((Fraction(0), Fraction(0)), digits, bits)
    total = sum(inner(k, budget)[0][0] for k in range(2, k_top + 1))
    return _mp_value(total, None, bits)


def trivial_zero_report(spec: IdentitySpec, digits: int = 40) -> list[tuple[int, float]]:
    """|zeta(-2m)| through the identity at every even negative integer
    inside the validity half-plane. Empty for depths whose half-plane
    contains no such point (p <= 2)."""
    _check_digits(digits)
    out: list[tuple[int, float]] = []
    m = -2
    while m > spec.effective_validity:
        report = eval_identity(spec, m, digits)
        out.append((m, float(abs(report.value))))
        m -= 2
    return out
