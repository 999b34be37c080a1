"""Arbitrary-precision evaluation of the derived identities.

Each identity zeta(s) = pole/(s-1) + Q(s) + sum_{k>=k0} r_k (s)_k/(k+1)!
(zeta(s+k) - 1) is Euler-Maclaurin summation at n = 1, its remainder
written as that series, and so a function of k0 and the Bernoulli numbers
alone: r_k = sum_{i<k0} beta_i (k+1) k ... (k+2-i) with beta_i = -B_i/i!,
B_1 = -1/2. IdentitySpec.euler_maclaurin_coefficients proves so exactly,
per spec, before any evaluation, and gives the beta_i: the evaluator reads
no other coefficient of a spec. It is evaluated in its shifted
split: the part n <= m of each inner sum zeta(s+k) - 1 = sum_{n>=2} n^-(s+k)
moves into the head, exactly, and the head is Euler-Maclaurin at m,

    zeta(s) = sum_{n=1..m-1} n^-s + m^-s W_m(s)
              + sum_{k>=k0} r_k (s)_k/(k+1)! zeta(s+k, m+1),

so the outer series shrinks like (m+1)^-k instead of 2^-k. The plain
partial sum is shared by every depth of a batch, and the one weight
W_m(s) = pole m/(s-1) - sum_{j<k0} h_j (s)_j m^-j, h_j = beta_(j+1) -
[j = 0], is an exact complex rational (_last_weight). r_k, k0
and the domain Re s >= 3/2 - k0 do not depend on m.

s is read once per call, by _exact_point, as integers: s = (zr + i zi)/den
with den > 0, and everything downstream takes that triple. N = m + 1 =
_split_point(digits, zi, den), decided once per call before any work and
passed down, is the one cutoff of every inner sum of every caller: each is
the Hurwitz sum zeta(s + k, N), an Euler-Maclaurin sum at N with no direct
terms. N is the least power of two >= 10 + digits (32 up to 22 digits, 64
at 40, 128 at 100, 512 at 300) with |Im s| <= 333/106 N, 333/106 just
below pi. Then |Im w|/(2 pi N) <= 1/2 at every w = s + k, so each further
Euler-Maclaurin order gains at least 2 bits from the imaginary part
alone, as Johansson sizes the cutoff from |s| and the target. Where that
N is the digits' own N_1 and |Im s| is past half its reach,
|Im s| > 333/212 N_1, N is 2 N_1 instead, where |Im w|/(2 pi N) <= 1/4:
at N_1 a deep series could miss at the top digits of an N_1 band. So each
call runs one pass, at the N it starts with. An N past 2^16 (|Im s|
beyond about 2 10^5) raises ValueError before any power is computed.

The identity evaluator works in fixed point on Python integers. One call
chooses a scale 2^P; a real number x is held as an integer within a few
units of x * 2^P (a unit 2^-P is an "ulp" below) and a complex number as a
pair of them. Sums are exact integer additions, products are integer
products shifted right, and every rounding is a floor. The error of
each operation is tallied in ulps as an integer, rounded up, so no float
enters any bound; the modulus of a complex number in a bound is the
square-root-free max + min/2 + 1 of its parts (_modulus_up). The logs
come from the evaluator's own tables (_LogTable): one per precision class,
the least power of two >= the working precision, holding ln 2, pi/2 and
log p for every prime p up to the largest N asked at that class, each
summed from integer atanh and arctan series with every floor tallied, and
each entry depending on (p, class) alone. For each prime p <= N, the
table gives log p, exp_fixed gives |p^-s| = exp(-Re s log p), reduced by
the table's ln 2, and the angle -Im s log p, reduced modulo the table's
pi/2, goes through the Taylor series of exponential_series for its
cosine and sine, so p^-s is an integer pair; a composite n takes n^-s as
the integer product q^-s (n/q)^-s of two earlier powers, q its least
prime factor (_InnerSums). So the evaluator reads none of mpmath's
process-wide caches: not log_int_fixed's logs, not the ln 2 and pi of
ln2_fixed and pi_fixed, and not the cos_sin_cache that cos_sin_fixed fills
below 400 bits. Each kernel takes its precision as an argument: no call
sets mpmath's shared precision, so concurrent calls cannot disturb each
other.
Everything rational (s itself, the weight W_m, r_k/(k+1)! and
B_2j/(2j)!) is exact; each is floored once where it meets a fixed-point
number. Values are returned as mpmath numbers, built exactly.

Every term of the outer series comes from one sequence,
V_m = (s)_m N^-(s+m), V_0 = N^-s and V_(m+1) = V_m (s + m)/N. With
beta_j = B_2j/(2j)!, Euler-Maclaurin at N times (s)_k reads

    G_k = (s)_k zeta(s+k, N) = V_(k-1) + V_k/2 + sum_j beta_j V_(k+2j-1) + R,

since (s)_k (s+k)_i = (s)_(k+i), and the outer term is rho_k G_k with the
exact rho_k = r_k/(k+1)! (_InnerSums, _outer_series). The bare
coefficients r_k (s)_k/(k+1)! can grow by many bits before the terms fall
(by 2^57 at |Im s| = 40), but no rounding meets them: each floor of V_m is
relative to V_m, the error of V_m is capped by its size, and rho_k is
exact, so every rounding counts against its term and the series' tally is
a count of ulps that does not grow with P. So P is set once, from what the
pass rounds: the bit length of 10^(digits+5), plus log2 of the largest
head weight times the error of the value it multiplies (3 |W_m| ulps for
m^-s, 3 (m - 2) for the partial sum), plus _GUARD_BITS, with no scan of
the series; one pass runs at that scale. Every bound is a tally of the
ulps actually lost, whatever P is, and is returned as that tally times
2^-P, exactly, an mpf of any size. A call whose bound exceeds 10^-digits,
compared in integers, raises PrecisionError, which carries the reports.

The independent cross-check `zeta_em_reference` computes zeta directly by
Euler-Maclaurin summation, also in fixed point on Python integers: mpmath's
log_int_fixed, exp_fixed and cos_sin_fixed give each p^-s at its own
working precision, so its logs come from another kernel than the
evaluator's, and so do its cosines and sines below 400 bits, and exact
rationals give every other factor. It uses no mpmath context and shares
nothing with `eval_identity` except the Bernoulli table, `_least_factors`
and the exact reading of s and writing of the result, so agreement
between the two is meaningful.

`eval_identities` evaluates several depths at one point in one pass over
k: every depth's identity has the same G_k, and only r_k and the weights
differ. Twins, specs equal in k0 (depths 3 and 4, say), are one
identity once each is proved, and share one evaluation; each still gets
its own report. The beta_i = -B_i/i! do not depend on k0, so the depths of
a batch are truncations of one series: over the deepest one's common
denominator L, each depth's coefficients are the first k0 of the deepest
one's, at each k one rden = L (k+1)! serves them all, and one running sum
over i gives every depth's L r_k as a prefix sum. `eval_identity` is the
batch of one. `zeta_prime_at_zero`
differentiates the shifted split term by term at s = 0, where (s)_j
vanishes for j >= 1 and has derivative (j-1)!. That leaves the exact
W_m'(0), the two logs -log((m-1)!) and -W_m(0) log m, and the series
rho_k G'_k = r_k/(k(k+1)) zeta(k, N), G'_k read off V'_m = (m-1)! N^-m
in the same way: the same pass, so zeta'(0) gets an
error bound too. sum_zeta_m1 runs that pass for the paper's sum
identity: sum_{k>=2} (zeta(k) - 1) is the exact (N-2)/(N-1), since
sum_{k>=2} n^-k = 1/(n(n-1)) telescopes over n = 2..N-1, plus the series
sum_{k>=2} zeta(k, N), r_k = k(k+1) from k0 = 2 with the same G_k.

Each call computes n^-s for n = 2..N-1 once: the partial sum and m^-s.
The oracle sums 10 + digits direct terms and adds correction terms while
they are at least 10^-(digits + _GUARD), compared in integers, and raises
where they stop falling first. Each depth's outer series
stops at the first k >= k0 whose tail past k has an a-priori majorant
below 10^-(digits+5) (_tail_factors), after Borwein, Bradley and
Crandall's series in (s)_k (zeta(s+k) - 1) and Johansson's truncation
from rigorous a-priori bounds: with the beta_i of r_k and A = |s + k|,

    |V_k| (1 + N/(Re s + k - 1)) sum_i |beta_i|/(k+1-i)! ((1 - 1/N)^-A - 1),

and the last factor is at most y 2^ceil(3y/2), y = A/(N - 1). The bound is
the proof: no term past k is looked at. At large |s| the factor 2^(3y/2)
holds the series on until 1/(k+1)! outgrows it (k = 90 at s = 10^4,
N = 32), and no longer. So a call whose ceil(3y/2) at the least k0 is
past 2^16 bits (Re s beyond about 2^17 (N - 1)/3: 1.35 10^6 at 20
digits, 2.75 10^6 at 40) raises ValueError before any power is
computed. The majorants of a batch are nested: at every k the sum over i
of a deeper depth has more terms, none negative, so the depths whose test
passes at k are a prefix of the running ones in k0 order. The pass
tests only the shallowest running depth, and moves on to the next while
it passes: at most one failed test per k, one passed test per depth, and
each depth still stops at its own first passing k.

Once every depth's last k is known, one band of Euler-Maclaurin orders
serves the whole pass, after Johansson, who fixes the order from the
target rather than term by term. The last V index G_k reads barely moves
with k, so with k* the k of the largest |rho_k V_k| and K the last k, J
is taken once: the least order whose remainder at k* meets
10^-(digits+5) / 16 relative to rho_k* (or the order where that remainder
stops falling). With T = max(k* + 2J - 1, K + 1), G_k takes
min(J, (T - k + 1) // 2) terms, and the band is swept once: one call for
the remainder bounds, whose sum_k |rho_k| R_k is each depth's inner
truncation, and one for the G_k. Each G_k is three integer dot products
over one common denominator of the B_2j/(2j)! (exactmath.bernoulli_ratios);
at real s, where every V and G_k is exactly real, the imaginary ones are
skipped.
"""

from __future__ import annotations

import re as _re
import sys
import threading
from dataclasses import dataclass
from itertools import accumulate
from fractions import Fraction
from math import factorial, isfinite, isqrt, lcm
from operator import mul
from typing import Optional, Sequence, Union

from mpmath import mp
from mpmath.libmp import from_man_exp, log_int_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, exponential_series

from .derive import IdentitySpec
from .exactmath import bernoulli_over_factorial, bernoulli_ratios

_GUARD = 10
# Bits of the oracle's working precision beyond 10^-(digits + _GUARD).
_ORACLE_GUARD_BITS = 16
# Bits of the fixed-point scale beyond 10^-(digits+5) and the head weights'
# errors; the series' ulp tally stays far below them.
_GUARD_BITS = 24
# Each depth's summed inner truncation, and its rounding tally, aims at
# threshold / _INNER_SAFETY ulps (at least 1).
_INNER_SAFETY = 16
# Every entry n^-(z+k) is within this many ulps (in modulus) of its value,
# at any shift: see _InnerSums.
_ENTRY_ULPS = 3
# Bits of each _LogTable entry below its class: every entry's tally of
# floors stays below 2^_TABLE_GUARD units.
_TABLE_GUARD = 32
# log2 of the largest inner cutoff N (_split_point): |Im s| up to about 2 10^5.
_SPLIT_BITS = 16
# log2 of the largest shift of the tail majorant at the least k0
# (_tail_shift): Re s up to about 2^17 (N - 1)/3, 1.35 10^6 at 20 digits.
# At the limit a call takes about 0.15 s and 47 MB; at 2^17, 0.37 s and 119 MB.
_TAIL_BITS = 16

Number = Union[int, float, complex, Fraction, str]
# s = (zr + i zi) / den as the integers (zr, zi, den), den > 0: _exact_point
Point = tuple[int, int, int]


class PoleError(ValueError):
    """Evaluation point is at (or numerically indistinguishable from) s = 1."""


class PrecisionError(ValueError):
    """Some depth's error bound exceeds 10^-digits. reports holds the
    reports of the pass, one per spec, in order: each bound still holds,
    but at least one is above the target."""

    def __init__(self, message: str, reports: list):
        super().__init__(message)
        self.reports = reports


@dataclass
class EvalReport:
    """Result of one evaluation: every evaluator but the oracle
    zeta_em_reference returns one.

    value is an mpmath mpc, the fixed-point result converted exactly.
    p_used is the depth of the identity evaluated; sum_zeta_m1, whose
    series belongs to no depth, reports 0. error_estimate, an mpf, bounds
    |value - zeta(s)| (|value - zeta'(0)| for zeta_prime_at_zero and
    |value - 1| for sum_zeta_m1). It is the pass's integer tally times
    2^-P, converted exactly (_mp_value), so a bound of any size shows as
    it is, below the least float at 400 digits or past the largest far
    left; every check and printout reads it, through _format_bound. The
    tally is the sum of, in ulps of the call's scale 2^-P: the outer truncation
    bound; the inner truncation bounds, each times its |r_k/(k+1)!|,
    summed per depth; and the rounding tally, which covers the head,
    _ENTRY_ULPS times |W_m| for m^-s and _ENTRY_ULPS (m - 2) for the
    partial sum sum_{n=2..m-1} n^-s, whose weight is 1, the rounding of
    each G_k (every floor of the V_m it reads, carried forward through
    |s + m|/N and capped by the size of V_m, and of its dot product) times
    the exact |r_k/(k+1)!|, each rounded up, and the floor of each
    product. For zeta_prime_at_zero the head values are the logs log m and
    log((m-1)!), sums of table logs, and the tally counts the ulps each is
    within (_InnerSums.logs) the same way. The outer truncation bound is
    the a-priori majorant of the tail past terms_used (_tail_factors). A call whose estimate exceeds
    10^-digits raises PrecisionError, whose reports are these.

    The last three fields record the inner schedule of the pass.
    split_point is N, m + 1 of the shifted split, at which every inner sum
    of every caller is an Euler-Maclaurin sum zeta(s + k, N): for
    s = (zr + i zi)/den, _split_point(digits, zi, den), the least power of
    two >= 10 + digits with |Im s| <= 333/106 N, doubled where that is
    the digits' own N_1 and |Im s| > 333/212 N_1. correction_order
    is the order J of the pass's band, the
    most correction terms any G_k took (G_k takes min(J, (T - k + 1) // 2),
    see _outer_series), or 0 if no G_k was summed. last_em_k is the last k
    whose G_k the pass summed, the last k of the pass unless V_k is exactly
    0 there, or None if no G_k was summed. The reports of one eval_identities batch share one band,
    so they all carry the same schedule, that of the whole pass.
    """

    value: object
    p_used: int
    terms_used: int
    error_estimate: object
    split_point: int
    correction_order: int
    last_em_k: Optional[int]


def _check_digits(digits: int) -> None:
    if not isinstance(digits, int) or digits < 15:
        raise ValueError("digits must be an integer >= 15")


def _split_point(digits: int, zi: int, den: int) -> int:
    """N, the one cutoff of every inner sum for a point with Im s = zi/den,
    den > 0: the least power of two >= 10 + digits with
    |Im s| <= 333/106 N, 333/106 the rational below pi, so
    |Im w|/(2 pi N) <= 1/2 at every w = s + k and each further
    Euler-Maclaurin order gains at least 2 bits. Where that N is N_1, the
    least power of two >= 10 + digits, and |Im s| is past half its reach,
    |Im s| > 333/212 N_1, N is 2 N_1 (unless N_1 is 2^_SPLIT_BITS): there
    the least Euler-Maclaurin remainder at N_1 is only about 2^-(3 N_1) to
    2^-(6 N_1), short of a deep series' peak term at the top digits of an
    N_1 band, while at 2 N_1, |Im w|/(2 pi N) <= 1/4 and it is below
    2^-(11 N_1). An N that |Im s| sets, past N_1, is not doubled. Every
    inner sum is an Euler-Maclaurin sum at N, and N is m + 1 of the
    shifted split. Each evaluation calls it once, before any work, and
    passes N down. Raises ValueError for an N past 2^_SPLIT_BITS."""
    n1 = 1 << (9 + digits).bit_length()
    n = 1 << (max(n1, _ceil_div(106 * abs(zi), 333 * den)) - 1).bit_length()
    if n == n1 < 1 << _SPLIT_BITS and 212 * abs(zi) > 333 * den * n:
        n *= 2
    if n > 1 << _SPLIT_BITS:
        raise ValueError(
            f"|Im s| = {abs(zi) / den:.4g} at {digits} digits needs the inner cutoff "
            f"N = 2^{n.bit_length() - 1}, past the limit N <= 2^{_SPLIT_BITS}"
        )
    return n


def _least_factors(n: int) -> list[int]:
    """The least prime factor of each i = 0..n (i itself for a prime, 0 and
    1), by one sieve: each p <= sqrt(n), in descending order, marks its
    multiples from p^2, so the least prime factor of a composite marks it
    last."""
    least = list(range(n + 1))
    for p in range(isqrt(n), 1, -1):
        least[p * p :: p] = [p] * ((n - p * p) // p + 1)
    return least


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
    if isinstance(x, float) and not isfinite(x):
        raise ValueError(f"s must be finite, not {x}")
    if isinstance(x, (int, float, Fraction, str)):
        return Fraction(x)
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    sign, man, exp, _ = x._mpf_
    if not man and exp:  # mpmath's inf, -inf and nan
        raise ValueError(f"s must be finite, not {x}")
    value = Fraction(-man if sign else man)
    return value * 2**exp if exp >= 0 else value / 2**-exp


_FLOAT_MAX = int(sys.float_info.max)


def _exact_point(s) -> Point:
    """s as the integer triple (zr, zi, den), den > 0, in lowest terms, with
    s = (zr + i zi) / den: the one reading of a point. Ints, floats, complex
    and mpmath numbers are binary fractions, a string is read as a decimal
    literal "a", "a+bi" or "a-bi", and a pair as (Re s, Im s), so nothing
    rounds. Raises ValueError for a non-finite s and for a part beyond the
    float range, compared in integers. Within it, a large |Im s| raises at
    the limit of _split_point and a large Re s at that of the tail majorant
    (_tail_shift), each before any power is computed."""
    if isinstance(s, tuple) and len(s) == 2:
        re, im = _exact_real(s[0]), _exact_real(s[1])
    elif isinstance(s, str):
        re, im = parse_complex_literal(s)
    elif isinstance(s, (complex, mp.mpc)):
        re, im = _exact_real(s.real), _exact_real(s.imag)
    else:
        re, im = _exact_real(s), Fraction(0)
    den = lcm(re.denominator, im.denominator)
    zr, zi = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
    if max(abs(zr), abs(zi)) > _FLOAT_MAX * den:
        raise ValueError(f"s has a part beyond the float range, |part| > {sys.float_info.max:.4g}")
    return zr, zi, den


# ---- fixed point: integers in units of 2^-bits ----


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _modulus_up(re: int, im: int) -> int:
    """An integer > |re + i im|, at most sqrt(5)/2 |re + i im| + 1, without a
    square root.

    With a = max(|re|, |im|) and b = min(|re|, |im|),
    (a + b/2)^2 = a^2 + b^2 + b (a - 3b/4) >= a^2 + b^2, so
    a + b//2 + 1 > a + b/2 >= |re + i im|. The ratio (a + b/2) / |re + i im|
    peaks at b = a/2, where it is sqrt(5)/2 < 1.119. Every fixed-point
    magnitude of this module is bounded by it."""
    a, b = abs(re), abs(im)
    if a < b:
        a, b = b, a
    return a + (b >> 1) + 1


def _mp_value(re: int, im: Optional[int], bits: int):
    """(re + i im) * 2^-bits as an mpc, or re * 2^-bits as an mpf when im is
    None, exactly."""
    if im is None:
        return mp.make_mpf(from_man_exp(re, -bits))
    return mp.make_mpc((from_man_exp(re, -bits), from_man_exp(im, -bits)))


def _format_bound(x) -> str:
    """An error bound x > 0 to 4 significant digits, in the form '%.3e'
    gives a float, at any exponent: the one printed form of every bound."""
    mantissa, _, exponent = mp.nstr(x, 4, strip_zeros=False, min_fixed=mp.inf, max_fixed=-mp.inf).partition("e")
    return f"{mantissa}e{int(exponent or 0):+03d}"


def _threshold_bits(digits: int) -> int:
    """Bits below the point that resolve 10^-(digits+5)."""
    return (10 ** (digits + 5)).bit_length()


def _scale_bits(digits: int, peak: int) -> int:
    """P for a call whose largest head weight times the ulps of the value
    it multiplies is at most 2^peak; the outer series adds no bits
    (_outer_series)."""
    return _threshold_bits(digits) + max(peak, 0) + _GUARD_BITS


def _log2_up(re: int, im: int, den: int) -> int:
    """An integer >= log2 |(re + i im) / den|: the modulus is below
    sqrt(2) 2^B for B the larger bit length of re and im, and den is at
    least 2^(D - 1) for its bit length D."""
    return max(re.bit_length(), im.bit_length()) - den.bit_length() + 2


def _inverse_series(k: int, bits: int, alternating: bool) -> tuple[int, int]:
    """(x, t): atanh(1/k), or arctan(1/k) when alternating, k >= 3, as an
    integer x in units of 2^-bits within t units, from the Taylor series
    sum_j (+-1)^j k^-(2j+1)/(2j+1). Each power k^-(2j+1) is the floor of
    the one before over k^2, so it is short of its value by less than
    1 + 1/(k^2 - 1) <= 9/8 units, and each term, its floor over 2j + 1, by
    less than 1 at j = 0 and 11/8 after. The loop stops at the first power
    that floors to 0, j = J; the terms past it sum to less than 1 unit. So
    x is within 2 + 11/8 J units: t = 2 J + 2 is the tally."""
    power = (1 << bits) // k
    total, square, odd = power, k * k, 3
    while power:
        power //= square
        term = power // odd
        total += -term if alternating and odd & 2 else term
        odd += 2
    return total, odd - 1


class _LogTable:
    """ln 2, pi/2 and log p for every prime p <= top, for one precision
    class W, a power of two: each an integer in units of 2^-bits,
    bits = W + _TABLE_GUARD, summed from integer series (_inverse_series),
    after Johansson's Machin-like logs of small primes:

        ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749),
        pi/2 = 8 arctan(1/5) - 2 arctan(1/239),
        log p = (log(p-1) + log(p+1))/2 + atanh(1/(2p^2 - 1)), p odd,

    log(p -+ 1) the sum of the logs of their prime factors, all below p.
    Every floor is tallied, as Brent and Zimmermann count the errors of a
    fixed-point series: a sum of entries is within the sum of their
    tallies, the halving adds 1, and each series its own. An entry depends
    on (p, W) alone, so a table grown from a small top holds the bits of
    one built at once, and no call's bits depend on the calls before.

    Every tally is below 2^_TABLE_GUARD (checked as the table grows: below
    2^21 up to 5,000 digits at N = 2^16), so an entry served at wp <= W,
    x >> (bits - wp), is within e_L = 2 units of its value times 2^wp: less
    than 1 from the tally, once shifted, and less than 1 from the floor.

    _log_table keeps one table per class, and builds and grows them under
    one lock; a reader takes `logs` after `top` covers its N, and reads only
    entries up to that N, which never change."""

    def __init__(self, width: int):
        self.bits = bits = width + _TABLE_GUARD
        (a, ta), (b, tb), (c, tc) = (_inverse_series(k, bits, False) for k in (26, 4801, 8749))
        (d, td), (e, te) = (_inverse_series(k, bits, True) for k in (5, 239))
        self.ln2, self.half_pi = 18 * a - 2 * b + 8 * c, 8 * d - 2 * e
        # index n <= top: log n and its tally at a prime n, 0 elsewhere
        self.logs, self.tallies = [0, 0, self.ln2], [0, 0, 18 * ta + 2 * tb + 8 * tc]
        self._check(max(self.tallies[2], 8 * td + 2 * te))
        self.top = 2

    def _check(self, tally: int) -> None:
        if tally >> _TABLE_GUARD:
            raise ArithmeticError(f"a log table tally of {tally} units exceeds 2^{_TABLE_GUARD}")

    def grow(self, n: int) -> None:
        """Cover every prime <= n: log p for each prime top < p <= n. The
        caller holds _LOG_TABLES_LOCK."""
        top = self.top
        if n <= top:
            return
        logs, tallies = self.logs + [0] * (n - top), self.tallies + [0] * (n - top)
        least = _least_factors(n + 1)

        def log(i):  # of a composite i <= n + 1, from its prime factors
            x = t = 0
            while i > 1:
                q = least[i]
                x, t, i = x + logs[q], t + tallies[q], i // q
            return x, t

        for p in range(top + 1, n + 1):
            if least[p] == p:
                (x, t), (y, u) = log(p - 1), log(p + 1)
                z, v = _inverse_series(2 * p * p - 1, self.bits, False)
                logs[p], tallies[p] = ((x + y) >> 1) + z, -(-(t + u) // 2) + 1 + v
        self._check(max(tallies[top + 1 :]))
        self.logs, self.tallies = logs, tallies
        self.top = n


_LOG_TABLES: dict[int, _LogTable] = {}
_LOG_TABLES_LOCK = threading.Lock()


def _log_table(wp: int, n: int) -> _LogTable:
    """The _LogTable of wp's class, the least power of two >= wp, covering
    every prime <= n: built by the first call that needs the class, and
    grown by the first that needs a larger n."""
    width = 1 << (wp - 1).bit_length()
    table = _LOG_TABLES.get(width)
    if table is None or table.top < n:
        with _LOG_TABLES_LOCK:
            table = _LOG_TABLES.get(width)
            if table is None:
                table = _LOG_TABLES[width] = _LogTable(width)
            table.grow(n)
    return table


class _InnerSums:
    """The sums G_k = (c)_(k - start) zeta(z + k, N), c = z + start, in
    fixed point at scale 2^-bits, for one exact z = point = (zr, zi, den)
    read by _exact_point, the caller's N = n from _split_point and k > start,
    each with a truncation bound and a rounding bound in ulps; and the head
    entries n^-z, n < N.
    eval_identities takes start = 0, so G_k = (s)_k zeta(s + k, N);
    zeta_prime_at_zero and sum_zeta_m1 take z = 0 and start = 1, so
    G_k = (k-1)! zeta(k, N).

    Every G_k is read off one sequence V_m = (c)_(m - start) N^-(z+m),
    m >= start, with V_start = N^-(z+start) and V_(m+1) = V_m (z + m)/N.
    With beta_j = B_2j/(2j)!, Euler-Maclaurin at N times (c)_(k - start),
    since (c)_(k-start) (z+k)_i = (c)_(k-start+i), reads

        G_k = V_(k-1) + V_k/2 + sum_{j<=M} beta_j V_(k+2j-1) + R,
        |R| <= |beta_(M+1)| |V_(k+2M+1)| |z+k+2M+1| / (Re z + k + 2M + 1).

    z = (zr + i zi) / den with integers zr, zi, den, so every z + m, and
    every factor the sums need, is exact.

    Every power n^-z, n <= N, is an (re, im) pair of integers in units of
    2^-wp, from the class table's logs, mpmath's fixed-point exp_fixed and
    exponential_series, and integer products; at z = 0 every power is
    exactly 2^wp, and no log is read. Below, a
    unit is 2^-wp, e_b = wp 2^(isqrt(wp)//4 + 1), S = |Re z| + |Im z|
    rounded up, and X_n = n^-z. For each prime p:

    - L, log p from the table of wp's class (_LogTable) shifted right to
      wp, is within e_L = 2 units of log p 2^wp, and so are the ln 2 that
      exp_fixed reduces by and the pi/2 that _powers reduces by, shifted
      from the same table. Each table entry's tally of floors is below
      2^_TABLE_GUARD units of 2^-(W + _TABLE_GUARD), so less than one
      unit once shifted, and the shift's floor adds less than one. An
      entry depends on p and the class alone, so no bound or bit depends
      on the calls before, and a call shifts only the primes <= its own N.
    - u = exp_fixed(floor(-Re z L)), and (c, s) are the cosine and sine of
      x = floor(-Im z L): x reduced modulo pi/2 to t in [0, pi/2),
      exponential_series(t, wp, 2), and the signs and order of the
      quadrant x // (pi/2), as cos_sin_fixed takes them above 400 bits.
      Their arguments are within |Re z| e_L + 1 and |Im z| e_L + 1 units of
      -z log p 2^wp. Reducing modulo ln 2 and pi/2 adds 2 units per multiple
      taken off: at most |Re z| log2 p + 2 multiples for exp, and
      0.45 |Im z| log2 p + 2 for cos and sin.
    - The series kernels are within e_b units. Each sums about sqrt(wp)
      Taylor terms, floored once or twice each, with guard bits for its
      r ~ sqrt(wp)/2 squarings or doublings. exponential_series takes sin
      as a square root at every wp, and exp_fixed sinh above 600 bits. That
      divides the error of cos or cosh, 2^-10 units per term, by a reduced
      argument as small as 2^-(r/2).
    - So u is within a relative error of d_u = (2 |Re z| + 1)
      + 2 (|Re z| log2 p + 2) + e_b units, plus one unit for its floor where
      exp_fixed shifts right, and c and s within d_cs = (2 |Im z| + 1)
      + 2 (0.45 |Im z| log2 p + 2) + e_b. The entry ((u c) >> wp, (u s) >> wp)
      is then within |X_p| (d_u + d_cs + 1) + 2 units per component: one
      more for the second-order terms, and two for the floors. In modulus
      that is within (6S + 3e_b + 20) log2 p max(1, |X_p|) units.

    A composite n = a b, a its least prime factor (read off one sieve,
    _least_factors), is the integer product
    of the entries of a and b, shifted right by wp. Its error is that of
    a times |X_b|, plus that of b times |X_a|, plus 2 units per product: the
    floors of two components and the product of the two errors. By
    induction, every entry n is within kappa log2 n max(1, |X_n|) units in
    modulus, kappa = 6S + 3e_b + 22. And |X_n| <= 2^h, h = max(0,
    ceil(-Re z)) log2 N, with ceil(-Re z) = -(zr // den). wp is the least
    fixed point of wp >= bits + 16 + h + bitlen(kappa log2 N); e_b grows
    with wp. So every component of every power is within 2^-16 ulps of
    n^-z 2^bits once shifted right by wp - bits.

    An entry at shift k is (x >> (wp - bits)) // n^k, x the power n^-z at
    wp. So each of its components is within 2 + 2^-16 ulps, and the entry
    within _ENTRY_ULPS = 3 in modulus. V_start is the entry N^-(z+start).

    Each step V_(m+1) = V_m (fr + i zi) / (N den), fr = zr + m den, is one
    Gaussian product and one floor division per component, so its error
    E_(m+1) is at most ceil(E_m |fr + i zi| / (N den)) + 2, the modulus
    bounded by _modulus_up. Where V falls below the scale (Re z in the
    thousands), that product would grow the bound by |z + m| / N per step
    while the value stays under one ulp; so the step also carries an
    integer L_m >= log2(|V_m| 2^bits): L_start = ceil(bits - (Re z + start)
    log2 N) = bits - (zr + start den) log2 N // den, exact since N is a
    power of two, and L_(m+1) = L_m +
    bitlen(_modulus_up(fr, zi)) - bitlen(den) + 1 - log2 N. Then E_m is
    also at most |V_m| + 2^max(L_m, 0), |V_m| the stored value bounded by
    _modulus_up, and the lesser bound is kept. Where z + m = 0, every
    later V is exactly 0, with E = 0; E = 0 marks exactly that.

    G_k with M correction terms (`sums`) is
    V_(k-1) + V_k/2 + floor(sum_{j<=M} n_j V_(k+2j-1) / D), where
    B_2j/(2j)! = n_j/D exactly over one common denominator
    (exactmath.bernoulli_ratios): a fixed-point beta_j, about 2 (2 pi)^-2j,
    would floor to 0 where V grows. The real part, the imaginary part and
    the rounding tally sum_j |n_j| E_(k+2j-1) / D are each one integer dot
    product. The rounding bound adds E_(k-1), the half of E_k and 2 ulps
    for its floors, that tally, and 2 ulps for the floor of the dot
    product. M comes from the caller:
    `order` finds the least M whose remainder bound meets a budget, or,
    where the bounds stop falling first (the series is asymptotic), the M
    of the least one, in one loop over M that steps the table of |beta_j|
    and V as it goes; `remainders` gives the bounds of given (k, M) pairs,
    reading |V_m| and _modulus_up(den (z + m)) off the lists `size` fills,
    so a band of them costs one call. No float enters: every test and bound
    is an integer. At real z every V_m is exactly real, and neither the
    steps nor the dot products touch an imaginary part.
    """

    def __init__(self, point: Point, n: int, bits: int, start: int):
        self.zr, self.zi, self.den = zr, zi, den = point
        self.bits = bits
        self.n = n
        self.start = start
        # wp, the least fixed point of the class docstring's error model
        spread = (abs(zr) + abs(zi)) // den + 1
        self.log_n = log_n = n.bit_length() - 1
        least = bits + 16 + max(0, -(zr // den)) * log_n
        wp = least
        while True:
            kernel = wp << (isqrt(wp) // 4 + 1)  # e_b at wp
            need = least + ((6 * spread + 3 * kernel + 22) * log_n).bit_length()
            if need <= wp:
                break
            wp = need
        self.wp = wp
        # index n: n^-z as an (re, im) pair of units 2^-wp, n = 2..N
        self.powers = self._powers()
        # V_m for m = start, start + 1, ...: its parts, its error E_m, the
        # bound _modulus_up + E_m of |V_m| and _modulus_up(den (z + m)),
        # and the L of the last one
        self.re, self.im, self.err, self.bound, self.modulus = [], [], [], [], []
        self.level = bits - (zr + start * den) * log_n // den
        # |B_2j/(2j)!| as (|numerator|, denominator), from j = 1
        self.betas = [None]
        # D and the n_j, |n_j| for j >= 1 of bernoulli_ratios(M), M the
        # largest order summed so far
        self.count, self.ratios = -1, None

    def _powers(self) -> list:
        """n^-z for n = 0..N in units of 2^-wp, None at 0 and 1, in one loop:
        exp and cos/sin of -z log p for a prime p, the integer product
        q^-z (n/q)^-z for a composite n with least prime factor q."""
        wp, zr, zi, den, n = self.wp, self.zr, self.zi, self.den, self.n
        powers = [None, None]
        if not (zr or zi):
            return powers + [(1 << wp, 0)] * (n - 1)
        # ln 2, pi/2 and each log p shifted from the class table to wp,
        # each within 2 units
        table = _log_table(wp, n)
        shift, logs = table.bits - wp, table.logs
        ln2, quarter = table.ln2 >> shift, table.half_pi >> shift
        least, append = _least_factors(n), powers.append
        for i in range(2, n + 1):
            p = least[i]
            if p < i:
                (ar, ai), (br, bi) = powers[p], powers[i // p]
                append(((ar * br - ai * bi) >> wp, (ar * bi + ai * br) >> wp))
                continue
            log = logs[i] >> shift
            u = exp_fixed(-(zr * log) // den, wp, ln2)
            if not zi:
                append((u, 0))
                continue
            # cos and sin of the angle reduced to [0, pi/2), by the Taylor
            # series of exponential_series, which reads no table; then the
            # quadrant's signs, as cos_sin_fixed takes them
            turns, angle = divmod(-(zi * log) // den, quarter)
            c, s = exponential_series(angle, wp, 2)
            c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[turns & 3]
            append(((u * c) >> wp, (u * s) >> wp))
        return powers

    def _entry(self, n: int, shift: int) -> tuple[int, int]:
        """n^-(z + shift) * 2^bits as (x >> (wp - bits)) // n^shift of each
        component, x the power n^-z at wp: within 2 + 2^-16 ulps."""
        xr, xi = self.powers[n]
        drop, q = self.wp - self.bits, n**shift
        return (xr >> drop) // q, (xi >> drop) // q

    def head(self) -> list[tuple[int, int]]:
        """n^-z for n = 2..N-1 as (re, im) pairs of ulps, each within
        _ENTRY_ULPS in modulus."""
        drop = self.wp - self.bits
        return [(xr >> drop, xi >> drop) for xr, xi in self.powers[2 : self.n]]

    def logs(self) -> list[tuple[tuple[int, int], int]]:
        """log m and log((m-1)!), m = N - 1, each as ((re, 0), its error in
        ulps). log n for n = 2..m is built as _powers builds n^-z: the
        table's log p shifted to wp (_LogTable) for a prime, log q + log(n/q)
        for a composite whose least prime factor is q; log((m-1)!) is the sum
        over n < m. Each is a sum of table logs, and its units follow the
        same recurrence, 2 per log: a sum within u units at wp is within
        1 + ceil(u / 2^(wp - bits)) ulps once shifted right to the scale,
        2 ulps while u <= 2^(wp - bits)."""
        wp, m = self.wp, self.n - 1
        table = _log_table(wp, m)
        shift, drop, least = table.bits - wp, wp - self.bits, _least_factors(m)
        # index n: (log n at wp, the units it is within), n = 2..m
        logs = [None, None]
        for n in range(2, m + 1):
            q = least[n]
            if q == n:
                logs.append((table.logs[n] >> shift, 2))
            else:
                (a, u), (b, v) = logs[q], logs[n // q]
                logs.append((a + b, u + v))
        log_factorial = (sum(x for x, _ in logs[2:m]), sum(u for _, u in logs[2:m]))
        return [((x >> drop, 0), 1 + _ceil_div(u, 1 << drop)) for x, u in (logs[m], log_factorial)]

    def size(self, m: int) -> int:
        """The bound of |V_m| in ulps, m >= start, 0 only where V_m is
        exactly 0. Steps the sequence on to m first."""
        re, im, errs, bounds, moduli = self.re, self.im, self.err, self.bound, self.modulus
        index = m - self.start
        if index < len(bounds):
            return bounds[index]
        zr, zi, den = self.zr, self.zi, self.den
        if not bounds:
            vr, vi = self._entry(self.n, self.start)
            re.append(vr)
            im.append(vi)
            errs.append(_ENTRY_ULPS)
            bounds.append(_modulus_up(vr, vi) + _ENTRY_ULPS)
            moduli.append(_modulus_up(zr + self.start * den, zi))
        q, den_bits = self.n * den, den.bit_length() + self.log_n - 1
        vr, vi, err, size, level = re[-1], im[-1], errs[-1], moduli[-1], self.level
        fr = zr + (self.start + len(bounds) - 1) * den
        while len(bounds) <= index:
            if err and (fr or zi):
                if zi:
                    vr, vi = (vr * fr - vi * zi) // q, (vr * zi + vi * fr) // q
                else:  # vi is exactly 0 at real z
                    vr = vr * fr // q
                level += size.bit_length() - den_bits
                err = -(-err * size // q) + 2
                bound = _modulus_up(vr, vi)
                if err.bit_length() > level:
                    err = min(err, bound + (1 << max(level, 0)))
                bound += err
            else:
                vr = vi = err = bound = 0
            fr += den
            size = _modulus_up(fr, zi)
            re.append(vr)
            im.append(vi)
            errs.append(err)
            bounds.append(bound)
            moduli.append(size)
        self.level = level
        return bounds[index]

    def _remainder(self, k: int, order: int) -> int:
        """The bound of R for G_k with M = order correction terms, in ulps:
        |beta_(M+1)| |V_(k+2M+1)| |w + 2M + 1| / (Re w + 2M + 1), w = z + k,
        rounded up. Steps the table of |beta_j| and V as far as it needs."""
        betas = self.betas
        while len(betas) <= order + 1:
            bn, bd = bernoulli_over_factorial(len(betas))
            betas.append((abs(bn), bd))
        size, bd = betas[order + 1]
        m = k + 2 * order + 1
        index, bounds = m - self.start, self.bound
        bound = bounds[index] if index < len(bounds) else self.size(m)
        # |V_m| |z + m| den / (bd den (Re z + m)), Re z + m > 0
        return -(-bound * size * self.modulus[index] // (bd * (self.zr + m * self.den)))

    def remainders(self, pairs: list[tuple[int, int]]) -> list[int]:
        """The bound of R (_remainder) for each (k, M) in pairs."""
        return [self._remainder(k, order) for k, order in pairs]

    def order(self, k: int, budget: int) -> int:
        """The least M whose remainder bound for G_k is at most budget ulps,
        or, where the bounds stop falling first, the M of the least one: one
        loop over M, each step reading one more |beta_j| and two more V."""
        order, best = 0, self._remainder(k, 0)
        while best > budget:
            nearer = self._remainder(k, order + 1)
            if nearer >= best:
                break
            order, best = order + 1, nearer
        return order

    def sums(self, pairs: list[tuple[int, int]]) -> list[tuple[tuple[int, int], int]]:
        """((re, im) of G_k with M correction terms, rounding bound), all in
        ulps, for each (k, M) in pairs, k > start: G_k reads V_(k-1)."""
        count = max(m for _, m in pairs)
        self.size(max(k + 2 * m for k, m in pairs))
        if count > self.count:
            den, numerators = bernoulli_ratios(count)
            self.count, self.ratios = count, (den, numerators[1:], [abs(x) for x in numerators[1:]])
        den, numerators, sizes = self.ratios
        re, im, errs, start, real = self.re, self.im, self.err, self.start, not self.zi
        out = []
        for k, m in pairs:
            index = k - start
            xr, xi, x_err = re[index], im[index], errs[index]
            vr, vi, rounding = re[index - 1], im[index - 1], errs[index - 1]
            vr += xr >> 1
            vi += xi >> 1
            rounding += (x_err + 1) // 2 + 2
            if m:
                part = slice(index + 1, index + 2 * m, 2)  # V_(k+1), V_(k+3), ...
                vr += sum(map(mul, numerators, re[part])) // den
                if not real:  # every V is exactly real at real z
                    vi += sum(map(mul, numerators, im[part])) // den
                rounding -= -sum(map(mul, sizes, errs[part])) // den - 2
            out.append(((vr, vi), rounding))
        return out


def zeta_em_reference(s, digits: int = 40):
    """Independent zeta oracle: direct Euler-Maclaurin continuation, in
    fixed point on Python integers.

    Shares only the Bernoulli table, _least_factors, the exact reading of s
    (_exact_point, the integer triple z = (zr + i zi)/den) and the exact
    conversion of its result (_mp_value) with the identity evaluator, and
    calls none of its inner sums. With N = 10 + digits,

        zeta(z) = sum_{n<N} n^-z + N^(1-z)/(z-1) + N^-z/2
                  + sum_{j>=1} B_2j/(2j)! (z)_(2j-1) N^(-z-2j+1) + R.

    Each p^-z, p <= N prime, is an integer pair in units of 2^-wp from
    mpmath's fixed-point kernels at the oracle's own wp: exp_fixed of
    -Re z log p and cos_sin_fixed of -Im z log p, log p from
    log_int_fixed. A composite n^-z is the integer product of two earlier
    powers. Every other factor is an exact rational, and each term is
    floored once. Corrections are added until the next one falls below
    10^-(digits + _GUARD), compared in integers, so the order grows with
    |s| as well as with digits. The series is asymptotic: where a term
    stops falling while still above 10^-(digits + _GUARD), no order meets
    the target at N, and the oracle raises ValueError naming s and the
    order j. wp resolves 10^-(digits + _GUARD) with _ORACLE_GUARD_BITS to
    spare; for Re s < 1 the direct sum grows like N^(1-Re s) while
    zeta(s) = O(1), so wp adds the bits of N^(1-Re s) and of two more
    decimal digits. No mpmath context is used: the oracle neither reads
    nor sets mpmath's shared precision, so concurrent calls get the
    serial bits. Returns an mpf for real s, else an mpc, exactly; raises
    PoleError at s = 1.
    """
    _check_digits(digits)
    zr, zi, den = _exact_point(s)
    if zr == den and not zi:
        raise PoleError("zeta has a pole at s = 1")
    n_direct = 10 + digits
    wp = (10 ** (digits + _GUARD)).bit_length() + _ORACLE_GUARD_BITS
    if zr < den:
        # (1 - Re s) log2 N, bounded by the bit length of N, plus 2 digits
        wp += _ceil_div((den - zr) * n_direct.bit_length(), den) + 7
    # n^-z for n = 1..N: the kernels for a prime n, and p^-z (n/p)^-z for
    # a composite n with least prime factor p
    powers, least = [None, (1 << wp, 0)], _least_factors(n_direct)
    for n in range(2, n_direct + 1):
        p = least[n]
        if p < n:
            (ar, ai), (br, bi) = powers[p], powers[n // p]
            powers.append(((ar * br - ai * bi) >> wp, (ar * bi + ai * br) >> wp))
            continue
        log = log_int_fixed(n, wp)
        u = exp_fixed(-(zr * log) // den, wp)
        if zi:
            cos, sin = cos_sin_fixed(-(zi * log) // den, wp)
            powers.append(((u * cos) >> wp, (u * sin) >> wp))
        else:
            powers.append((u, 0))
    *direct, (xr, xi) = powers[1:]
    total_re = sum(x for x, _ in direct) + (xr >> 1)
    total_im = sum(y for _, y in direct) + (xi >> 1)
    # N^(1-z)/(z-1) = X_N N den (a - i zi) / |a + i zi|^2, a = zr - den
    a = zr - den
    q, scale = a * a + zi * zi, n_direct * den
    total_re += scale * (xr * a + xi * zi) // q
    total_im += scale * (xi * a - xr * zi) // q
    # B_2j/(2j)! (z)_(2j-1) N^(-z-2j+1) = bn (pr + i pi) X_N / (bd (den N)^(2j-1)),
    # pr + i pi = (z)_(2j-1) den^(2j-1), all integers; a term of t ulps is
    # below 10^-(digits + _GUARD) when |t|^2 10^(2 (digits + _GUARD)) < 2^(2 wp)
    tens, unit = 10 ** (2 * (digits + _GUARD)), 1 << 2 * wp
    pr, pi, step, below = zr, zi, scale * scale, scale
    previous = None
    j = 1
    while True:
        bn, bd = bernoulli_over_factorial(j)
        d = bd * below
        tr = bn * (xr * pr - xi * pi) // d
        ti = bn * (xr * pi + xi * pr) // d
        size = tr * tr + ti * ti
        if size * tens < unit:
            break
        if previous is not None and size >= previous:
            re, im = Fraction(zr, den), Fraction(zi, den)
            point = f"{re}{'-' if im < 0 else '+'}{abs(im)}i" if im else f"{re}"
            raise ValueError(
                f"zeta_em_reference cannot meet 10^-{digits} at s = {point}: "
                f"its correction terms stop falling at order j = {j}, above "
                f"10^-{digits + _GUARD}, with N = {n_direct}"
            )
        total_re += tr
        total_im += ti
        previous = size
        for shift in (2 * j - 1, 2 * j):
            fr = zr + shift * den
            pr, pi = pr * fr - pi * zi, pr * zi + pi * fr
        below *= step
        j += 1
    return _mp_value(total_re, total_im if zi else None, wp)


def _outside(spec: IdentitySpec, zr: int, den: int) -> bool:
    """The one domain rule of every evaluation: whether Re s = zr/den,
    den > 0, lies left of this identity's domain Re s >= 3/2 - k0, compared
    in integers. The tail majorant (_tail_factors) needs
    Re s + k - 1 >= 1/2 from k = k0 on; that half-plane lies inside the
    validity half-plane Re s > 1 - k0, so no point of the domain is outside
    the identity's validity."""
    return 2 * (zr + spec.k0 * den) < 3 * den


def supports(spec: IdentitySpec, s: Number) -> bool:
    """Whether s lies in this identity's domain (_outside). That answers the
    domain only: eval_identity can still refuse s for the pole guard, for
    the limits of N and of the tail majorant, or for a missed target, each
    of which depends on the digits."""
    zr, _, den = _exact_point(s)
    return not _outside(spec, zr, den)


def _supporting(specs: Sequence[IdentitySpec], point: Point) -> list[IdentitySpec]:
    """The specs whose domain holds the point _exact_point read, in order."""
    zr, _, den = point
    return [spec for spec in specs if not _outside(spec, zr, den)]


def _check_point(spec: IdentitySpec, zr: int, den: int) -> None:
    """The one refusal of a point with Re s = zr/den outside spec's domain
    (_outside): a ValueError naming both bounds."""
    if _outside(spec, zr, den):
        raise ValueError(
            f"Re s = {Fraction(zr, den)} is outside the domain Re s >= {Fraction(3, 2) - spec.k0} "
            f"of the depth-{spec.p} identity (its validity half-plane is "
            f"Re s > {spec.effective_validity}); use a deeper identity (larger p)"
        )


def _weight_coefficients(spec: IdentitySpec) -> tuple[list[int], int, int]:
    """(H, b0, L), the s-independent data of W_m (_last_weight), from
    (B, L) = spec.euler_maclaurin_coefficients, which raises ValueError for
    a spec that is no identity: H_j = L h_j = B_(j+1) - [j = 0] L for
    j < k0, with B_k0 = 0, and b0 = L beta_0 = B_0 = -L."""
    B, L = spec.euler_maclaurin_coefficients
    H = [*B[1:], 0]
    H[0] -= L
    return H, B[0], L


def _last_weight(spec: IdentitySpec, point: Point, m: int) -> tuple[int, int, int]:
    """W_m, the weight of m^-s in the head sum_{n<m} n^-s + m^-s W_m, for
    s = (zr + i zi) / den given as point = (zr, zi, den), s != 1 and
    m >= 2, as an (re, im, den) triple of integers with the value
    (re + i im) / den.

    The head is pole/(s-1) + Q(s) plus the parts n <= m of the inner sums,
    sum_{n=2..m} sum_{k>=k0} r_k (s)_k/(k+1)! n^(-s-k). With
    r_k = sum_i beta_i (k+1) k ... (k+2-i), (B, L) =
    spec.euler_maclaurin_coefficients and beta_i = B_i/L, and R that sum at
    every k, the binomial series gives, for x = 1/n,
    sum_{k>=0} (k+1) k ... (k+2-i) (s)_k/(k+1)! x^k =
    (s)_(i-1) x^(i-1) (1 - x)^(1-i-s) for i >= 1 and
    (1 - (1 - x)^(1-s)) / ((1 - s) x) for i = 0. Summed over n (the i = 0
    part telescopes), less the terms k < k0, where r_k = 0 but R(k) need
    not be, the parts n <= m are

        beta_0 (m^(1-s) - 1)/(1-s) + sum_{i>=1} beta_i (s)_(i-1) sum_{n=1..m-1} n^(1-i-s)
        - sum_{k<k0} R(k) (s)_k/(k+1)! sum_{n=2..m} n^(-s-k).

    The Euler-Maclaurin identity, which spec.euler_maclaurin_coefficients
    proves the spec is, makes the constant part and the weight of every
    n^-s, 1 < n < m, exactly 1, and leaves W_m = beta_0 m/(1-s) -
    sum_{j<k0} h_j (s)_j m^-j, h_j = R(j)/(j+1)! = beta_(j+1) - [j = 0]:
    an exact rational."""
    zr, zi, den = point
    H, b0, L = _weight_coefficients(spec)
    # L sum_j h_j (s)_j m^-j = (hr + i hi) / scale by Horner in the rising
    # factorials, H_0 + (s/m) (H_1 + ((s+1)/m) (H_2 + ...)): scale = (den m)^(k0-1)
    hr, hi, scale = H[-1], 0, 1
    for j in range(len(H) - 2, -1, -1):
        scale *= den * m
        fr = zr + j * den
        hr, hi = H[j] * scale + hr * fr - hi * zi, hr * zi + hi * fr
    # beta_0 m / (1 - s) = b0 m den (den - zr + i zi) / (L q)
    q = (den - zr) ** 2 + zi * zi
    pole = b0 * m * den * scale
    return pole * (den - zr) - hr * q, pole * zi - hi * q, L * q * scale


class _Depth:
    """One series' share of a pass: its running outer sum (an (re, im)
    pair of ulps), its error tallies in ulps, the G_k it adds, and, once its
    tail majorant is under the threshold, where it stopped and that
    majorant (tail_bound, in ulps). The series is sum_{k>=k0} r_k/(k+1)! G_k
    with r_k = sum_{i<length} beta_i (k+1) k ... (k+2-i): its beta_i are the
    first `length` of the pass's coefficients (_outer_series)."""

    def __init__(self, k0: int, length: int):
        self.k0, self.length = k0, length
        self.total_re = self.total_im = 0
        # (index of k in the pass, num, |num|, rden): rho_k = num/rden
        self.terms = []
        self.inner_err = 0  # sum of |rho_k| * inner truncation
        self.rounding = 0  # sum of propagated errors
        self.products = 0  # term products, each floored
        self.terms_used = self.tail_bound = None


def _tail_factors(inner: _InnerSums, k: int):
    """(size, growth, below) for k, k + 1, ...: size is the bound of |V_k|
    from inner, and the a-priori majorant of the outer tail past k >= k0 of
    a series with r_k = sum_i beta_i (k+1) k ... (k+2-i), beta_i = B_i/L,
    sum_{m>=1} |rho_(k+m)| |G_(k+m)|, is growth * U_k / (below L (k+1)!)
    ulps, U_k = sum_i |B_i| (k+1) k ... (k+2-i), for z and N from inner. It
    rests on three facts:

    - rho_j = r_j/(j+1)! = sum_i beta_i/(j+1-i)!, and (k+1+m-i)! >=
      (k+1-i)! m!;
    - |(c)_(k+m-start)| <= |(c)_(k-start)| (A)_m, A = |z + k|;
    - zeta(sigma+k+m, N) <= N^-m N^-(sigma+k) (1 + N/(sigma+k-1)),
      sigma = Re z, with sigma + k - 1 >= 1/2 from k = k0 on by the one
      domain rule, Re s >= 3/2 - k0 (_outside; sum_zeta_m1: k >= 2 at
      z = 0).

    So the tail is at most |V_k| (1 + N/(sigma+k-1))
    sum_i |beta_i|/(k+1-i)! sum_{m>=1} (A)_m/m! N^-m, and the last sum is
    (1 - 1/N)^-A - 1 <= e^y - 1 <= y e^y <= y 2^ceil(3y/2), y = A/(N-1).
    Everything is an integer: with z = (zr + i zi) / den,
    a = _modulus_up(den (z + k)) > den A and g = den (sigma + k - 1), and
    U_k / (L (k+1)!) = sum_i |beta_i|/(k+1-i)!. The majorant is exactly 0
    where V_k is, and so is every later term. U_k only grows with the
    number of coefficients, so of two series whose coefficients are
    prefixes of one list, the longer one's majorant is the larger.

    size and a are read off the lists inner.size fills, stepped on eight
    indices at a time."""
    zr, den, n, start = inner.zr, inner.den, inner.n, inner.start
    bounds, moduli = inner.bound, inner.modulus
    lift, below = n * den, den * (n - 1)
    g = zr + (k - 1) * den
    while True:
        if k - start >= len(bounds):
            inner.size(k + 7)
        size, a = bounds[k - start], moduli[k - start]
        yield size, (size * (g + lift) * a) << _tail_shift(a, den, n), g * below
        k += 1
        g += den


def _tail_shift(a: int, den: int, n: int) -> int:
    """ceil(3y/2), y = a/(den (N - 1)) for a = _modulus_up(den (z + k)): the
    bits of the tail majorant's factor 2^ceil(3y/2) at k (_tail_factors).
    The series runs until (k+1)! outgrows it, about 3 Re s/(2 (N - 1))
    bits at a large Re s."""
    return _ceil_div(3 * a, 2 * den * (n - 1))


def _tail_bound(bound: int, scale: int, threshold: int) -> Optional[int]:
    """The tail majorant bound / scale in ulps, rounded up, if it is under
    threshold ulps, else None. Compared by a product, not divided, since at
    large Re s both run to tens of thousands of bits."""
    return _ceil_div(bound, scale) if bound < threshold * scale else None


def eval_identity(spec: IdentitySpec, s: Number, digits: int = 40) -> EvalReport:
    """Evaluate zeta(s) through the depth-p identity at the given target
    precision.

    Raises ValueError for an s left of the identity's domain
    Re s >= 3/2 - k0, which lies inside its validity half-plane
    Re s > 1 - k0 (_check_point, one message naming both bounds), for an s
    past the limits of N or of the tail majorant, or for a spec that is no
    identity (IdentitySpec.euler_maclaurin_coefficients); PoleError (a
    ValueError) within 10^(-digits/2) of s = 1; and PrecisionError (a
    ValueError) when the error bound reached exceeds 10^-digits.
    """
    return eval_identities([spec], s, digits)[0]


def eval_identities(
    specs: Sequence[IdentitySpec], s: Number, digits: int = 40
) -> list[EvalReport]:
    """Evaluate zeta(s) through several identities in one pass over k; one
    report per spec, in order.

    Each identity is evaluated in its shifted split (see the module
    docstring): the head sum_{n<m} n^-s + m^-s W_m and the series over the
    inner sums zeta(s + k, m + 1), m + 1 = N = _split_point(digits, zi, den)
    for s = (zr + i zi)/den as _exact_point reads it, once. The
    identities share z, the partial sum, the sequence V_m = (s)_m (m+1)^-(s+m), the
    fixed-point scale (the largest any of them needs) and at each k one
    G_k = (s)_k zeta(s + k, m + 1), from one band of Euler-Maclaurin orders
    taken once (_outer_series). Each depth keeps its
    own total, error tallies and tail bound, and stops on its own. Every
    spec is checked before any work, against its own domain
    Re s >= 3/2 - k0 (_check_point): the first whose domain misses s raises
    what eval_identity raises for it. Then the pole guard, and every spec
    is proved the Euler-Maclaurin identity
    of its k0 (IdentitySpec.euler_maclaurin_coefficients): the first that
    is not raises ValueError naming its depth. So specs with equal k0 are
    one identity (depths 3 and 4, say): they share one head and one share
    of the pass, and each gets that identity's report with its own p_used.
    An empty specs raises ValueError, and a depth whose bound exceeds
    10^-digits PrecisionError for the whole batch. N is decided before
    any work, and the batch is one pass at it.
    """
    _check_digits(digits)
    return _eval_point(specs, _exact_point(s), digits)


def _eval_point(specs: Sequence[IdentitySpec], point: Point, digits: int) -> list[EvalReport]:
    """eval_identities at a point _exact_point has read, for checked digits:
    a caller that also picks the depths at the point (_supporting) reads it
    once for both."""
    if not specs:
        raise ValueError("eval_identities needs at least one identity")
    zr, zi, den = point
    for spec in specs:
        _check_point(spec, zr, den)
    # |s - 1|^2 <= 10^-digits, in integers
    if ((zr - den) ** 2 + zi * zi) * 10**digits <= den * den:
        raise PoleError(f"s is within the pole guard radius 10^-({digits}/2) of s = 1")
    n = _split_point(digits, zi, den)
    # each spec is proved the identity of its k0, or raises, before any
    # work; twins, equal in k0, are then one identity, and one head and one
    # share of the pass serve them all, in ascending k0. Each head is
    # exactly 1, with weight 1 on sum_{n=2..m-1} n^-s and W_m on m^-s. The
    # beta_i = -b_i/i! do not depend on k0, so each series' coefficients are
    # the first k0 of the deepest one's
    firsts = {}
    for spec in specs:
        spec.euler_maclaurin_coefficients  # the proof: raises for a false spec
        firsts.setdefault(spec.k0, spec)
    k0s = sorted(firsts)
    owners = [k0s.index(spec.k0) for spec in specs]
    coefficients = firsts[k0s[-1]].euler_maclaurin_coefficients
    ps = [spec.p for spec in specs]

    m = n - 1
    heads = [(k0, k0, (1, 0, 1), [(1, 0, 1), _last_weight(firsts[k0], point, m)]) for k0 in k0s]
    head_ulps = [_ENTRY_ULPS * (m - 2), _ENTRY_ULPS]

    def values(inner):
        *middle, last = inner.head()
        return list(zip([(sum(x for x, _ in middle), sum(y for _, y in middle)), last], head_ulps))

    return _outer_series(ps, owners, point, n, 0, coefficients, heads, head_ulps, values, digits)


def zeta_prime_at_zero(spec: IdentitySpec, digits: int = 40) -> EvalReport:
    """zeta'(0) from the shifted split differentiated term by term at
    s = 0, with an error bound like any evaluation. For j >= 1, (s)_j
    vanishes at 0 and has derivative (j-1)!. So with (H, b0, L) =
    _weight_coefficients(spec) (see _last_weight) and m = N - 1,

        zeta'(0) = W_m'(0) - log((m-1)!) - W_m(0) log m
                   + sum_{k>=k0} r_k / (k(k+1)) zeta(k, N),

    with the exact W_m'(0) = [b0 m - sum_{1<=j<k0} H_j (j-1)! m^-j] / L and
    W_m(0) = (b0 m - H_0) / L. The logs come from _InnerSums.logs, sums of
    the log table's log p, each with the ulps it is within.

    Needs an identity whose domain Re s >= 3/2 - k0 holds 0, k0 >= 2, and
    raises for one that does not (_check_point, the message eval_identity
    gives at s = 0) and for a spec that is no identity, as eval_identity
    does.
    """
    _check_digits(digits)
    _check_point(spec, 0, 1)
    n = _split_point(digits, 0, 1)
    m = n - 1
    H, b0, L = _weight_coefficients(spec)
    # W_m'(0) over L m^(k0-1)
    top = len(H) - 1
    head = b0 * m ** (top + 1)
    head -= sum(h * factorial(j - 1) * m ** (top - j) for j, h in enumerate(H) if j)
    weights = [(H[0] - b0 * m, 0, L), (-1, 0, 1)]  # of log m and log((m-1)!)
    heads = [(spec.k0, spec.k0, (head, 0, L * m**top), weights)]
    coefficients = spec.euler_maclaurin_coefficients
    return _outer_series([spec.p], [0], (0, 0, 1), n, 1, coefficients, heads, [2, 2], _InnerSums.logs, digits)[0]


def _outer_series(
    ps, owners, point, n, start, coefficients, heads, head_ulps, values, digits: int
) -> list[EvalReport]:
    """head + sum_i w_i x_i + sum_{k >= k0} rho_k G_k for each distinct
    series, in one pass over k from the least k0, for the exact
    s = point = (zr, zi, den) that _exact_point read,
    rho_k = r_k/(k+1)! and G_k = (s + start)_(k - start) zeta(s + k, N)
    (_InnerSums), N = n the caller's _split_point, k0 > start.
    coefficients is (B, L), beta_i = B_i/L, and every series is a prefix of
    it: heads holds one (k0, length, exact head, weights w_i) per distinct
    series, in ascending k0 and length, with r_k = sum_{i<length} beta_i
    (k+1) k ... (k+2-i); head and weights are integer triples
    (re, im, den). Report i takes the result of heads[owners[i]], with
    p_used = ps[i]. values(inner) gives each x_i in ulps of the pass's
    _InnerSums with u_i, the ulps it is within, and the tally adds
    u_i |w_i|, rounded up: |w_i| exactly for a real weight, else bounded
    by _modulus_up. head_ulps[i] is the u_i the scale is set for, before
    the pass: for zeta_prime_at_zero's logs, the 2 ulps that hold while
    their summed units fit the shift (_InnerSums.logs).
    eval_identities passes start 0 and the Euler-Maclaurin coefficients of
    its deepest series, of which each shallower one's (B, L) is the first
    k0 scaled by a divisor of L, so rho_k G_k is
    r_k (s)_k/(k+1)! zeta(s + k, N), the head 1 and the weights 1 of the
    partial sum sum_{n=2..m-1} n^-s and W_m of m^-s; zeta_prime_at_zero
    passes s = 0 and start 1, so rho_k G_k is r_k/(k(k+1)) zeta(k, N), the
    s-derivative at 0 of the same term, and the weights of log m and
    log((m-1)!);
    sum_zeta_m1 passes s = 0, start 1 and r_k = k(k+1), the falling
    product of beta_2 = 1 alone from k0 = 2, so rho_k G_k is zeta(k, N),
    with no weights.

    P is set once (_scale_bits), from the largest head weight times the
    ulps of the value it multiplies. The series adds nothing to it: each
    rounding of G_k counts against its exact rho_k, and the error of each
    V_m is capped by its size, so the series' tally is a count of ulps
    that does not grow with P.

    Before any power, a point whose tail majorant's shift (_tail_shift) at
    the least k0 exceeds 2^_TAIL_BITS bits raises ValueError naming the
    limit. Then each depth's last k: a depth stops at the first k >= k0 where
    the a-priori majorant of its tail past k (_tail_factors) is under the
    threshold, at once where V_k, and so every later term, is exactly 0.
    It covers zeta_prime_at_zero and sum_zeta_m1 as well: there z = 0,
    start = 1, A = k and V_k = (k-1)! N^-k. At each k every running
    series has rho_k = num/rden over the one rden = L (k+1)!, and one
    running sum over i, as far as the longest running series reads, gives
    each one's num = L r_k and its majorant's U_k (_tail_factors) as
    prefix sums. The majorants are nested, a longer prefix's the larger,
    so the series that stop at k are a prefix of those running, in k0
    order: the walk tests the shallowest running series and moves on
    while it passes, one failed test per k at most. Then one band of orders for
    every G_k, decided once: J is one _InnerSums.order call, the least
    order that meets share = max(threshold // _INNER_SAFETY, 1) at k*, the
    k with the largest bound |rho_k| size(k) of |rho_k V_k|, relative to
    its rho_k*, or the order where that remainder stops falling; at each k
    it is one comparison, of the largest |num|. G_k takes
    M_k = min(J, (T - k + 1) // 2) terms, T = max(k* + 2J - 1, K + 1) and K
    the last k, so no G_k reads V past V_T. The band is swept once: one
    remainders call gives each depth's inner truncation sum_k |rho_k| R_k,
    R_k the bound of M_k rounded up per term, and one sums call the G_k.
    Every running depth adds rho_k G_k at each of its k, G_k shared; G_k is
    exactly 0 where V_k is, and is skipped there, and so is every
    imaginary part that is exactly 0. Each depth's error bound is its
    tally in ulps, and its report's error_estimate is that tally times
    2^-P, exactly. If any tally exceeds 2^P 10^-digits, PrecisionError
    raises with every report, each bound still holding, and names each
    missed bound through _format_bound."""
    zr, zi, den = point
    k = heads[0][0]
    shift = _tail_shift(_modulus_up(zr + k * den, zi), den, n)
    if shift > 1 << _TAIL_BITS:
        raise ValueError(
            f"Re s = {zr / den:.4g} at {digits} digits needs a tail majorant shift of "
            f"{shift:.4g} bits at N = {n}, past the limit of 2^{_TAIL_BITS} bits"
        )
    weighted = [_log2_up(*w) + u.bit_length() for _, _, _, ws in heads for w, u in zip(ws, head_ulps)]
    bits = _scale_bits(digits, max(weighted, default=0))
    depths = [_Depth(k0, length) for k0, length, _, _ in heads]
    threshold = (1 << bits) // 10 ** (digits + 5)
    inner = _InnerSums(point, n, bits, start)
    head_values = values(inner)
    for d, (_, _, _, weights) in zip(depths, heads):
        for ((xr, xi), ulps), (wr, wi, wd) in zip(head_values, weights):
            d.total_re += (wr * xr - wi * xi) // wd
            d.total_im += (wr * xi + wi * xr) // wd
            d.rounding += _ceil_div(ulps * (_modulus_up(wr, wi) if wi else abs(wr)), wd)
            d.products += 1
    B, L = coefficients
    sizes = [abs(b) for b in B]
    top = factorial(k + 1)  # (k+1)!, exact at every k
    # depths[lo:hi] run at k: those below lo have stopped, those from hi on
    # start past k
    lo = hi = 0
    # each k whose G_k some depth adds, and the k of the largest bound
    # |num| size(k) / rden of |rho_k V_k|, with that bound
    ks, peak, star = [], (0, 1), None
    factors = _tail_factors(inner, k)
    while lo < len(depths):
        size, growth, below = next(factors)
        while hi < len(depths) and depths[hi].k0 <= k:
            hi += 1
        running, rden = depths[lo:hi], L * top
        # (k+1) k ... (k+2-i) for each i the longest running depth reads,
        # and the prefix sums of B_i times them: num = L r_k of a depth of
        # length l is the (l-1)-th
        longest = running[-1].length if running else 1
        falling = list(accumulate(range(k + 1, k + 2 - longest, -1), mul, initial=1))
        prefix = list(accumulate(map(mul, B, falling)))
        # each running depth adds its term, unless V_k or r_k is exactly 0,
        # and k* needs only the largest |num|
        largest, index = 0, len(ks)
        for d in running if size else ():
            num = prefix[d.length - 1]
            if num:
                d.terms.append((index, num, abs(num), rden))
                largest = max(largest, abs(num))
        if largest:
            ks.append(k)
            if largest * size * peak[1] > peak[0] * rden:
                peak, star = (largest * size, rden), (k, largest, rden)
        # U_k, the prefix sums of |B_i| falling_i, only grows with the
        # length, so the depths that stop at k are the first of running:
        # test the shallowest and move on only while it passes
        majorants = list(accumulate(map(mul, sizes, falling)))
        for d in running:
            tail = _tail_bound(growth * majorants[d.length - 1], below * rden, threshold)
            if tail is None:
                break
            d.terms_used, d.tail_bound = k, tail
            lo += 1
        k += 1
        top *= k + 1
    order = 0
    if ks:
        share = max(threshold // _INNER_SAFETY, 1)
        k_star, num, rden = star
        order = inner.order(k_star, share * rden // num)
        # the band: no G_k reads V past V_T, T = max(k* + 2J - 1, K + 1)
        last = max(ks[-1] + 1, k_star + 2 * order - 1)
        band = [(k, min(order, (last - k + 1) // 2)) for k in ks]
        remainders, sums = inner.remainders(band), inner.sums(band)
        for d in depths:
            total_re = total_im = rounding = truncation = 0
            for i, num, size, rden in d.terms:
                (vr, vi), err = sums[i]
                total_re += vr * num // rden
                if vi:
                    total_im += vi * num // rden
                rounding -= -size * err // rden
                truncation -= -size * remainders[i] // rden
            d.total_re += total_re
            d.total_im += total_im
            d.rounding += rounding
            d.inner_err = truncation
            d.products += len(d.terms)
    results = []
    for d, (_, _, (hr, hi, hd), _) in zip(depths, heads):
        # the head's two floors and each product's two: 2 ulps each
        error = d.tail_bound + d.inner_err + d.rounding + 2 * (d.products + 1)
        value = _mp_value(d.total_re + (hr << bits) // hd, d.total_im + (hi << bits) // hd, bits)
        miss = error * 10**digits > 1 << bits
        results.append((value, d.terms_used, _mp_value(error, None, bits), miss))
    reports, missed = [], []
    for p, owner in zip(ps, owners):
        value, terms_used, estimate, miss = results[owner]
        report = EvalReport(
            value=value,
            p_used=p,
            terms_used=terms_used,
            error_estimate=estimate,
            split_point=inner.n,
            correction_order=order,
            last_em_k=ks[-1] if ks else None,
        )
        reports.append(report)
        if miss:
            missed.append(report)
    if missed:
        bounds = ", ".join(f"{_format_bound(r.error_estimate)} (depth {r.p_used})" for r in missed)
        raise PrecisionError(f"cannot meet 10^-{digits}: error bound {bounds}", reports)
    return reports


def sum_zeta_m1(digits: int = 40) -> EvalReport:
    """The paper's sum identity sum_{k>=2} (zeta(k) - 1) = 1, summed in the
    split at N = _split_point(digits, 0, 1) for s = 0, with an error bound
    like any evaluation (p_used 0: the series belongs to no depth). The part n < N
    is exact: sum_{n=2..N-1} 1/(n(n-1)) = (N-2)/(N-1). The rest,
    sum_{k>=2} zeta(k, N), is the series rho_k G_k of zeta_prime_at_zero's
    pass with r_k = k(k+1) from k0 = 2, so rho_k = 1/(k-1)! and
    G_k = (k-1)! zeta(k, N). Raises PrecisionError when the bound exceeds
    10^-digits."""
    _check_digits(digits)
    n = _split_point(digits, 0, 1)
    # r_k = (k+1) k from k0 = 2: beta_2 = 1, one falling product of two
    # factors, so the series reads three coefficients
    heads = [(2, 3, (n - 2, 0, n - 1), [])]
    return _outer_series([0], [0], (0, 0, 1), n, 1, ((0, 0, 1), 1), heads, [], lambda inner: [], digits)[0]
