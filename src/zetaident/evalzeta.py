"""Arbitrary-precision evaluation of the derived identities.

Big-float arithmetic is mpmath (mpf/mpc); every public operation takes a
decimal `digits` target and works internally at digits + 10 guard digits
(more where cancellation demands it). Exact rationals from the derivation
layer are converted at working precision only at the point of use.

The independent cross-check `zeta_em_reference` computes zeta directly by
Euler-Maclaurin summation and shares nothing with `eval_identity` except
the Bernoulli table, so agreement between the two is meaningful.

`eval_identities` evaluates several depths at one point in one pass over
k: every depth's identity has the same inner sums zeta(s + k) - 1 and the
same factor (s)_k/(k+1)!, and only r_k differs. `eval_identity` is the
batch of one.

Each call computes its inner sums zeta(s + k) - 1 from one table of
n^-(s+k), n = 2..N with N = 10 + digits: every power is computed once and
stepped from k to k + 1 by a factor 1/n. Each k gets the budget
10^-(digits+5) / (16 |coefficient_k|), the smallest such budget over the
depths of a batch, and the cheaper route that meets it:
a direct sum alone when some cutoff M <= N has a small enough tail bound,
else the direct sum to N plus as many Euler-Maclaurin terms as the
remainder bound asks for. The oracle keeps its own fixed schedule, N direct
terms and ceil(digits/4) + 5 correction terms. Truncation of each depth's
outer series stops at the first k >= k0 + 8 whose bound
|r_k| * |(s)_k| / (k+1)! * 2^(1 - Re s - k) * 4 drops below 10^-(digits+5);
the 2^(1-sigma) factor majorizes |zeta(sigma) - 1| (times the safety 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log2
from typing import Sequence, Union

from mpmath import mp

from .derive import IdentitySpec
from .exactmath import Polynomial, bernoulli

_GUARD = 10
# Each inner sum gets the budget threshold / (|coefficient| * _INNER_SAFETY).
_INNER_SAFETY = 16

Number = Union[int, float, complex, Fraction]


class PoleError(ValueError):
    """Evaluation point is at (or numerically indistinguishable from) s = 1."""


class CapacityError(ValueError):
    """The identity does not store (or extrapolate to) enough series terms
    for the requested precision."""


@dataclass
class EvalReport:
    """Result of one identity evaluation.

    error_estimate bounds |value - zeta(s)|: outer truncation bound plus
    accumulated inner-sum bounds plus rounding allowances for the outer sum
    and for the inner recurrence.
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


def _poly_eval_mp(poly: Polynomial, x):
    """Horner evaluation with per-step conversion of exact coefficients."""
    acc = mp.mpf(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + _fraction_to_mp(c)
    return acc


def _real_part(s: Number) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, (int, float)):
        return Fraction(s)
    if isinstance(s, complex):
        return Fraction(s.real)
    if isinstance(s, tuple) and len(s) == 2:
        return _real_part(s[0])
    return Fraction(float(mp.re(s)))


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


class _InnerSums:
    """zeta(z + k) - 1 for one z and shifts k taken in nondecreasing order,
    each with a truncation bound and a rounding bound.

    The powers n^-(z+k), n = 2..N with N = _direct_terms(digits), live in
    one table for the whole call: an entry is computed as n^-z / n^k when
    first needed and then stepped to later shifts by
    n^-(w+1) = n^-w * (1/n). Each shift is summed by the cheaper of two
    routes that meets its budget:

    - direct only: sum_{2 <= n < M} n^-w for the first M <= N whose tail
      bound M^-sigma + M^(1-sigma)/(sigma-1) is under budget;
    - the direct sum to N plus Euler-Maclaurin terms, added until the
      remainder bound (first omitted term * |w+2m+1|/(sigma+2m+1)) is under
      budget.

    When neither route meets the budget the returned bound is the one
    reached, not the budget. Create and call it at one working precision.
    """

    def __init__(self, z, k0: int, digits: int):
        self.z = z
        self.k0 = k0
        self.re_z = mp.re(z)
        self.n_max = _direct_terms(digits)
        self.eps = mp.eps
        # index n: n^-(z + shift[n]) and 1/n; B_2j/(2j)! at index j
        self.powers = [None, None]
        self.shift = [None, None]
        self.inv = [None, None]
        self.em_coefs = [None]
        self.max_order = 0
        self.last_em_k = None

    def cutoffs(self) -> dict:
        """The schedule used: the largest n tabulated (0 when no inner sum
        was needed), the largest Euler-Maclaurin order, and the last k that
        needed one (None when direct sums sufficed throughout)."""
        top = len(self.powers) - 1
        return {
            "direct_terms": top if top >= 2 else 0,
            "correction_order": self.max_order,
            "last_em_k": self.last_em_k,
        }

    def _table(self, k: int, top: int) -> list:
        """The table through n = top, every entry at shift k."""
        pw, shift, inv = self.powers, self.shift, self.inv
        for n in range(2, top + 1):
            if n == len(pw):
                # z + k would round, by up to |z + k| ulps
                pw.append(mp.power(n, -self.z) / n**k)
                shift.append(k)
                inv.append(1 / mp.mpf(n))
            elif shift[n] != k:
                steps = k - shift[n]
                pw[n] *= inv[n] if steps == 1 else inv[n] ** steps
                shift[n] = k
        return pw

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

    def _em_coef(self, j: int):
        coefs = self.em_coefs
        while len(coefs) <= j:
            i = len(coefs)
            coefs.append(_fraction_to_mp(bernoulli(2 * i)) / factorial(2 * i))
        return coefs[j]

    def __call__(self, k: int, budget):
        """(zeta(z+k) - 1, truncation bound, rounding bound), aiming for a
        truncation bound <= budget."""
        w = self.z + k
        sigma = self.re_z + k
        # mag(budget) - 2 is the log2 of a power of two below the budget
        cutoff = self._direct_cutoff(float(sigma), mp.mag(budget) - 2)
        top = self.n_max if cutoff is None else cutoff
        pw = self._table(k, top)
        # bounds the sum of |n^-w| over n >= 2 plus N^-sigma/2
        size = abs(pw[2]) * (2 + 2 / (sigma - 1))
        if cutoff is not None:
            value = mp.fsum(pw[2:top])
            err = abs(pw[top]) * (1 + top / (sigma - 1))
            return value, err, self._rounding(k, top, size)
        tail = pw[top]
        value = mp.fsum(pw[2:top]) + top * tail / (w - 1) + tail / 2
        poch = w
        npow = tail * self.inv[top]
        inv_n2 = self.inv[top] ** 2
        prev = None
        j = 1
        while True:
            term = self._em_coef(j) * poch * npow
            size_j = abs(term)
            err = size_j * abs(w + 2 * j - 1) / (sigma + 2 * j - 1)
            # stop once under budget, or once the asymptotic terms grow
            if err <= budget or (prev is not None and err >= prev):
                break
            value += term
            size += size_j
            prev = err
            poch = poch * (w + 2 * j - 1) * (w + 2 * j)
            npow = npow * inv_n2
            j += 1
        order = j - 1
        self.max_order = max(self.max_order, order)
        self.last_em_k = k
        return value, err, self._rounding(k, top + 2 * order, size)

    def _rounding(self, k: int, operations: int, size):
        """Bound on the rounding error of one inner sum whose terms have
        absolute values summing to at most size. A table entry has been
        through at most 2(k - k0) + 3 roundings (the power, the division by
        n^k, then 1/n and one product per step); each summed term and each
        Euler-Maclaurin factor adds a few more. 4 eps is 8 unit roundoffs
        per counted operation."""
        return size * (k - self.k0 + 3 + operations) * 4 * self.eps


def zeta_m1(sigma, digits: int = 40):
    """zeta(sigma) - 1, keeping full relative accuracy when the value is
    tiny (large Re sigma). Requires Re sigma >= 1.5."""
    _check_digits(digits)
    with mp.workdps(digits + _GUARD):
        z = _to_mp(sigma)
        if not mp.re(z) >= mp.mpf(3) / 2:
            raise ValueError(
                "zeta_m1 requires Re(sigma) >= 1.5; identity evaluation keeps "
                "inner arguments in this range"
            )
        # relative to 2^-Re z, the size of zeta(z) - 1 for large Re z
        budget = mp.mpf(10) ** (-(digits + 5)) * mp.power(2, -mp.re(z))
        return _InnerSums(z, 0, digits)(0, budget)[0]


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
    re_s = _real_part(s)
    return re_s > spec.effective_validity and re_s + spec.k0 >= Fraction(3, 2)


def _check_point(spec: IdentitySpec, z, digits: int) -> None:
    """Raise what eval_identity raises when spec cannot be evaluated at z."""
    bound = spec.effective_validity
    if not mp.re(z) > _fraction_to_mp(bound):
        raise ValueError(
            f"s with Re s = {mp.nstr(mp.re(z), 8)} is outside the validity "
            f"half-plane Re s > {bound} of the depth-{spec.p} identity"
        )
    if abs(z - 1) <= mp.mpf(10) ** (-mp.mpf(digits) / 2):
        raise PoleError(
            f"s is within the pole guard radius 10^-({digits}/2) of s = 1"
        )
    if not mp.re(z) + spec.k0 >= mp.mpf(3) / 2:
        raise ValueError(
            f"inner series argument Re(s) + k0 = Re(s) + {spec.k0} falls "
            f"below 1.5; use a deeper identity (larger p)"
        )


class _Depth:
    """One identity's share of a batch: its running outer sum, its error
    terms, and, once its tail bound is met, where it stopped."""

    def __init__(self, spec: IdentitySpec, z):
        self.spec = spec
        self.total = _fraction_to_mp(spec.pole_coefficient) / (z - 1)
        self.total += _poly_eval_mp(spec.q_poly, z)
        self.inner_err = mp.mpf(0)
        self.inner_rounding = mp.mpf(0)
        self.max_term = mp.mpf(0)
        # r_k (s)_k / (k+1)! at the current k, and its absolute value
        self.coef = self.size = None
        self.terms_used = self.tail_bound = None


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

    The identities share z, (s)_k, (k+1)! and 2^(1 - Re s - k), and at each
    k one inner sum zeta(s + k) - 1, computed at the tightest budget among
    the depths that need it. Each depth keeps its own total, error terms
    and tail bound, and stops on its own. Every spec is checked before any
    work: the first that cannot be evaluated at s raises what eval_identity
    raises for it. An empty specs raises ValueError.
    """
    _check_digits(digits)
    if not specs:
        raise ValueError("eval_identities needs at least one identity")
    wp = digits + _GUARD
    with mp.workdps(wp):
        z = _to_mp(s)
        for spec in specs:
            _check_point(spec, z, digits)
        threshold = mp.mpf(10) ** (-(digits + 5))
        depths = [_Depth(spec, z) for spec in specs]
        running = list(depths)
        k = min(spec.k0 for spec in specs)
        poch = pochhammer(z, k)
        fact = factorial(k + 1)
        # 2^(1 - Re s - k), halved at each k
        tail_factor = mp.power(2, 1 - mp.re(z) - k)
        inner = _InnerSums(z, k, digits)
        while True:
            active = [d for d in running if d.spec.k0 <= k]
            abs_poch = abs(poch)
            fact_mp = mp.mpf(fact)
            largest = mp.mpf(0)
            for d in active:
                r = d.spec.series_coefficient(k)
                if r is None:
                    raise CapacityError(
                        f"depth-{d.spec.p} identity stores coefficients through "
                        f"k={d.spec.k_max} and has no closed form; k={k} is needed "
                        f"at digits={digits}"
                    )
                r_mp = _fraction_to_mp(r)
                d.coef = r_mp * poch / fact_mp
                d.size = abs(r_mp) * abs_poch / fact_mp
                if d.size > largest:
                    largest = d.size
            # size, not r_k, decides: (s)_k vanishes at nonpositive integers
            if largest != 0:
                budget = threshold / (largest * _INNER_SAFETY)
                inner_val, ierr, iround = inner(k, budget)
                for d in active:
                    if d.size != 0:
                        term = d.coef * inner_val
                        d.total += term
                        d.inner_err += d.size * ierr
                        d.inner_rounding += d.size * iround
                        at = abs(term)
                        if at > d.max_term:
                            d.max_term = at
            for d in active:
                tail_bound = d.size * tail_factor * 4
                if k >= d.spec.k0 + 8 and tail_bound < threshold:
                    d.terms_used, d.tail_bound = k, tail_bound
                    running.remove(d)
            if not running:
                break
            poch = poch * (z + k)
            fact = fact * (k + 2)
            tail_factor /= 2
            k += 1
        reports = []
        for d in depths:
            rounding = (d.terms_used + 16) * mp.mpf(10) ** (-(wp - 2))
            rounding *= 1 + d.max_term + abs(d.total)
            rounding += d.inner_rounding
            reports.append(
                EvalReport(
                    value=mp.mpc(d.total),
                    p_used=d.spec.p,
                    terms_used=d.terms_used,
                    error_estimate=float(d.tail_bound + d.inner_err + rounding),
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
    with mp.workdps(digits + _GUARD):
        threshold = mp.mpf(10) ** (-(digits + 5))
        qprime0 = spec.q_poly.derivative().coefficient(0)
        total = -_fraction_to_mp(spec.pole_coefficient) + _fraction_to_mp(qprime0)
        k = spec.k0
        inner = _InnerSums(mp.mpf(0), k, digits)
        while True:
            r = spec.series_coefficient(k)
            if r is None:
                raise CapacityError(
                    f"depth-{spec.p} identity stores coefficients through "
                    f"k={spec.k_max} and has no closed form; k={k} is needed "
                    f"at digits={digits}"
                )
            r_mp = _fraction_to_mp(r)
            weight = r_mp / (k * (k + 1))
            if weight != 0:
                budget = threshold / (abs(weight) * _INNER_SAFETY)
                total += weight * inner(k, budget)[0]
            bound = abs(weight) * mp.ldexp(4, 1 - k)
            if k >= spec.k0 + 8 and bound < threshold:
                break
            k += 1
        return total


def sum_zeta_m1(digits: int = 40):
    """Partial sum of sum_{k>=2} (zeta(k) - 1), truncated at the first K
    with 2*2^-K < 10^-digits. The full sum is exactly 1."""
    _check_digits(digits)
    k_top = 2
    limit = 2 * 10**digits
    while 2**k_top <= limit:
        k_top += 1
    with mp.workdps(digits + _GUARD):
        budget = mp.mpf(10) ** (-(digits + 5)) / _INNER_SAFETY
        inner = _InnerSums(mp.mpf(0), 2, digits)
        total = mp.mpf(0)
        for k in range(2, k_top + 1):
            total += inner(k, budget)[0]
        return total


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
