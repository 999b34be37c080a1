"""Mechanical derivation of a family of zeta identities.

For each integration-by-parts depth p >= 1 this module produces the exact
data of an identity

    zeta(s) = pole_coefficient/(s-1) + Q_p(s)
              + sum_{k >= k0} r_k * (s)_k / (k+1)! * (zeta(s+k) - 1),

valid for Re s > validity_re_gt, where (s)_k is the rising factorial.

The construction: the tail sum_{n} n^{-s} is rewritten as an integral of a
step function, a degree-p subtraction polynomial splits off the closed-form
part (the pole and Q_p), and repeated integration by parts of the period-1
remainder emits one exact rational coefficient r_k per step. Integrating a
monomial repeatedly has a closed form, so all the steps collapse into one
polynomial in k of degree at most p-1 (series_poly). All arithmetic is
over Fractions; nothing is approximated or fitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Optional, Sequence

from .exactmath import Polynomial, faulhaber


class CancellationError(ArithmeticError):
    """Raised when the spurious-pole cancellation is not exact.

    This indicates an internal inconsistency in the derivation, never a
    user error; the derivation must abort rather than return bad data.
    """


@dataclass(frozen=True)
class IdentitySpec:
    """Exact data of one derived identity.

    terms holds (k, r_k) pairs for consecutive k starting at k0, the first
    index with a nonzero coefficient. closed_form, when present, is the
    polynomial in k giving r_k at every k >= k0, stored or not. Derived
    specs always carry it; it is None only in hand-written records, which
    then hold no coefficient beyond k_max.
    validity_re_gt is the nominal half-plane bound -(p-1);
    extended_validity_re_gt is set to -p when the depth-(p+1) derivation
    produces the identical identity, and is None otherwise.
    """

    p: int
    k0: int
    pole_coefficient: Fraction
    q_poly: Polynomial
    terms: tuple[tuple[int, Fraction], ...]
    closed_form: Optional[Polynomial]
    validity_re_gt: Fraction
    extended_validity_re_gt: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("depth p must be >= 1")
        if not self.terms:
            raise ValueError("identity must store at least one series term")
        if self.terms[0][0] != self.k0:
            raise ValueError("first stored term must sit at k0")
        if self.terms[0][1] == 0:
            raise ValueError("coefficient at k0 must be nonzero")
        ks = [k for k, _ in self.terms]
        if ks != list(range(self.k0, self.k0 + len(ks))):
            raise ValueError("stored terms must cover consecutive k")

    @property
    def k_max(self) -> int:
        """Largest k with a stored coefficient."""
        return self.terms[-1][0]

    @property
    def effective_validity(self) -> Fraction:
        """The sharpest known half-plane bound (extended when available)."""
        if self.extended_validity_re_gt is not None:
            return self.extended_validity_re_gt
        return self.validity_re_gt

    @cached_property
    def _closed_form_integers(self) -> tuple[tuple[int, ...], int]:
        """closed_form as integer coefficients, highest degree first, over
        one common denominator."""
        coefficients = self.closed_form.coefficients
        den = lcm(*(c.denominator for c in coefficients))
        return tuple(c.numerator * (den // c.denominator) for c in reversed(coefficients)), den

    def series_coefficient(self, k: int) -> Optional[Fraction]:
        """r_k: zero below k0, stored value through k_max, closed-form value
        beyond that (exact, by integer Horner over a common denominator),
        or None when no closed form is available."""
        if k < self.k0:
            return Fraction(0)
        if k <= self.k_max:
            return self.terms[k - self.k0][1]
        if self.closed_form is None:
            return None
        numerators, den = self._closed_form_integers
        acc = 0
        for c in numerators:
            acc = acc * k + c
        return Fraction(acc, den)

    def series_taylor(self, k: int) -> Optional[tuple[list[int], int]]:
        """r_(k+m) as a polynomial in m: (integer coefficients, constant
        term first, and their common denominator), so the constant term is
        r_k times it. None when there is no closed form."""
        if self.closed_form is None:
            return None
        numerators, den = self._closed_form_integers
        b = list(numerators)
        # Taylor shift by k: repeated synthetic division by (x - k)
        for i in range(len(b) - 1):
            for j in range(1, len(b) - i):
                b[j] += k * b[j - 1]
        return b[::-1], den


# ---- construction of the three exact pieces ----


def subtraction_poly(p: int) -> Polynomial:
    """The polynomial f_p subtracted from the step function at depth p.

    f_1(x) = x; for p >= 2, f_p(x) = P_{p-1}(x-1) where P_m is the power-sum
    polynomial, so f_p interpolates sum_{i<x} i^{p-1} at integers.
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if p == 1:
        return Polynomial((0, 1))
    return faulhaber(p - 1).shift(-1)


def periodic_remainder(p: int) -> Polynomial:
    """One period of what remains after the subtraction, on [0, 1].

    g_1(t) = -t; for p >= 2, g_p(t) = t^{p-1} - P_{p-1}(t), which vanishes
    at both endpoints so every later integration by parts drops its
    boundary terms.
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if p == 1:
        return Polynomial((0, -1))
    return Polynomial.monomial(p - 1) - faulhaber(p - 1)


def _rising_factorial_poly(n: int) -> Polynomial:
    """(s)_n = s(s+1)...(s+n-1) as a polynomial in s."""
    out = Polynomial.constant(1)
    for m in range(n):
        out = out * Polynomial((m, 1))
    return out


def closed_form_part(p: int) -> tuple[Fraction, Polynomial]:
    """Pole coefficient and polynomial part Q_p of the depth-p identity.

    Integrating the subtraction polynomial term by term gives
    sum_j a_j / (s + p - 1 - j) with f_p = sum_j a_j x^j; multiplying by the
    rising-factorial prefactor must cancel every spurious pole at
    s in {2-p, ..., 0} exactly, leaving only the true pole at s = 1.
    The cancellation is asserted (exact zero remainder); failure raises
    CancellationError.
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    f = subtraction_poly(p)
    if f.coefficient(0) != 0:
        raise CancellationError("subtraction polynomial has a constant term")
    # G(s) = sum_j a_j * prod_{i != j} (s + p - 1 - i), the integral of f_p
    # over common denominator prod_i (s + p - 1 - i), i and j in 1..p.
    factors = [Polynomial((p - 1 - i, 1)) for i in range(1, p + 1)]
    g = Polynomial.zero()
    for j in range(1, p + 1):
        a = f.coefficient(j)
        if a == 0:
            continue
        prod = Polynomial.constant(a)
        for i in range(1, p + 1):
            if i != j:
                prod = prod * factors[i - 1]
        g = g + prod
    numerator = _rising_factorial_poly(p) * g
    quotient, remainder = divmod(numerator, _rising_factorial_poly(p - 1))
    if not remainder.is_zero:
        raise CancellationError(
            f"spurious poles did not cancel at depth p={p}"
        )
    # split off the true pole: quotient = Q2*(s-1) + quotient(1)
    q2, const = divmod(quotient, Polynomial((-1, 1)))
    base = factorial(p - 1)
    pole = const.coefficient(0) / base
    return pole, q2 / base


def series_poly(p: int) -> Polynomial:
    """r_k as an exact polynomial in k, of degree at most p-1.

    Integrating t^j from 0 a further n times gives t^(j+n) * j!/(j+n)!, so
    the integration-by-parts step that emits r_k (after k-p+1 integrations
    of g_p = sum_j g_j t^j, evaluated at t = 1) is

        r_k = (1/(p-1)!) * sum_j g_j * j! * (k+1)(k)...(k+j-p+2),

    a falling factorial of p-j factors. The polynomial holds for every
    k >= p, including the indices below k0 where it vanishes.
    """
    g = periodic_remainder(p)
    out = Polynomial.zero()
    falling = Polynomial.constant(1)  # (k+1)(k)...(k+j-p+2) for j = p
    for j in range(p, 0, -1):
        out = out + falling * (g.coefficient(j) * factorial(j))
        falling = falling * Polynomial((j - p + 1, 1))
    return out / factorial(p - 1)


def derive_identity(p: int, k_max: int = 64) -> IdentitySpec:
    """Derive the depth-p identity with series coefficients through k_max.

    The series coefficients are the values of series_poly(p), which is
    also stored as closed_form; k0 is the first k >= p where it is nonzero.
    k_max must be at least p+2 so the series holds more than the possible
    leading zero block. The extended validity -p is set exactly when depth
    p+1 yields the same identity: the same pole and Q, the same r_k
    polynomial, and the same first index. Polynomial equality makes that
    a proof for every k, not a check up to k_max (it holds for odd p >= 3).
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if k_max < p + 2:
        raise ValueError("k_max must be at least p + 2")
    pole, q_poly = closed_form_part(p)
    closed = series_poly(p)
    if closed.is_zero:
        raise CancellationError(f"series coefficients vanish at depth p={p}")
    k0 = p
    while closed(k0) == 0:  # at most p-1 roots, so this ends
        k0 += 1
    terms = tuple((k, closed(k)) for k in range(k0, k_max + 1))
    extended: Optional[Fraction] = None
    # depth p+1 starts its series at k = p+1, so it can only match if r_p = 0
    if (
        k0 > p
        and closed_form_part(p + 1) == (pole, q_poly)
        and series_poly(p + 1) == closed
    ):
        extended = Fraction(-p)
    return IdentitySpec(
        p=p,
        k0=k0,
        pole_coefficient=pole,
        q_poly=q_poly,
        terms=terms,
        closed_form=closed,
        validity_re_gt=Fraction(-(p - 1)),
        extended_validity_re_gt=extended,
    )


def identities_equal(a: IdentitySpec, b: IdentitySpec, k_max: int) -> bool:
    """Whether two identities agree exactly: pole, Q, the closed form of r_k
    when both carry one, and every r_k with k <= k_max (treating indices
    below k0 as zero).

    Both specs must store terms through k_max.
    """
    if a.k_max < k_max or b.k_max < k_max:
        raise ValueError("both identities must store terms through k_max")
    if a.pole_coefficient != b.pole_coefficient or a.q_poly != b.q_poly:
        return False
    if a.closed_form is not None and b.closed_form is not None:
        if a.closed_form != b.closed_form:
            return False
    for k in range(min(a.k0, b.k0), k_max + 1):
        if a.series_coefficient(k) != b.series_coefficient(k):
            return False
    return True


# ---- serialization ----
#
# Rationals are "num/den" strings in lowest terms (denominator always
# explicit), polynomials are ascending-degree coefficient arrays. Optional
# fields are present with null. The round trip is lossless.


def _fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _fraction_from_str(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {text!r}")
    return Fraction(text)


def _poly_to_json(poly: Polynomial) -> list[str]:
    return [_fraction_to_str(c) for c in poly.coefficients]


def _poly_from_json(data: Sequence[str]) -> Polynomial:
    return Polynomial(_fraction_from_str(c) for c in data)


def identity_to_json(spec: IdentitySpec) -> dict:
    """JSON-safe dict for one identity."""
    return {
        "p": spec.p,
        "k0": spec.k0,
        "pole_coefficient": _fraction_to_str(spec.pole_coefficient),
        "q_poly": _poly_to_json(spec.q_poly),
        "terms": [{"k": k, "r": _fraction_to_str(r)} for k, r in spec.terms],
        "closed_form": (
            None
            if spec.closed_form is None
            else {"k_poly": _poly_to_json(spec.closed_form)}
        ),
        "validity_re_gt": _fraction_to_str(spec.validity_re_gt),
        "extended_validity_re_gt": (
            None
            if spec.extended_validity_re_gt is None
            else _fraction_to_str(spec.extended_validity_re_gt)
        ),
    }


def identity_from_json(data: dict) -> IdentitySpec:
    """Parse one identity record; raises ValueError on malformed data."""
    try:
        closed = data["closed_form"]
        extended = data["extended_validity_re_gt"]
        return IdentitySpec(
            p=int(data["p"]),
            k0=int(data["k0"]),
            pole_coefficient=_fraction_from_str(data["pole_coefficient"]),
            q_poly=_poly_from_json(data["q_poly"]),
            terms=tuple(
                (int(t["k"]), _fraction_from_str(t["r"])) for t in data["terms"]
            ),
            closed_form=None if closed is None else _poly_from_json(closed["k_poly"]),
            validity_re_gt=_fraction_from_str(data["validity_re_gt"]),
            extended_validity_re_gt=(
                None if extended is None else _fraction_from_str(extended)
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed identity record: {exc}") from exc


def identities_to_json_text(specs: Sequence[IdentitySpec]) -> str:
    return json.dumps([identity_to_json(s) for s in specs], indent=2)


def identities_from_json_text(text: str) -> list[IdentitySpec]:
    data = json.loads(text)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("identity file must hold a record or a list of records")
    return [identity_from_json(d) for d in data]
