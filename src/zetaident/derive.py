"""Mechanical derivation of a family of zeta identities.

For each integration-by-parts depth p >= 1 this module produces the exact
data of an identity

    zeta(s) = 1/(s-1) + Q_p(s)
              + sum_{k >= k0} r_k * (s)_k / (k+1)! * (zeta(s+k) - 1),

valid for Re s > 1 - k0, where (s)_k is the rising factorial and k0 the
first k >= p where r_k is nonzero.

The construction: the tail sum_{n} n^{-s} is rewritten as an integral of a
step function, a degree-p subtraction polynomial splits off the closed-form
part (the pole and Q_p), and repeated integration by parts of the period-1
remainder emits one exact rational coefficient r_k per step. Integrating a
monomial repeatedly has a closed form, so all the steps collapse into one
polynomial in k of degree at most p-1 (series_poly), summed by Horner's
rule in falling factorials. The subtraction polynomial is the negated
periodic remainder, f_p = -g_p, and the closed-form part comes from
interpolating its integral's numerator at the p integer roots of the
denominator (closed_form_part). Every value is an exact rational, computed
on integer coefficient lists over one common denominator and wrapped once
in a Polynomial record; nothing is approximated or fitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, zip_longest
from math import factorial, lcm
from typing import Optional, Sequence

from .exactmath import Polynomial, bernoulli, divide_linear, faulhaber, times_linear


class CancellationError(ArithmeticError):
    """Raised when the derived closed-form part is inconsistent: a
    subtraction polynomial with a constant term, a pole coefficient other
    than 1, or a series that vanishes.

    This indicates an internal inconsistency in the derivation, never a
    user error; the derivation must abort rather than return bad data.
    """


@dataclass(frozen=True)
class IdentitySpec:
    """Exact data of one derived identity: its depth p, Q_p, the closed
    form and k_max. Every other fact of the identity follows from these.

    closed_form is the polynomial in k giving r_k at every k >= k0, and the
    one place r_k is held (a record read with a null closed_form gets
    series_poly(p), see identity_from_json). k0 is the first k >= p where
    it is nonzero. k_max is the last k a JSON record of the spec lists, and
    changes no value: terms computes those (k, r_k) pairs from the closed
    form, which gives r_k past k_max as well. The pole coefficient is
    exactly 1, zeta's residue at s = 1, so no spec holds one. The evaluator
    sums the series from k0 and reads every coefficient from
    euler_maclaurin_coefficients, which proves the spec is the
    Euler-Maclaurin identity at n = 1 of its k0: it holds wherever every
    zeta(s+k), k >= k0, is analytic, on Re s > 1 - k0 (effective_validity).
    validity_re_gt is the nominal half-plane bound 1 - p;
    extended_validity_re_gt is 1 - k0 when k0 > p (odd p >= 3, where
    r_p = 0), and None otherwise.
    """

    p: int
    q_poly: Polynomial
    k_max: int
    closed_form: Polynomial

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("depth p must be >= 1")
        if self.closed_form.is_zero:
            raise ValueError(f"depth-{self.p} identity has a zero closed form")
        if self.k_max < self.k0:
            raise ValueError("k_max must be at least k0")

    @cached_property
    def k0(self) -> int:
        """The first k >= p where the closed form is nonzero: it has at most
        its degree of roots, so the search ends."""
        return next(k for k in count(self.p) if self.closed_form(k))

    @property
    def validity_re_gt(self) -> Fraction:
        """The nominal half-plane bound, Re s > 1 - p."""
        return Fraction(1 - self.p)

    @property
    def extended_validity_re_gt(self) -> Optional[Fraction]:
        """1 - k0 when the series starts past p, else None."""
        return Fraction(1 - self.k0) if self.k0 > self.p else None

    @property
    def effective_validity(self) -> Fraction:
        """The sharpest known half-plane bound, Re s > 1 - k0."""
        return Fraction(1 - self.k0)

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """(k, r_k) for k = k0..k_max, from the closed form."""
        return tuple((k, self.closed_form(k)) for k in range(self.k0, self.k_max + 1))

    def series_coefficient(self, k: int) -> Fraction:
        """r_k: zero below k0, and from k0 on the closed form, exactly, by
        integer Horner over a common denominator (Polynomial.__call__)."""
        if k < self.k0:
            return Fraction(0)
        return self.closed_form(k)

    @cached_property
    def euler_maclaurin_coefficients(self) -> tuple[tuple[int, ...], int]:
        """(B, L): the Euler-Maclaurin coefficients beta_i = B_i/L, i < k0,
        of the identity, over their least common denominator L, with
        beta_i = -b_i/i! for the Bernoulli numbers b_i, b_1 = -1/2. The
        evaluator reads nothing of the spec but these and k0: r_k =
        sum_i beta_i (k+1) k ... (k+2-i) (i factors in term i) for k >= k0,
        and the head weight W_m takes h_j = beta_(j+1) - [j = 0], beta_k0 = 0
        (evalzeta._last_weight).

        It first proves that the spec is this identity, the Euler-Maclaurin
        identity of its k0, by two comparisons on integer coefficient lists
        over L: L r(k) = sum_i B_i (k+1) k ... (k+2-i) for the closed form r,
        and -L Q(s) = sum_{j<k0} H_j (s)_j with H_j = B_(j+1) - [j = 0] L and
        B_k0 = 0. The pole is 1, zeta's residue. That is a proof. With
        h_j = r(j)/(j+1)! and g_j = beta_(j+1) - [j < k0] h_j, beta_i now
        the falling coefficients of r, the binomial series gives, for
        Re s > 1,

            identity - zeta(s) = (pole + beta_0)/(s-1) + Q(s) + sum_{j<k0} h_j (s)_j
                                 + (g_0 - 1) zeta(s) + sum_{j>=1} g_j (s)_j zeta(s+j),

        and each term vanishes. beta_0 = -1 = -pole. The beta_i are 0 from
        k0 on, so g_j = 0 for j >= k0. For j < k0, h_j = sum_{i<=j}
        beta_i/(j+1-i)! + [j + 1 < k0] beta_(j+1), so g_j =
        sum_{i<n} C(n, i) b_i / n! with n = j + 1: 1 at n = 1, and 0 for
        n >= 2 by the Bernoulli recurrence. And Q = -sum_{j<k0} h_j (s)_j
        is the second comparison. A spec that fails either comparison
        raises ValueError naming its depth and the closed form or Q, since
        the evaluator would otherwise return a wrong value with a small
        error bound."""
        k0 = self.k0
        # bernoulli takes b_1 = +1/2, and b_i = 0 for odd i >= 3
        beta = [(-1) ** (i + 1) * bernoulli(i) / factorial(i) for i in range(k0)]
        L = lcm(*(b.denominator for b in beta))
        B = tuple(b.numerator * (L // b.denominator) for b in beta)
        # by Horner in the falling factorials: B_0 + (k + 1) (B_1 + k (B_2 + ...))
        falling = [B[-1]]
        for i in range(k0 - 1, 0, -1):
            falling = times_linear(falling, 2 - i)
            falling[0] += B[i - 1]
        # by Horner in the rising factorials: H_0 + s (H_1 + (s + 1) (H_2 + ...))
        H = [*B[1:], 0]
        H[0] -= L
        rising = [H[-1]]
        for j in range(k0 - 2, -1, -1):
            rising = times_linear(rising, j)
            rising[0] += H[j]
        for poly, ours, name in (
            (self.closed_form, falling, "closed form r_k != sum_{i<k0} beta_i (k+1) k ... (k+2-i)"),
            (self.q_poly, [-x for x in rising], "Q(s) != -sum_{j<k0} h_j (s)_j"),
        ):
            numerators, den = poly.integer_coefficients()
            if any(L * c != den * x for c, x in zip_longest(numerators, ours, fillvalue=0)):
                raise ValueError(
                    f"depth-{self.p} identity is not Euler-Maclaurin at n = 1: {name}, "
                    "beta_i = -b_i/i! for Bernoulli b_i, h_j = beta_(j+1) - [j = 0]"
                )
        return B, L


# ---- construction of the three exact pieces ----


def subtraction_poly(p: int) -> Polynomial:
    """The polynomial f_p subtracted from the step function at depth p.

    f_1(x) = x; for p >= 2, f_p(x) = P_{p-1}(x-1) where P_m is the power-sum
    polynomial, so f_p interpolates sum_{i<x} i^{p-1} at integers. Since
    P_m(x-1) = P_m(x) - x^m, f_p = -g_p, the periodic remainder, at every p
    (x against -t at p = 1), and it is built that way.
    """
    g, den = _remainder_integers(p)
    return Polynomial.from_integers([-x for x in g], den)


def periodic_remainder(p: int) -> Polynomial:
    """One period of what remains after the subtraction, on [0, 1].

    g_1(t) = -t; for p >= 2, g_p(t) = t^{p-1} - P_{p-1}(t), which vanishes
    at both endpoints so every later integration by parts drops its
    boundary terms.
    """
    return Polynomial.from_integers(*_remainder_integers(p))


def _remainder_integers(p: int) -> tuple[list[int], int]:
    """periodic_remainder(p) as integer coefficients, ascending, over one
    denominator."""
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if p == 1:
        return [0, -1], 1
    numerators, den = faulhaber(p - 1).integer_coefficients()
    out = [-n for n in numerators]
    out[p - 1] += den
    return out, den


def closed_form_part(p: int, remainder=None) -> tuple[Fraction, Polynomial]:
    """Pole coefficient and polynomial part Q_p of the depth-p identity.
    remainder, if given, is _remainder_integers(p), g_p's integers over one
    denominator: derive_identity builds them once, for this and series_poly.

    Integrating the subtraction polynomial f_p = sum_j a_j x^j term by term
    gives sum_j a_j / (s + p - 1 - j), j = 1..p, which is G(s)/F(s) over
    F(s) = prod_{i=1..p} (s + p - 1 - i) = (s - 1) (s)_(p-1) with
    G(s) = sum_j a_j F(s)/(s + p - 1 - j). Times the prefactor
    (s)_p/(p-1)!, the spurious poles at s in {2-p, ..., 0} cancel, leaving
    (s + p - 1) G(s) / ((s - 1) (p-1)!), whose division by s - 1 gives the
    pole (the remainder) and Q_p (the quotient).

    G is found by interpolation at the p roots of F. At s = j - p + 1 every
    term of G but the j-th vanishes, so

        G(j - p + 1) = a_j prod_{i != j} (j - i) = a_j (-1)^(p-j) (j-1)! (p-j)!,

    and deg G <= p - 1, so these p values at consecutive integers fix G
    exactly: Newton's forward differences D_m at s = 2 - p give
    G(s) = sum_m D_m/m! (s + p - 2) (s + p - 3) ... (s + p - 1 - m). With
    the a_j as integers over one denominator, G has integer coefficients,
    and so each D_m/m! is an integer. All on integer coefficient lists:
    O(p^2) additions for the differences, O(p^2) small-by-large products
    for the Newton form by Horner's rule, then the product with s + p - 1
    and the division by s - 1. f_p = -g_p (subtraction_poly), so a_j is
    read off the periodic remainder.

    The cancellation itself cannot fail, so it is not checked: a check that
    divides (s)_p G by (s)_(p-1) is a tautology, since
    (s)_p = (s)_(p-1) (s + p - 1) and its remainder is identically zero.
    The pole can fail: the series part is analytic at s = 1 and zeta has
    residue 1 there, so a pole coefficient other than exactly 1 raises
    CancellationError.
    """
    g, den = remainder or _remainder_integers(p)
    if g[0]:
        raise CancellationError("subtraction polynomial has a constant term")
    fact = [1]
    for i in range(1, p):
        fact.append(fact[-1] * i)
    # G at s = j - p + 1, j = 1..p, with a_j = -g_j
    values = [(-1) ** (p - j + 1) * g[j] * fact[j - 1] * fact[p - j] for j in range(1, p + 1)]
    newton, scale = [], 1
    for m in range(p):
        newton.append(values[0] // scale)
        values = [b - a for a, b in zip(values, values[1:])]
        scale *= m + 1
    G = [newton[-1]]
    for m in range(p - 2, -1, -1):
        G = times_linear(G, p - 2 - m)
        G[0] += newton[m]
    # (s + p - 1) G(s) = q(s) (s - 1) + pole, all over base
    q, pole = divide_linear(times_linear(G, p - 1), -1)
    base = den * fact[p - 1]
    if pole != base:
        raise CancellationError(
            f"pole coefficient {Fraction(pole, base)} != 1 at depth p={p}"
        )
    return Fraction(1), Polynomial.from_integers(q, base)


def series_poly(p: int, remainder=None) -> Polynomial:
    """r_k as an exact polynomial in k, of degree at most p-1; remainder as
    for closed_form_part.

    Integrating t^j from 0 a further n times gives t^(j+n) * j!/(j+n)!, so
    the integration-by-parts step that emits r_k (after k-p+1 integrations
    of g_p = sum_j g_j t^j, evaluated at t = 1) is

        r_k = (1/(p-1)!) * sum_j g_j * j! * (k+1)(k)...(k+j-p+2),

    a falling factorial of p-j factors. The polynomial holds for every
    k >= p, including the indices below k0 where it vanishes. Summed by
    Horner's rule in those falling factorials, c_j = g_j j!:
    (c_1 (k+3-p) + c_2) (k+4-p) + c_3 and so on up to c_p, on integer
    coefficient lists over g_p's common denominator, so each step
    multiplies by a small linear factor.
    """
    g, den = remainder or _remainder_integers(p)
    acc, c = [g[1]], 1
    for j in range(2, p + 1):
        c *= j
        acc = times_linear(acc, j - p + 1)
        acc[0] += g[j] * c
    return Polynomial.from_integers(acc, den * factorial(p - 1))


def derive_identity(p: int, k_max: int = 64) -> IdentitySpec:
    """Derive the depth-p identity, its record listing r_k through k_max.

    The series coefficients are the values of series_poly(p), stored as
    closed_form; the spec derives k0 and the validity bounds from it. k_max
    must be at least p+2 so the record lists more than the possible leading
    zero block.
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if k_max < p + 2:
        raise ValueError("k_max must be at least p + 2")
    remainder = _remainder_integers(p)
    _, q_poly = closed_form_part(p, remainder)
    closed = series_poly(p, remainder)
    if closed.is_zero:
        raise CancellationError(f"series coefficients vanish at depth p={p}")
    return IdentitySpec(p=p, q_poly=q_poly, k_max=k_max, closed_form=closed)


def first_difference(a: IdentitySpec, b: IdentitySpec, k_max: int) -> Optional[str]:
    """The first way identity a differs from the reference b, as text, or
    None when they agree exactly: Q, the closed form of r_k, and every r_k
    with k <= k_max (treating indices below k0 as zero). Every spec's pole
    is 1, so there is none to compare. With the closed forms equal, r_k can
    differ only below the larger k0, and does at the smaller one, where one
    closed form is nonzero and the other series has not started.

    Both specs must list terms through k_max.
    """
    if a.k_max < k_max or b.k_max < k_max:
        raise ValueError("both identities must store terms through k_max")
    if a.q_poly != b.q_poly:
        return f"Q polynomial ({a.q_poly.to_str('s')}) != ({b.q_poly.to_str('s')})"
    if a.closed_form != b.closed_form:
        return (
            f"closed form r_k = ({a.closed_form.to_str('k')}) != "
            f"({b.closed_form.to_str('k')})"
        )
    k = min(a.k0, b.k0)
    if a.k0 != b.k0 and k <= k_max:
        return f"k={k}: coefficient {a.series_coefficient(k)} != reference {b.series_coefficient(k)}"
    return None


def identities_equal(a: IdentitySpec, b: IdentitySpec, k_max: int) -> bool:
    """Whether two identities agree exactly: first_difference finds none."""
    return first_difference(a, b, k_max) is None


# ---- serialization ----
#
# Rationals are "num/den" strings in lowest terms (denominator always
# explicit), polynomials are ascending-degree coefficient arrays. Optional
# fields are present with null. A record lists r_k for k = k0..k_max, each
# the closed form's value. closed_form is always written; a null one is
# accepted on read as series_poly(p) once that polynomial reproduces every
# listed r_k. A record also states k0, the pole and both validity bounds,
# which the spec derives: reading checks each. The round trip is lossless.


def _fraction_to_str(q: Optional[Fraction]) -> Optional[str]:
    return None if q is None else f"{q.numerator}/{q.denominator}"


def _fraction_from_str(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def _integer(record: dict, field: str) -> int:
    value = record[field]
    # int() would read 3.9 as 3 and "3" as 3
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return value


def _poly_to_json(poly: Polynomial) -> list[str]:
    return [_fraction_to_str(c) for c in poly.coefficients]


def _poly_from_json(record: dict, field: str) -> Polynomial:
    data = record[field]
    # a string would be read one character at a time
    if not isinstance(data, list):
        raise TypeError(f"{field} must be a list of rational strings, not {data!r}")
    return Polynomial(_fraction_from_str(c) for c in data)


def identity_to_json(spec: IdentitySpec) -> dict:
    """JSON-safe dict for one identity."""
    return {
        "p": spec.p,
        "k0": spec.k0,
        "pole_coefficient": "1/1",
        "q_poly": _poly_to_json(spec.q_poly),
        "terms": [{"k": k, "r": _fraction_to_str(r)} for k, r in spec.terms],
        "closed_form": {"k_poly": _poly_to_json(spec.closed_form)},
        "validity_re_gt": _fraction_to_str(spec.validity_re_gt),
        "extended_validity_re_gt": _fraction_to_str(spec.extended_validity_re_gt),
    }


def _closed_form_of(
    p: int, k0: int, terms: Sequence[tuple[int, Fraction]], stored: Optional[Polynomial]
) -> Polynomial:
    """The closed form of a record: the stored polynomial, or series_poly(p)
    when it stores none, once the record lists r_k for consecutive k from
    k0 and the polynomial reproduces every one exactly; raises ValueError
    otherwise, naming the depth and the first differing term."""
    if not terms:
        raise ValueError("identity must store at least one series term")
    if [k for k, _ in terms] != list(range(k0, k0 + len(terms))):
        raise ValueError(f"depth-{p} record must list r_k for consecutive k from k0 = {k0}")
    closed = series_poly(p) if stored is None else stored
    source = f"a null closed_form, and series_poly({p})" if stored is None else "a closed_form that"
    for k, r in terms:
        if closed(k) != r:
            raise ValueError(
                f"depth-{p} record has {source} gives r_{k} = {closed(k)}, not the stored {r}"
            )
    return closed


def identity_from_json(data: dict) -> IdentitySpec:
    """Parse one identity record; raises ValueError on malformed data. p, k0
    and each listed k must be JSON integers. The listed terms must run
    consecutively from k0, and the closed form, series_poly(p) when
    closed_form is null, must reproduce every one; the spec's k_max is the
    last k listed. The record's stated k0, pole coefficient and validity
    bounds must then equal the spec's derived ones; a mismatch names the
    field, the stated value and the derived one."""
    try:
        p, k0 = _integer(data, "p"), _integer(data, "k0")
        terms = tuple((_integer(t, "k"), _fraction_from_str(t["r"])) for t in data["terms"])
        closed = data["closed_form"]
        spec = IdentitySpec(
            p=p,
            q_poly=_poly_from_json(data, "q_poly"),
            closed_form=_closed_form_of(
                p, k0, terms, None if closed is None else _poly_from_json(closed, "k_poly")
            ),
            k_max=terms[-1][0],
        )
        extended = data["extended_validity_re_gt"]
        extended = None if extended is None else _fraction_from_str(extended)
        for field, stated, derived in (
            ("k0", k0, spec.k0),
            ("pole_coefficient", _fraction_from_str(data["pole_coefficient"]), 1),
            ("validity_re_gt", _fraction_from_str(data["validity_re_gt"]), spec.validity_re_gt),
            ("extended_validity_re_gt", extended, spec.extended_validity_re_gt),
        ):
            if stated != derived:
                raise ValueError(f"depth-{p} record states {field} = {stated}, not the derived {derived}")
        return spec
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
