"""Exact rational building blocks: integer coefficient lists, a polynomial
record, Bernoulli numbers, and power-sum (Faulhaber) polynomials.

Everything here is exact. Values are `fractions.Fraction` rationals in
lowest terms, and no floating point enters any computation. The exact work
runs on integer coefficient lists over one common denominator:
times_linear and divide_linear multiply and divide such a list by a linear
factor, and a Polynomial records a result once and evaluates it at a
rational point by integer Horner steps. The numeric layer converts to big
floats only at evaluation time.

Bernoulli numbers use the B1 = +1/2 convention, which is the one under
which sum_{i=1}^{n} i^m = (1/(m+1)) sum_j C(m+1, j) B_j n^{m+1-j}.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm
from typing import Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


# ---- integer coefficient lists, ascending in degree ----


def times_linear(a: Sequence[int], c: int) -> list[int]:
    """(x + c) * sum_i a_i x^i."""
    out = [0, *a]
    for i, x in enumerate(a):
        out[i] += c * x
    return out


def divide_linear(a: Sequence[int], c: int) -> tuple[list[int], int]:
    """Quotient and remainder of sum_i a_i x^i, a nonempty, by (x + c), by
    synthetic division."""
    quotient = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1, 0, -1):
        acc = a[i] - c * acc
        quotient[i - 1] = acc
    return quotient, a[0] - c * acc


class Polynomial:
    """An immutable record of a polynomial over Q: its coefficients, in
    ascending degree, as Fractions in lowest terms with trailing zeros
    trimmed, so the zero polynomial stores none and has degree -1.

    It holds a result and does no algebra: the exact work runs on integer
    coefficient lists (times_linear, divide_linear), and each result is
    wrapped once. It evaluates exactly, prints itself and compares equal
    to a record with the same coefficients. Instances are hashable.
    """

    __slots__ = ("_coeffs", "_integers")

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(coeffs)

    @classmethod
    def from_integers(cls, numerators: Iterable[int], den: int = 1) -> "Polynomial":
        """sum_i numerators[i] x^i / den."""
        return cls(Fraction(n, den) for n in numerators)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def integer_coefficients(self) -> tuple[tuple[int, ...], int]:
        """(numerators, den): the coefficients, ascending, as integers over
        their least common denominator. Computed once per instance."""
        try:
            return self._integers
        except AttributeError:
            den = lcm(*(c.denominator for c in self._coeffs))
            numerators = tuple(c.numerator * (den // c.denominator) for c in self._coeffs)
            self._integers = numerators, den
            return self._integers

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __call__(self, x: Scalar) -> Fraction:
        """The exact value at an int or Fraction x = a/b, by integer Horner
        on the numerators: sum_i N_i a^i b^(d-i) over den b^d."""
        numerators, den = self.integer_coefficients()
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(numerators):
            acc = acc * a + c * scale
            scale *= b
        return Fraction(acc, den * b ** max(self.degree, 0))

    def to_str(self, var: str = "x") -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                power = var if i == 1 else f"{var}^{i}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"


class BernoulliCache:
    """Grow-on-demand table of Bernoulli numbers, B1 = +1/2 convention, and
    of the ratios c_j = B_2j/(2j)!.

    The odd B_m vanish for m >= 3. The even ones come from the tangent
    numbers T_n, B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)). T_n is the
    zigzag number A_(2n-1), the last entry of row 2n-1 of the Seidel
    boustrophedon triangle: row 0 is (1), and row m is 0 followed by the
    running sums of row m-1 read backwards, m integer additions.
    The table also holds, per count, the ratios c_j, j <= count, as
    integers over their least common denominator, so a sum of several
    c_j x_j is one integer dot product and one division.
    Growth happens under a lock; reads of already-computed entries are
    lock-free (entries are immutable once written).
    """

    def __init__(self) -> None:
        self._table: list[Fraction] = [Fraction(1), Fraction(1, 2)]
        self._ratios: list[tuple[int, int]] = [(1, 1)]
        self._common: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._row = [1]  # the last boustrophedon row built
        self._lock = threading.Lock()

    def get(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        if m >= len(self._table):
            with self._lock:
                while len(self._table) <= m:
                    self._table.append(self._next())
        return self._table[m]

    def _next(self) -> Fraction:
        """B_m for m = len(self._table) >= 2."""
        m = len(self._table)
        if m % 2:
            return Fraction(0)
        n = m // 2
        while len(self._row) < m:  # row m-1 has m entries
            self._row = list(accumulate(reversed(self._row), initial=0))
        power = 4**n
        return Fraction((-1) ** (n - 1) * m * self._row[-1], power * (power - 1))

    def ratio(self, j: int) -> tuple[int, int]:
        """B_2j/(2j)! in lowest terms, as (numerator, denominator)."""
        if j < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        if j >= len(self._ratios):
            self.get(2 * j)
            with self._lock:
                while len(self._ratios) <= j:
                    i = len(self._ratios)
                    q = self._table[2 * i] / factorial(2 * i)
                    self._ratios.append((q.numerator, q.denominator))
        return self._ratios[j]

    def common(self, count: int) -> tuple[int, tuple[int, ...]]:
        """(D, (n_0, ..., n_count)) with B_2j/(2j)! = n_j/D for j <= count,
        D the least common denominator of those ratios. Each count's
        snapshot is built once and never changes. A snapshot for a larger
        count would serve too, but its D, and so every n_j, is larger:
        about 2 count log2(count) bits."""
        if count < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        snapshot = self._common.get(count)
        if snapshot is None:
            self.ratio(count)
            with self._lock:
                snapshot = self._common.get(count)
                if snapshot is None:
                    ratios = self._ratios[: count + 1]
                    den = lcm(*(d for _, d in ratios))
                    snapshot = den, tuple(n * (den // d) for n, d in ratios)
                    self._common[count] = snapshot
        return snapshot


_BERNOULLI = BernoulliCache()


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = +1/2)."""
    return _BERNOULLI.get(m)


def bernoulli_over_factorial(j: int) -> tuple[int, int]:
    """B_2j/(2j)! in lowest terms, as (numerator, denominator)."""
    return _BERNOULLI.ratio(j)


def bernoulli_ratios(count: int) -> tuple[int, tuple[int, ...]]:
    """(D, (n_0, ..., n_count)) with B_2j/(2j)! = n_j/D for j <= count, over
    one common denominator D."""
    return _BERNOULLI.common(count)


def faulhaber(m: int) -> Polynomial:
    """Power-sum polynomial P_m with P_m(n) = sum_{i=1}^{n} i^m.

    Degree m+1, zero constant term.
    """
    if m < 0:
        raise ValueError("power-sum exponent must be nonnegative")
    coeffs = [Fraction(0)] * (m + 2)
    for j in range(m + 1):
        # degree m+1-j term
        coeffs[m + 1 - j] = Fraction(comb(m + 1, j), m + 1) * bernoulli(j)
    return Polynomial(coeffs)
