"""Plain-list polynomial oracles for the tests.

A polynomial here is a list of coefficients, ascending in degree, with
trailing zeros trimmed. The helpers are schoolbook Fraction arithmetic and
share nothing with the engine's integer-list routes, so each oracle below
reaches what the engine computes by a road of its own.
"""

from fractions import Fraction
from math import factorial

from zetaident.derive import periodic_remainder
from zetaident.exactmath import faulhaber


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for poly in (a, b):
        for i, x in enumerate(poly):
            out[i] += x
    return trim(out)


def mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def divide(a, b):
    """(q, r) with a = q b + r by long division, r as its deg b lowest
    coefficients."""
    r, d = [Fraction(x) for x in a], len(b) - 1
    q = [Fraction(0)] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c = q[i - d] = r[i] / b[-1]
        for j, y in enumerate(b):
            r[i - d + j] -= c * y
    return trim(q), r[:d]


def shift(a, c):
    """a(x + c), by Horner's rule on lists."""
    out = []
    for x in reversed(a):
        out = add(mul(out, [c, 1]), [x])
    return out


def antiderivative(a):
    """The antiderivative that vanishes at 0."""
    return trim([Fraction(0), *(Fraction(x, i + 1) for i, x in enumerate(a))])


def horner(a, x):
    """a(x) by Horner's rule, for any x that mixes with Fraction, mpmath
    numbers included."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def rising_poly(n):
    """(s)_n as a polynomial in s."""
    out = [Fraction(1)]
    for m in range(n):
        out = mul(out, [m, 1])
    return out


def closed_form_part_oracle(p):
    """Pole and Q_p in O(p^3): f_p = P_(p-1)(x - 1) by a shift, the product
    of p - 1 linear factors for each of its terms, times (s)_p, divided by
    (s)_(p-1) and then by s - 1."""
    f = shift(faulhaber(p - 1).coefficients, -1) if p > 1 else [0, 1]
    g = []
    for j in range(1, p + 1):
        prod = [f[j]]
        for i in range(1, p + 1):
            if i != j:
                prod = mul(prod, [p - 1 - i, 1])
        g = add(g, prod)
    quotient, remainder = divide(mul(rising_poly(p), g), rising_poly(p - 1))
    assert not trim(remainder)
    q, (pole,) = divide(quotient, [-1, 1])
    return pole / factorial(p - 1), [c / factorial(p - 1) for c in q]


def series_poly_oracle(p):
    """r_k as a polynomial in k: sum_j g_j j! (k+1) k ... (k+j-p+2) over
    (p-1)!, the falling factorials summed one by one."""
    g = periodic_remainder(p)
    out, falling = [], [Fraction(1)]
    for j in range(p, 0, -1):
        out = add(out, [x * g.coefficients[j] * factorial(j) for x in falling])
        falling = mul(falling, [j - p + 1, 1])
    return [c / factorial(p - 1) for c in out]
