"""Reference coefficient tables for depths 1 through 12.

The polynomial parts Q_p and the closed forms of the series coefficients
r_k below are transcribed as printed in the source tables, kept in factored
form where the source factors them. They are deliberately NOT computed by
the derivation engine: the verifier compares engine output against this
independent transcription, so any slip in either route shows up as a
mismatch.

Even depths 4, 6, 8, 10, 12 produce the same identity as the preceding odd
depth (the derivation pairs up), so their records reuse the odd-depth data;
the spec derives each depth's validity bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exactmath import Polynomial
from .derive import IdentitySpec

MAX_REFERENCE_DEPTH = 12

# Q_p as printed: list of coefficients, ascending in s.
_Q_TABLE: dict[int, tuple[Fraction, ...]] = {
    1: (Fraction(1),),
    2: (Fraction(1, 2),),
    3: (Fraction(1, 2), Fraction(1, 12)),
    5: (Fraction(1, 2), Fraction(29, 360), Fraction(-1, 240), Fraction(-1, 720)),
    7: tuple(
        Fraction(c, 30240) for c in (15120, 2460, -76, -7, 10, 1)
    ),
    9: tuple(
        Fraction(c, 1209600)
        for c in (604800, 97680, -4804, -1904, -335, -135, -21, -1)
    ),
    11: tuple(
        Fraction(c, 239500800)
        for c in (
            119750400,
            19542240,
            -403272,
            213628,
            270090,
            85515,
            18522,
            2532,
            180,
            5,
        )
    ),
}

# Closed form of r_k as printed: (k0, prefactor, factors), each factor a
# coefficient list ascending in k. The expanded polynomial reproduces r_k
# for every k >= k0 and vanishes at the skipped indices below k0.
_SERIES_TABLE: dict[int, tuple[int, Fraction, tuple[tuple[int, ...], ...]]] = {
    1: (1, Fraction(-1), ()),
    2: (2, Fraction(1, 2), ((-1, 1),)),
    3: (4, Fraction(-1, 12), ((-2, 1), (-3, 1))),
    5: (6, Fraction(1, 720), ((-2, 1), (-4, 1), (-5, 1), (9, 1))),
    7: (
        8,
        Fraction(-1, factorial(6) * 42),
        ((-2, 1), (-4, 1), (-6, 1), (-7, 1), (45, 10, 1)),
    ),
    9: (
        10,
        Fraction(1, factorial(8) * 30),
        ((-2, 1), (-4, 1), (-6, 1), (-8, 1), (-9, 1), (5, 1), (35, 4, 1)),
    ),
    11: (
        12,
        Fraction(-1, factorial(10) * 66),
        (
            (-2, 1),
            (-4, 1),
            (-6, 1),
            (-8, 1),
            (-10, 1),
            (-11, 1),
            (2835, 1122, 232, 30, 5),
        ),
    ),
}


def _expand_closed_form(p_base: int) -> Polynomial:
    """The printed factors multiplied out by convolving integer lists, a
    route of its own that shares no helper with the engine."""
    _, prefactor, factors = _SERIES_TABLE[p_base]
    product = [1]
    for factor in factors:
        out = [0] * (len(product) + len(factor) - 1)
        for i, x in enumerate(product):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        product = out
    return Polynomial(prefactor * c for c in product)


def reference_identity(p: int, k_max: int = 64) -> IdentitySpec:
    """The depth-p identity built from the transcribed tables, its record
    listing r_k through k_max: the closed form's values, which is exactly
    what the source's formulas assert. Supported depths are 1 <= p <= 12.
    The transcribed k0 must be where the closed form starts; a mismatch
    raises ValueError.
    """
    if not 1 <= p <= MAX_REFERENCE_DEPTH:
        raise ValueError(
            f"reference tables cover depths 1..{MAX_REFERENCE_DEPTH}, got p={p}"
        )
    base = p if p in _SERIES_TABLE else p - 1
    spec = IdentitySpec(
        p=p, q_poly=Polynomial(_Q_TABLE[base]), k_max=k_max, closed_form=_expand_closed_form(base)
    )
    if spec.k0 != _SERIES_TABLE[base][0]:
        raise ValueError(
            f"depth-{p} reference table gives k0 = {_SERIES_TABLE[base][0]}, "
            f"but its closed form starts at k = {spec.k0}"
        )
    return spec
