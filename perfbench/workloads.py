"""Workload definitions and seeded input generation for the zetaident benchmark.

This module imports nothing from zetaident: the benchmark makes its inputs
from the seed alone, and the package receives only the generated values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Held out for gain claims: no benchmark setting was tuned on this seed.
HELD_OUT_SEED = 20261017


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    min_reps: int  # work reps per run, whatever --seconds says
    ops_per_rep: int
    probes_per_rep: int  # set-up-only interpreters started before each work rep

    @property
    def tail_pct(self) -> int:
        """The highest whole percentile with at least ten samples beyond it
        at the minimum sample count. Fixed per workload, so a faster commit,
        which runs more reps, reports the same percentile. Below 20 samples
        no percentile above the median qualifies and the tail is the maximum.
        """
        n = self.min_reps * self.ops_per_rep
        if n < 20:
            return 100
        return (100 * (n - 10)) // n


DERIVE_DEPTHS = range(1, 33)
DERIVE_KMAX = 128

# Each point is drawn from a narrow window around a fixed centre, so that
# every seed and every batch costs about the same and the spread between
# runs is the machine's, not the inputs'. Windows 3 units wide let the median
# op move by 13 % between seeds. No window comes near the pole at s = 1.
#
# Real points at 40 digits: one window in each depth strip of Re s in
# (-11, 10), strips as `zetaident eval` chooses them (the smallest p whose
# identity supports s, preferring the even twin; left of -10.5 no p <= 12
# applies). The wide p = 1 strip gets three windows, since its error
# estimate loosens as Re s grows.
REAL_CENTRES_40 = (
    Fraction("-9.5"),  # p = 12
    Fraction("-7.5"),  # p = 10
    Fraction("-5.5"),  # p = 8
    Fraction("-3.5"),  # p = 6
    Fraction("-1.5"),  # p = 4
    Fraction(0),  # p = 2
    Fraction(2),  # p = 1
    Fraction(5),  # p = 1
    Fraction("8.25"),  # p = 1
)
REAL_CENTRES_100 = (Fraction("-6.5"), Fraction("3.5"))  # p = 8, p = 1
# Complex points at 40 digits: Re s in [-3, 6], |Im s| <= 40. Their cost
# grows with |Im s|, so each has its own |Im s| centre, 3.25 apart, and the
# Re centres take turns. With 12 of them against 9 cheaper real and 2 dearer
# 100-digit points, the median op falls inside the complex cluster, and
# neighbouring ranks cost about the same. Where groups of points shared one
# |Im s| centre, the median sat on the gap between two groups and moved by
# 30 % between runs.
COMPLEX_CENTRES = tuple(
    ((Fraction("-1.5"), Fraction("1.5"), Fraction("4.5"))[j % 3], 2 + Fraction(13, 4) * j)
    for j in range(12)
)
RE_HALF_WIDTH = Fraction(1, 4)
IM_HALF_WIDTH = Fraction(1)

POINTS_PER_REP = len(REAL_CENTRES_40) + len(REAL_CENTRES_100) + len(COMPLEX_CENTRES)
VERIFY_CHECKS = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "derive",
            "exact derivation of depths 1..32 at k_max=128 and a JSON round trip: "
            "exactmath and derive do the work, evalzeta none",
            min_reps=4,
            ops_per_rep=len(DERIVE_DEPTHS),
            probes_per_rep=4,
        ),
        Workload(
            "points",
            "distinct seeded points at 40 and 100 digits: no inner sum repeats, "
            "so the cold mp.power kernel dominates and the cache never hits",
            min_reps=3,
            ops_per_rep=POINTS_PER_REP,
            probes_per_rep=5,
        ),
        Workload(
            "verify",
            "zetaident verify in a fresh interpreter: reference tables, "
            "Euler-Maclaurin oracle and the warm inner-sum cache path",
            min_reps=3,
            ops_per_rep=1,  # latency per invocation; failures per check
            probes_per_rep=10,
        ),
    )
}


def _rng(seed: int, rep: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rep}")


def _uniform(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact rational in [lo, hi) on a grid of 10^-6."""
    return lo + (hi - lo) * Fraction(rng.randrange(10**6), 10**6)


def derive_order(seed: int, rep: int) -> list[int]:
    """Depths 1..32 in a seeded order."""
    order = list(DERIVE_DEPTHS)
    _rng(seed, rep, "derive").shuffle(order)
    return order


def points(seed: int, rep: int) -> list[tuple[object, int]]:
    """One batch of (s, digits) pairs, one point per window above, so every
    batch has the same mix of strips, |Im s| bands and precisions.

    Real s is a Fraction, complex s a (re, im) pair of Fractions, as the CLI
    passes exact decimal literals. No two points of a batch at one precision
    differ by an integer, so no inner sum zeta(s + k) - 1 repeats. Rep r of a
    run evaluates batch r in a fresh interpreter.
    """
    rng = _rng(seed, rep, "points")
    seen: set[tuple[Fraction, Fraction, int]] = set()

    def draw(re_centre: Fraction, im_centre: Fraction, digits: int):
        im = Fraction(0)
        if im_centre:
            im = _uniform(rng, im_centre - IM_HALF_WIDTH, im_centre + IM_HALF_WIDTH)
            im = -im if rng.random() < 0.5 else im
        while True:
            re = _uniform(rng, re_centre - RE_HALF_WIDTH, re_centre + RE_HALF_WIDTH)
            key = (re - (re.numerator // re.denominator), im, digits)
            if key not in seen:
                seen.add(key)
                return (re if im == 0 else (re, im)), digits

    batch = [draw(c, Fraction(0), 40) for c in REAL_CENTRES_40]
    batch += [draw(c, Fraction(0), 100) for c in REAL_CENTRES_100]
    batch += [draw(re, im, 40) for re, im in COMPLEX_CENTRES]
    rng.shuffle(batch)
    return batch
