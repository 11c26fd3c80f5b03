"""Exact rational linear algebra for the output checks.

Written apart from ``tropmom.linalg`` so that the checks share no code
with the program they check.  Floating-point answers from scipy are only
ever used as hints: ``solve_near`` turns a hint into an exact solution of
an equation system, and the checks then verify that solution exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (nonzero rows only) and the pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pick = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def primitive(v: Sequence) -> tuple[int, ...]:
    """The positive multiple of a rational vector that is a primitive
    integer vector."""
    den = 1
    for x in v:
        d = Fraction(x).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def reduce_mod(basis_rref: Sequence[Sequence[Fraction]], pivots: Sequence[int], v):
    """Canonical representative of v modulo the span of an RREF basis:
    the pivot coordinates are zeroed, then the vector is made primitive."""
    w = [Fraction(x) for x in v]
    for row, p in zip(basis_rref, pivots):
        if w[p]:
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
    return primitive(w)


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def solve_near(
    matrix: Sequence[Sequence], rhs: Sequence, hint: Sequence[float]
) -> Optional[list[Fraction]]:
    """An exact solution of matrix . x = rhs close to a floating-point hint.

    Free variables take the hint's values rounded to small-denominator
    rationals; pivot variables follow.  None when the system is
    inconsistent.
    """
    n = len(hint)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    free = [j for j in range(n) if j not in pivots]
    for j in free:
        x[j] = Fraction(hint[j]).limit_denominator(1 << 20)
    for row, p in zip(red, pivots):
        x[p] = row[n] - sum(row[j] * x[j] for j in free)
    return x
