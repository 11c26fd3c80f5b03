"""Reference oracles for the exact kernels, in plain Fraction arithmetic.

These are the dense rational tableau simplex and the rational Gauss-Jordan
elimination the library used before its kernels went fraction-free.  They
are slow and obviously exact, and the property tests compare the library
against them: same verdicts, same certificates, same canonical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def integerize(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector."""
    scale = lcm(*[Fraction(a).denominator for a in v])
    ints = [int(a * scale) for a in v]
    g = gcd(*ints) or 1
    return tuple([a // g for a in ints])


def nonneg_combination(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Membership of target in cone(rows) on a dense Fraction tableau.

    Returns (True, None) or (False, w) with <w, row> >= 0 for every row
    and <w, target> < 0.  Dantzig pricing, Bland's rule after 8 * (n + m)
    iterations, ratio ties broken by the smaller basis index.
    """
    m = len(target)
    if m == 0:
        raise ValueError("empty ambient dimension")
    n = len(rows)
    sign = [1 if t >= 0 else -1 for t in target]
    tab = [
        [Fraction(sign[i] * row[i]) for row in rows]
        + [_ONE if k == i else _ZERO for k in range(m)]
        + [Fraction(sign[i] * target[i])]
        for i in range(m)
    ]
    obj = [
        -sum(tab[i][j] for i in range(m)) + (_ONE if j >= n else _ZERO)
        for j in range(n + m)
    ]
    obj.append(-sum(tab[i][-1] for i in range(m)))
    basis = list(range(n, n + m))
    budget = 8 * (n + m)
    it = 0
    while True:
        it += 1
        if it <= budget:
            enter, best = -1, _ZERO
            for j, c in enumerate(obj[:-1]):
                if c < best:
                    enter, best = j, c
        else:
            enter = next((j for j, c in enumerate(obj[:-1]) if c < 0), -1)
        if enter < 0:
            break
        leave, ratio = -1, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                r = tab[i][-1] / a
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    leave, ratio = i, r
        if leave < 0:
            raise ArithmeticError("phase-one objective unbounded below")
        prow = tab[leave]
        piv = prow[enter]
        if piv != 1:
            for j in range(n + m + 1):
                prow[j] /= piv
        for vec in tab + [obj]:
            if vec is prow:
                continue
            f = vec[enter]
            if f:
                for j in range(n + m + 1):
                    if prow[j]:
                        vec[j] -= f * prow[j]
        basis[leave] = enter
    if obj[-1] == 0:
        return True, None
    w = tuple(sign[i] * (obj[n + i] - _ONE) for i in range(m))
    return False, w


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """In-place rational Gauss-Jordan elimination; returns the nonzero rows."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return rows[:r]


def rank(rows):
    return len(_echelon([[Fraction(a) for a in row] for row in rows]))


def rref_int(rows):
    return [integerize(row) for row in _echelon([[Fraction(a) for a in row] for row in rows])]


def kernel_basis(rows, n=None):
    if n is None:
        n = len(rows[0])
    reduced = rref_int(rows)
    pivots = [next(j for j, a in enumerate(row) if a != 0) for row in reduced]
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        x = [Fraction(0)] * n
        x[j] = Fraction(1)
        for row, pj in zip(reduced, pivots):
            x[pj] = -Fraction(row[j], row[pj])
        basis.append(integerize(x))
    return rref_int(basis)


def solve_linear(matrix, rhs):
    m = len(matrix)
    if m == 0:
        return ()
    n = len(matrix[0])
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    x = [Fraction(0)] * n
    for row in _echelon(aug):
        pivot = next(j for j, a in enumerate(row) if a != 0)
        if pivot == n:
            return None
        x[pivot] = row[n] / row[pivot]
    return tuple(x)
