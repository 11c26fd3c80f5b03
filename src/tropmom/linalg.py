"""Exact linear algebra over the rationals.

Vectors are tuples of ints (fractions.Fraction only where a result is
genuinely rational, as in solve_linear); matrices are sequences of row
vectors.  Nothing here ever rounds.  Elimination is fraction-free: one
Gauss-Jordan routine scales rational rows to integer rows and keeps every
row a primitive integer vector, so integer vectors stay in primitive
form (content 1) wherever a scale-invariant object is represented.
Null spaces have one elimination, the lineality cut, which both
``kernel_basis`` and the double description run.

Vectors on the hot paths are built as tuple([...]) rather than from a
generator: a tuple grown from a generator is resized, which bypasses
CPython's per-length tuple free lists and leaves freed tuples piling up
in them until a full garbage collection.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import index, mul
from typing import Iterable, Optional, Sequence

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def dot(u: Sequence, v: Sequence):
    assert len(u) == len(v)
    return sum(map(mul, u, v))


def intvec(v: Iterable) -> IntVec:
    """v as a tuple of ints; any other entry raises ValueError, never
    truncated."""
    try:
        return tuple([index(a) for a in v])
    except TypeError:
        raise ValueError(f"entries must be integers, not {v!r}") from None


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by its content, keeping direction.

    The zero vector is returned unchanged; callers that must not see it are
    expected to filter first.
    """
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple([a // g for a in v])


def integerize(v: Sequence[Fraction]) -> IntVec:
    """Scale a rational vector by a positive rational into primitive integer form."""
    lcm = 1
    for a in v:
        if type(a) is not int:
            d = Fraction(a).denominator
            lcm = lcm // gcd(lcm, d) * d
    return primitive([int(a * lcm) for a in v])


def _echelon(rows: Sequence[Sequence]) -> list[Sequence[int]]:
    """Fraction-free Gauss-Jordan elimination.

    Each rational row is first scaled to a primitive integer row.  Returns
    the nonzero rows of the reduced row echelon form, each a primitive
    integer vector with a positive pivot: every step replaces a row by a
    positive multiple of its rational counterpart, so the result is the
    canonical basis of the row span.
    """
    rows = [integerize(row) for row in rows]
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        prow = rows[pivot]
        rows[pivot] = rows[r]
        if prow[col] < 0:
            prow = [-a for a in prow]
        rows[r] = prow
        p = prow[col]
        for i in range(m):
            f = rows[i][col]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
                rows[i] = row
        r += 1
        if r == m:
            break
    return rows[:r]


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows))


def _det(m: Sequence[Sequence[int]]) -> int:
    # cofactor expansion along the first row; meant for orders up to 3
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def lattice_index(rows: Sequence[Sequence[int]]) -> int:
    """Index of the lattice the integer rows generate in the integer points
    of their linear span: the gcd of the r x r minors, r the rank.  Every
    minor is expanded, so this is meant for a few short rows."""
    r = rank(rows)
    if r == 0:
        return 1
    g = 0
    for sub in itertools.combinations(rows, r):
        for cols in itertools.combinations(range(len(sub[0])), r):
            g = gcd(g, _det([[row[j] for j in cols] for row in sub]))
            if g == 1:
                return 1
    return g


def rref_int(rows: Sequence[Sequence[int]]) -> list[IntVec]:
    """Canonical basis of the row span: reduced echelon rows, primitive, pivots positive."""
    return [tuple(row) for row in _echelon(rows)]


def _unit(n: int, i: int) -> IntVec:
    return tuple([1 if j == i else 0 for j in range(n)])


def _lineality_step(lin: list[IntVec], a: Sequence[int]) -> tuple:
    """Cut the basis lin by <a, x> = 0.  Returns (basis, b0, s): b0 is the
    first basis vector off the hyperplane, signed so that <a, b0> = s > 0,
    and the basis is the rest with b0 eliminated; (lin, None, 0) if none is."""
    vals = [dot(a, b) for b in lin]
    j = next((i for i, t in enumerate(vals) if t != 0), None)
    if j is None:
        return lin, None, 0
    b0, s = lin[j], vals[j]
    if s < 0:
        b0, s = tuple([-x for x in b0]), -s
    rest = [
        primitive([s * x - t * y for x, y in zip(b, b0)])
        for b, t in zip(lin, vals)
        if b is not lin[j]
    ]
    return [b for b in rest if any(b)], b0, s


def kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[IntVec]:
    """Canonical primitive basis of {x : row . x = 0 for every row} in R^n:
    the unit vectors cut by each row in turn, in reduced echelon form."""
    basis = [_unit(n, i) for i in range(n)]
    for row in rows:
        basis = _lineality_step(basis, row)[0]
    return rref_int(basis)


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[RatVec]:
    """One exact solution of matrix . x = rhs (free variables set to 0), or None."""
    m = len(matrix)
    if m == 0:
        return ()
    n = len(matrix[0])
    x = [Fraction(0)] * n
    for row in _echelon([list(row) + [b] for row, b in zip(matrix, rhs)]):
        pivot = next(j for j, a in enumerate(row) if a != 0)
        if pivot == n:
            return None
        x[pivot] = Fraction(row[n], row[pivot])
    return tuple(x)


def barycentric_coords(vertices: Sequence[Sequence[int]], point: Sequence) -> Optional[RatVec]:
    """Affine weights of `point` w.r.t. affinely independent `vertices`.

    Returns the unique rationals lam with sum(lam) = 1 and
    sum(lam_i * vertices_i) = point, or None when the point lies outside the
    affine span.  Raises ValueError if the vertices are affinely dependent.
    """
    if not vertices:
        raise ValueError("no vertices")
    n = len(vertices[0])
    k = len(vertices)
    homog = [tuple(v) + (1,) for v in vertices]
    if rank(homog) < k:
        raise ValueError("vertices are affinely dependent")
    matrix = [[v[i] for v in vertices] for i in range(n)]
    matrix.append([1] * k)
    return solve_linear(matrix, list(point) + [1])
