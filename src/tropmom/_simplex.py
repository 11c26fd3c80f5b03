"""Exact phase-one simplex for conic hull membership, in integers only.

Decides whether a target vector lies in the nonnegative span of given
integer rows, and on failure produces a Farkas certificate: a vector
nonnegative against every row but negative against the target.  Dantzig
pricing with a switch to Bland's rule after an iteration budget keeps the
method fast in practice and immune to cycling.

The method is the revised simplex on the phase-one problem: one
equation per coordinate of the target, one column per input row and one
artificial column per coordinate, with coordinate i multiplied by the
sign of the target's i-th entry.  Each input row is stored once, as an
unsigned sparse column of its nonzero entries (the midpoint and monotone
rows of the projections have at most 3), with its sum and an index of
the entries by coordinate.  A ``RowSystem`` builds these once for every
LP on its rows, and plain row sequences build them per call; an LP signs
only the entering column and the entries it reads through the index.
What changes from pivot to pivot is kept in integers:

- [B^-1 | rhs], m rows over the artificial columns and the right-hand
  side, each a primitive positive multiple of the rational row;
- the objective row over the artificial columns and the right-hand side,
  and the reduced costs of the input columns, as integers over one
  positive common denominator ``den``.

The costs start at minus each signed column's sum.  A pivot updates
them as it updates the objective row: times the pivot, less the entering
cost times the leaving row's entries, which the index reads on that
row's few nonzeros, over the gcd that keeps ``obj`` and ``den`` coprime.
A row whose entry in the entering column the pivot divides loses that
multiple of the leaving row on the leaving row's support alone; the
others take the dense fraction-free update.  Either way each row and
cost is the integer that pricing every column from the duals would give,
so the pivots are unchanged.  The loop stops as soon as the phase-one
objective reaches zero: the artificials are then all zero and the target
is a member, so the remaining degenerate pivots of a certified LP are
skipped.  A refuted LP never reaches zero, so its pivots and its
certificate are unchanged.  Only the entering column's tableau column is
formed; Dantzig's rule takes the least cost, Bland's rule after
``_BLAND_AFTER * (n + m)`` iterations the first negative one in column
order.  Bland's rule never returns to a basis, so a basis met twice
under it means wrong costs or columns, and raises ArithmeticError
instead of looping.

The pivot sequence is that of a rational tableau.  The dense
fraction-free tableau's entries outside the stored columns are integer
combinations of the stored ones, so each stored row has the gcd, and
hence the values, of the dense primitive row; and pricing, the ratio test
(by cross-multiplication) and its tie-break are invariant under positive
scaling of a row in any case.  The verdict and the primitive certificate
are therefore those of the rational tableau too.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd
from typing import Optional, Sequence

from .linalg import IntVec, dot, primitive

_PAD = [(0, 0)] * 3
# Dantzig pricing for this many iterations per column, then Bland's rule
_BLAND_AFTER = 8


def _columns(rows: Sequence[Sequence[int]]) -> tuple[list, dict, list, dict]:
    """The unsigned sparse columns of the rows: the first three nonzeros
    (i, a) of each row flat in one tuple, padded with zero entries, and
    the rest, which the projection systems never have, by row index; each
    row's sum, and the entries (j, a) of every row j by coordinate i."""
    entries = [[(i, row[i]) for i in compress(count(), row)] for row in rows]
    cols = [(*e0, *e1, *e2) for e0, e1, e2, *_ in (col + _PAD for col in entries)]
    more = {j: col[3:] for j, col in enumerate(entries) if len(col) > 3}
    index: dict[int, list] = {}
    for j, col in enumerate(entries):
        for i, a in col:
            index.setdefault(i, []).append((j, a))
    return cols, more, [sum(a for _, a in col) for col in entries], index


class RowSystem(tuple):
    """A tuple of integer rows that carries their sparse columns, built
    once for every LP on the system."""

    def __new__(cls, rows: Sequence[Sequence[int]]):
        system = super().__new__(cls, rows)
        system.columns = _columns(system)
        return system


def nonneg_combination(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> tuple[bool, Optional[IntVec]]:
    """Membership of target in cone(rows).

    Returns (True, None) when some nonnegative rational combination of the
    rows equals the target, else (False, w) with w primitive,
    <w, row> >= 0 for every row and <w, target> < 0.  The rows may be a
    RowSystem, whose columns are then not rebuilt.  Phase one ends at a
    zero objective, the proof of membership, without pricing the basis to
    optimality.
    """
    m = len(target)
    if m == 0:
        raise ValueError("empty ambient dimension")
    n = len(rows)
    sign = [1 if t >= 0 else -1 for t in target]
    columns = rows.columns if isinstance(rows, RowSystem) else _columns(rows)
    cols, more, colsum, index = columns
    # [B^-1 | rhs] over the basis of artificial variables
    tab = [[0] * (m + 1) for _ in target]
    # the objective (the sum of the artificials) over the artificial
    # columns and the rhs, times den
    obj = [0] * m + [-sum(abs(t) for t in target)]
    den = 1
    # the input columns' reduced costs times den, carried from pivot to
    # pivot: at the start minus each signed column's sum
    cost = [-s for s in colsum]
    for i, t in enumerate(target):
        tab[i][i], tab[i][m] = 1, abs(t)
        if t < 0:
            for j, a in index.get(i, ()):
                cost[j] += 2 * a
    basis = list(range(n, n + m))
    budget = _BLAND_AFTER * (n + m)
    it = 0
    seen: set[frozenset] = set()  # the bases met under Bland's rule
    while obj[m]:
        it += 1
        # the i-th artificial column's reduced cost is obj[i]
        costs = cost + obj[:m]
        if it <= budget:  # Dantzig: the least cost
            best = min(costs)
            enter = costs.index(best) if best < 0 else -1
        else:  # Bland: the first negative cost, from a basis never met
            key = frozenset(basis)
            if key in seen:
                raise ArithmeticError("simplex cycled under Bland's rule")
            seen.add(key)
            enter = next((j for j, c in enumerate(costs) if c < 0), -1)
            best = costs[enter]
        if enter < 0:
            break
        # the entering column of the tableau, B^-1 times column enter
        if enter < n:
            i0, a0, i1, a1, i2, a2 = cols[enter]
            a0, a1, a2 = sign[i0] * a0, sign[i1] * a1, sign[i2] * a2
            d = [r[i0] * a0 + r[i1] * a1 + r[i2] * a2 for r in tab]
            if enter in more:
                rest = [(i, sign[i] * a) for i, a in more[enter]]
                d = [x + _dot(r, rest) for x, r in zip(d, tab)]
        else:
            d = [r[enter - n] for r in tab]
        # ratio test: the smallest rhs / a over rows with a > 0, compared
        # by cross-multiplication; ties go to the smaller basis index
        leave, num, dnm = -1, 0, 1
        for i, a in enumerate(d):
            if a > 0:
                b = tab[i][m]
                if leave < 0:
                    leave, num, dnm = i, b, a
                    continue
                lhs, rhs = b * dnm, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, dnm = i, b, a
        if leave < 0:
            raise ArithmeticError("phase-one objective unbounded below")
        prow = tab[leave]
        piv = d[leave]
        support = [(k, y) for k, y in enumerate(prow) if y]
        for i, f in enumerate(d):
            if f and i != leave:
                row = tab[i]
                if f % piv:
                    row = [piv * x - f * y for x, y in zip(row, prow)]
                else:  # the row less f / piv times prow, on prow's support
                    q = f // piv
                    for k, y in support:
                        row[k] -= q * y
                g = gcd(*row)
                tab[i] = [x // g for x in row] if g > 1 else row
        obj = [piv * x - best * y for x, y in zip(obj, prow)]
        den *= piv
        # the input columns' costs less best times their entries in the
        # leaving row, read off the index on prow's support less its rhs
        if piv > 1:
            cost = [piv * c for c in cost]
        for k, y in support[: -1 if prow[m] else None]:
            y *= best * sign[k]
            for j, a in index.get(k, ()):
                cost[j] -= y * a
        g = gcd(den, *obj)
        if g > 1:
            cost = [c // g for c in cost]
            obj = [x // g for x in obj]
            den //= g
        basis[leave] = enter
    if obj[m] == 0:
        return True, None
    w = [sign[i] * (obj[i] - den) for i in range(m)]
    return False, primitive(w)


def _dot(vec, entries) -> int:
    """Sum of vec[i] * a over the sparse entries (i, a)."""
    return sum([vec[i] * a for i, a in entries])


def row_values(system: RowSystem, vec: Sequence[int]) -> list[int]:
    """<row, vec> for every row of the system, read through its nonzeros."""
    cols, more, _, _ = system.columns
    values = [vec[i0] * a0 + vec[i1] * a1 + vec[i2] * a2 for i0, a0, i1, a1, i2, a2 in cols]
    for j, rest in more.items():
        values[j] += _dot(vec, rest)
    return values


def valid_on_system(rows: Sequence[IntVec], normal: Sequence[int]):
    """Whether <normal, h> >= 0 follows from the system <row, h> >= 0.

    Returns (True, None) or (False, h) with h satisfying every row but
    <normal, h> < 0.  The certificate is checked in integer arithmetic;
    one that fails the check raises ArithmeticError.
    """
    system = rows if isinstance(rows, RowSystem) else RowSystem(rows)
    ok, w = nonneg_combination(system, normal)
    if ok:
        return True, None
    if w is None or dot(normal, w) >= 0:
        raise ArithmeticError("certificate does not violate the normal")
    if min(row_values(system, w), default=0) < 0:
        raise ArithmeticError("certificate violates the system")
    return False, w
