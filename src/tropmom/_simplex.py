"""Exact phase-one simplex for conic hull membership, in integers only.

Decides whether a target vector lies in the nonnegative span of given
integer rows, and on failure produces a Farkas certificate: a vector
nonnegative against every row but negative against the target.  Dantzig
pricing with a switch to Bland's rule after an iteration budget keeps the
method fast in practice and immune to cycling.

The tableau is fraction-free.  Each constraint row is kept as a primitive
integer vector, a positive multiple of the rational row: sign tests, the
ratio test (by cross-multiplication) and elimination are all invariant
under positive scaling, so a row needs no denominator.  The objective row
is kept as integers over one positive common denominator, so that pricing
compares its entries exactly.  The pivot sequence is the one a rational
tableau would take.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .linalg import IntVec, dot, primitive


def nonneg_combination(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> tuple[bool, Optional[IntVec]]:
    """Membership of target in cone(rows).

    Returns (True, None) when some nonnegative rational combination of the
    rows equals the target, else (False, w) with w primitive,
    <w, row> >= 0 for every row and <w, target> < 0.
    """
    m = len(target)
    if m == 0:
        raise ValueError("empty ambient dimension")
    n = len(rows)
    width = n + m + 1
    sign = [1 if t >= 0 else -1 for t in target]
    # tableau over the basis of artificial variables; row i is scaled so
    # that the i-th artificial column is the i-th unit vector
    tab = [
        [sign[i] * row[i] for row in rows]
        + [1 if k == i else 0 for k in range(m)]
        + [sign[i] * target[i]]
        for i in range(m)
    ]
    # reduced costs obj / den: objective is the sum of the artificials,
    # all basic
    obj = [-sum(t[j] for t in tab) for j in range(width)]
    for j in range(n, n + m):
        obj[j] += 1
    den = 1
    basis = list(range(n, n + m))
    budget = 8 * (n + m)
    it = 0
    while True:
        it += 1
        if it <= budget:
            enter, best = -1, 0
            for j in range(n + m):
                if obj[j] < best:
                    enter, best = j, obj[j]
        else:
            enter = next((j for j in range(n + m) if obj[j] < 0), -1)
        if enter < 0:
            break
        # ratio test: the smallest rhs / a over rows with a > 0, compared
        # by cross-multiplication; ties go to the smaller basis index
        leave, num, dnm = -1, 0, 1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][-1]
                if leave < 0:
                    leave, num, dnm = i, b, a
                    continue
                lhs, rhs = b * dnm, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, dnm = i, b, a
        if leave < 0:
            raise ArithmeticError("phase-one objective unbounded below")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            if i == leave:
                continue
            row = tab[i]
            f = row[enter]
            if f:
                new = [piv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                tab[i] = new
        f = obj[enter]
        obj = [piv * x - f * y for x, y in zip(obj, prow)]
        den *= piv
        g = gcd(den, *obj)
        if g > 1:
            obj = [x // g for x in obj]
            den //= g
        basis[leave] = enter
    if obj[-1] == 0:
        return True, None
    w = [sign[i] * (obj[n + i] - den) for i in range(m)]
    return False, primitive(w)


def valid_on_system(rows: Sequence[IntVec], normal: Sequence[int]):
    """Whether <normal, h> >= 0 follows from the system <row, h> >= 0.

    Returns (True, None) or (False, h) with h satisfying every row but
    <normal, h> < 0.  The certificate is checked in integer arithmetic;
    one that fails the check raises ArithmeticError.
    """
    ok, w = nonneg_combination(rows, normal)
    if ok:
        return True, None
    if w is None or dot(normal, w) >= 0:
        raise ArithmeticError("certificate does not violate the normal")
    for row in rows:
        if dot(row, w) < 0:
            raise ArithmeticError("certificate violates the system")
    return False, w
