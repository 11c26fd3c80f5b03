"""Cones of convex and midpoint-convex functions on a finite support.

For a point configuration A in Z^n and a partial order cone C, three
cones in R^A, each returned as a Cone:

* cone_K: functions h with sum(l_i h(a_i)) >= h(b) for every convex
  combination sum(l_i a_i) with sum(l_i a_i) - b in C.  Computed as the
  tropical conical hull of the evaluation image of the dual cone of C,
  so its facets are exactly the irredundant binomial certificates.
* cone_M: the midpoint relaxation, keeping only the constraints
  h(a1) + h(a2) >= 2 h(b) over configuration triples a1 + a2 = 2b and
  h(a1) >= h(a2) over pairs with a1 - a2 in C.
* cone_K_even: convexity constraints of the almost-empty simplices
  whose vertices are all even.

K is always contained in M.  Coordinates of all function cones follow the
order of the configuration points.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ge
from typing import Sequence

from .cones import Cone, tropical_hull
from .errors import PreconditionError
from .lattice import (
    AlmostEmptySimplex,
    MidpointTriple,
    PointConfig,
    almost_empty_simplices,
    mediated_set,
    midpoint_fixpoint,
    midpoint_triples,
)
from .linalg import IntVec, dot, integerize, primitive


def _simplex_normals(
    a: PointConfig, simplices: Sequence[AlmostEmptySimplex]
) -> list[IntVec]:
    out = []
    for s in simplices:
        normal = [0] * len(a)
        *c, total = integerize(s.weights + (1,))
        for v, ci in zip(s.vertices, c):
            normal[a.index(v)] = ci
        normal[a.index(s.interior)] = -total
        out.append(primitive(tuple(normal)))
    return out


def cone_K(a: PointConfig, c: Cone) -> Cone:
    """The cone of C-convex functions on the configuration.

    The dual cone of C is mapped through u -> (<a, u>)_{a in A}; the result
    is the tropical conical hull of the image, with minimal facet system.
    """
    if c.dim != a.n:
        raise ValueError("order cone dimension does not match the configuration")
    cd = c.dual()
    image = lambda u: tuple(dot(p, u) for p in a.points)
    return tropical_hull(
        len(a), [image(u) for u in cd.rays], [image(l) for l in cd.lineality]
    )


def cone_K_facets_via_simplices(a: PointConfig) -> tuple[IntVec, ...]:
    """One inequality sum(c_i h(v_i)) >= L h(b) per almost-empty simplex.

    Independent route to the plain convexity cone: the returned system
    generates a cone equal to cone_K(a, {0}).
    """
    return tuple(_simplex_normals(a, almost_empty_simplices(a)))


def cone_K_even(a: PointConfig) -> Cone:
    """Convexity constraints of the all-even almost-empty simplices.

    This is the tropicalization of the moment cone of measures on all of
    R^n, where only even powers certify nonnegativity.
    """
    normals = _simplex_normals(a, almost_empty_simplices(a, even_only=True))
    return Cone.from_hrep(len(a), normals)


def constraint_rows(
    a: PointConfig, triples: Sequence[MidpointTriple], pairs: Sequence[tuple[int, int]]
) -> list[IntVec]:
    """Inequality normals on R^A: h(a1) + h(a2) - 2h(b) >= 0 for each
    midpoint triple, then h(p_i) - h(p_j) >= 0 for each index pair (i, j),
    in the order given."""
    index = {p: i for i, p in enumerate(a.points)}
    rows = []
    for t in triples:
        row = [0] * len(a)
        row[index[t.a1]] += 1
        row[index[t.a2]] += 1
        row[index[t.b]] -= 2
        rows.append(tuple(row))
    for i, j in pairs:
        row = [0] * len(a)
        row[i] += 1
        row[j] -= 1
        rows.append(tuple(row))
    return rows


def binding_rows(
    e: PointConfig,
    a: PointConfig,
    triples: Sequence[MidpointTriple],
    pairs: Sequence[tuple[int, int]],
) -> tuple[PointConfig, list[IntVec]]:
    """The points of E that can bind the projection of the system onto A,
    in E's order, and constraint_rows on them.

    A point outside A that the rows meet with one sign only, positive as
    a1, a2 or the first index of a pair and negative as b or the second,
    satisfies every row it is in at a large enough value of that sign, so
    projecting it out drops those rows and leaves the others (Fourier-
    Motzkin elimination with nothing to pair).  Such points are dropped
    until none is left; the image on A is unchanged.
    """
    pts = e.points
    live = set(pts)
    while True:
        pos = {t.a1 for t in triples}
        pos.update([t.a2 for t in triples], [pts[i] for i, _ in pairs])
        neg = {t.b for t in triples}
        neg.update([pts[j] for _, j in pairs])
        gone = {p for p in live - (pos & neg) if p not in a}
        if not gone:
            break
        live -= gone
        triples = [t for t in triples if gone.isdisjoint(t)]
        pairs = [(i, j) for i, j in pairs if pts[i] in live and pts[j] in live]
    if len(live) < len(pts):
        kept = [p for p in pts if p in live]
        index = {p: i for i, p in enumerate(kept)}
        pairs = [(index[pts[i]], index[pts[j]]) for i, j in pairs]
        e = PointConfig(kept)
    return e, constraint_rows(e, triples, pairs)


def comparable_pairs(a: PointConfig, c: Cone) -> list[tuple[int, int]]:
    """Index pairs (i, j), i != j, with p_i - p_j in C, sorted.

    p - q lies in C when <a, p> >= <a, q> for each facet normal a of C and
    <e, p> = <e, q> for each equation e, so each point's values on C's
    H-representation are computed once and the pairs compare those.
    """
    ineqs, eqs = c.ineqs, c.eqs
    values = [
        ([dot(n, p) for n in ineqs], [dot(e, p) for e in eqs]) for p in a
    ]
    return [
        (i, j)
        for i, (u, x) in enumerate(values)
        for j, (v, y) in enumerate(values)
        if i != j and x == y and all(map(ge, u, v))
    ]


def cover_pairs(pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The comparable pairs with no configuration point strictly between
    their two points in the C-order; transitivity recovers the rest."""
    rel = set(pairs)
    above: dict[int, list[int]] = {}
    for i, k in pairs:
        above.setdefault(i, []).append(k)
    return [(i, j) for i, j in pairs if not any((k, j) in rel for k in above[i])]


def cone_M(a: PointConfig, c: Cone) -> Cone:
    """The midpoint relaxation of cone_K: only the constraints from
    configuration midpoint triples and from C-comparable pairs.  The
    comparable pairs' covering relation stands for all of them, as it
    generates the same cone by transitivity.
    """
    if c.dim != a.n:
        raise ValueError("order cone dimension does not match the configuration")
    pairs = cover_pairs(comparable_pairs(a, c))
    return Cone.from_hrep(len(a), constraint_rows(a, midpoint_triples(a), pairs))


def _segment_members(a: PointConfig, p: IntVec, q: IntVec) -> list[IntVec]:
    """Configuration points on the closed segment from p to q."""
    d = tuple(x - y for x, y in zip(q, p))
    j = next(k for k, x in enumerate(d) if x)
    out = []
    for x in a:
        r = tuple(u - v for u, v in zip(x, p))
        if all(r[k] * d[j] == r[j] * d[k] for k in range(len(d))):
            t = Fraction(r[j], d[j])
            if 0 <= t <= 1:
                out.append(x)
    return out


def is_midpoint_facet(a: PointConfig, t: MidpointTriple) -> bool:
    """Whether the midpoint inequality of the triple is irredundant in the
    midpoint-only cone of the configuration.

    Among the configuration points on the segment [a1, a2], the largest
    subset S is computed in which every point other than the endpoints is
    the midpoint of two distinct members forming a pair other than
    {a1, a2}; deleting all violators of the current set each pass reaches
    the greatest such S regardless of order.  The triple is a facet iff b
    drops out.  The triple is checked as midpoint_triples would list it:
    three configuration points with a1 + a2 = 2b and a1 strictly before
    a2 in graded-lex order.
    """
    a1, a2, b = t.a1, t.a2, t.b
    if not (
        a1 in a
        and a2 in a
        and b in a
        and all(x + y == 2 * z for x, y, z in zip(a1, a2, b))
        and (sum(a1), a1) < (sum(a2), a2)
    ):
        raise PreconditionError("triple is not a midpoint triple of the configuration")
    ends = {a1, a2}
    return b not in midpoint_fixpoint(_segment_members(a, a1, a2), ends, ends)


def projection_equality_KM(a: PointConfig) -> bool:
    """True when every almost-empty-simplex interior point belongs to the
    mediated set of its vertices; then midpoint constraints on any lattice
    superset of the hull project exactly onto the convexity cone."""
    return all(
        s.interior in mediated_set(s.vertices)
        for s in almost_empty_simplices(a)
    )
