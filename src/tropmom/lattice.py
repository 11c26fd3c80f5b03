"""Finite point configurations in the nonnegative integer lattice.

A PointConfig is an ordered tuple of distinct nonnegative integer vectors;
the order fixes the coordinate order of every function cone built on top of
it.  Sets produced by enumeration (lattice points of a polytope, boxes,
degree truncations, extension supports) are returned in graded
lexicographic order: by coordinate sum first, lexicographically within a
degree.

Convex hull membership is decided exactly by homogenizing: a point p lies
in conv(V) iff (p, 1) lies in the cone spanned by {(v, 1) : v in V}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .cones import Cone
from .errors import PreconditionError, guard_size
from .linalg import IntVec, barycentric_coords, dot, intvec, rank

_glex = lambda p: (sum(p), p)


def graded_lex_sorted(points: Iterable[Sequence[int]]) -> list[IntVec]:
    return sorted({intvec(p) for p in points}, key=_glex)


@dataclass(frozen=True)
class PointConfig:
    """Ordered distinct points in Z^n with nonnegative coordinates."""

    points: tuple[IntVec, ...]

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = tuple([intvec(p) for p in points])
        if not pts:
            raise ValueError("a point configuration must be nonempty")
        n = len(pts[0])
        if n == 0:
            raise ValueError("points must have at least one coordinate")
        for p in pts:
            if len(p) != n:
                raise ValueError("points of mixed dimension")
            if any(a < 0 for a in p):
                raise ValueError(f"negative coordinate in point {p}")
        members = frozenset(pts)
        if len(members) != len(pts):
            raise ValueError("points must be distinct")
        object.__setattr__(self, "points", pts)
        # not a field, so equality, hashing and repr ignore it
        object.__setattr__(self, "_members", members)

    @property
    def n(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._members

    def index(self, p) -> int:
        return self.points.index(tuple(p))


class MidpointTriple(NamedTuple):
    a1: IntVec
    a2: IntVec
    b: IntVec


class AlmostEmptySimplex(NamedTuple):
    vertices: tuple[IntVec, ...]
    interior: IntVec
    weights: tuple[Fraction, ...]


def _hull_cone(vertices: Sequence[IntVec]) -> Cone:
    return Cone.from_vrep(len(vertices[0]) + 1, [tuple(v) + (1,) for v in vertices])


def _in_hull(hull: Cone, p: Sequence[int]) -> bool:
    return hull.contains_point(tuple(p) + (1,))


def _hull_columns(vertices: Sequence[Sequence[int]]):
    """(prefix, lo, hi) for each integer point prefix of the projection of
    conv(vertices) onto the first n - 1 coordinates: the integer points of
    conv(vertices) over it are (prefix, t) for lo <= t <= hi, the range
    read off the hull's facets, each equation taken as two opposite
    inequalities.  The projection is the hull of the projected vertices;
    in one coordinate it is their bounding box."""
    verts = [intvec(v) for v in vertices]
    hull = _hull_cone(verts)
    n = len(verts[0])
    rows = hull.ineqs + hull.eqs + tuple(tuple(-x for x in e) for e in hull.eqs)
    box = [(min(v[i] for v in verts), max(v[i] for v in verts)) for i in range(n)]
    if n > 2:
        prefixes = lattice_points([v[:-1] for v in verts]).points
    else:
        prefixes = itertools.product(*(range(l, h + 1) for l, h in box[:-1]))
    for p in prefixes:
        lo, hi = box[-1]
        for a in rows:
            # a[:n-1].p + a[n-1] t + a[n] >= 0
            c, k = dot(a[: n - 1], p) + a[n], a[n - 1]
            if k > 0:
                lo = max(lo, -(c // k))
            elif k < 0:
                hi = min(hi, c // -k)
            elif c < 0:
                hi = lo - 1
        yield p, lo, hi


def lattice_points(vertices: Sequence[Sequence[int]]) -> PointConfig:
    """All integer points of conv(vertices), graded-lex, listed column by
    column along the last coordinate."""
    return PointConfig(
        graded_lex_sorted(
            p + (t,) for p, lo, hi in _hull_columns(vertices) for t in range(lo, hi + 1)
        )
    )


def lattice_points_size(vertices: Sequence[Sequence[int]]) -> int:
    """len(lattice_points(vertices)), without listing them."""
    return sum(max(0, hi - lo + 1) for _, lo, hi in _hull_columns(vertices))


def midpoint_triples(cfg: PointConfig) -> tuple[MidpointTriple, ...]:
    """Triples (a1, a2, b) of configuration points with a1 + a2 = 2b, a1 != a2.

    Each unordered pair appears once, with a1 before a2 in graded-lex order;
    the list is sorted by (b, a1).  a1 + a2 is even exactly when a1 and a2
    agree mod 2, so only points of one parity class are paired.
    """
    pts = graded_lex_sorted(cfg.points)
    members = set(pts)
    classes: dict[IntVec, list[IntVec]] = {}
    for p in pts:
        classes.setdefault(tuple(c % 2 for c in p), []).append(p)
    out = []
    for cls in classes.values():
        for i, a1 in enumerate(cls):
            for a2 in cls[i + 1 :]:
                b = tuple((x + y) // 2 for x, y in zip(a1, a2))
                if b in members:
                    out.append(MidpointTriple(a1, a2, b))
    out.sort(key=lambda t: (_glex(t.b), _glex(t.a1), _glex(t.a2)))
    return tuple(out)


def almost_empty_simplices(
    cfg: PointConfig, even_only: bool = False
) -> tuple[AlmostEmptySimplex, ...]:
    """Simplices on configuration points whose hull meets the configuration
    in exactly the vertices plus one relative-interior point.

    With even_only, only simplices with all-even vertex coordinates are
    reported (the interior point is unrestricted).
    """
    pts = graded_lex_sorted(cfg.points)
    n = cfg.n
    out = []
    for size in range(2, min(len(pts), n + 1) + 1):
        for verts in itertools.combinations(pts, size):
            if even_only and any(c % 2 for v in verts for c in v):
                continue
            if rank([v + (1,) for v in verts]) < size:
                continue
            hull = _hull_cone(verts)
            inside = [p for p in pts if p not in verts and _in_hull(hull, p)]
            if len(inside) != 1:
                continue
            b = inside[0]
            weights = barycentric_coords(verts, b)
            if weights is None or any(w <= 0 for w in weights):
                continue
            out.append(AlmostEmptySimplex(verts, b, weights))
    out.sort(key=lambda s: (len(s.vertices), s.vertices, s.interior))
    return tuple(out)


def midpoint_fixpoint(
    points: Iterable[IntVec], fixed: Collection, barred: Collection = frozenset()
) -> set[IntVec]:
    """Greatest subset S of the points, containing the fixed ones, whose
    other members are each the midpoint of two distinct members of S that
    are not the barred pair.  Each pass drops every member without such a
    pair, searching per point and stopping at the first pair found;
    dropping only takes pairs away, so the passes reach the greatest S."""
    s = set(points)
    while True:
        drop = []
        for x in s:
            if x in fixed:
                continue
            for y in s:
                z = tuple([2 * u - v for u, v in zip(x, y)])
                if y != x and z in s and {y, z} != barred:
                    break
            else:
                drop.append(x)
        if not drop:
            return s
        s.difference_update(drop)


def mediated_split(
    vertices: Sequence[Sequence[int]], max_points: Optional[int] = None
) -> tuple[PointConfig, tuple[IntVec, ...]]:
    """The mediated set of the vertices and the lattice points of their
    hull it discards, both graded-lex, from one listing of the hull,
    refused (ResourceLimitError) before it when the hull holds more than
    max_points lattice points."""
    verts = [intvec(v) for v in vertices]
    if rank([v + (1,) for v in verts]) < len(verts):
        raise PreconditionError("mediated_set requires affinely independent vertices")
    if max_points is not None:
        guard_size(lattice_points_size(verts), max_points)
    hull = lattice_points(verts).points
    core = midpoint_fixpoint(hull, set(verts))
    return (
        PointConfig(graded_lex_sorted(core)),
        tuple(p for p in hull if p not in core),
    )


def mediated_set(vertices: Sequence[Sequence[int]]) -> PointConfig:
    """Largest subset S of conv(vertices) cap Z^n with every non-vertex
    point of S a midpoint of two distinct points of S.

    Computed by discarding, from all lattice points of the hull, the
    non-vertex points that are not midpoints, until nothing changes.
    """
    return mediated_split(vertices)[0]


def _box_bounds(cfg: PointConfig) -> tuple[list[int], list[int]]:
    n = cfg.n
    lo = [min(p[i] for p in cfg) for i in range(n)]
    hi = [max(p[i] for p in cfg) for i in range(n)]
    return lo, hi


def cubical_hull(cfg: PointConfig) -> PointConfig:
    """Lattice points of the smallest coordinate box containing the configuration."""
    lo, hi = _box_bounds(cfg)
    return PointConfig(
        graded_lex_sorted(
            itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        )
    )


def cubical_hull_size(cfg: PointConfig) -> int:
    """len(cubical_hull(cfg)), without building it."""
    lo, hi = _box_bounds(cfg)
    return math.prod(h - l + 1 for l, h in zip(lo, hi))


def delta_simplex(n: int, d: int) -> PointConfig:
    """Nonnegative integer vectors in n coordinates with coordinate sum <= d."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    pts = [
        p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d
    ]
    return PointConfig(graded_lex_sorted(pts))


def delta_simplex_size(n: int, d: int) -> int:
    """len(delta_simplex(n, d)), without building it."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return math.comb(n + d, n)


def _column_top(normals, bounds, prefix: Sequence[int]) -> int:
    """Least t >= 0 with <a, (prefix, t)> <= b for every normal a and its
    bound b, read in the first len(prefix) + 1 coordinates.  The normals
    have negative coordinates, so the column prefix x [0, oo) leaves that
    set exactly on [0, t)."""
    k = len(prefix)
    return max(
        0,
        max(-((dot(a[:k], prefix) - b) // a[k]) for a, b in zip(normals, bounds)),
    )


def _a_hat_parts(cfg: PointConfig, order_cone: Cone):
    """The column tops of the down-set D, its parity vectors D cap {0,1}^n,
    and the points of A-hat outside P = {2b - a >= 0 : a, b in D}: the
    2u - v with u in A \\ D and v in A or in D cap [0, 2u] (see a_hat)."""
    n = cfg.n
    if order_cone.dim != n:
        raise ValueError("order cone dimension does not match the configuration")
    normals = order_cone.ineqs
    flat = order_cone.eqs or not order_cone.is_pointed()
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        if flat or any(dot(a, e) >= 0 for a in normals):
            raise PreconditionError(
                f"stabilization hypothesis fails: basis vector {e} is not "
                "in the interior of the negated order cone"
            )
    bounds = [min(dot(a, p) for p in cfg) for a in normals]
    # the largest i-th coordinate of the down-set sits on the i-th axis
    if max(_column_top(normals, bounds, (0,) * i) for i in range(n)) > 1 << 20:
        raise PreconditionError("extension support does not close up")
    tops = {(): _column_top(normals, bounds, ())}
    for k in range(n - 1):
        # the tops of the columns over p + (t,) for every t, one pass per normal
        level = {}
        for p, top in tops.items():
            col = [0] * top
            for a, b in zip(normals, bounds):
                c, s, d = dot(a[:k], p) - b, a[k], a[k + 1]
                col = [max(x, -((c + s * t) // d)) for t, x in enumerate(col)]
            level.update(zip([p + (t,) for t in range(top)], col))
        tops = level
    parities = [
        p + (t,)
        for p in itertools.product((0, 1), repeat=n - 1)
        for t in range(min(tops.get(p, 0), 2))
    ]
    extra = set()
    for u in cfg:
        if u[-1] < tops.get(u[:-1], 0):
            continue
        near = [
            p + (t,)
            for p in itertools.product(*(range(2 * y + 1) for y in u[:-1]))
            for t in range(min(tops.get(p, 0), 2 * u[-1] + 1))
        ]
        for v in itertools.chain(cfg, near):
            c = [2 * x - y for x, y in zip(u, v)]
            h = [(x + 1) // 2 for x in c]
            # c lies in P iff h = ceil(c/2) lies in D (see a_hat)
            if min(c) >= 0 and h[-1] >= tops.get(tuple(h[:-1]), 0):
                extra.add(tuple(c))
    return tops, parities, extra


def _above(p: IntVec, e: IntVec) -> bool:
    return all(x >= y for x, y in zip(p, e))


def _a_hat_size(tops, parities, extra) -> int:
    """len(_a_hat_points(...)) of the same parts, without listing it: a
    column over p adds top - e_n points for each parity vector
    e = (e', e_n) with e' <= p, that is with e' zero where p is; so the
    tops, and the tops less one, are summed per pattern of zeros, plus
    what A adds."""
    sums: dict = {}
    for p, top in tops.items():
        s = sums.setdefault(tuple(map(bool, p)), [0, 0])
        s[0] += top
        s[1] += top - 1
    return len(extra) + sum(
        s[e[-1]] for e in parities for q, s in sums.items() if _above(q, e)
    )


def _a_hat_points(tops, parities, extra) -> PointConfig:
    """A-hat from its parts (see a_hat)."""
    hat = [
        tuple([2 * y - x for x, y in zip(e, p + (t,))])
        for e in parities
        for p, top in tops.items()
        if _above(p, e)
        for t in range(e[-1], top)
    ]
    return PointConfig(graded_lex_sorted(itertools.chain(hat, extra)))


def a_hat_size(cfg: PointConfig, order_cone: Cone) -> int:
    """len(a_hat(cfg, order_cone)), without listing it."""
    return _a_hat_size(*_a_hat_parts(cfg, order_cone))


def a_hat(
    cfg: PointConfig, order_cone: Cone, max_points: Optional[int] = None
) -> PointConfig:
    """Finite extension support for configurations monotone against a cone
    whose negative strictly contains the nonnegative orthant, refused
    (ResourceLimitError) before it is listed when it holds more than
    max_points points; it is sized, then listed, from one reading of D.

    K is the intersection of the translates a - C over configuration
    points a.  With W = (Z^n_{>=0} \\ K) union the configuration, the
    result is one completion step {2b - a : a, b in W} intersected with
    Z^n_{>=0}; it contains W itself (take a = b).  The step is not
    iterated.  Raises PreconditionError, naming the first basis vector
    outside the interior of -C, when the stabilization hypothesis fails.

    Under that hypothesis every facet normal of C has negative
    coordinates, so K is closed upwards and D = Z^n_{>=0} \\ K is a finite
    down-set.  It is read column by column: for a point x' of D in the
    first k coordinates, the column x' x [0, oo) meets K in one interval
    [t, oo), and t comes from the normals alone.  The axis columns give
    the largest coordinate of D; past 2^20 it does not close up, and that
    is decided before any other column is read.

    The completion of D alone is read off parity vectors: c = 2b - a with
    a, b in D and c >= 0 holds iff ceil(c/2) and c mod 2 both lie in D.
    For if c = 2b' - a' then ceil(c/2) <= b', and a' = c mod 2 (mod 2)
    with a' >= 0 gives c mod 2 <= a'; D is a down-set.  Conversely
    c = 2 ceil(c/2) - (c mod 2).  As c mod 2 <= ceil(c/2) for c >= 0, the
    test reduces to ceil(c/2) in D.  So that part is the disjoint union,
    over e in D cap {0,1}^n, of {2b - e : b in D, b >= e}, and a_hat_size
    counts it per column.  For u in A \\ D only 2u - v is completed, with v
    in A or in D cap [0, 2u], as 2u - v >= 0 forces v <= 2u: for v in D
    with 2v - u >= 0, ceil((2v - u)/2) = v - floor(u/2) <= v lies in D, so
    2v - u is in D's completion; for v in A \\ D it is the 2u - v of (v, u).
    """
    parts = _a_hat_parts(cfg, order_cone)
    if max_points is not None:
        guard_size(_a_hat_size(*parts), max_points)
    return _a_hat_points(*parts)
