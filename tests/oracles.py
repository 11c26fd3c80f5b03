"""Reference oracles for the exact kernels and the extension supports.

These are the dense rational tableau simplex and the rational Gauss-Jordan
elimination the library used before its kernels went fraction-free, and
the box-filtering Â, lattice points of a hull and brute-force semigroup
check it used before they were sized from the inequalities, read off the
hull's facets column by column, and decided by the lattice index and the
parallelepipeds of the differences.  The pairwise
completion of W built Â before it was read off parity vectors.  They are
slow and obviously exact, and the property tests compare the library
against them: same verdicts, same certificates, same canonical bases,
same sets.

The midpoint and monotone row lists are the three separate loops that
built them before one builder did: the projected system, the midpoint
cone's defining system and the even-midpoint system of the sums of
squares dual.  The elimination of the columns that the rows meet with
one sign works on the rows, a column at a time, where the library reads
the signs off the triples and pairs and drops every such point at once.

The cleaned rows are the library's before each row made one gcd pass:
every entry went through int() and every row was made primitive again.
The double description here is the library's before it skipped pairs of
rays too far apart to be adjacent, and the minimal forms are the round
trip through a second double description it made before it read them
off the incidence of rows and generators.  The tight masks are that
incidence computed with dot products, as the library did before it read
it off its double description's masks.

The midpoint triples are found by testing every ordered pair of points,
as the library did before it paired points only within their parity
class.  The mediated set and the midpoint facet test are the two
fixpoint loops the library ran before one helper served both: the first
rebuilt the midpoint of every pair of surviving points on each pass, the
second searched point by point.

The comparable pairs are the loop that tested p - q against the order
cone once per ordered pair, before each point's values on the cone's
H-representation were computed once; the cold scan projects every
degree from scratch, as the scan did before it passed each degree's cone
on to the next projection.

The tropical hull is the library's before its sums shared a halving tree
and entered the hull most facets first: one copy of the shared state per
sum y + V_i, taking the n - 1 unit vectors away from i, and the sums'
facets in coordinate order.

Cone equality is mutual containment, the rule the library used before a
cone's identity became its canonical minimal H-rep.  The generator
projection, the image of a cone's rays and lineality, is the reference
for the library's projections of an H-representation.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Optional, Sequence

from tropmom._dd import DoubleDescription, _lineality_step, _reduce_mod, _unit
from tropmom.cones import Cone
from tropmom.errors import PreconditionError
from tropmom.funcones import _segment_members
from tropmom.lattice import (
    MidpointTriple,
    PointConfig,
    _column_top,
    _hull_cone,
    _in_hull,
    graded_lex_sorted,
    midpoint_triples,
)
from tropmom.linalg import dot, primitive, rank
from tropmom.moments import SemialgSpec
from tropmom.pseudo import trop_pseudomoment

_ZERO = Fraction(0)
_ONE = Fraction(1)
# Dantzig pricing for this many iterations per column, then Bland's rule
_BLAND_AFTER = 8


def _positive_functional(c: Cone) -> tuple[int, ...]:
    # sum of the facet normals of a pointed cone is strictly positive on it
    phi = [0] * c.dim
    for a in c.ineqs:
        phi = [x + y for x, y in zip(phi, a)]
    return tuple(phi)


def cone_equal(a: Cone, b: Cone) -> bool:
    """a and b as sets: each contains the other's generators (ValueError if
    their dimensions differ)."""
    return a.contains_cone(b) and b.contains_cone(a)


def project(cone: Cone, coords: Sequence[int]) -> Cone:
    """Image of the cone under x -> (x[c] for c in coords), from its
    V-representation."""
    if not all(0 <= c < cone.dim for c in coords):
        raise ValueError("projection coordinate out of range")
    take = lambda v: tuple([v[c] for c in coords])
    return Cone.from_vrep(
        len(coords), [take(r) for r in cone.rays], [take(l) for l in cone.lineality]
    )


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
    and <w, target> < 0.  Dantzig pricing, Bland's rule after
    _BLAND_AFTER * (n + m) iterations, ratio ties broken by the smaller
    basis index.
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
    budget = _BLAND_AFTER * (n + m)
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


def lattice_points(vertices: Sequence[Sequence[int]]) -> PointConfig:
    """The integer points of conv(vertices), graded-lex, by testing every
    point of the bounding box for hull membership."""
    verts = [tuple(int(a) for a in v) for v in vertices]
    hull = _hull_cone(verts)
    n = len(verts[0])
    lo = [min(v[i] for v in verts) for i in range(n)]
    hi = [max(v[i] for v in verts) for i in range(n)]
    found = [
        p
        for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if _in_hull(hull, p)
    ]
    return PointConfig(graded_lex_sorted(found))


def a_hat(cfg: PointConfig, order_cone: Cone) -> PointConfig:
    """Â by filtering boxes: the points of [0, m]^n outside K are read off
    the values of each normal over the whole box, doubling m until none of
    them lies on the shell max(p) == m; W is those points and the support,
    and every pair of W is completed."""
    n = cfg.n
    normals = order_cone.ineqs
    flat = order_cone.eqs or not order_cone.is_pointed()
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        if flat or any(dot(a, e) >= 0 for a in normals):
            raise PreconditionError("stabilization hypothesis fails")
    bounds = [min(dot(a, p) for p in cfg) for a in normals]
    m = max(1, max(c for p in cfg for c in p))
    while True:
        box = list(itertools.product(range(m + 1), repeat=n))
        outside = set()
        for a, b in zip(normals, bounds):
            vals = [0]  # <a, p> for p in box, in the same order
            for ai in a:
                vals = [v + ai * t for v in vals for t in range(m + 1)]
            outside.update(itertools.compress(box, map(b.__lt__, vals)))
        if all(max(p) < m for p in outside):
            break
        m *= 2
        if m > 1 << 20:
            raise PreconditionError("extension support does not close up")
    w = outside | set(cfg.points)
    doubled = [tuple([2 * x for x in b]) for b in w]
    hat = {tuple(map(sub, b2, a)) for a in w for b2 in doubled}
    return PointConfig(graded_lex_sorted(p for p in hat if min(p) >= 0))


def a_hat_pairwise(cfg: PointConfig, order_cone: Cone) -> PointConfig:
    """Â by completing W pair by pair: W is read off the column intervals,
    and for each b only the a with a_1 <= 2 b_1 are tried."""
    n = cfg.n
    normals = order_cone.ineqs
    flat = order_cone.eqs or not order_cone.is_pointed()
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        if flat or any(dot(a, e) >= 0 for a in normals):
            raise PreconditionError("stabilization hypothesis fails")
    bounds = [min(dot(a, p) for p in cfg) for a in normals]
    cols: list = [()]
    for i in range(n):
        cols = [
            p + (t,) for p in cols for t in range(_column_top(normals, bounds, p))
        ]
    w = sorted(set(cols) | set(cfg.points))
    firsts = [a[0] for a in w]
    hat = set()
    for b in w:
        b2 = tuple([2 * y for y in b])
        for a in w[: bisect.bisect_right(firsts, b2[0])]:
            p = tuple(map(sub, b2, a))
            if min(p) >= 0:
                hat.add(p)
    return PointConfig(graded_lex_sorted(hat))


def semigroup_generation_check(s: SemialgSpec) -> bool:
    """Brute force for a pointed order cone: every lattice point of the
    cone in a box that holds its Hilbert basis is tested for reachability,
    so no Hilbert filter is needed.  A point is reachable when it is the
    origin or some difference v, with phi(v) <= phi(t) for a positive
    functional phi, leaves a reachable point of the cone."""
    n = s.n
    vs = list(dict.fromkeys(s.exponent_differences()))
    if not vs:
        return True
    c = Cone.from_vrep(n, vs)
    radius = n * max(abs(x) for v in tuple(vs) + c.rays for x in v)
    phi = _positive_functional(c)
    seen: dict = {}

    def reachable(t):
        if not any(t):
            return True
        if t not in seen:
            seen[t] = False
            budget = dot(phi, t)
            for v in vs:
                rest = tuple(map(sub, t, v))
                if dot(phi, v) <= budget and c.contains_point(rest) and reachable(rest):
                    seen[t] = True
                    break
        return seen[t]

    return all(
        reachable(p)
        for p in itertools.product(range(-radius, radius + 1), repeat=n)
        if any(p) and c.contains_point(p)
    )


def comparable_pairs(a: PointConfig, c: Cone) -> list[tuple[int, int]]:
    """Index pairs (i, j), i != j, with p_i - p_j in C, one membership
    test per ordered pair."""
    return [
        (i, j)
        for i, p in enumerate(a)
        for j, q in enumerate(a)
        if i != j and c.contains_point(tuple(x - y for x, y in zip(p, q)))
    ]


def cold_scan_cones(a: PointConfig, spec: SemialgSpec, d_min: int, d_max: int) -> list:
    """The truncated cone of each degree, each projected with no outer cone."""
    return [trop_pseudomoment(a, spec, d).cone for d in range(d_min, d_max + 1)]


def _cover_pairs(points, c):
    rel = {
        (i, j)
        for i, p in enumerate(points)
        for j, q in enumerate(points)
        if i != j and c.contains_point(tuple(x - y for x, y in zip(p, q)))
    }
    return sorted(
        (i, j)
        for i, j in rel
        if not any(
            k != i and k != j and (i, k) in rel and (k, j) in rel
            for k in range(len(points))
        )
    )


def projected_rows(e: PointConfig, c: Cone) -> list[tuple[int, ...]]:
    """Midpoint rows, then the covering relation's monotone rows."""
    rows = []
    for t in midpoint_triples(e):
        row = [0] * len(e)
        row[e.index(t.a1)] += 1
        row[e.index(t.a2)] += 1
        row[e.index(t.b)] -= 2
        rows.append(tuple(row))
    for i, j in _cover_pairs(e.points, c):
        row = [0] * len(e)
        row[i] += 1
        row[j] -= 1
        rows.append(tuple(row))
    return rows


def cone_m_defining_rows(a: PointConfig, c: Cone) -> list[tuple[int, ...]]:
    """Midpoint rows, then the monotone rows of every comparable pair."""
    m = len(a)
    pts = a.points

    def e(i, j, coeff_i, coeff_j, k=-1, coeff_k=0):
        v = [0] * m
        v[i] += coeff_i
        v[j] += coeff_j
        if k >= 0:
            v[k] += coeff_k
        return tuple(v)

    mids = [
        e(a.index(t.a1), a.index(t.a2), 1, 1, a.index(t.b), -2)
        for t in midpoint_triples(a)
    ]
    dec_all = [
        e(i, j, 1, -1)
        for i, p in enumerate(pts)
        for j, q in enumerate(pts)
        if i != j and c.contains_point(tuple(x - y for x, y in zip(p, q)))
    ]
    return mids + dec_all


def even_midpoint_rows(e: PointConfig) -> list[tuple[int, ...]]:
    """Midpoint rows of the pairs of even points whose midpoint is in E."""
    rows = []
    pts = e.points
    for i, v in enumerate(pts):
        if any(x % 2 for x in v):
            continue
        for w in pts[i + 1 :]:
            if any(x % 2 for x in w):
                continue
            mid = tuple((x + y) // 2 for x, y in zip(v, w))
            if mid not in e:
                continue
            row = [0] * len(pts)
            row[e.index(v)] += 1
            row[e.index(w)] += 1
            row[e.index(mid)] -= 2
            rows.append(tuple(row))
    return rows


def one_signed_eliminated(dim: int, rows, keep: Sequence[int]):
    """Fourier-Motzkin elimination, one column at a time, of each column
    outside keep whose nonzero entries in the rows share one sign, with
    the rows it is in, until none is left: the columns kept, in order, and
    the remaining rows restricted to them."""
    rows = [tuple(r) for r in rows]
    live = list(range(dim))
    dropped = True
    while dropped:
        dropped = False
        for c in live:
            if c not in keep and len({r[c] > 0 for r in rows if r[c]}) < 2:
                live.remove(c)
                rows = [r for r in rows if not r[c]]
                dropped = True
                break
    return live, [tuple(r[c] for c in live) for r in rows]


def clean_rows(rows):
    """Primitive over int, zero rows dropped, first occurrence kept."""
    seen = set()
    out = []
    for row in rows:
        v = primitive([int(a) for a in row])
        if any(v) and v not in seen:
            seen.add(v)
            out.append(v)
    return out


def double_description(dim, ineqs, eqs):
    """(rays, lineality basis) of {x : ineqs . x >= 0, eqs . x = 0}: every
    positive-negative pair of rays goes through the combinatorial
    adjacency test."""
    lin = [_unit(dim, i) for i in range(dim)]
    for a in clean_rows(eqs):
        lin, _, _ = _lineality_step(lin, a)
    rays = []  # [vector, tight-bitmask over constraint indices]
    for k, a in enumerate(clean_rows(ineqs)):
        bit = 1 << k
        lin, b0, s = _lineality_step(lin, a)
        if b0 is not None:
            for entry in rays:
                t = dot(a, entry[0])
                if t:
                    entry[0] = primitive([s * x - t * y for x, y in zip(entry[0], b0)])
                entry[1] |= bit
            rays.append([b0, bit - 1])
            continue
        pos, zero, neg = [], [], []
        for entry in rays:
            t = dot(a, entry[0])
            if t > 0:
                pos.append((entry, t))
            elif t < 0:
                neg.append((entry, t))
            else:
                entry[1] |= bit
                zero.append(entry)
        combos = []
        for pe, tp in pos:
            for ne, tn in neg:
                meet = pe[1] & ne[1]
                if not any(
                    o is not pe and o is not ne and meet & o[1] == meet for o in rays
                ):
                    vec = primitive([tp * x - tn * y for x, y in zip(ne[0], pe[0])])
                    combos.append([vec, meet | bit])
        rays = [e for e, _ in pos] + zero + combos
    lin = rref_int(lin)
    by_vec = {}
    for vec, mask in rays:
        red = _reduce_mod(lin, vec)
        if any(red):
            by_vec.setdefault(red, mask)
    items = list(by_vec.items())
    out = [
        v
        for i, (v, m) in enumerate(items)
        if not any(i != j and m & mj == m for j, (_, mj) in enumerate(items))
    ]
    return sorted(out), lin


def tropical_hull(y: Cone) -> Cone:
    """Intersection of the sums y + V_i, each a copy of one double
    description of y's generators that takes the units away from i, with
    the sums' facets given in coordinate order."""
    n = y.dim
    if n == 0:
        return Cone.origin(0)
    shared = DoubleDescription(n, y.lineality + ((1,) * n,))
    shared.add(y.rays)
    ineqs, eqs = [], []
    for i in range(n):
        piece = shared.copy()
        piece.add([_unit(n, j) for j in range(n) if j != i])
        facets, lin = piece.result()
        ineqs.extend(facets)
        eqs.extend(lin)
    return Cone.from_hrep(n, ineqs, eqs)


def tight_masks(rows, rays):
    """Per ray, the bitmask of the distinct primitive rows (in their
    order) whose dot product with the ray is zero."""
    rows = clean_rows(rows)
    masks = []
    for g in rays:
        mask = 0
        for j, a in enumerate(rows):
            if not dot(a, g):
                mask |= 1 << j
        masks.append(mask)
    return masks


def minimal_forms(dim, rows, lin_rows, given="h"):
    """(ineqs, eqs, rays, lineality) of the cone given by rows and lin_rows
    as its H-representation (given="h": inequalities and equations) or its
    V-representation (given="v": generators and lineality generators),
    each side computed by a double description of the other side's output,
    so the given side makes the round trip through two of them."""
    out, out_lin = double_description(dim, rows, lin_rows)
    back, back_lin = double_description(dim, out, out_lin)
    forms = tuple(back), tuple(back_lin), tuple(out), tuple(out_lin)
    return forms if given == "h" else forms[2:] + forms[:2]


def mediated_set(vertices: Sequence[Sequence[int]]) -> PointConfig:
    """Discard non-vertex hull points that are no midpoint of two distinct
    surviving points, rebuilding every pair's midpoint on each pass."""
    verts = [tuple(int(a) for a in v) for v in vertices]
    if rank([v + (1,) for v in verts]) < len(verts):
        raise PreconditionError("mediated_set requires affinely independent vertices")
    vset = set(verts)
    current = set(lattice_points(verts).points)
    while True:
        mids = set()
        for s, t in itertools.combinations(current, 2):
            tot = tuple(x + y for x, y in zip(s, t))
            if not any(c % 2 for c in tot):
                mids.add(tuple(c // 2 for c in tot))
        nxt = vset | (current & mids)
        if nxt == current:
            return PointConfig(graded_lex_sorted(current))
        current = nxt


def midpoint_triples_all_pairs(cfg: PointConfig) -> tuple[MidpointTriple, ...]:
    """Test every ordered pair of distinct points for an even sum whose half
    is a point, keep a1 before a2 in graded-lex order, and sort by (b, a1)."""
    pts = graded_lex_sorted(cfg.points)
    rank_of = {p: i for i, p in enumerate(pts)}
    out = set()
    for a1, a2 in itertools.permutations(pts, 2):
        tot = tuple(x + y for x, y in zip(a1, a2))
        b = tuple(c // 2 for c in tot)
        if not any(c % 2 for c in tot) and b in rank_of:
            a1, a2 = sorted((a1, a2), key=rank_of.get)
            out.add(MidpointTriple(a1, a2, b))
    return tuple(sorted(out, key=lambda t: (rank_of[t.b], rank_of[t.a1], rank_of[t.a2])))


def is_midpoint_facet(a: PointConfig, t: MidpointTriple) -> bool:
    """Drop, on the segment [a1, a2], every non-endpoint point that is no
    midpoint of two distinct members other than {a1, a2}; the triple is a
    facet iff b drops out."""
    if t not in set(midpoint_triples(a)):
        raise PreconditionError("triple is not a midpoint triple of the configuration")
    ends = {t.a1, t.a2}
    s = set(_segment_members(a, t.a1, t.a2))
    while True:
        drop = []
        for x in s:
            if x in ends:
                continue
            for y in s:
                if y == x:
                    continue
                z = tuple(2 * u - v for u, v in zip(x, y))
                if z in s and {y, z} != ends:
                    break
            else:
                drop.append(x)
        if not drop:
            return t.b not in s
        s.difference_update(drop)
