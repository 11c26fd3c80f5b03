"""Rational polyhedral cones with exact dual representations.

A cone holds both of its representations, minimal and canonical, from
the moment it is built, and the two are one dual pair: the H-rep of a
cone is the V-rep of its dual and the other way round, so one routine
completes either from the other, and the dual swaps them.

* H-rep: facet inequalities ``<a, x> >= 0`` and equations ``<e, x> = 0``,
  with primitive integer normals;
* V-rep: extreme rays (primitive integer vectors, reduced modulo the
  lineality space) plus a lineality basis in integer reduced row echelon
  form.

A cone is built from one side's rows.  The other side is one run of the
double description method on them, minimal and canonical; the given side
is made minimal at once from the incidence of its rows with that output,
not by a second run or a kernel: the incidence is read off the tight
masks that run kept, rows tight on every generator are implicit, the
equations span them and the given ones, and the facets are the other
rows with maximal tight sets.  The double description (``_dd``) is
resumable: rows can be added to it later, and a copy continues from a
shared prefix.  All arithmetic is integer and exact.  Both
representations are canonical, so a cone's minimal H-rep is its
identity: two cones are equal as sets exactly when they have the same
dimension and the same minimal H-rep, and they print identically.

The tropical hull of a cone Y is computed from its definition as the
intersection of the Minkowski sums Y + V_i, where V_i is the cone of
vectors whose i-th coordinate is minimal, each sum continuing one double
description of the generators of Y, and the hull the largest sum's, cut
by the other sums' facets that no two-term cancellation implies; the
dual route sums the slices of the dual cone over the opposite orthant
sectors.  Both routes are kept because they check each other.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence

from ._dd import Described, DoubleDescription, _clean_rows, _maximal, _reduce_mod, _unit
from .linalg import IntVec, dot, primitive, rref_int

Rows = tuple[IntVec, ...]


def _by_incidence(
    rows: Collection[IntVec], given: Sequence[IntVec], masks: Sequence[int]
) -> tuple[Rows, Rows]:
    """Minimal (facets, equations) of {x : <a, x> >= 0 for a in rows,
    <e, x> = 0 for e in given}, in double description's canonical form,
    from the masks of the double description of its V-representation (bit
    j of masks[i]: rows[j] is tight on ray i); with the roles swapped, the
    minimal V-representation from the minimal H-representation.

    A row tight on every ray is an implicit equation, and the implicit and
    given equations cut out the cone's span (Schrijver 1986, section 8.2),
    so the equations are their reduced echelon form.  Any other row is tight
    on a face, which lies in a facet, so the facets are the rows with
    maximal tight sets, one per set, reduced modulo the equations."""
    by_mask, maximal, implicit = _maximal(rows, masks)
    eqs = rref_int([*given, *implicit]) if given or implicit else []
    facets = [_reduce_mod(eqs, by_mask[m]) if eqs else by_mask[m] for m in maximal]
    return tuple(sorted(facets)), tuple(eqs)


def double_description(
    dim: int, ineqs: Sequence[IntVec], eqs: Sequence[IntVec]
) -> tuple[list[IntVec], list[IntVec]]:
    """V-representation of {x : ineqs . x >= 0, eqs . x = 0}.

    Returns (rays, lineality_basis), carrying the rays' tight masks over
    the deduplicated ineqs as ``masks``.  The lineality basis is in integer
    reduced row echelon form; the rays are extreme, reduced modulo it,
    primitive, pairwise distinct and sorted.

    Inequalities are inserted in the order given (after deduplication);
    intermediate ray counts, and hence running time, can depend heavily on
    that order, so callers with structured systems should order them so
    successive partial cones stay close to the final one.
    """
    state = DoubleDescription(dim, eqs)
    state.add(ineqs)
    return state.result()


class Cone:
    """An exact rational polyhedral cone in R^dim.  ``_sides`` holds the
    minimal H-rep (normals, equations) and the minimal V-rep (rays,
    lineality basis); build one with from_hrep, from_vrep or a named
    cone."""

    __slots__ = ("dim", "_sides")

    def __init__(self, dim: int, sides: tuple[tuple[Rows, Rows], tuple[Rows, Rows]]):
        self.dim, self._sides = dim, sides

    # -- construction -------------------------------------------------

    @classmethod
    def _completed(
        cls, dim: int, k: int, rows: Collection, given: Sequence, out: Described
    ) -> "Cone":
        """The cone whose side k (0: H, 1: V) has the cleaned rows and the
        given equations (lines for V), made minimal by its incidence with
        out, their double description and the other side."""
        other = (tuple(out[0]), tuple(out[1]))
        side = _by_incidence(rows, given, out.masks)
        return cls(dim, (side, other) if k == 0 else (other, side))

    @classmethod
    def _given(cls, dim: int, k: int, rows: Iterable, basis: Iterable, what: str) -> "Cone":
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        try:
            rows, basis = _clean_rows(rows), _clean_rows(basis)
        except TypeError:
            raise ValueError(f"{what} entries must be integers") from None
        for row in rows + basis:
            if len(row) != dim:
                raise ValueError(f"{what} of wrong length")
        return cls._completed(dim, k, rows, basis, double_description(dim, rows, basis))

    @classmethod
    def from_hrep(
        cls, dim: int, ineqs: Iterable[Sequence[int]], eqs: Iterable[Sequence[int]] = ()
    ) -> "Cone":
        return cls._given(dim, 0, ineqs, eqs, "normal vector")

    @classmethod
    def from_vrep(
        cls, dim: int, rays: Iterable[Sequence[int]], lineality: Iterable[Sequence[int]] = ()
    ) -> "Cone":
        return cls._given(dim, 1, rays, lineality, "generator")

    @classmethod
    def full_space(cls, dim: int) -> "Cone":
        return cls.from_vrep(dim, (), [_unit(dim, i) for i in range(dim)])

    @classmethod
    def origin(cls, dim: int) -> "Cone":
        return cls.from_vrep(dim, (), ())

    @classmethod
    def nonpos_orthant(cls, dim: int) -> "Cone":
        return cls.from_hrep(dim, [tuple(-x for x in _unit(dim, i)) for i in range(dim)])

    # -- representations ------------------------------------------------

    @property
    def rays(self) -> Rows:
        return self._sides[1][0]

    @property
    def lineality(self) -> Rows:
        return self._sides[1][1]

    @property
    def ineqs(self) -> Rows:
        return self._sides[0][0]

    @property
    def eqs(self) -> Rows:
        return self._sides[0][1]

    # -- basic queries -------------------------------------------------

    def cone_dim(self) -> int:
        return self.dim - len(self.eqs)

    def is_pointed(self) -> bool:
        return not self.lineality

    def is_full_dimensional(self) -> bool:
        return self.cone_dim() == self.dim

    def contains_point(self, vec: Sequence) -> bool:
        """Membership of a rational vector, from the H-representation."""
        return all(dot(a, vec) >= 0 for a in self.ineqs) and all(
            dot(e, vec) == 0 for e in self.eqs
        )

    def contains_cone(self, other: "Cone") -> bool:
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        if not all(self.contains_point(r) for r in other.rays):
            return False
        normals = self.ineqs + self.eqs
        return not any(dot(a, l) for l in other.lineality for a in normals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return self.dim == other.dim and self._sides[0] == other._sides[0]

    def __hash__(self):
        return hash((self.dim, self._sides[0]))

    def __repr__(self) -> str:
        return (
            f"Cone(dim={self.dim}, rays={len(self.rays)}, "
            f"lineality={len(self.lineality)}, facets={len(self.ineqs)})"
        )

    # -- operations -----------------------------------------------------

    def dual(self) -> "Cone":
        """The cone of linear functionals nonnegative on this cone."""
        return Cone(self.dim, self._sides[::-1])


# a == b; kept only for the WRAPPED table of perfbench/tracing.py
def cone_equal(a: Cone, b: Cone) -> bool:
    return a == b


def tropical_hull(
    dim: int, rays: Iterable[Sequence[int]], lineality: Iterable[Sequence[int]] = ()
) -> Cone:
    """Smallest tropically convex closed cone containing the cone y in
    R^dim generated by rays and the lines of lineality.

    Intersection over coordinates i of y + V_i, where V_i is the cone of
    vectors with minimal i-th coordinate (generated by the unit vectors
    away from i together with the all-ones line).  The facets of each sum
    are one double description of its generators, y's as given, grown
    from one state down a halving tree: each half of the coordinates
    continues a copy that takes the other half's unit vectors.  Every sum
    is full-dimensional (ArithmeticError otherwise); the hull's double
    description starts from the one with the most facets and takes the
    others' facets, most first (a stable sort), so they mostly cut nothing,
    but none that a two-term cancellation implies (``_uncancelled``).  Such
    a row is no facet of a full-dimensional hull, whose dual is pointed.
    The rays of the cone the other rows cut out sum to a point strictly
    inside every sum's facet exactly when the hull is full-dimensional;
    otherwise the double description runs again and takes every row.
    """
    n = dim
    if n == 0:
        return Cone.origin(0)
    shared = DoubleDescription(n, [*lineality, (1,) * n])
    shared.add(rays)
    tight_gens = len(shared.added)  # the first bits of every sum's masks
    sums = []

    def grow(state: DoubleDescription, coords: list[int]) -> None:
        if len(coords) == 1:
            sums.append((state.result(), state.added))
            return
        left, right = coords[: len(coords) // 2], coords[len(coords) // 2 :]
        piece = state.copy()
        piece.add([_unit(n, j) for j in right])
        grow(piece, left)
        state.add([_unit(n, j) for j in left])  # the last use of state
        grow(state, right)

    grow(shared, list(range(n)))
    if any(out[1] for out, _ in sums):
        raise ArithmeticError("a sum y + V_i is not full-dimensional")
    # the largest sum first, then the others, most facets first (stable)
    order = sorted(range(n), key=lambda i: -len(sums[i][0][0]))
    rows = [a for i in order[1:] for a in sums[i][0][0]]
    kept = _uncancelled(sums, tight_gens, order[1:])

    def final(rows: list[IntVec]) -> tuple[DoubleDescription, Described]:
        state = DoubleDescription.seeded(n, *sums[order[0]])
        state.add(rows)
        return state, state.result()

    state, out = final(kept)
    x = [sum(col) for col in zip(*out[0])] or [0] * n
    if len(kept) < len(rows) and any(dot(a, x) <= 0 for s, _ in sums for a in s[0]):
        state, out = final(rows)
    return Cone._completed(n, 0, state.added, (), out)


def _uncancelled(sums: list, gens: int, order: list[int]) -> list[IntVec]:
    """The facets of the sums y + V_i for i in order, but each a with a
    certificate a = primitive(|c[k]| b + b[k] c): a[k] = 0, b a facet of
    a's sum with b[k] > 0 and c one of sum k's, both valid on the hull, so
    a is no facet of it if it is full-dimensional.  With Z(v) the zero
    coordinates of v and the first ``gens`` rows of its sum (y's
    generators) tight on it, Z(a) = Z(b) & Z(c) | {k} then: only pairs
    with Z(a) - Z(b) = Z(a) - Z(c) = {k} are tried."""
    n = len(sums)
    zeros = [
        [
            (a, (m & (1 << gens) - 1) << n | sum(1 << k for k, x in enumerate(a) if not x))
            for a, m in zip(out[0], out.masks)
        ]
        for out, _ in sums
    ]

    def cancels(a: IntVec, za: int, facets: list) -> bool:
        for b, zb in facets:
            bit = za & ~zb
            if 0 < bit < 1 << n and not bit & bit - 1:
                k = bit.bit_length() - 1
                for c, zc in zeros[k]:
                    if za & ~zc == bit and a == primitive(
                        [-c[k] * x + b[k] * y for x, y in zip(b, c)]
                    ):
                        return True
        return False

    return [a for i in order for a, za in zeros[i] if not cancels(a, za, zeros[i])]


def tropical_hull_dual(y: Cone) -> Cone:
    """Dual of the tropical hull, assembled without computing the hull.

    Sums, over coordinates i, the slice of the dual of y lying in the
    sector of vectors with sole negative coordinate i and coordinate
    sum zero: one double description of every slice's generators.
    """
    n = y.dim
    rays, lins = [], []
    for i in range(n):
        sector = [_unit(n, j) for j in range(n)]
        sector[i] = tuple([-x for x in sector[i]])
        piece = Cone.from_hrep(n, y.rays + tuple(sector), y.lineality + ((1,) * n,))
        rays += piece.rays
        lins += piece.lineality
    return Cone.from_vrep(n, rays, lins)


def fourier_motzkin_project(cone: Cone, coords: Sequence[int]) -> Cone:
    """Coordinate projection computed by Fourier-Motzkin elimination.

    Cross-check oracle for the generator projection.  Each equation enters
    as two opposite inequalities, each other coordinate is eliminated by
    pairing every row positive on it with every row negative on it, and
    the image's minimal forms recover its equations.  The quadratic
    blowup per eliminated coordinate restricts it to dimension <= 12.
    """
    n = cone.dim
    if n > 12:
        raise ValueError("fourier_motzkin_project is limited to dimension <= 12")
    keep = list(coords)
    rows = [*cone.ineqs, *cone.eqs, *(tuple([-x for x in e]) for e in cone.eqs)]
    for j in range(n):
        if j in keep:
            continue
        pos = [a for a in rows if a[j] > 0]
        neg = [a for a in rows if a[j] < 0]
        rows = _clean_rows(
            [a for a in rows if a[j] == 0]
            + [[p[j] * x - q[j] * y for x, y in zip(q, p)] for p in pos for q in neg]
        )
    return Cone.from_hrep(len(keep), [tuple([a[c] for c in keep]) for a in rows])


def project_hrep(
    dim: int,
    ineqs: Iterable[Sequence[int]],
    coords: Sequence[int],
    outer: Optional[Cone] = None,
    inner: tuple[Sequence[IntVec], Sequence[IntVec]] = ((), ()),
    pool: Sequence[IntVec] = (),
) -> Cone:
    """Exact coordinate projection of {h : <row, h> >= 0 for every row},
    computed without enumerating the rays of the source cone.

    Grows a certified inner approximation of the image: each candidate
    facet or span normal of the approximation is tested for validity on
    the source system by exact linear programming; a failed test yields a
    member of the source cone whose image strictly enlarges the
    approximation, and when every candidate passes, the approximation and
    the image coincide.  Suited to sources of high ambient dimension whose
    image is small, where double description on the source is infeasible.
    It starts from the origin, or from the images of ``inner = (points,
    lines)`` of the source cone, each line with both signs: a head start,
    not a premise.  The system's sparse columns are built once for all of
    its LPs.  A candidate negative on a member found earlier in its round
    is no facet of the image and waits for the next round untested.
    Before its LP, any other candidate takes the first ``pool`` function
    (more members of the source, in R^dim) whose image is negative on it,
    which leaves the pool and stands in for the LP's refutation.

    Given a cone ``outer`` in R^len(coords), such as M(A) for the cold
    pseudo-moment projections, the result is the image met with ``outer``
    or the call raises ValueError; a candidate valid on ``outer`` needs
    no LP.  Every member, inner, pooled or an LP's certificate, is
    admitted by one check: in integers against every row (ArithmeticError
    if it fails), then its primitive image against ``outer``.  So the
    approximation stays in both cones, and every final candidate is valid
    on their intersection.  Each image is held once, in the one resumable
    double description of the approximation (a line's as an equation,
    which keeps the masks free of rows tight on every ray), whose rays
    are the candidates; one held already makes no progress
    (ArithmeticError).
    """
    from ._simplex import RowSystem, row_values, valid_on_system

    rows = tuple(_clean_rows(ineqs))
    if any(len(a) != dim for a in rows):
        raise ValueError("normal vector of wrong length")
    coords = list(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("projection coordinates must be distinct")
    if not all(0 <= c < dim for c in coords):
        raise ValueError("projection coordinate out of range")
    k = len(coords)
    if outer is not None and outer.dim != k:
        raise ValueError("outer cone dimension does not match the projection")
    system = RowSystem(rows)
    take = lambda v: tuple([v[c] for c in coords])
    where = {c: j for j, c in enumerate(coords)}
    lift = lambda nu: tuple([nu[where[i]] if i in where else 0 for i in range(dim)])
    missed = "outer cone does not contain the projection"

    def admit(h: Sequence[int], what: str) -> IntVec:
        """The primitive image of h, a member of the source cone in outer."""
        if min(row_values(system, h), default=0) < 0:
            raise ArithmeticError(f"{what} is not in the source cone")
        y = primitive(take(h))
        if outer is not None and not outer.contains_point(y):
            raise ValueError(missed)
        return y

    lines = [admit([s * x for x in v], "inner line") for v in inner[1] for s in (1, -1)]
    points = [admit(h, "inner point") for h in inner[0]]
    if not rows or k == dim:
        # the whole space, or a permutation of coordinates transports the
        # H-rep directly
        image = Cone.from_hrep(k, [take(a) for a in rows])
        if outer is not None and not outer.contains_cone(image):
            raise ValueError(missed)
        return image
    # the normals valid on outer are the members of its dual
    outer_dual = None if outer is None else outer.dual()
    approx = DoubleDescription(k, lines)
    approx.add(points)
    certified: set[IntVec] = set()
    pool = {take(h): h for h in pool}
    for _ in range(100000):
        out = approx.result()
        candidates = list(out[0])
        for e in out[1]:
            candidates.append(e)
            candidates.append(tuple([-x for x in e]))
        found: dict[IntVec, None] = {}
        for nu in candidates:
            if nu in certified:
                continue
            if outer_dual is not None and outer_dual.contains_point(nu):
                certified.add(nu)
                continue
            if any(dot(nu, y) < 0 for y in found):
                continue
            hit = next((y for y in pool if dot(nu, y) < 0), None)
            if hit is not None:
                y = admit(pool.pop(hit), "pool function")
            else:
                ok, w = valid_on_system(system, lift(nu))
                if ok:
                    certified.add(nu)
                    continue
                y = admit(w, "projection certificate")
            if y in approx.added or y in found:
                # nu is valid on every earlier member, and a member of this
                # round negative on nu would have spared the LP
                raise ArithmeticError("projection oracle made no progress")
            found[y] = None
        if not found:
            return Cone._completed(k, 1, approx.added, lines, out)
        approx.add(found)
    raise ArithmeticError("projection oracle did not converge")
