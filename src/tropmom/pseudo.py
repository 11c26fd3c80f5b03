"""Tropicalization of truncated pseudo-moment cones.

The degree-d pseudo-moment relaxation of a binomial-defined set S
tropicalizes to a polyhedral cone cut out on the monomials of degree at
most d by midpoint inequalities h(a1) + h(a2) >= 2h(b) and monotonicity
inequalities h(a) >= h(b) for a - b in the order cone of S.  Each entry
point returns the projection of that cone onto a support A, as a Cone in
A's coordinate order, computed by the certified-oracle method, never by ray
enumeration of the high-dimensional cone.  Members known in closed
form, linear functions and their tropical maxima, spare it most LPs.

Three stabilized constructions bypass the degree parameter: the cubical
hull (cube), the finite extension support A-hat (sets whose negated order
cone strictly surrounds the nonnegative orthant), and even-pair midpoints
on the convex hull (global sums of squares).  A scan over degrees reports
where the truncated cones stop changing, and the gap report lists the
binomial moment inequalities that no sum-of-squares certificate of any
degree can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import Cone, project_hrep
from .errors import PreconditionError
from .funcones import (
    binding_rows,
    comparable_pairs,
    cone_M,
    cover_pairs,
)
from .lattice import (
    PointConfig, a_hat, cubical_hull, delta_simplex, lattice_points, midpoint_triples
)
from .linalg import IntVec, dot, intvec, kernel_basis
from .moments import BinomialIneq, SemialgSpec, order_cone, render_binomial, trop_moment_cone

_TRUNCATED_KINDS = ("orthant", "cube", "binomials")
# the largest extension support built unless the caller allows more
DEFAULT_EXTENSION_LIMIT = 40


@dataclass(frozen=True)
class ScanReport:
    """Degree-by-degree truncated cones, from the support degree on, and
    the observed stabilization.

    ``first_stable`` is the smallest scanned degree whose cone equals
    every later scanned cone; ``closed_form`` is the stabilized
    construction when one exists for the set kind (None otherwise).
    """

    results: tuple[Cone, ...]
    first_stable: int
    closed_form: Optional[Cone]


def _linear(e: PointConfig, c: Cone) -> tuple[list[IntVec], list[IntVec]]:
    """Points p -> <p, u> on E for C's facet normals u, the dual's rays, and
    lines for C's equations and the constants: every midpoint row vanishes
    on them, and a monotone row p_i - p_j, p_i - p_j in C, is nonnegative
    on the points and vanishes on the lines (project_hrep's ``inner``)."""
    image = lambda u: tuple([dot(p, u) for p in e.points])
    return [image(u) for u in c.ineqs], [(1,) * len(e)] + [image(u) for u in c.eqs]


def _maxima(coords: list[int], points: list[IntVec], lines: list[IntVec]) -> list[IntVec]:
    """Tropical maxima max(f, g + s) on E, one per image on A, for f, g
    among _linear's points, its lines but the constants with both signs,
    and zero, and s each value of f - g on A strictly between its extremes:
    every row holds on f and g + s, hence on their maximum.  On A any other
    shift gives f, g + s or a convex combination of two of these maxima."""
    gens = [*points, *(w for v in lines[1:] for w in (v, tuple([-x for x in v])))]
    gens.append((0,) * len(lines[0]))
    pool: dict[IntVec, IntVec] = {}
    for f in gens:
        for g in gens:
            for s in sorted({f[i] - g[i] for i in coords})[1:-1]:
                h = tuple([max(x, y + s) for x, y in zip(f, g)])
                pool.setdefault(tuple([h[i] for i in coords]), h)
    return list(pool.values())


def _projected(
    a: PointConfig, e: PointConfig, c: Cone, outer: Optional[Cone] = None
) -> Cone:
    """Midpoint and cover-pair monotone rows on R^E, projected onto A;
    by transitivity the cover pairs cut out what all comparable pairs do.
    ``outer`` is a cone known to contain the projection (project_hrep).
    The linear functions of C's dual on E start the projection (_linear),
    and their tropical maxima refute candidates before an LP (_maxima).

    Without one, M(A) = cone_M(a, c) is the outer cone: every midpoint
    triple and every comparable pair among A's points is one of E's, so
    the restriction to A of a point of the E-system satisfies M(A)'s
    system, and the projection lies in M(A).  Its A-local facets then
    need no LP.

    Only the points of E that can bind are projected (binding_rows): the
    others are met by the rows with one sign only, and dropping them with
    their rows leaves the image as it is.  When only A is left, the rows
    are the image's H-representation: no LP runs and M(A) is not built.
    """
    e, rows = binding_rows(e, a, midpoint_triples(e), cover_pairs(comparable_pairs(e, c)))
    coords = [e.index(p) for p in a]
    if len(e) == len(a):
        return project_hrep(len(e), rows, coords, outer=outer)
    if outer is None:
        outer = cone_M(a, c)
    inner = _linear(e, c)
    pool = _maxima(coords, *inner)
    return project_hrep(len(e), rows, coords, outer=outer, inner=inner, pool=pool)


def _require_truncated(spec: SemialgSpec) -> None:
    if spec.kind not in _TRUNCATED_KINDS:
        raise PreconditionError(
            f"no degree-truncated pseudo-moment cone for set kind {spec.kind!r}"
        )


def _require_same_dim(a: PointConfig, spec: SemialgSpec) -> None:
    if spec.n != a.n:
        raise ValueError("set specification dimension does not match the support")


def f_s_d(spec: SemialgSpec, d: int) -> Cone:
    """The degree-d pseudo-moment constraint cone on all monomials of
    degree at most d: midpoint-convexity plus order-cone monotonicity."""
    _require_truncated(spec)
    return cone_M(delta_simplex(spec.n, d), order_cone(spec))


def trop_pseudomoment(
    a: PointConfig,
    spec: SemialgSpec,
    d: int,
    max_extension_points: int = DEFAULT_EXTENSION_LIMIT,
) -> Cone:
    """Projection of the degree-d constraint cone onto the A-coordinates."""
    _require_truncated(spec)
    _require_same_dim(a, spec)
    for p in a:
        if sum(p) > d:
            raise PreconditionError(
                f"support point {p} has total degree {sum(p)}, above the "
                f"truncation degree {d}"
            )
    return _projected(a, delta_simplex(a.n, d, max_extension_points), order_cone(spec))


def trop_pseudomoment_cube_stable(
    a: PointConfig, max_extension_points: int = DEFAULT_EXTENSION_LIMIT
) -> Cone:
    """Stabilized pseudo-moment tropicalization over the unit cube: the
    truncated cones coincide with this one for every large enough degree,
    with the cubical hull of A as the extension support."""
    return _projected(a, cubical_hull(a, max_extension_points), Cone.nonpos_orthant(a.n))


def clamp_extension(box: PointConfig, values: Sequence, alpha: Sequence[int]):
    """Extension off a coordinate box of a midpoint-convex, coordinate
    nonincreasing function: read the value at the nearest box point below,
    clamping each coordinate to the box maximum.  Entries of alpha must be
    integers, one per box coordinate, and none under the box's lower
    corner, where no box point lies below; anything else raises ValueError."""
    if len(values) != len(box):
        raise ValueError("one value per box point required")
    alpha = intvec(alpha)
    if len(alpha) != box.n:
        raise ValueError("one coordinate per box dimension required")
    hi = [max(p[i] for p in box) for i in range(box.n)]
    phi = tuple(min(x, h) for x, h in zip(alpha, hi))
    if phi not in box:
        raise ValueError(f"{alpha} is under the box's lower corner, with no box point below")
    return values[box.index(phi)]


def trop_pseudomoment_stable(
    a: PointConfig, spec: SemialgSpec, max_extension_points: int = DEFAULT_EXTENSION_LIMIT
) -> Cone:
    """Stabilized pseudo-moment tropicalization for sets whose negated
    order cone strictly surrounds the nonnegative orthant; the extension
    support is the finite midpoint-completion A-hat."""
    if spec.kind == "toric_cube":
        raise PreconditionError(
            "no stabilized pseudo-moment construction for set kind 'toric_cube'"
        )
    _require_same_dim(a, spec)
    c = order_cone(spec)
    return _projected(a, a_hat(a, c, max_extension_points), c)


def sigma_dual_trop(
    a: PointConfig, max_extension_points: int = DEFAULT_EXTENSION_LIMIT
) -> Cone:
    """Tropicalized dual of the sums-of-squares cone on A, for measures on
    all of R^n: midpoint inequalities between even points of the lattice
    hull of A, projected onto A with the kernel of those rows, which holds
    the affine functions, as head start."""
    full = lattice_points(a.points, max_extension_points)
    even = lambda p: not any(x % 2 for x in p)
    triples = [t for t in midpoint_triples(full) if even(t.a1) and even(t.a2)]
    e, rows = binding_rows(full, a, triples, ())
    coords = [e.index(p) for p in a]
    return project_hrep(len(e), rows, coords, inner=((), kernel_basis(rows, len(e))))


def stabilized_pseudomoment(
    a: PointConfig, spec: SemialgSpec, max_extension_points: int = DEFAULT_EXTENSION_LIMIT
) -> Cone:
    """The stabilized construction appropriate to the set kind.  For a
    ``binomials`` set it assumes, without checking, that the exponent
    differences generate the lattice points of their cone as a semigroup;
    only the command-line tool runs semigroup_generation_check."""
    if spec.kind == "cube":
        return trop_pseudomoment_cube_stable(a, max_extension_points)
    if spec.kind == "binomials":
        return trop_pseudomoment_stable(a, spec, max_extension_points)
    if spec.kind == "full_space":
        return sigma_dual_trop(a, max_extension_points)
    raise PreconditionError(
        f"no stabilized pseudo-moment construction for set kind {spec.kind!r}"
    )


def stabilization_scan(
    a: PointConfig,
    spec: SemialgSpec,
    d_max: int,
    max_extension_points: int = DEFAULT_EXTENSION_LIMIT,
) -> ScanReport:
    """Truncated cones from the support degree up to d_max, the first
    degree whose cone persists through the end of the scan, and the
    stabilized construction when the kind has one.  Every degree's
    extension support is built, and the closed form computed, before any
    degree is projected, so a support past the limit is refused first.

    The cones nest, T_{d+1} inside T_d: the degree-d simplex lies in the
    degree-(d+1) one, and every midpoint triple and comparable pair of the
    first is one of the second, so the restriction of a point of the
    degree-(d+1) cone satisfies the degree-d system, and both project onto
    the same A-coordinates.  Each degree's cone is therefore passed as the
    outer cone of the next projection, whose candidate normals valid on it
    need no LP.  The first degree and the closed form get the midpoint
    cone M(A) as outer cone, like every cold projection: that the closed
    form contains the truncated cones is a theorem about large degrees,
    not an inclusion of rows, so T_d cannot serve there.
    """
    d_min = max(sum(p) for p in a)
    if d_max < d_min:
        raise PreconditionError(
            f"d_max = {d_max} is below the support degree {d_min}"
        )
    _require_truncated(spec)
    _require_same_dim(a, spec)
    supports = [delta_simplex(a.n, d, max_extension_points) for d in range(d_min, d_max + 1)]
    try:
        closed = stabilized_pseudomoment(a, spec, max_extension_points)
    except PreconditionError:
        closed = None
    c = order_cone(spec)
    results: list[Cone] = []
    cone = None
    for e in supports:
        cone = _projected(a, e, c, cone)
        results.append(cone)
    first = len(results) - 1
    while first > 0 and results[first - 1] == cone:
        first -= 1
    return ScanReport(tuple(results), d_min + first, closed)


def normal_valid_on(cone: Cone, normal: Sequence[int]) -> bool:
    """Whether <normal, x> >= 0 holds for every x in the cone."""
    return cone.dual().contains_point(normal)


def gap_report(
    a: PointConfig, spec: SemialgSpec, max_extension_points: int = DEFAULT_EXTENSION_LIMIT
) -> tuple[BinomialIneq, ...]:
    """Facets of the tropicalized moment cone that fail on the stabilized
    pseudo-moment cone: binomial moment inequalities with no
    sum-of-squares certificate at any degree.  Like stabilized_pseudomoment
    it assumes the semigroup hypothesis of a ``binomials`` set unchecked."""
    facets = trop_moment_cone(a, spec).ineqs
    if not facets:
        return ()
    pseudo = stabilized_pseudomoment(a, spec, max_extension_points)
    gaps = [nu for nu in facets if not normal_valid_on(pseudo, nu)]
    return tuple(render_binomial(a, nu) for nu in gaps)
