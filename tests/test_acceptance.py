"""Acceptance suite: one test per headline result.

Every check is exact; there are no numeric tolerances anywhere.
"""

import random

import pytest

from tropmom.cli import reduced_rays
from tropmom.cones import Cone, tropical_hull, tropical_hull_dual
from tropmom.funcones import cone_K, cone_K_facets_via_simplices, is_midpoint_facet
from tropmom.lattice import (
    MidpointTriple,
    PointConfig,
    a_hat,
    cubical_hull,
    lattice_points,
    mediated_set,
)
from tropmom.linalg import primitive
from tropmom.moments import (
    SemialgSpec,
    order_cone,
    render_binomial,
    trop_moment_cone,
)
from tropmom.pseudo import (
    clamp_extension,
    gap_report,
    normal_valid_on,
    trop_pseudomoment,
    trop_pseudomoment_cube_stable,
    trop_pseudomoment_stable,
)

MOTZKIN = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
SQUARE = PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])
CUBE2 = SemialgSpec.cube(2)
ORTHANT2 = SemialgSpec.orthant(2)
S1 = SemialgSpec.binomials(2, [((0, 1), (2, 0)), ((1, 0), (0, 2))])
S2 = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])

CUBE_STABLE_FACETS = {(0, 1, -1, 0), (0, 1, 0, -1), (1, -2, 1, 0), (1, -2, 0, 1)}
AMGM = "m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3"


def test_c01_motzkin_orthant_moment_single_facet():
    k = trop_moment_cone(MOTZKIN, ORTHANT2)
    assert k.ineqs == ((1, -3, 1, 1),)
    assert str(render_binomial(MOTZKIN, (1, -3, 1, 1))) == AMGM


def test_c02_motzkin_cube_moment_three_facets():
    k = trop_moment_cone(MOTZKIN, CUBE2)
    assert set(k.ineqs) == {(0, 1, -1, 0), (0, 1, 0, -1), (1, -3, 1, 1)}


def test_c03_motzkin_toric_moment_four_binomials():
    k = trop_moment_cone(MOTZKIN, SemialgSpec.toric_cube([[1, 2], [1, 3]]))
    got = {str(render_binomial(MOTZKIN, nu)) for nu in k.ineqs}
    assert got == {
        "m(2,1) >= m(1,2)",
        "m(1,1)^2*m(1,2) >= m(2,1)^3",
        "m(0,0)*m(2,1)^3 >= m(1,1)^4",
        AMGM,
    }


def test_c04_doubled_motzkin_full_space_single_facet():
    doubled = PointConfig([(0, 0), (2, 4), (4, 2), (2, 2)])
    k = trop_moment_cone(doubled, SemialgSpec.full_space(2))
    assert k.ineqs == ((1, 1, 1, -3),)
    assert (
        str(render_binomial(doubled, (1, 1, 1, -3)))
        == "m(0,0)*m(2,4)*m(4,2) >= m(2,2)^3"
    )


def test_c05_mediated_sets():
    v1 = [(0, 0), (1, 2), (2, 1)]
    assert list(mediated_set(v1)) == [(0, 0), (1, 2), (2, 1)]
    v2 = [(1, 0), (0, 3), (3, 1)]
    assert list(mediated_set(v2)) == list(lattice_points(v2))
    assert len(mediated_set(v2)) == 6


def test_c06_midpoint_facet_flags():
    cases = [
        ([(0,), (1,), (2,), (3,), (4,)], ((0,), (4,), (2,)), False),
        ([(0,), (2,), (3,), (4,), (6,)], ((0,), (6,), (3,)), False),
        ([(0,), (3,), (4,), (5,), (8,)], ((0,), (8,), (4,)), True),
    ]
    for pts, (a1, a2, b), want in cases:
        got = is_midpoint_facet(PointConfig(pts), MidpointTriple(a1, a2, b))
        assert got is want


def test_c07_motzkin_cube_stabilized_and_gap():
    st = trop_pseudomoment_cube_stable(MOTZKIN)
    assert set(st.ineqs) == CUBE_STABLE_FACETS
    assert [str(b) for b in gap_report(MOTZKIN, CUBE2)] == [AMGM]


def test_c08_binomial_set_stabilized_rays():
    st = trop_pseudomoment_stable(MOTZKIN, S2)
    reference_ineqs = [(1, -4, 3, 0), (4, -10, 1, 5), (0, 2, -3, 1), (0, 0, 1, -1)]
    for nu in reference_ineqs:
        assert normal_valid_on(st, nu)
    assert set(st.ineqs) == set(reference_ineqs)
    assert st.lineality == ((1, 1, 1, 1),)
    reference_rays = [(1, 0, 0, 0), (20, 5, 0, 0), (26, 11, 6, 0), (7, 3, 2, 0)]
    # same gauge as the library: zero the first coordinate along (1,1,1,1)
    reduce = lambda r: primitive(tuple(x - r[0] for x in r))
    assert sorted(reduce(r) for r in reference_rays) == reduced_rays(st)


def test_c09_square_binomial_reference_values():
    st = trop_pseudomoment_stable(SQUARE, S1)
    reference_ineqs = [
        (0, 1, 0, -1),
        (0, 0, 1, -1),
        (1, 1, -2, 0),
        (1, -2, 1, 0),
        (2, -3, 0, 1),
        (2, 0, -3, 1),
    ]
    for nu in reference_ineqs:
        assert normal_valid_on(st, nu)
    assert len(st.ineqs) == 6
    got = set(a_hat(SQUARE, order_cone(S1)).points)
    # (2,2) = 2*(1,1) - (0,0) completes a midpoint pair of the seed set
    listed = {
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1),
        (1, 1), (2, 1), (0, 2), (1, 2), (0, 3), (0, 4),
        (2, 2),
    }
    assert got == listed, (
        f"stabilization support: extra {sorted(got - listed)}, "
        f"missing {sorted(listed - got)}"
    )


def test_c10_simplex_facet_oracle_equivalence():
    rng = random.Random(20240819)
    done = 0
    while done < 50:
        size = rng.randrange(3, 8)
        pts = sorted({(rng.randrange(5), rng.randrange(5)) for _ in range(size)})
        if len(pts) < 3:
            continue
        a = PointConfig(pts)
        k = cone_K(a, Cone.origin(2))
        via = Cone.from_hrep(len(a), cone_K_facets_via_simplices(a))
        assert k == via, pts
        done += 1


def test_c11_tropical_hull_duality():
    rng = random.Random(777)
    for _ in range(50):
        dim = rng.randrange(1, 6)
        rays = [
            tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(0, 5))
        ]
        lins = [
            tuple(rng.randrange(-2, 3) for _ in range(dim))
            for _ in range(rng.randrange(0, 2))
        ]
        y = Cone.from_vrep(dim, rays, lins)
        assert tropical_hull(dim, rays, lins).dual() == tropical_hull_dual(y), (rays, lins)


def test_c12_moment_inside_pseudomoment():
    seg = PointConfig([(0,), (1,), (2,)])
    orth1 = SemialgSpec.orthant(1)
    a2 = PointConfig([(4, 0), (0, 4), (3, 2)])
    corpus = [
        (MOTZKIN, CUBE2, trop_pseudomoment_cube_stable(MOTZKIN)),
        (MOTZKIN, S2, trop_pseudomoment_stable(MOTZKIN, S2)),
        (SQUARE, S1, trop_pseudomoment_stable(SQUARE, S1)),
        (a2, CUBE2, trop_pseudomoment_cube_stable(a2)),
    ]
    for d in (3, 4, 5, 6):
        corpus.append((MOTZKIN, CUBE2, trop_pseudomoment(MOTZKIN, CUBE2, d)))
    for d in (3, 4, 5):
        corpus.append((MOTZKIN, ORTHANT2, trop_pseudomoment(MOTZKIN, ORTHANT2, d)))
    for d in (2, 3, 4):
        corpus.append((seg, orth1, trop_pseudomoment(seg, orth1, d)))
    for a, spec, pm in corpus:
        mom = trop_moment_cone(a, spec)
        assert pm.contains_cone(mom), (a.points, spec.kind)


def test_c13_stabilization_scan_cube():
    stable = trop_pseudomoment_cube_stable(MOTZKIN)
    for d in (6, 7, 8):
        pm = trop_pseudomoment(MOTZKIN, CUBE2, d, max_extension_points=45)
        assert pm == stable, d


def test_c14_clamp_extension_properties():
    rng = random.Random(14014)
    checks = 0
    for _ in range(200):
        corner = (rng.randrange(1, 4), rng.randrange(1, 4))
        box = cubical_hull(PointConfig([(0, 0), corner]))
        pieces = [
            (-rng.randrange(0, 4), -rng.randrange(0, 4), rng.randrange(-5, 6))
            for _ in range(rng.randrange(2, 5))
        ]
        vals = [
            max(u * p[0] + v * p[1] + c for u, v, c in pieces) for p in box.points
        ]
        ext = {
            (x, y): clamp_extension(box, vals, (x, y))
            for x in range(7)
            for y in range(7)
        }
        for _ in range(30):
            a1 = (rng.randrange(7), rng.randrange(7))
            a2 = (rng.randrange(7), rng.randrange(7))
            if (a1[0] + a2[0]) % 2 or (a1[1] + a2[1]) % 2:
                continue
            mid = ((a1[0] + a2[0]) // 2, (a1[1] + a2[1]) // 2)
            assert ext[a1] + ext[a2] >= 2 * ext[mid], (pieces, a1, a2)
            checks += 1
        for x in range(7):
            for y in range(7):
                if x < 6:
                    assert ext[(x, y)] >= ext[(x + 1, y)], (pieces, x, y)
                    checks += 1
                if y < 6:
                    assert ext[(x, y)] >= ext[(x, y + 1)], (pieces, x, y)
                    checks += 1
    assert checks >= 10_000
