import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draws import vectors
from tropmom.cones import Cone, cone_equal
from tropmom.errors import PreconditionError
from tropmom.funcones import (
    cone_K,
    cone_K_even,
    cone_K_facets_via_simplices,
    cone_M,
    is_midpoint_facet,
    projection_equality_KM,
)
from tropmom.lattice import MidpointTriple, PointConfig, midpoint_triples
from tropmom.linalg import dot

MOTZKIN = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])


def test_cone_K_motzkin_plain():
    k = cone_K(MOTZKIN, Cone.origin(2))
    assert k.kind == "K"
    assert k.cone.ineqs == ((1, -3, 1, 1),)


def test_cone_K_motzkin_cube():
    k = cone_K(MOTZKIN, Cone.nonpos_orthant(2))
    assert set(k.cone.ineqs) == {
        (0, 1, -1, 0),
        (0, 1, 0, -1),
        (1, -3, 1, 1),
    }


# 1 to 7 distinct points with coordinates at most 4, in one or two
# dimensions
SUPPORTS = st.integers(1, 2).flatmap(lambda n: vectors(1, 7, n, 0, 4)).map(
    lambda pts: PointConfig(dict.fromkeys(pts))
)


@settings(max_examples=60)
@given(SUPPORTS)
@example(PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)]))
@example(PointConfig([(0,), (1,), (2,), (4,)]))
@example(PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)]))
def test_simplex_facet_route_agrees(a):
    k = cone_K(a, Cone.origin(a.n))
    via = cone_K_facets_via_simplices(a)
    assert k.cone == Cone.from_hrep(len(a), via)


def test_cone_K_even():
    doubled = PointConfig([(0, 0), (2, 2), (2, 4), (4, 2)])
    k = cone_K_even(doubled)
    assert k.kind == "K_even"
    assert k.cone.ineqs == ((1, -3, 1, 1),)
    # odd support points admit no even-weight certificates at all
    k2 = cone_K_even(MOTZKIN)
    assert cone_equal(k2.cone, Cone.full_space(4))


def test_cone_M_segment():
    seg = PointConfig([(0,), (1,), (2,)])
    m = cone_M(seg, Cone.nonpos_orthant(1))
    assert m.kind == "M"
    assert set(m.cone.ineqs) == {(0, 1, -1), (1, -2, 1)}
    rows = set(m.defining_ineqs)
    assert (1, -2, 1) in rows
    assert (0, 1, -1) in rows


def test_cone_M_contains_cone_K():
    for pts, c in [
        ([(0, 0), (1, 1), (1, 2), (2, 1)], Cone.nonpos_orthant(2)),
        ([(0,), (1,), (2,), (3,)], Cone.nonpos_orthant(1)),
        ([(0, 0), (1, 0), (0, 1), (1, 1)], Cone.origin(2)),
    ]:
        a = PointConfig(pts)
        k = cone_K(a, c)
        m = cone_M(a, c)
        assert m.cone.contains_cone(k.cone)


def test_convexity_needs_more_than_pairs_and_combinations():
    # no support point is a convex combination of the others and no pair is
    # comparable, yet the midpoint-style facet is still a valid inequality
    a = PointConfig([(3, 0), (0, 3), (2, 2)])
    k = cone_K(a, Cone.nonpos_orthant(2))
    assert set(k.cone.ineqs) == {(1, 2, -3), (2, 1, -3)}
    nu = (1, 1, -2)
    assert all(dot(nu, r) >= 0 for r in k.cone.rays)
    assert all(dot(nu, l) == 0 for l in k.cone.lineality)


def test_is_midpoint_facet_anchors():
    cases = [
        ([(0,), (1,), (2,)], ((0,), (2,), (1,)), True),
        ([(0,), (1,), (2,), (3,), (4,)], ((0,), (4,), (2,)), False),
        ([(0,), (2,), (3,), (4,), (6,)], ((0,), (6,), (3,)), False),
        ([(0,), (3,), (4,), (5,), (8,)], ((0,), (8,), (4,)), True),
    ]
    for pts, (a1, a2, b), want in cases:
        cfg = PointConfig(pts)
        assert is_midpoint_facet(cfg, MidpointTriple(a1, a2, b)) is want


def test_is_midpoint_facet_rejects_non_triple():
    seg = PointConfig([(0,), (1,), (2,)])
    with pytest.raises(PreconditionError):
        is_midpoint_facet(seg, MidpointTriple((0,), (1,), (2,)))


def test_midpoint_facets_match_cone_M_irredundancy():
    # facet flag agrees with irredundancy in the midpoint-only cone
    for pts in [[(0,), (1,), (2,), (3,), (4,)], [(0,), (2,), (3,), (4,), (6,)]]:
        a = PointConfig(pts)
        m = cone_M(a, Cone.origin(1))
        facets = set(m.cone.ineqs)
        for t in midpoint_triples(a):
            row = [0] * len(a)
            row[a.index(t.a1)] += 1
            row[a.index(t.a2)] += 1
            row[a.index(t.b)] -= 2
            assert is_midpoint_facet(a, t) is (tuple(row) in facets)


def test_projection_equality():
    assert projection_equality_KM(PointConfig([(0,), (1,), (2,)])) is True
    assert projection_equality_KM(MOTZKIN) is False
    # interior point of the triangle lies in the mediated set of its vertices
    assert projection_equality_KM(PointConfig([(0, 3), (1, 0), (3, 1), (1, 1)])) is True
    # convex position: no almost-empty simplices at all
    assert projection_equality_KM(PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])) is True
