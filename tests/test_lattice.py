from fractions import Fraction

import pytest

from tropmom import lattice
from tropmom.errors import PreconditionError, ResourceLimitError
from tropmom.lattice import (
    AlmostEmptySimplex,
    MidpointTriple,
    PointConfig,
    a_hat,
    almost_empty_simplices,
    cubical_hull,
    delta_simplex,
    graded_lex_sorted,
    lattice_points,
    mediated_set,
    mediated_split,
    midpoint_triples,
)
from tropmom.moments import SemialgSpec, order_cone
from tropmom.pseudo import sigma_dual_trop


def test_point_config_keeps_input_order():
    a = PointConfig([(4, 0), (0, 4), (3, 2)])
    assert a.points == ((4, 0), (0, 4), (3, 2))
    assert a.index((0, 4)) == 1
    assert (3, 2) in a
    assert (1, 1) not in a
    assert len(a) == 3


def test_point_config_validation():
    with pytest.raises(ValueError):
        PointConfig([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        PointConfig([(0, -1)])
    with pytest.raises(ValueError):
        PointConfig([(0, 0), (1,)])
    with pytest.raises(ValueError):
        PointConfig([])


@pytest.mark.parametrize(
    "build",
    [
        lambda: PointConfig([(0.5, 1), (1, 1)]),
        lambda: graded_lex_sorted([(0, 1), (Fraction(3, 2), 0)]),
        lambda: lattice_points([(0, 0), (1.5, 0), (0, 1)]),
        lambda: mediated_split([(0, 0), (2, 0), (0, 2.5)]),
    ],
    ids=["PointConfig", "graded_lex_sorted", "hull_columns", "mediated_split"],
)
def test_non_integer_coordinates_raise(build):
    # each was truncated by int(): (0.5, 1) became (0, 1)
    with pytest.raises(ValueError, match="integers"):
        build()


def test_graded_lex_sorted():
    pts = [(2, 0), (0, 1), (1, 1), (0, 0)]
    assert graded_lex_sorted(pts) == [(0, 0), (0, 1), (1, 1), (2, 0)]


def test_lattice_points_motzkin_triangle():
    got = lattice_points([(0, 0), (1, 2), (2, 1)])
    assert set(got.points) == {(0, 0), (1, 1), (1, 2), (2, 1)}


def test_lattice_points_v2_triangle():
    got = lattice_points([(0, 3), (1, 0), (3, 1)])
    assert len(got) == 6
    assert set(got.points) == {(0, 3), (1, 0), (3, 1), (1, 1), (1, 2), (2, 1)}


def test_thin_hull_reads_only_the_columns_over_its_shadow():
    # the first two coordinates of conv{(0,0,0), (s,s,0), (0,0,1)} span the
    # diagonal segment, s + 1 lattice points, inside an (s + 1)^2 box
    s = 400
    verts = [(0, 0, 0), (s, s, 0), (0, 0, 1)]
    columns = list(lattice._hull_columns(verts))
    assert [p for p, _, _ in columns] == [(t, t) for t in range(s + 1)]
    listed = lattice_points(verts)
    assert len(listed) == s + 2
    assert lattice_points(verts, max_points=s + 2) == listed
    with pytest.raises(ResourceLimitError, match=f" has {s + 2} points"):
        lattice_points(verts, max_points=s + 1)


def test_hull_is_read_once_per_listing(monkeypatch):
    # the size the guard reads and the points listed come from one double
    # description of the hull
    hull = lattice._hull_cone
    calls = []

    def counted(vertices):
        calls.append(vertices)
        return hull(vertices)

    monkeypatch.setattr(lattice, "_hull_cone", counted)
    triangle = [(0, 0), (4, 0), (0, 4)]
    mediated_split(triangle, max_points=15)
    assert len(calls) == 1
    sigma_dual_trop(PointConfig(triangle), max_extension_points=15)
    assert len(calls) == 2


def test_midpoint_triples():
    seg = PointConfig([(0,), (1,), (2,), (3,), (4,)])
    trips = midpoint_triples(seg)
    assert MidpointTriple((0,), (2,), (1,)) in trips
    assert MidpointTriple((0,), (4,), (2,)) in trips
    assert all(
        tuple(x + y for x, y in zip(t.a1, t.a2))
        == tuple(2 * z for z in t.b)
        for t in trips
    )
    motzkin = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
    assert midpoint_triples(motzkin) == ()


def test_almost_empty_simplices_motzkin():
    motzkin = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
    sims = almost_empty_simplices(motzkin)
    assert len(sims) == 1
    s = sims[0]
    assert s.vertices == ((0, 0), (1, 2), (2, 1))
    assert s.interior == (1, 1)
    assert s.weights == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_almost_empty_simplices_segment():
    seg = PointConfig([(0,), (1,), (2,)])
    sims = almost_empty_simplices(seg)
    assert len(sims) == 1
    assert sims[0].vertices == ((0,), (2,))
    assert sims[0].interior == (1,)
    assert sims[0].weights == (Fraction(1, 2), Fraction(1, 2))


def test_mediated_set_v1():
    got = mediated_set([(0, 0), (1, 2), (2, 1)])
    assert set(got.points) == {(0, 0), (1, 2), (2, 1)}


def test_mediated_set_v2():
    got = mediated_set([(0, 3), (1, 0), (3, 1)])
    assert set(got.points) == {(0, 3), (1, 0), (3, 1), (1, 1), (1, 2), (2, 1)}


def test_mediated_set_unit_simplex():
    got = mediated_set([(0, 0), (1, 0), (0, 1)])
    assert set(got.points) == {(0, 0), (1, 0), (0, 1)}


def test_mediated_set_rejects_dependent_vertices():
    with pytest.raises(PreconditionError):
        mediated_set([(0, 0), (1, 1), (2, 2)])


def test_cubical_hull():
    motzkin = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
    hull = cubical_hull(motzkin)
    assert len(hull) == 9
    assert set(hull.points) == {(i, j) for i in range(3) for j in range(3)}


def test_delta_simplex():
    d22 = delta_simplex(2, 2)
    assert d22.points == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert len(delta_simplex(1, 3)) == 4
    with pytest.raises(ValueError):
        delta_simplex(0, 2)
    with pytest.raises(ValueError):
        delta_simplex(2, -1)


def test_a_hat_square_example():
    square = PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])
    s1 = SemialgSpec.binomials(2, [((0, 1), (2, 0)), ((1, 0), (0, 2))])
    got = set(a_hat(square, order_cone(s1)).points)
    listed = {
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1),
        (1, 1), (2, 1), (0, 2), (1, 2), (0, 3), (0, 4),
    }
    # (2,2) = 2*(1,1) - (0,0) completes a midpoint pair of the seed set
    assert got == listed | {(2, 2)}


def test_a_hat_motzkin_example():
    motzkin = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
    s2 = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])
    got = set(a_hat(motzkin, order_cone(s2)).points)
    want = (
        {(0, j) for j in range(13)}
        | {(i, j) for i in (1, 2) for j in range(7)}
        | {(i, j) for i in (3, 4) for j in range(3)}
    )
    assert len(got) == 33
    assert got == want


def test_a_hat_hypothesis_failures():
    motzkin = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
    with pytest.raises(PreconditionError, match="stabilization hypothesis"):
        a_hat(motzkin, order_cone(SemialgSpec.cube(2)))
    flat = SemialgSpec.binomials(2, [((1, 1), (0, 0)), ((0, 0), (1, 1))])
    with pytest.raises(PreconditionError, match="stabilization hypothesis"):
        a_hat(motzkin, order_cone(flat))
