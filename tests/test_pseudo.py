import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from draws import vectors
from tropmom import lattice, pseudo
from tropmom.cones import Cone
from tropmom.errors import PreconditionError, ResourceLimitError
from tropmom.funcones import comparable_pairs, cone_M, constraint_rows
from tropmom.lattice import PointConfig, a_hat, cubical_hull, delta_simplex, midpoint_triples
from tropmom.moments import SemialgSpec, order_cone, trop_moment_cone
from tropmom.pseudo import (
    clamp_extension,
    f_s_d,
    gap_report,
    normal_valid_on,
    sigma_dual_trop,
    stabilization_scan,
    stabilized_pseudomoment,
    trop_pseudomoment,
    trop_pseudomoment_cube_stable,
    trop_pseudomoment_stable,
)

MOTZKIN = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
ORTHANT2 = SemialgSpec.orthant(2)
CUBE2 = SemialgSpec.cube(2)
S2 = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])


def test_f_s_d_orthant_line():
    f = f_s_d(SemialgSpec.orthant(1), 2)
    assert f.ineqs == ((1, -2, 1),)


def test_f_s_d_cube_line():
    f = f_s_d(SemialgSpec.cube(1), 2)
    assert f == Cone.from_hrep(3, [(1, -1, 0), (0, 1, -1), (1, -2, 1)])
    # h(0) >= h(1) follows from the midpoint row plus h(1) >= h(2)
    assert set(f.ineqs) == {(0, 1, -1), (1, -2, 1)}


def test_f_s_d_defining_rows():
    e, c = delta_simplex(2, 2), order_cone(CUBE2)
    rows = constraint_rows(e, midpoint_triples(e), comparable_pairs(e, c))
    assert rows == oracles.cone_m_defining_rows(e, c)
    assert f_s_d(CUBE2, 2) == Cone.from_hrep(len(e), rows)
    rows = set(rows)
    # degree-2 simplex in graded-lex order: (0,0),(0,1),(1,0),(0,2),(1,1),(2,0)
    assert (1, 0, -2, 0, 0, 1) in rows
    assert (0, 0, 1, 0, -1, 0) in rows


def test_f_s_d_rejects_full_space():
    with pytest.raises(PreconditionError):
        f_s_d(SemialgSpec.full_space(2), 3)


def test_truncated_projection_low_degrees_are_free():
    p = trop_pseudomoment(MOTZKIN, ORTHANT2, 3)
    assert p == Cone.full_space(4)
    assert trop_pseudomoment(MOTZKIN, ORTHANT2, 4) == Cone.full_space(4)
    seg = PointConfig([(0,), (2,)])
    assert trop_pseudomoment(seg, SemialgSpec.orthant(1), 2) == Cone.full_space(2)


def test_truncated_projection_cube_degree_6():
    p = trop_pseudomoment(MOTZKIN, CUBE2, 6)
    assert set(p.ineqs) == {
        (0, 1, -1, 0),
        (0, 1, 0, -1),
        (1, -2, 1, 0),
        (1, -2, 0, 1),
    }


def test_truncated_projection_errors():
    with pytest.raises(PreconditionError) as err:
        trop_pseudomoment(MOTZKIN, CUBE2, 2)
    assert "(1, 2)" in str(err.value) or "(2, 1)" in str(err.value)
    with pytest.raises(ResourceLimitError):
        trop_pseudomoment(MOTZKIN, CUBE2, 9, max_extension_points=40)


def test_cube_stabilization():
    cs = trop_pseudomoment_cube_stable(MOTZKIN)
    assert set(cs.ineqs) == {
        (0, 1, -1, 0),
        (0, 1, 0, -1),
        (1, -2, 1, 0),
        (1, -2, 0, 1),
    }
    assert len(cubical_hull(MOTZKIN)) == 9

    single = PointConfig([(3, 2)])
    assert trop_pseudomoment_cube_stable(single) == Cone.full_space(1)


def test_cube_stabilization_against_direct_projection():
    c04 = trop_pseudomoment_cube_stable(PointConfig([(0,), (4,)]))
    assert c04.ineqs == ((1, -1),)
    hull = cone_M(PointConfig([(0,), (1,), (2,), (3,), (4,)]), Cone.nonpos_orthant(1))
    assert c04 == oracles.project(hull, [0, 4])


def test_clamp_extension():
    box = cubical_hull(PointConfig([(0, 0), (2, 2)]))
    vals = list(range(9))
    assert clamp_extension(box, vals, (5, 1)) == vals[box.index((2, 1))]
    assert clamp_extension(box, vals, (1, 2)) == vals[box.index((1, 2))]


def test_general_stabilization_square():
    square = PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])
    s1 = SemialgSpec.binomials(2, [((0, 1), (2, 0)), ((1, 0), (0, 2))])
    st = trop_pseudomoment_stable(square, s1)
    assert set(st.ineqs) == {
        (0, 1, 0, -1),
        (0, 0, 1, -1),
        (1, 1, -2, 0),
        (1, -2, 1, 0),
        (2, -3, 0, 1),
        (2, 0, -3, 1),
    }
    assert len(a_hat(square, order_cone(s1))) == 13


def test_extension_support_is_read_once_per_projection(monkeypatch):
    # the guard sizes, and the projection lists, the parts of one reading
    square = PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])
    s1 = SemialgSpec.binomials(2, [((0, 1), (2, 0)), ((1, 0), (0, 2))])
    want = a_hat(square, order_cone(s1))
    calls, built = [], []
    parts, listed = lattice._a_hat_parts, pseudo.a_hat
    monkeypatch.setattr(
        lattice, "_a_hat_parts", lambda *args: calls.append(args) or parts(*args)
    )
    monkeypatch.setattr(
        pseudo, "a_hat", lambda *args: built.append(listed(*args)) or built[-1]
    )
    trop_pseudomoment_stable(square, s1)
    assert len(calls) == 1
    assert built == [want]
    with pytest.raises(ResourceLimitError, match="13 points"):
        trop_pseudomoment_stable(square, s1, max_extension_points=12)
    assert len(calls) == 2


def test_general_stabilization_motzkin():
    st = trop_pseudomoment_stable(MOTZKIN, S2)
    assert set(st.ineqs) == {
        (1, -4, 3, 0),
        (4, -10, 1, 5),
        (0, 2, -3, 1),
        (0, 0, 1, -1),
    }
    assert st.lineality == ((1, 1, 1, 1),)
    assert set(st.rays) == {
        (0, -15, -20, -26),
        (0, -4, -5, -7),
        (0, -3, -4, -4),
        (0, -1, -1, -1),
    }


def test_general_stabilization_edge_cases():
    assert trop_pseudomoment_stable(PointConfig([(0, 0)]), S2) == Cone.full_space(1)
    with pytest.raises(PreconditionError) as err:
        trop_pseudomoment_stable(MOTZKIN, CUBE2)
    assert "basis vector" in str(err.value)


def test_sigma_dual():
    dbl = PointConfig([(0, 0), (2, 4), (4, 2), (2, 2)])
    sg = sigma_dual_trop(dbl, max_extension_points=40)
    assert sg == Cone.full_space(4)
    assert sigma_dual_trop(PointConfig([(0,), (2,), (4,)])).ineqs == ((1, -2, 1),)
    assert sigma_dual_trop(PointConfig([(0,), (1,), (2,)])).ineqs == ((1, -2, 1),)


def test_stabilized_dispatch():
    cube = trop_pseudomoment_cube_stable(MOTZKIN)
    assert stabilized_pseudomoment(MOTZKIN, CUBE2) == cube
    for bad in (ORTHANT2, SemialgSpec.toric_cube([[1, 2], [1, 3]])):
        with pytest.raises(PreconditionError):
            stabilized_pseudomoment(MOTZKIN, bad)


def test_scan_cube():
    cs = trop_pseudomoment_cube_stable(MOTZKIN)
    rep = stabilization_scan(MOTZKIN, CUBE2, 8, max_extension_points=45)
    assert rep.d_min == 3 and rep.first_stable == 3
    assert rep.matches_closed_form is True
    assert all(r == cs for r in rep.results)


def test_scan_orthant():
    rep = stabilization_scan(MOTZKIN, ORTHANT2, 6)
    assert rep.first_stable == 3 and rep.matches_closed_form is None


def test_scan_segment():
    rep = stabilization_scan(PointConfig([(0,), (1,), (2,)]), SemialgSpec.orthant(1), 4)
    assert rep.d_min == 2 and rep.first_stable == 2
    assert all(r.ineqs == ((1, -2, 1),) for r in rep.results)


def test_gap_reports():
    g = gap_report(MOTZKIN, CUBE2)
    assert [str(b) for b in g] == ["m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3"]
    g2 = gap_report(MOTZKIN, S2)
    assert [str(b) for b in g2] == ["m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3"]
    tri = PointConfig([(0, 0), (1, 0), (0, 1)])
    assert gap_report(tri, ORTHANT2) == ()
    assert gap_report(tri, CUBE2) == ()
    with pytest.raises(PreconditionError):
        gap_report(MOTZKIN, ORTHANT2)


def test_normal_valid_on():
    cone = Cone.from_hrep(2, [(1, -2), (-1, 3)])
    assert normal_valid_on(cone, (1, -2)) is True
    assert normal_valid_on(cone, (1, -3)) is False
    assert normal_valid_on(Cone.full_space(2), (1, 0)) is False
    assert normal_valid_on(Cone.full_space(2), (0, 0)) is True


def test_moment_cone_inside_pseudomoment_cone():
    for spec in (CUBE2, S2):
        mom = trop_moment_cone(MOTZKIN, spec)
        psd = stabilized_pseudomoment(MOTZKIN, spec)
        assert psd.contains_cone(mom)


# S1-like sets {y^p >= x^q, x^r >= y^s}: their negated order cone strictly
# surrounds the nonnegative orthant exactly when qs > pr
S1_LIKE = [
    SemialgSpec.binomials(2, [((0, p), (q, 0)), ((r, 0), (0, s))])
    for p, q, r, s in itertools.product(range(1, 4), repeat=4)
    if q * s > p * r
]


@st.composite
def stabilized_cases(draw):
    """(a, spec): at most 4 points over the cube, with coordinates at most
    3 in one or two dimensions and at most 1 in three, or at most 4 points
    with coordinates at most 2 over an S1-like set."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        points = draw(vectors(1, 4, n, 0, 3 if n < 3 else 1))
        return PointConfig(dict.fromkeys(points)), SemialgSpec.cube(n)
    points = draw(vectors(1, 4, 2, 0, 2))
    return PointConfig(dict.fromkeys(points)), draw(st.sampled_from(S1_LIKE))


@settings(max_examples=80)
@given(stabilized_cases())
def test_moment_cone_inside_stabilized_cone_inside_midpoint_cone(case):
    # K, the tropicalized moment cone, lies in the stabilized pseudo-moment
    # cone, which is a projection of M(E) and so lies in M(A)
    a, spec = case
    try:
        psd = stabilized_pseudomoment(a, spec)
    except ResourceLimitError:
        assume(False)
    mom = trop_moment_cone(a, spec)
    assert psd.contains_cone(mom)
    assert cone_M(a, order_cone(spec)).contains_cone(psd)
