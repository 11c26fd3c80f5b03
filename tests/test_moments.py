from fractions import Fraction

import pytest

from tropmom import moments
from tropmom.cones import Cone
from tropmom.errors import PreconditionError
from tropmom.lattice import PointConfig, almost_empty_simplices
from tropmom.moments import (
    BinomialIneq,
    SemialgSpec,
    amgm_moment_cone,
    binomial_facets,
    order_cone,
    render_binomial,
    semigroup_generation_check,
    trop_moment_cone,
    trop_of_set,
)

MOTZKIN = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])


def test_spec_factories():
    cube2 = SemialgSpec.cube(2)
    assert cube2.kind == "cube"
    assert cube2.n == 2
    assert cube2.generators == (((0, 0), (1, 0)), ((0, 0), (0, 1)))
    assert SemialgSpec.orthant(3).n == 3
    assert SemialgSpec.full_space(1).n == 1
    toric = SemialgSpec.toric_cube([[1, 2], [1, 3]])
    assert toric.n == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        SemialgSpec.binomials(2, [])
    with pytest.raises(ValueError):
        SemialgSpec.binomials(2, [((0, 0), (0, 0))])
    with pytest.raises(ValueError):
        SemialgSpec.binomials(2, [((1,), (0,))])
    with pytest.raises(ValueError):
        SemialgSpec.toric_cube([[1, 2], [1, 3, 4]])
    with pytest.raises(ValueError):
        SemialgSpec.toric_cube([[0, 1], [0, 2]])


def test_trop_of_set():
    assert trop_of_set(SemialgSpec.cube(2)) == Cone.nonpos_orthant(2)
    assert trop_of_set(SemialgSpec.orthant(2)) == Cone.full_space(2)
    assert trop_of_set(SemialgSpec.full_space(3)) == Cone.full_space(3)
    bino = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])
    assert trop_of_set(bino) == Cone.from_hrep(2, [(-1, 2), (1, -3)])


def test_trop_of_set_toric_needs_positive_part():
    with pytest.raises(PreconditionError):
        trop_of_set(SemialgSpec.toric_cube([[1, 2], [1, 3]]))


EMPTY_INTERIOR = (
    "the exponent differences cut out a lower-dimensional cone: the set has "
    "empty interior"
)


def test_trop_of_set_refuses_a_set_with_empty_interior():
    """The one regularity gate: the moment cone and the semigroup check
    read the order cone through trop_of_set, so all three refuse alike,
    on xy = 1 and on the diagonal x = y."""
    for gens in ([((1, 1), (0, 0)), ((0, 0), (1, 1))],
                 [((1, 0), (0, 1)), ((0, 1), (1, 0))]):
        degen = SemialgSpec.binomials(2, gens)
        for call in (trop_of_set, semigroup_generation_check,
                     lambda s: trop_moment_cone(MOTZKIN, s)):
            with pytest.raises(PreconditionError) as refused:
                call(degen)
            assert str(refused.value) == EMPTY_INTERIOR


def test_order_cone():
    bino = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])
    assert order_cone(bino) == Cone.from_vrep(2, [(-1, 2), (1, -3)])
    assert order_cone(SemialgSpec.cube(2)) == Cone.nonpos_orthant(2)
    assert order_cone(SemialgSpec.orthant(2)) == Cone.origin(2)
    assert order_cone(SemialgSpec.full_space(2)) == Cone.origin(2)
    toric = SemialgSpec.toric_cube([[1, 2], [1, 3]])
    assert order_cone(toric) == Cone.from_vrep(2, [(-1, -1), (-2, -3)])


def test_semigroup_generation_check():
    assert semigroup_generation_check(SemialgSpec.cube(2)) is True
    assert semigroup_generation_check(SemialgSpec.orthant(2)) is True
    not_gen = SemialgSpec.binomials(2, [((2, 0), (0, 0)), ((0, 1), (0, 0))])
    assert semigroup_generation_check(not_gen) is False
    gen = SemialgSpec.binomials(2, [((1, 0), (0, 2)), ((0, 3), (1, 0))])
    assert semigroup_generation_check(gen) is True
    with pytest.raises(PreconditionError):
        semigroup_generation_check(SemialgSpec.cube(4))


def test_semigroup_check_unimodular_without_the_box(monkeypatch):
    """{y^200 >= x, x >= y^199}: the differences (-1, 200) and (1, -199)
    are independent with determinant -1, so the answer needs no
    parallelepiped."""

    def no_box(*args, **kwargs):
        raise AssertionError("a parallelepiped was listed")

    monkeypatch.setattr(moments, "_parallelepiped_points", no_box)
    k = 200
    spec = SemialgSpec.binomials(2, [((0, k), (1, 0)), ((1, 0), (0, k - 1))])
    assert semigroup_generation_check(spec) is True


def test_semigroup_check_inverts_each_base_once(monkeypatch):
    """(1, 0), (0, 1), (1, k): the bases have determinants 1, k and -1, so
    their parallelepipeds hold k + 2 lattice points, and each base is
    inverted by one solve per coordinate.  The bounding boxes of those
    parallelepipeds held 5011 points at k = 1000, each solved for."""
    calls = []
    solve = moments.solve_linear
    monkeypatch.setattr(
        moments, "solve_linear", lambda *args: calls.append(args) or solve(*args)
    )
    k = 1000
    spec = SemialgSpec.binomials(
        2, [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((1, k), (0, 0))]
    )
    assert semigroup_generation_check(spec) is True
    assert len(calls) == 3 * 2
    bases = [((1, 0), (0, 1)), ((1, 0), (1, k)), ((0, 1), (1, k))]
    points = [list(moments._parallelepiped_points(b)) for b in bases]
    assert [len(p) for p in points] == [1, k, 1]
    assert sorted(points[1]) == [(0, 0)] + [(1, j) for j in range(1, k)]


def test_semigroup_check_dependent_index_one_set_goes_to_the_box():
    """(1, 0), (1, 1), (-1, 2) has index 1 through its first two, yet (0, 1)
    lies in its cone and is no nonnegative integer combination of it."""
    spec = SemialgSpec.binomials(
        2, [((1, 0), (0, 0)), ((1, 1), (0, 0)), ((0, 2), (1, 0))]
    )
    assert semigroup_generation_check(spec) is False


def test_moment_cone_orthant():
    k = trop_moment_cone(MOTZKIN, SemialgSpec.orthant(2))
    assert k.ineqs == ((1, -3, 1, 1),)
    assert [str(b) for b in binomial_facets(MOTZKIN, k)] == [
        "m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3"
    ]


def test_moment_cone_cube():
    k = trop_moment_cone(MOTZKIN, SemialgSpec.cube(2))
    assert set(k.ineqs) == {(0, 1, -1, 0), (0, 1, 0, -1), (1, -3, 1, 1)}
    # explicit binomial generators describing the same set give the same cone
    as_binomials = SemialgSpec.binomials(2, [((0, 0), (1, 0)), ((0, 0), (0, 1))])
    assert trop_moment_cone(MOTZKIN, as_binomials) == k


def test_moment_cone_full_space():
    doubled = PointConfig([(0, 0), (2, 2), (2, 4), (4, 2)])
    k = trop_moment_cone(doubled, SemialgSpec.full_space(2))
    assert k.ineqs == ((1, -3, 1, 1),)
    # odd support points leave nothing for even certificates to constrain
    free = trop_moment_cone(MOTZKIN, SemialgSpec.full_space(2))
    assert free == Cone.full_space(4)


def test_moment_cone_toric():
    toric = SemialgSpec.toric_cube([[1, 2], [1, 3]])
    k = trop_moment_cone(MOTZKIN, toric)
    got = {str(b) for b in binomial_facets(MOTZKIN, k)}
    assert got == {
        "m(2,1) >= m(1,2)",
        "m(1,1)^2*m(1,2) >= m(2,1)^3",
        "m(0,0)*m(2,1)^3 >= m(1,1)^4",
        "m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3",
    }


@pytest.mark.parametrize("support", [[(0, 0, 0), (1, 0, 0)], [(0,), (1,)]])
def test_moment_cone_toric_checks_the_support_dimension(support):
    toric = SemialgSpec.toric_cube([[1, 2], [1, 3]])
    with pytest.raises(ValueError, match="set specification dimension does not match"):
        trop_moment_cone(PointConfig(support), toric)


def test_moment_cone_non_simplex_facet():
    a2 = PointConfig([(4, 0), (0, 4), (3, 2)])
    k = trop_moment_cone(a2, SemialgSpec.cube(2))
    assert set(k.ineqs) == {(1, 1, -2), (3, 1, -4)}
    assert str(render_binomial(a2, (1, 1, -2))) == "m(4,0)*m(0,4) >= m(3,2)^2"
    assert str(render_binomial(a2, (3, 1, -4))) == "m(4,0)^3*m(0,4) >= m(3,2)^4"


def test_render_binomial():
    assert str(render_binomial(MOTZKIN, (0, 1, -1, 0))) == "m(1,1) >= m(1,2)"
    assert str(render_binomial(MOTZKIN, (2, -2, 0, 0))) == "m(0,0) >= m(1,1)"
    assert str(render_binomial(MOTZKIN, (0, -1, 0, 1))) == "m(2,1) >= m(1,1)"
    with pytest.raises(ValueError):
        render_binomial(MOTZKIN, (0, 0, 0, 0))


def test_non_integer_exponents_and_normals_raise():
    # int() truncated them: the pair kept (0, 1), and the normal (1/2, -1)
    # on (0, 0), (1, 1) rendered as the wrong 1 >= m(1,1)
    with pytest.raises(ValueError, match="integers"):
        SemialgSpec.binomials(2, [((0.9, 1), (2, 0))])
    with pytest.raises(ValueError, match="integers"):
        render_binomial(PointConfig([(0, 0), (1, 1)]), (Fraction(1, 2), -1))


def test_amgm_moment_cone():
    tris = almost_empty_simplices(MOTZKIN)
    tri = next(s for s in tris if s.interior == (1, 1) and len(s.vertices) == 3)
    assert str(amgm_moment_cone(tri)) == "m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3"
    seg = PointConfig([(0,), (1,), (2,)])
    s01 = almost_empty_simplices(seg)[0]
    assert str(amgm_moment_cone(s01)) == "m(0)*m(2) >= m(1)^2"


def test_binomial_ineq_validation():
    with pytest.raises(ValueError):
        BinomialIneq((), ())
    with pytest.raises(ValueError):
        BinomialIneq((((0, 0), 2),), (((1, 1), 2),))
    with pytest.raises(ValueError):
        BinomialIneq((((0, 0), 1),), (((0, 0), 1),))
    with pytest.raises(ValueError):
        BinomialIneq((((0, 0), 0),), (((1, 1), 1),))
    assert str(BinomialIneq((((1, 0), 1),), ())) == "m(1,0) >= 1"
