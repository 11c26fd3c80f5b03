import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from draws import vectors

from tropmom.cones import (
    Cone,
    double_description,
    fourier_motzkin_project,
    project_hrep,
    tropical_hull,
    tropical_hull_dual,
)
from tropmom.linalg import dot

QUAD = Cone.from_hrep(2, [(1, 0), (0, 1)])  # the nonnegative quadrant


def test_orthant_hrep_to_rays():
    c = Cone.from_hrep(2, [(1, 0), (0, 1)])
    assert set(c.rays) == {(1, 0), (0, 1)}
    assert c.lineality == ()


def test_planar_ray_pair_hrep():
    c = Cone.from_vrep(4, [(0, -1, -2, -1), (0, -2, -1, -1)])
    assert len(c.ineqs) == 2
    assert len(c.eqs) == 2
    assert c.cone_dim() == 2
    for nu in c.ineqs:
        assert all(dot(nu, r) >= 0 for r in c.rays)
        assert any(dot(nu, r) == 0 for r in c.rays)


def test_two_halfplane_rays():
    c = Cone.from_hrep(2, [(1, -2), (-1, 3)])
    assert set(c.rays) == {(2, 1), (3, 1)}


def test_dual_anchors():
    assert Cone.nonpos_orthant(2).dual() == Cone.nonpos_orthant(2)
    assert Cone.full_space(3).dual() == Cone.origin(3)
    c = Cone.from_vrep(2, [(-2, -1), (-1, -2)])
    assert set(c.dual().rays) == {(-2, 1), (1, -2)}


@pytest.mark.parametrize("build", [Cone.from_hrep, Cone.from_vrep])
@pytest.mark.parametrize("rows", [[(Fraction(1, 2),)], [(0.9, 1)]], ids=["fraction", "float"])
def test_non_integer_entries_refused(build, rows):
    # int() would truncate them: 1/2 to the zero row, (0.9, 1) to (0, 1)
    with pytest.raises(ValueError, match="entries must be integers"):
        build(len(rows[0]), rows)


def test_dual_involution():
    rng = random.Random(7)
    for _ in range(20):
        dim = rng.randrange(1, 5)
        rays = [
            tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(0, 4))
        ]
        lins = [
            tuple(rng.randrange(-2, 3) for _ in range(dim))
            for _ in range(rng.randrange(0, 2))
        ]
        c = Cone.from_vrep(dim, rays, lins)
        assert c.dual().dual() == c


def test_cones_from_concatenated_sides():
    # an intersection is the cone of both H-reps, a sum the cone of both V-reps
    right, up = Cone.from_hrep(2, [(1, 0)]), Cone.from_hrep(2, [(0, 1)])
    quad = Cone.from_hrep(2, right.ineqs + up.ineqs, right.eqs + up.eqs)
    assert quad == QUAD
    x, y = Cone.from_vrep(2, [(1, 0)]), Cone.from_vrep(2, [(0, 1)])
    ms = Cone.from_vrep(2, x.rays + y.rays, x.lineality + y.lineality)
    assert ms == QUAD
    u1h = Cone.from_hrep(
        3, [(-1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 1)]
    )
    assert set(u1h.rays) == {(-1, 1, 0), (-1, 0, 1)}


def test_dimension_mismatch():
    # equality reads the dimension first; containment refuses the pair
    assert Cone.full_space(2) != Cone.full_space(3)
    assert Cone.origin(0) != Cone.origin(1)
    with pytest.raises(ValueError):
        Cone.full_space(2).contains_cone(Cone.full_space(3))


def test_project():
    assert oracles.project(QUAD, [0]) == Cone.from_hrep(1, [(1,)])
    diag = Cone.from_vrep(2, [], [(1, 1)])
    assert oracles.project(diag, [1]) == Cone.full_space(1)
    with pytest.raises(ValueError):
        oracles.project(QUAD, [2])


def test_contains():
    assert QUAD.contains_point((1, 1))
    assert not QUAD.contains_point((-1, 0))
    assert QUAD.contains_cone(Cone.from_vrep(2, [(1, 2)]))
    assert not QUAD.contains_cone(Cone.full_space(2))


def test_dd_round_trip():
    rng = random.Random(13)
    for _ in range(15):
        dim = rng.randrange(1, 5)
        ineqs = [
            tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(0, 5))
        ]
        c = Cone.from_hrep(dim, ineqs)
        back = Cone.from_vrep(dim, c.rays, c.lineality)
        assert c == back


@pytest.mark.parametrize(
    "given_as, dim, rows, lin_rows, eqs",
    [
        # no rays: every row is tight on all of them, so implicit
        ("h", 2, [(1, 0), (-1, 0)], [], ((1, 0),)),
        # the given equation is an implicit row too
        ("h", 3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [(2, 0, 0)], ((1, 0, 0),)),
        # the given equation makes the row (0, 1, 0) implicit
        ("h", 3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [(1, 1, 0)], ((1, 0, 0), (0, 1, 0))),
        # no row is implicit
        ("h", 3, [(0, 1, 0)], [(1, 0, 1)], ((1, 0, 1),)),
        # a generator in the lineality, as the negative of another
        ("v", 2, [(1, 0), (-1, 0), (0, 1)], [], ((1, 0),)),
    ],
    ids=["no-rays", "given-is-implicit", "given-makes-implicit", "given-only",
         "line-generator"],
)
def test_equations_read_off_the_incidence(given_as, dim, rows, lin_rows, eqs):
    build = Cone.from_hrep if given_as == "h" else Cone.from_vrep
    cone = build(dim, rows, lin_rows)
    assert (cone.eqs if given_as == "h" else cone.lineality) == eqs
    forms = (cone.ineqs, cone.eqs, cone.rays, cone.lineality)
    assert forms == oracles.minimal_forms(dim, rows, lin_rows, given_as)


def test_tropical_hull_anchors():
    assert tropical_hull(2, []) == Cone.from_vrep(2, [], [(1, 1)])
    full = Cone.full_space(3)
    assert tropical_hull(3, [], full.lineality) == full
    hull = tropical_hull(4, [(0, -1, -1, -2), (0, -1, -2, -1)])
    assert set(hull.ineqs) == {(0, 1, -1, 0), (0, 1, 0, -1), (1, -3, 1, 1)}
    want_dual = Cone.from_vrep(
        4, [(0, 1, -1, 0), (0, 1, 0, -1), (1, -3, 1, 1)]
    )
    assert hull.dual() == want_dual


def test_tropical_hull_keeps_every_row_unless_full_dimensional():
    # a row that a two-term cancellation implies is sure to be no facet
    # only of a full-dimensional hull, and neither hull here is one:
    # leaving such rows out unchecked gave the facets (0, 0, 1, -1),
    # (0, 1, 1, -2) for the first, and checking only the rows kept gave
    # the cone x_1, x_2 >= x_0 for the second
    hull = tropical_hull(4, [(1, 0, 2, 1)])
    assert hull.ineqs == ((0, -1, 0, 1), (0, 1, 1, -2))
    assert hull.eqs == ((1, 0, 0, -1),)
    assert tropical_hull(3, []) == Cone.from_vrep(3, [], [(1, 1, 1)])


def test_tropical_hull_dual_anchors():
    assert tropical_hull_dual(Cone.full_space(2)) == Cone.origin(2)
    y = Cone.from_vrep(4, [(0, -1, -1, -2), (0, -1, -2, -1)])
    want = Cone.from_vrep(4, [(0, 1, -1, 0), (0, 1, 0, -1), (1, -3, 1, 1)])
    assert tropical_hull_dual(y) == want
    line = Cone.from_vrep(2, [], [(1, 1)])
    assert tropical_hull_dual(line) == tropical_hull(2, [], [(1, 1)]).dual()
    point = Cone.origin(0)
    assert tropical_hull_dual(point) == point == tropical_hull(0, []).dual()


@st.composite
def small_cones(draw):
    """Generators (n, rays, lines) of cones in at most 6 coordinates with at
    most 3 rays and an optional line."""
    n = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    return n, draw(st.lists(vec, max_size=3)), draw(st.lists(vec, max_size=1))


@st.composite
def cone_pairs(draw):
    """Two cones in at most 4 coordinates, each given by either side; the
    second is the first given again by its other side or the same one, the
    rows scaled, reordered and joined by a redundant sum and the basis
    negated, then often cut or widened by one more drawn row."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    build = lambda: draw(st.sampled_from([Cone.from_hrep, Cone.from_vrep]))
    a = build()(n, draw(st.lists(vec, max_size=4)), draw(st.lists(vec, max_size=1)))
    given_by = build()
    rows, basis = (a.ineqs, a.eqs) if given_by is Cone.from_hrep else (a.rays, a.lineality)
    scales = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    rows = [tuple([c * x for x in r]) for r, c in zip(rows, scales)]
    if len(rows) > 1:
        rows.append(tuple([x + y for x, y in zip(rows[0], rows[1])]))
    rows = draw(st.permutations(rows)) + draw(st.lists(vec, max_size=1))
    return a, given_by(n, rows, [tuple([-x for x in b]) for b in basis])


@settings(max_examples=100)
@given(cone_pairs())
def test_equality_is_mutual_containment(pair):
    a, b = pair
    assert (a == b) == oracles.cone_equal(a, b)
    if a == b:
        assert hash(a) == hash(b)
    pad = lambda rows: [r + (0,) for r in rows]
    wider = Cone.from_vrep(a.dim + 1, pad(a.rays), pad(a.lineality))
    assert a != wider and wider != a


@settings(max_examples=60)
@given(small_cones())
def test_tropical_hull_matches_dual_route_and_index_order(gens):
    # the hull reads the generators as drawn, the oracle the minimal rays
    y = Cone.from_vrep(*gens)
    hull = tropical_hull(*gens)
    assert hull == tropical_hull_dual(y).dual()
    old = oracles.tropical_hull(y)
    assert (hull.ineqs, hull.eqs, hull.rays, hull.lineality) == (
        old.ineqs, old.eqs, old.rays, old.lineality
    )


def test_tropical_dual_ray_shape():
    # each extreme ray, summing to zero, has exactly one negative entry
    y = Cone.from_vrep(4, [(0, -1, -1, -2), (0, -1, -2, -1)])
    td = tropical_hull_dual(y)
    for r in td.rays:
        assert sum(r) == 0
        assert sum(1 for x in r if x < 0) == 1


@st.composite
def hrep_projections(draw):
    """A cone in 2 to 4 coordinates cut out by 1 to 4 inequalities and at
    most one equation, entries in [-3, 3], and 1 to dim - 1 coordinates to
    keep."""
    dim = draw(st.integers(2, 4))
    ineqs, eqs = draw(vectors(1, 4, dim, -3, 3)), draw(vectors(0, 1, dim, -3, 3))
    coords = st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim - 1, unique=True)
    return Cone.from_hrep(dim, ineqs, eqs), sorted(draw(coords))


@settings(max_examples=100)
@given(hrep_projections())
def test_fourier_motzkin_matches_vrep_projection(case):
    c, coords = case
    assert fourier_motzkin_project(c, coords) == oracles.project(c, coords)


def test_project_hrep_fast_paths():
    assert project_hrep(3, [], [0, 1]) == Cone.full_space(2)
    c = project_hrep(2, [(1, 0), (0, 1)], [0, 1])
    assert c == QUAD


def test_project_hrep_rejects_bad_coords():
    with pytest.raises(ValueError):
        project_hrep(3, [(1, 1, 1)], [0, 0])
    with pytest.raises(ValueError):
        project_hrep(3, [(1, 1, 1)], [3])


def test_project_hrep_matches_vrep_projection():
    rng = random.Random(4242)
    for _ in range(25):
        dim = rng.randrange(2, 7)
        ineqs = [
            tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(1, dim + 3))
        ]
        k = rng.randrange(1, min(dim, 4))
        coords = sorted(rng.sample(range(dim), k))
        got = project_hrep(dim, ineqs, coords)
        want = oracles.project(Cone.from_hrep(dim, ineqs), coords)
        assert got == want, (dim, ineqs, coords)


def test_double_description_lineality():
    rays, lins = double_description(3, [(1, 0, 0)], [])
    assert rays == [(1, 0, 0)]
    assert len(lins) == 2
    assert all(b[0] == 0 for b in lins)
    c = Cone.from_hrep(3, [(1, 0, 0)])
    assert len(c.lineality) == 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: project_hrep(3, [(1, 0, 0)], [0, 1], outer=Cone.full_space(3)),
         "outer cone dimension does not match the projection"),
        (lambda: Cone.from_hrep(-1, []), "dimension must be nonnegative"),
        (lambda: Cone.from_hrep(2, [(1, 0, 0)]), "normal vector of wrong length"),
        (lambda: Cone.from_hrep(2, [], [(1,)]), "normal vector of wrong length"),
        (lambda: Cone.from_vrep(2, [(1, 0, 0)]), "generator of wrong length"),
        (lambda: Cone.from_vrep(2, [], [(1,)]), "generator of wrong length"),
        # a short vector would be truncated by zip, or read as zero-padded
        (lambda: Cone.from_hrep(2, [(1, 0), (0, 1)]).contains_point((1,)),
         "vectors of different lengths"),
        (lambda: double_description(3, [(1, 0)], []), "vectors of different lengths"),
        (lambda: tropical_hull(3, [(1, 0)]), "vectors of different lengths"),
        (lambda: project_hrep(3, [(1, -1), (0, 1, 0)], [0, 1]),
         "normal vector of wrong length"),
        (lambda: project_hrep(2, [(1, 0, 1), (0, 1)], [0]), "normal vector of wrong length"),
    ],
    ids=["outer-dimension", "negative-dimension", "normal", "equation", "ray", "line",
         "point", "dd-row", "hull-generator", "projected-short-row", "projected-long-row"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
