"""Work carried within a projection and across a scan's degrees, against
the routes that carried none.

A ``RowSystem`` must give the verdicts and certificates of plain rows and
of the rational tableau.  The comparable pairs read off each point's
values on the order cone's H-representation must be the pairs the old
per-pair membership loop found, in its order.  Every cone of a scan,
where each degree's projection is given the previous degree's cone as an
outer cone, must equal the cone projected from scratch, and so must the
closed form the scan computes first; each is projected from the support
the lattice function lists (``built_supports``).  A projection given any
outer cone must raise or return the image met with it.  The midpoint cone M(A) of a
support, the outer cone of every cold projection, must contain the image
and leave the projection and its refuted LPs as they are.  The linear
functions of the order cone's dual, which seed every pseudo-moment
projection, must satisfy every row, leave the projection as it is and
refute no more LPs than the projection without them.  The pool of
tropical maxima of those functions must satisfy every row, leave the
projection as it is and run no more LPs, and a pool function off the
source must raise when it is taken.  The work counts of two scans, of
the 9-point cubical-hull projection and of the seed-1 ``projection`` and
``scan`` corpora, the fresh double descriptions of a moment cone and a
scan, the rows the tropical hulls of three moment cones hand to double
description and the kernels their minimal forms compute, and the LPs of
the sums-of-squares dual on two supports whose kernel exceeds the affine
functions, are pinned, so that losing the reuse shows up as a changed
count.
"""

import contextlib
import io
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_corpus_digests import _corpus
from test_kernels_differential import projection_systems, systems
from tropmom import _dd, _simplex, cli, cones, pseudo
from tropmom.cones import Cone, project_hrep, tropical_hull
from tropmom.errors import PreconditionError
from tropmom.funcones import comparable_pairs, cone_M, constraint_rows, cover_pairs
from tropmom.lattice import PointConfig, a_hat, cubical_hull, delta_simplex, midpoint_triples
from tropmom.linalg import dot
from tropmom.moments import SemialgSpec, order_cone, trop_moment_cone
from tropmom.pseudo import (
    stabilization_scan,
    stabilized_pseudomoment,
    trop_pseudomoment,
    trop_pseudomoment_cube_stable,
)

MOTZKIN = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
SQUARE = PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])
ORTHANT2 = SemialgSpec.orthant(2)
CUBE2 = SemialgSpec.cube(2)
S1 = SemialgSpec.binomials(2, [((0, 1), (2, 0)), ((1, 0), (0, 2))])
S2 = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])
# its cubical hull has 24 points
NINE_POINTS = PointConfig(
    [(0, 0), (0, 2), (0, 5), (1, 0), (1, 2), (1, 4), (2, 0), (2, 1), (3, 3)]
)


@st.composite
def system_targets(draw):
    """Rows and the drawn target, then up to two more targets on the rows."""
    rows, target = draw(st.one_of(systems(), projection_systems()))
    more = st.tuples(*[st.integers(-4, 4)] * len(target))
    return rows, [target] + draw(st.lists(more, max_size=2))


@settings(max_examples=60)
@given(system_targets())
def test_row_system_gives_the_plain_rows_answer(case):
    rows, targets = case
    system = _simplex.RowSystem(rows)
    for target in targets:
        got = _simplex.nonneg_combination(system, target)
        assert got == _simplex.nonneg_combination(rows, target)
        ok, ref_w = oracles.nonneg_combination(rows, target)
        assert got[0] == ok
        if not ok:
            assert got[1] == oracles.integerize(ref_w)


PLANE_VECTORS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
ORDER_CONES = st.one_of(
    st.sampled_from(
        [
            order_cone(s)
            for s in (
                ORTHANT2,
                CUBE2,
                S1,
                S2,
                SemialgSpec.toric_cube([[1, 2], [1, 3]]),
                # one generator direction: the order cone has an equation
                SemialgSpec.toric_cube([[1, 2], [2, 4]]),
            )
        ]
    ),
    st.builds(
        lambda rays, lin: Cone.from_vrep(2, rays, lin),
        st.lists(PLANE_VECTORS, max_size=3),
        st.lists(PLANE_VECTORS, max_size=1),
    ),
)


@settings(max_examples=60)
@given(
    ORDER_CONES,
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10,
        unique=True,
    ),
)
def test_comparable_pairs_match_the_membership_loop(c, points):
    a = PointConfig(points)
    assert comparable_pairs(a, c) == oracles.comparable_pairs(a, c)


@settings(max_examples=20)
@given(
    st.lists(st.sampled_from(delta_simplex(2, 2).points), min_size=1, max_size=4,
             unique=True).map(PointConfig),
    st.sampled_from([ORTHANT2, CUBE2, S1, S2]),
    st.integers(0, 2),
)
def test_scan_cones_equal_cold_projections(a, spec, extra):
    d_min = max(sum(p) for p in a)
    rep, built = built_supports(
        lambda: stabilization_scan(a, spec, d_min + extra, max_extension_points=60)
    )
    cold = oracles.cold_scan_cones(a, spec, d_min, d_min + extra)
    degrees = [
        ("delta_simplex", delta_simplex(a.n, d)) for d in range(d_min, d_min + extra + 1)
    ]
    for r, c in zip(rep.results, cold, strict=True):
        assert r == c
        assert (r.ineqs, r.eqs, r.rays, r.lineality) == (
            c.ineqs, c.eqs, c.rays, c.lineality
        )
    try:
        closed = stabilized_pseudomoment(a, spec, max_extension_points=60)
    except PreconditionError:
        assert rep.closed_form is None and rep.matches_closed_form is None
        assert built == degrees
        return
    if spec.kind == "cube":
        assert built == [("cubical_hull", cubical_hull(a))] + degrees
    else:
        assert built == [("a_hat", a_hat(a, order_cone(spec)))] + degrees
    got = rep.closed_form
    assert (got.ineqs, got.eqs) == (closed.ineqs, closed.eqs)
    assert rep.matches_closed_form == (cold[-1] == closed)


@st.composite
def outer_projections(draw):
    """(dim, rows, coords, outer): a small system, the coordinates kept and
    a cone in their space, drawn at random or as the image widened by
    random generators, so that it often contains the image."""
    rows, _ = draw(systems(max_rows=6))
    dim = len(rows[0]) if rows else draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    vec = st.tuples(*[st.integers(-2, 2)] * len(coords))
    outer = Cone.from_vrep(
        len(coords), draw(st.lists(vec, max_size=3)), draw(st.lists(vec, max_size=1))
    )
    if draw(st.booleans()):
        image = project_hrep(dim, rows, coords)
        outer = Cone.from_vrep(
            len(coords), outer.rays + image.rays, outer.lineality + image.lineality
        )
    return dim, rows, coords, outer


@settings(max_examples=150)
@given(outer_projections())
def test_projection_in_an_outer_cone_is_the_image_met_with_it(case):
    dim, rows, coords, outer = case
    image = project_hrep(dim, rows, coords)
    try:
        got = project_hrep(dim, rows, coords, outer=outer)
    except ValueError as exc:
        assert "outer cone" in str(exc)
        assert not outer.contains_cone(image)
        return
    assert got == Cone.from_hrep(
        len(coords), image.ineqs + outer.ineqs, image.eqs + outer.eqs
    )


def test_outer_cone_missing_a_member_raises():
    # the image is the ray through (1, 1), the outer cone the ray (1, 0)
    rows = [(1, -1, 0), (-1, 1, 0), (1, 0, 0)]
    with pytest.raises(ValueError, match="outer cone"):
        project_hrep(3, rows, [0, 1], outer=Cone.from_vrep(2, [(1, 0)]))
    # no LP runs: the image of {x >= 0} under the identity, and the line
    # (0, 1) of {x >= 0} in R^2, given as an inner line, which projects
    # onto a line outside the ray
    ray = Cone.from_vrep(1, [(1,)])
    with pytest.raises(ValueError, match="outer cone"):
        project_hrep(1, [(1,)], [0], outer=Cone.origin(1))
    with pytest.raises(ValueError, match="outer cone"):
        project_hrep(2, [(1, 0)], [1], outer=ray, inner=((), [(0, 1)]))
    # without the line no member the LPs find leaves the ray, so the call
    # returns the image met with it
    assert project_hrep(2, [(1, 0)], [1], outer=ray) == ray
    # the nesting taken backwards: the square over S1 stabilizes at degree
    # 3, strictly inside its degree-2 cone T_2.  The seeds lie in t3.
    # Without the pool of tropical maxima the first LP, on h(0,0) + h(1,1)
    # >= h(1,0) + h(0,1), finds (1, 1, 1, -1) and the call raises; with it,
    # the pool refutes every candidate that is not valid on t3, and the call
    # returns T_2 met with t3, which is t3 (it raised before the pool)
    t3 = trop_pseudomoment(SQUARE, S1, 3)
    backwards = lambda: pseudo._projected(SQUARE, delta_simplex(2, 2), order_cone(S1), t3)
    got = backwards()
    assert got == t3 and (got.ineqs, got.eqs) == (t3.ineqs, t3.eqs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pseudo, "_maxima", lambda *args: [])
        with pytest.raises(ValueError, match="outer cone"):
            backwards()
    # a half-space that holds the line of constants but misses the seed
    # (0, -2, -1, -3), from C's facet normal (-2, -1), refuses before any LP
    missing = Cone.from_hrep(4, [(0, 1, -1, 0)])
    work = _work(
        lambda: pytest.raises(ValueError, pseudo._projected, SQUARE, delta_simplex(2, 2),
                              order_cone(S1), missing)
    )
    assert work["lp"] == 0


def test_inner_point_or_line_off_the_source_raises():
    # the source is {x0 >= x1 >= 0}; (0, 1) is -1 on its first row and
    # (1, 1) is no line of it
    rows = [(1, -1), (0, 1)]
    with pytest.raises(ArithmeticError, match="inner"):
        project_hrep(2, rows, [0], inner=([(1, 0), (0, 1)], ()))
    with pytest.raises(ArithmeticError, match="inner"):
        project_hrep(2, rows, [0], inner=((), [(1, 1)]))
    # a valid point is only a head start
    assert project_hrep(2, rows, [0], inner=([(2, 1)], ())) == project_hrep(2, rows, [0])


def test_projection_generated_by_its_members_and_inner_lines():
    # the image of {x0 >= 0} in R^3 is the half-plane x0 >= 0, whose line
    # (0, 1) is given; the tropical hull reads the generators as given
    image = project_hrep(3, [(1, 0, 0)], [0, 1], inner=((), [(0, 1, 0)]))
    fresh = Cone.from_hrep(2, image.ineqs, image.eqs)
    assert tropical_hull(image) == tropical_hull(fresh)


def test_pool_function_off_the_source_raises_when_taken():
    # the source is {x0 >= x1 >= 0}; (-1, 0) is -1 on its first row, and its
    # image refutes the normal (1,) of the origin's span, so it is taken
    rows = [(1, -1), (0, 1)]
    image = project_hrep(2, rows, [0])
    with pytest.raises(ArithmeticError, match="pool"):
        project_hrep(2, rows, [0], pool=[(-1, 0)])
    # (0, 1) is off the source too, but its image refutes no candidate, so
    # it is never taken and never checked; (1, 0), in the source, refutes
    # the normal (-1,) in place of an LP
    assert project_hrep(2, rows, [0], pool=[(0, 1)]) == image
    got = []
    work = _work(lambda: got.append(project_hrep(2, rows, [0], pool=[(1, 0)])))
    assert got == [image] and (work["lp"], work["refuted"]) == (1, 0)


def test_pool_function_outside_the_outer_cone_raises():
    # the image of {x0 >= 0} in R^3 is the half-plane x0 >= 0, the outer
    # cone the ray (1, 0); the pool function (1, 1, 0) is in the source and
    # refutes the origin's span normal (-1, 0), but its image leaves the ray
    ray = Cone.from_vrep(2, [(1, 0)])
    call = lambda: project_hrep(3, [(1, 0, 0)], [0, 1], outer=ray, pool=[(1, 1, 0)])
    work = _work(lambda: pytest.raises(ValueError, call).match("outer cone"))
    assert work["lp"] == 0


def test_member_already_held_makes_no_progress(monkeypatch):
    # an LP certificate whose image is a member the approximation holds,
    # from an earlier round (here the image (1,) of the inner point) or from
    # this one
    monkeypatch.setattr(_simplex, "valid_on_system", lambda system, nu: (False, (1, 0, 0)))
    rows = [(1, -1, 0), (0, 1, 0)]
    with pytest.raises(ArithmeticError, match="made no progress"):
        project_hrep(3, rows, [0], inner=([(1, 0, 0)], ()))
    # from the origin the normal (1, 0) finds (1, 0); (-1, 0) is negative on
    # it and waits, and (0, 1) is handed the same certificate
    with pytest.raises(ArithmeticError, match="made no progress"):
        project_hrep(3, rows, [0, 2])


def built_supports(run) -> tuple:
    """run()'s result and the extension supports pseudo built for it, as
    (function name, points) in the order they were built."""
    built = []

    def spy(name, build):
        def wrapped(*args):
            e = build(*args)
            built.append((name, e))
            return e

        return wrapped

    with contextlib.ExitStack() as stack:
        for name in ("delta_simplex", "cubical_hull", "a_hat", "lattice_points"):
            patch = mock.patch.object(pseudo, name, spy(name, getattr(pseudo, name)))
            stack.enter_context(patch)
        return run(), built


def _work(run) -> Counter:
    """LPs, refuted LPs, column builds, projections, fresh double
    descriptions, double descriptions seeded from a cone's generators and
    the facets they seed, rows handed to a double description's ``add``
    (and to its last call) and kernels computed by ``cones`` in run()."""
    counts: Counter = Counter()
    lp, columns, project, dd, seeded, add, kernel = (
        _simplex.nonneg_combination,
        _simplex._columns,
        pseudo.project_hrep,
        cones.double_description,
        _dd.DoubleDescription.seeded,
        _dd.DoubleDescription.add,
        cones.kernel_basis,
    )

    def spy_lp(rows, target):
        result = lp(rows, target)
        counts["lp"] += 1
        counts["refuted"] += not result[0]
        return result

    def spy_add(state, ineqs):
        ineqs = list(ineqs)
        counts["rows"] += len(ineqs)
        counts["last_rows"] = len(ineqs)
        return add(state, ineqs)

    def spy_seeded(cls, dim, out, gens):
        counts["seeded"] += 1
        counts["seeded_rows"] += len(out[0])
        return seeded(dim, out, gens)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_simplex, "nonneg_combination", spy_lp)
        mp.setattr(_simplex, "_columns", spy("columns", columns))
        mp.setattr(pseudo, "project_hrep", spy("project", project))
        mp.setattr(cones, "double_description", spy("dd", dd))
        mp.setattr(_dd.DoubleDescription, "seeded", classmethod(spy_seeded))
        mp.setattr(_dd.DoubleDescription, "add", spy_add)
        mp.setattr(cones, "kernel_basis", spy("kernel", kernel))
        run()
    return counts


@pytest.mark.parametrize(
    "a, spec, d_max, lps",
    # 4 and 1 of them refuted; 12 and 24 before the pool of tropical
    # maxima refuted candidates, 28 and 30 before each projection started
    # from the linear functions of the order cone's dual, and 34 and 36
    # before the first degree and the closed form had M(A) as outer cone;
    # 8 and 16 of them refuted either way before the pool (24 and 22
    # before the linear functions)
    [(MOTZKIN, CUBE2, 5, 8), (SQUARE, S1, 4, 9)],
    ids=["motzkin-cube", "square-s1"],
)
def test_scan_work_counts(a, spec, d_max, lps):
    d_min = max(sum(p) for p in a)
    scan = _work(lambda: stabilization_scan(a, spec, d_max))

    def cold_run():
        for d in range(d_min, d_max + 1):
            trop_pseudomoment(a, spec, d)
        stabilized_pseudomoment(a, spec)

    cold = _work(cold_run)
    assert scan["lp"] == lps
    # 8 < 12 and 9 < 15 LPs (12 < 16 and 24 < 30 before the pool, and 28 <
    # 32 and 30 < 36 before the linear functions)
    assert scan["lp"] < cold["lp"]
    # an outer cone only spares LPs that would have certified a normal
    assert scan["refuted"] == cold["refuted"]
    assert scan["project"] == cold["project"] == d_max - d_min + 2
    assert scan["columns"] == scan["project"]


@pytest.mark.parametrize(
    "run, dds, before",
    [
        # the H-side of the order cone fresh, and the hull's final double
        # description seeded from its largest sum; 3 fresh and none seeded
        # before that seeding, and before the hull read y's generators as
        # given
        (lambda: trop_moment_cone(MOTZKIN, CUBE2).ineqs, (1, 1), 7),
        # the H-sides of the two order cones, and the V-side of the outer
        # cone M(A) of each cold projection (the first degree and the
        # closed form); 2 before M(A) was the outer cone
        (lambda: stabilization_scan(MOTZKIN, CUBE2, 5), (4, 0), 14),
    ],
    ids=["motzkin-cube-moment", "motzkin-cube-scan"],
)
def test_dd_counts(run, dds, before):
    # the sums y + V_i of a tropical hull continue one shared double
    # description, and a projection's approximation resumes one from round
    # to round, so neither enters double_description afresh; ``before`` is
    # the count when each sum and each round ran its own
    counts = _work(run)
    assert (counts["dd"], counts["seeded"]) == dds
    assert counts["dd"] + counts["seeded"] < before


def _ten_point_cube(tmp_path):
    corpus = _corpus()
    problems = [p for p in corpus.build("moment", 1) if p.name == "ten-point-cube"]
    (argv,) = corpus.write(problems, tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "run, rows, before",
    [
        # (18, 4) and (152, 36) before the final double description left
        # out the rows a two-term cancellation implies; (24, 0, 3, 0) and
        # (190, 0, 3, 0) in the order (rows added, rows seeded, fresh,
        # seeded double descriptions) before it started from the largest
        # sum's generators and y's generators were read as given
        (lambda tmp_path: trop_moment_cone(MOTZKIN, CUBE2).ineqs, (14, 4), 28),
        (_ten_point_cube, (65, 36), 246),
    ],
    ids=["motzkin-cube-moment", "ten-point-cube"],
)
def test_hull_work_counts(run, rows, before, tmp_path):
    # the sums y + V_i take their unit vectors down a halving tree, and a
    # full-dimensional cone's minimal H-side computes no kernel; ``before``
    # is the row count when each sum took its n - 1 units, with 3 kernels
    # on both; the one fresh double description left is the order cone's,
    # and the hull's final one still runs, seeded with its largest sum's
    # facets and given the others' rows
    counts = _work(lambda: run(tmp_path))
    assert (counts["rows"], counts["seeded_rows"]) == rows
    assert (counts["kernel"], counts["dd"], counts["seeded"]) == (0, 1, 1)
    assert sum(rows) < before


def test_fourteen_point_hull_work_counts():
    # the 14-point support over the cube that seed 1 draws; all 344 rows
    # of the sums but the largest reached the hull's final double
    # description, in 0.83 s, before the rows a two-term cancellation
    # implies were left out: 38 remain, the hull's facets that the largest
    # sum lacks
    support = _corpus()._support(random.Random(1), 14, (6, 6), must=((0, 0),))
    got = []
    counts = _work(lambda: got.append(trop_moment_cone(PointConfig(support), CUBE2)))
    assert (counts["last_rows"], counts["seeded_rows"], counts["seeded"]) == (38, 105, 1)
    assert (len(got[0].ineqs), len(got[0].rays), len(got[0].lineality)) == (72, 780, 1)


@pytest.mark.parametrize(
    "points",
    [[(0, 0), (4, 2), (2, 4), (2, 2)], [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]],
)
def test_sums_of_squares_dual_starts_from_the_kernel(points):
    # the kernel of the even-midpoint rows is larger than the affine
    # functions here; 2 refuted LPs found the missing lines before the
    # kernel started the projection
    got = []
    counts = _work(lambda: got.append(pseudo.sigma_dual_trop(PointConfig(points))))
    assert (counts["lp"], counts["project"]) == (0, 1)
    assert got[0] == Cone.full_space(len(points))


def test_nine_point_cubical_hull_work_counts():
    # a candidate negative on a member found earlier in its round is not
    # tested; 587 LPs when every candidate was, 169 before M(A) was the
    # outer cone, (156, 120) before the linear functions seeded it, and
    # (141, 105) before the pool of tropical maxima refuted candidates
    got = []
    counts = _work(lambda: got.append(trop_pseudomoment_cube_stable(NINE_POINTS)))
    assert (counts["lp"], counts["refuted"], counts["project"]) == (140, 104, 1)
    assert len(got[0].ineqs) == 44 and not got[0].eqs


@st.composite
def extensions(draw):
    """(a, e, c): at most 5 points of degree at most 4 in at most 2
    dimensions, an extension support E of them (a simplex Delta_d with
    d <= 4, or their cubical hull) and the order cone of a cube, orthant
    or S1 set."""
    n = draw(st.integers(1, 2))
    specs = [SemialgSpec.cube(n), SemialgSpec.orthant(n)] + ([S1] if n == 2 else [])
    c = order_cone(draw(st.sampled_from(specs)))
    pool = delta_simplex(n, 4).points
    a = PointConfig(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True)))
    d_min = max(sum(p) for p in a)
    if draw(st.booleans()):
        return a, delta_simplex(n, draw(st.integers(d_min, 4))), c
    return a, cubical_hull(a), c


def _extension_projection(a, e, c):
    """The rows of the pseudo-moment system on E, and a projection of them
    onto A that returns the cone and its work counts."""
    rows = constraint_rows(e, midpoint_triples(e), cover_pairs(comparable_pairs(e, c)))
    coords = [e.index(p) for p in a]

    def project(**kwargs):
        got = []
        work = _work(lambda: got.append(project_hrep(len(e), rows, coords, **kwargs)))
        return got[0], work

    return rows, project


@settings(max_examples=120)
@given(extensions())
def test_midpoint_cone_of_the_support_is_an_outer_cone(case):
    a, e, c = case
    _, project = _extension_projection(a, e, c)
    m = cone_M(a, c)
    image, plain = project()
    met, spared = project(outer=m)
    assert m.contains_cone(image)
    assert (met.ineqs, met.eqs, met.rays, met.lineality) == (
        image.ineqs, image.eqs, image.rays, image.lineality
    )
    # M(A) only spares LPs that would have certified a normal
    assert spared["refuted"] == plain["refuted"]
    assert spared["lp"] <= plain["lp"]


@settings(max_examples=120)
@given(extensions())
def test_linear_functions_are_a_head_start(case):
    a, e, c = case
    rows, project = _extension_projection(a, e, c)
    points, lines = pseudo._linear(e, c)
    assert all(dot(row, h) >= 0 for row in rows for h in points)
    assert not any(dot(row, v) for row in rows for v in lines)
    # the affine functions, which start the sums-of-squares dual, vanish on
    # every midpoint row
    none, affine = pseudo._linear(e, Cone.origin(e.n))
    midpoint = constraint_rows(e, midpoint_triples(e), ())
    assert not none and not any(dot(row, v) for row in midpoint for v in affine)
    image, plain = project()
    seeded, started = project(inner=(points, lines))
    assert (seeded.ineqs, seeded.eqs, seeded.rays, seeded.lineality) == (
        image.ineqs, image.eqs, image.rays, image.lineality
    )
    assert started["refuted"] <= plain["refuted"]


@settings(max_examples=120)
@given(extensions())
def test_tropical_maxima_leave_the_projection_as_it_is(case):
    a, e, c = case
    rows, project = _extension_projection(a, e, c)
    inner = pseudo._linear(e, c)
    pool = pseudo._maxima([e.index(p) for p in a], *inner)
    assert all(dot(row, h) >= 0 for row in rows for h in pool)
    image, plain = project(inner=inner)
    pooled, spared = project(inner=inner, pool=pool)
    assert (pooled.ineqs, pooled.eqs, pooled.rays, pooled.lineality) == (
        image.ineqs, image.eqs, image.rays, image.lineality
    )
    assert spared["lp"] <= plain["lp"]


def test_seed_one_corpus_lp_counts(tmp_path):
    # total (refuted) LPs of the seed-1 projection and scan corpora; 38
    # (14) and 19 (7) before the points of E met with one sign were
    # dropped, 68 (44) and 40 (28) before the pool of tropical maxima
    # refuted candidates, 98 (75) and 73 (61) before each projection
    # started from the linear functions of the order cone's dual, and 137
    # (75) and 93 (61) before the cold projections had M(A) as outer cone
    corpus = _corpus()
    for workload, lps in (("projection", (37, 13)), ("scan", (16, 4))):
        argvs = corpus.write(corpus.build(workload, 1), tmp_path / workload)

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in argvs:
                    assert cli.main(argv) == 0

        counts = _work(run)
        assert (counts["lp"], counts["refuted"]) == lps, workload
