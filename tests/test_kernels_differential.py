"""The fraction-free kernels and the sized supports against reference oracles.

The integer simplex must reach the same verdict and the same primitive
Farkas certificate as the dense rational tableau, also when every pivot
follows Bland's rule, and the integer Gauss-Jordan routine must give the
same canonical bases, ranks and solutions as rational elimination.  Â read off parity vectors must equal Â built by filtering boxes
and by completing W pair by pair, the lattice points of a hull listed
column by column must equal those found by filtering its bounding box,
the semigroup check by lattice index and parallelepipeds must agree with
brute force, the regularity gate must return the cone of the exponent
differences when it is full-dimensional and refuse the set otherwise, and
each builder of a support must list it under a limit of its own size and
refuse it, naming that size, under one point less.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from draws import ints, vectors
from tropmom import _simplex, lattice
from tropmom.cones import Cone, project_hrep
from tropmom.errors import PreconditionError, ResourceLimitError
from tropmom.lattice import PointConfig, a_hat, cubical_hull, delta_simplex, lattice_points
from tropmom.linalg import _det, dot, kernel_basis, rank, rref_int, solve_linear
from tropmom.moments import (
    SemialgSpec, order_cone, semigroup_generation_check, trop_moment_cone, trop_of_set
)

ENTRY = st.integers(-4, 4)


@st.composite
def systems(draw, max_rows=14):
    """(rows, target) with at most 7 coordinates and max_rows rows."""
    m = draw(st.integers(1, 7))
    return draw(vectors(0, max_rows, m, -4, 4)), draw(st.tuples(*[ENTRY] * m))


@st.composite
def matrices(draw, rational=False):
    """Row lists of at most 14 rows in at most 7 columns, often rank-deficient:
    each row is a small combination of a few base rows."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    base = draw(vectors(k, k, n, -4, 4))
    rows = [
        [sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)]
        for cs in draw(vectors(0, 12, k, -2, 2))
    ]
    rows += [list(row) for row in draw(vectors(0, 2, n, -4, 4))]
    if rational:
        dens = iter(draw(ints(n * len(rows), 1, 4)))
        rows = [[Fraction(a, next(dens)) for a in row] for row in rows]
    draw(st.randoms(use_true_random=True)).shuffle(rows)
    return n, rows


@st.composite
def projection_systems(draw):
    """(rows, target) shaped like the systems project_hrep certifies on:
    midpoint rows h(a1) + h(a2) - 2h(b) and monotone rows h(p) - h(q) in
    at most 12 coordinates, and a target that vanishes on some of them, so
    that phase one starts degenerate."""
    m = draw(st.integers(3, 12))

    def row(weights):
        return tuple(weights.get(i, 0) for i in range(m))

    rng = draw(st.randoms(use_true_random=True))
    rows = []
    for _ in range(draw(st.integers(0, 3 * m))):
        t = rng.sample(range(m), 3)
        monotone = rng.random() < 0.5
        rows.append(row({t[0]: 1, t[1]: -1} if monotone else {t[0]: 1, t[1]: 1, t[2]: -2}))
    zero = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1))
    target = tuple(0 if i in zero else draw(ENTRY) for i in range(m))
    return rows, target


@given(systems())
def test_simplex_matches_rational_tableau(system):
    _check_simplex(*system)


@given(projection_systems())
def test_simplex_matches_rational_tableau_on_projection_rows(system):
    _check_simplex(*system)


def _check_simplex(rows, target):
    ok, w = _simplex.nonneg_combination(rows, target)
    ref_ok, ref_w = oracles.nonneg_combination(rows, target)
    assert ok == ref_ok
    if ok:
        assert w is None
    else:
        assert w == oracles.integerize(ref_w)
        assert dot(w, target) < 0
        assert all(dot(w, row) >= 0 for row in rows)


@settings(max_examples=100)
@given(st.one_of(systems(), projection_systems()))
def test_simplex_matches_rational_tableau_under_blands_rule(system):
    # with no Dantzig budget, every pivot is chosen by Bland's rule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_simplex, "_BLAND_AFTER", 0)
        mp.setattr(oracles, "_BLAND_AFTER", 0)
        _check_simplex(*system)


# a system whose certificate depends on the pivot rule: Bland's rule from
# the first pivot gives (-1, 2, 1, 1), Dantzig's rule (0, 1, 1, 1), and
# taking the last negative cost in place of the first (10, 7, 2, 2)
PIVOT_RULE_ROWS = [(-1, 2, 0, -2), (0, 1, -2, 2), (2, 2, -1, -1), (-2, 2, 2, 1)]
PIVOT_RULE_TARGET = (0, 0, -2, -2)


@pytest.mark.parametrize(
    "bland_after, certificate",
    [(0, (-1, 2, 1, 1)), (_simplex._BLAND_AFTER, (0, 1, 1, 1))],
    ids=["bland", "dantzig"],
)
def test_pivot_rule_decides_the_certificate(bland_after, certificate):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_simplex, "_BLAND_AFTER", bland_after)
        mp.setattr(oracles, "_BLAND_AFTER", bland_after)
        ok, w = _simplex.nonneg_combination(PIVOT_RULE_ROWS, PIVOT_RULE_TARGET)
        _, ref_w = oracles.nonneg_combination(PIVOT_RULE_ROWS, PIVOT_RULE_TARGET)
    assert not ok
    assert w == oracles.integerize(ref_w) == certificate


# one system per branch of the integer simplex's pivot, each refuted; a
# fault planted in the named branch changes its certificate
BRANCH_CASES = {
    # pivots 2 and 10 that do not divide the row's entry: the dense update
    "pivot-not-dividing": ([(2, -2, 2), (1, 2, 3)], (3, 0, 1)),
    # pivots 2 and 3 that divide the row's entries -2 and 3: the update on
    # prow's support
    "pivot-dividing": ([(3, 1, -3), (1, 1, -3)], (2, -1, -3)),
    # the objective and den share the factor 3, which divides the costs too
    "cost-rescale": ([(-3, 0), (-1, -1)], (-1, -3)),
    # a row of 4 nonzeros enters: its fourth entry is read from `more`
    "four-nonzeros": ([(-2, 1, -2, -3)], (-2, 3, 2, -2)),
}


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_simplex_branches_match_rational_tableau(case):
    _check_simplex(*BRANCH_CASES[case])


def test_simplex_branches_match_rational_tableau_under_blands_rule():
    # every pivot by Bland's rule, over both row updates and a rescale by 6;
    # Dantzig's rule gives the certificate (-1, 4, 1) instead
    rows, target = [(-2, -1, 2), (3, 0, 3)], (0, -1, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_simplex, "_BLAND_AFTER", 0)
        mp.setattr(oracles, "_BLAND_AFTER", 0)
        _check_simplex(rows, target)
        assert _simplex.nonneg_combination(rows, target) == (False, (-1, 1, 1))


@given(systems(max_rows=6))
def test_projection_matches_double_description(system):
    rows, _ = system
    dim = len(rows[0]) if rows else 1
    coords = list(range(0, dim, 2))
    want = oracles.project(Cone.from_hrep(dim, rows), coords)
    assert project_hrep(dim, rows, coords) == want


@given(matrices())
def test_rref_rank_kernel_match_rational_elimination(mat):
    n, rows = mat
    assert rref_int(rows) == oracles.rref_int(rows)
    assert rank(rows) == oracles.rank(rows)
    assert kernel_basis(rows, n) == oracles.kernel_basis(rows, n)


@given(matrices(rational=True))
def test_rational_input_is_scaled_to_integers(mat):
    n, rows = mat
    assert rank(rows) == oracles.rank(rows)
    assert rref_int(rows) == oracles.rref_int(rows)


@given(matrices(), ints(14, -4, 4))
def test_solve_linear_matches_rational_elimination(mat, rhs):
    _, rows = mat
    rhs = rhs[: len(rows)]
    got = solve_linear(rows, rhs)
    assert got == oracles.solve_linear(rows, rhs)
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)


@given(matrices(rational=True), ints(14, -4, 4))
def test_solve_linear_rational_input(mat, rhs):
    _, rows = mat
    rhs = [Fraction(b, 3) for b in rhs[: len(rows)]]
    assert solve_linear(rows, rhs) == oracles.solve_linear(rows, rhs)


@pytest.mark.parametrize(
    "bad",
    [
        (0, 0, 0),  # zero: does not violate the normal
        (-1, 0, 0),  # satisfies the normal
        (1, 1, 0),  # violates the normal but also the first row
    ],
)
def test_valid_on_system_rejects_a_bad_certificate(monkeypatch, bad):
    rows = [(1, -2, 1), (0, 1, -1)]
    monkeypatch.setattr(_simplex, "nonneg_combination", lambda r, t: (False, bad))
    with pytest.raises(ArithmeticError, match="certificate"):
        _simplex.valid_on_system(rows, (-1, 0, 0))


def _interior(n, us, ks):
    """Whether the basis vectors lie in the interior of the negated cone of
    the differences u - k_i e_i, u = us[n i : n i + n]: whether the matrix
    m with those negated differences as columns has an inverse with positive
    entries (the rows of -m^-1 are the facet normals), read off the signs
    of its cofactors and determinant."""
    m = [[ks[i] if i == j else -us[n * j + i] for j in range(n)] for i in range(n)]
    det = _det(m)
    minor = lambda i, j: [r[:j] + r[j + 1 :] for k, r in enumerate(m) if k != i]
    return all(
        (-1) ** (i + j) * _det(minor(i, j)) * det > 0 for i in range(n) for j in range(n)
    )


@st.composite
def stabilized_systems(draw, n, k_max, u_max, corner):
    """(support, order cone) in n coordinates: binomials x^u >= x_i^k, one
    per coordinate i, with k <= k_max, u_i = 0 and u_j <= u_max, such that
    the negated order cone has the basis vectors in its interior.  The
    support lies in [0, corner]^n.  Most exponents fail that hypothesis, so
    up to 16 tries come from one drawn generator and the first that holds
    is taken."""
    rng = draw(st.randoms(use_true_random=True))
    for _ in range(16):
        us = [rng.randint(0, u_max) for _ in range(n * n)]
        ks = [rng.randint(1, k_max) for _ in range(n)]
        if _interior(n, us, ks):
            break
    else:
        assume(False)
    gens = []
    for i in range(n):
        u = [0 if j == i else us[n * i + j] for j in range(n)]
        gens.append((u, [ks[i] if j == i else 0 for j in range(n)]))
    c = order_cone(SemialgSpec.binomials(n, gens))
    assert c.is_pointed() and all(a < 0 for row in c.ineqs for a in row)
    pts = st.tuples(*[st.integers(0, corner)] * n)
    support = draw(st.lists(pts, min_size=1, max_size=4, unique=True))
    return PointConfig(support), c


def check_guard_boundary(build, built):
    """build(max_points=...) lists built under a limit of its size and
    refuses it, naming the size, under one point less."""
    assert build(max_points=len(built)) == built
    with pytest.raises(ResourceLimitError, match=f" has {len(built)} points"):
        build(max_points=len(built) - 1)


def _check_a_hat(support, c):
    built = a_hat(support, c)
    assert built == oracles.a_hat_pairwise(support, c)
    check_guard_boundary(partial(a_hat, support, c), built)
    return built


# 3-D extension supports run to thousands of points, which the oracles
# complete pairwise in seconds, so these draws are smaller
SYSTEMS = {2: stabilized_systems(2, 8, 8, 3), 3: stabilized_systems(3, 4, 2, 2)}
SMALL = settings(max_examples=40)


@given(SYSTEMS[2])
def test_a_hat_matches_box_filter_2d(system):
    assert _check_a_hat(*system) == oracles.a_hat(*system)


@SMALL
@given(SYSTEMS[3])
def test_a_hat_matches_box_filter_3d(system):
    assert _check_a_hat(*system) == oracles.a_hat(*system)


def _with_point_above(system, step):
    # a support point above all the others minimizes every facet functional
    # of the (negative) normals, so it lies in K, outside D
    support, c = system
    top = tuple(max(p[i] for p in support) + s for i, s in enumerate(step))
    return PointConfig(dict.fromkeys(support.points + (top,))), c


@given(SYSTEMS[2], st.tuples(*[st.integers(0, 3)] * 2))
def test_a_hat_with_a_support_point_outside_the_down_set_2d(system, step):
    _check_a_hat(*_with_point_above(system, step))


@SMALL
@given(SYSTEMS[3], st.tuples(*[st.integers(0, 1)] * 3))
def test_a_hat_with_a_support_point_outside_the_down_set_3d(system, step):
    _check_a_hat(*_with_point_above(system, step))


@pytest.mark.parametrize("n", [2, 3])
@SMALL
@given(data=st.data())
def test_a_hat_of_the_origin_is_the_origin(n, data):
    # A = {0} gives K = Z^n_{>=0}, so D is empty and Â = {0}
    _, c = data.draw(SYSTEMS[n])
    origin = PointConfig([(0,) * n])
    assert len(_check_a_hat(origin, c)) == 1


@st.composite
def binomial_systems(draw, n, top):
    """Binomial systems in n variables, exponents up to top."""
    pairs = [(v[:n], v[n:]) for v in draw(vectors(1, n + 1, 2 * n, 0, top))]
    pairs = [(a, b) for a, b in pairs if a != b]
    assume(pairs)
    return SemialgSpec.binomials(n, pairs)


@st.composite
def pointed_binomials(draw, n, top):
    """Binomial systems in n variables, exponents up to top, with a pointed
    order cone."""
    spec = draw(binomial_systems(n, top))
    assume(order_cone(spec).is_pointed())
    return spec


EMPTY_INTERIOR = (
    "the exponent differences cut out a lower-dimensional cone: the set has "
    "empty interior"
)


@pytest.mark.parametrize("n, top", [(2, 4), (3, 2)])
@SMALL
@given(data=st.data())
def test_regularity_gate_matches_the_cone_of_the_differences(n, top, data):
    """trop_of_set returns the cone the exponent differences cut out when
    it is full-dimensional; otherwise it, the moment cone and the
    semigroup check refuse the set, with the one message.  Few draws have
    opposite differences, so half of them get their first pair reversed."""
    spec = data.draw(binomial_systems(n, top))
    if data.draw(st.booleans()):
        a, b = spec.generators[0]
        spec = SemialgSpec.binomials(n, spec.generators + ((b, a),))
    want = Cone.from_hrep(n, spec.exponent_differences())
    if want.is_full_dimensional():
        assert trop_of_set(spec) == want
        return
    for call in (trop_of_set, semigroup_generation_check,
                 partial(trop_moment_cone, delta_simplex(n, 1))):
        with pytest.raises(PreconditionError) as refused:
            call(spec)
        assert str(refused.value) == EMPTY_INTERIOR


@given(pointed_binomials(2, 4))
def test_semigroup_check_matches_brute_force(spec):
    assert semigroup_generation_check(spec) == oracles.semigroup_generation_check(spec)


@SMALL
@given(pointed_binomials(3, 2))
def test_semigroup_check_matches_brute_force_3d(spec):
    assert semigroup_generation_check(spec) == oracles.semigroup_generation_check(spec)


@st.composite
def dependent_binomials(draw, n, top):
    """Binomial systems in n variables with a pointed order cone and more
    distinct differences than variables, entries up to top, so that every
    draw of lattice index 1 passes both shortcuts and reaches the
    parallelepipeds."""
    vec = st.tuples(*[st.integers(-top, top)] * n).filter(any)
    vs = draw(st.lists(vec, min_size=n + 1, max_size=n + 2, unique=True))
    gens = [(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v)) for v in vs]
    spec = SemialgSpec.binomials(n, gens)
    assume(order_cone(spec).is_pointed())
    return spec


@settings(max_examples=100)
@given(dependent_binomials(2, 3))
def test_semigroup_check_matches_brute_force_on_dependent_differences(spec):
    assert semigroup_generation_check(spec) == oracles.semigroup_generation_check(spec)


@settings(max_examples=60)
@given(dependent_binomials(3, 2))
def test_semigroup_check_matches_brute_force_on_dependent_differences_3d(spec):
    assert semigroup_generation_check(spec) == oracles.semigroup_generation_check(spec)


@st.composite
def hull_vertices(draw):
    """Vertex lists in at most 3 coordinates, often collinear or coplanar:
    nonnegative combinations of k <= n direction vectors, shifted into the
    nonnegative orthant."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    dirs = draw(vectors(k, k, n, -2, 2))
    pts = [
        tuple(sum(c * d[i] for c, d in zip(cs, dirs)) for i in range(n))
        for cs in draw(vectors(1, 5, k, 0, 2))
    ]
    lo = [min(p[i] for p in pts) for i in range(n)]
    return [tuple(x - m for x, m in zip(p, lo)) for p in pts]


@given(hull_vertices())
def test_lattice_points_match_box_filter(vertices):
    listed = lattice_points(vertices)
    assert listed == oracles.lattice_points(vertices)
    check_guard_boundary(partial(lattice_points, vertices), listed)


@given(vectors(1, 4, 3, 0, 5))
def test_cubical_hull_size_is_its_length(points):
    cfg = PointConfig(dict.fromkeys(points))
    check_guard_boundary(partial(cubical_hull, cfg), cubical_hull(cfg))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [0, 1, 2, 5, 7])
def test_delta_simplex_size_is_its_length(n, d):
    check_guard_boundary(partial(delta_simplex, n, d), delta_simplex(n, d))


def test_a_hat_refuses_before_listing_columns(monkeypatch):
    """An extension support that closes up only beyond 2^20 is refused from
    the axis columns alone, one per coordinate.  Over the unit square the
    system y >= x^k, x >= y^k leaves K on the axes up to k, so k = 2^20 is
    the first exponent refused."""
    top = lattice._column_top
    calls = []

    def axis_only(*args):
        calls.append(args)
        assert len(calls) <= 2, "a column was listed"
        return top(*args)

    monkeypatch.setattr(lattice, "_column_top", axis_only)
    k = 1 << 20
    spec = SemialgSpec.binomials(2, [((0, 1), (k, 0)), ((1, 0), (0, k))])
    square = PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(PreconditionError, match="does not close up"):
        a_hat(square, order_cone(spec))
    assert [top(*args) for args in calls] == [k + 1, k + 1]


def test_a_hat_closes_up_by_its_axis_tops_alone(monkeypatch):
    """The close-up bound reads the axis tops, not the support's largest
    coordinate: here they are 300 001 and 900 000, both within 2^20, so the
    columns are listed (the third call of _column_top)."""
    top = lattice._column_top
    calls = []

    class Listed(Exception):
        pass

    def third_lists(*args):
        calls.append(top(*args))
        if len(calls) == 3:
            raise Listed
        return calls[-1]

    monkeypatch.setattr(lattice, "_column_top", third_lists)
    k = 300000
    spec = SemialgSpec.binomials(2, [((0, 1), (k, 0)), ((1, 0), (0, k))])
    support = PointConfig([(0, 0), (3, 0), (0, 1), (1, 1)])
    with pytest.raises(Listed):
        a_hat(support, order_cone(spec), max_points=0)
    assert calls[:2] == [k + 1, 3 * k]


@pytest.mark.parametrize(
    "support, expected",
    [([(0,), (3,)], range(7)), ([(1,), (5,)], range(11)), ([(0,)], range(1))],
)
def test_a_hat_in_one_variable(support, expected):
    # 1 >= x^2: the order cone is the nonpositive half-line and D = [0, max A)
    c = order_cone(SemialgSpec.binomials(1, [((0,), (2,))]))
    cfg = PointConfig(support)
    built = a_hat(cfg, c)
    assert built.points == tuple((t,) for t in expected)
    assert built == oracles.a_hat(cfg, c)
    check_guard_boundary(partial(a_hat, cfg, c), built)


def test_a_hat_size_reads_columns_in_one_pass(monkeypatch):
    """Over the unit square, y >= x^k, x >= y^k gives |Â| = 4k + 5, which a
    limit of 4k + 4 refuses, and the column tops are read in one pass per
    normal: _column_top is called as often for k = 50 000 as for k = 200."""
    top = lattice._column_top
    calls = []

    def counted(*args):
        calls.append(args)
        return top(*args)

    monkeypatch.setattr(lattice, "_column_top", counted)
    square = PointConfig([(0, 0), (1, 0), (0, 1), (1, 1)])
    counts = []
    for k in (200, 50000):
        spec = SemialgSpec.binomials(2, [((0, 1), (k, 0)), ((1, 0), (0, k))])
        calls.clear()
        with pytest.raises(ResourceLimitError, match=f" has {4 * k + 5} points"):
            a_hat(square, order_cone(spec), max_points=4 * k + 4)
        counts.append(len(calls))
    assert counts[0] == counts[1]
