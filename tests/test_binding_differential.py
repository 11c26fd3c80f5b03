"""The points of an extension support that can bind, against the whole
system.

Before a pseudo-moment projection, ``binding_rows`` drops each point of E
outside A that the midpoint and cover-pair rows meet with one sign only,
with its rows, until none is left.  The projection onto A of what remains
must equal the projection of the whole system by double description
(``oracles.projected_rows`` and ``oracles.even_midpoint_rows``): on orthant
and cube truncations, cubical hulls and S1-like binomial sets with their
Â, and on the sums-of-squares dual.  The points and rows kept must be
those left by eliminating, a column at a time, each column outside A that
the whole system's rows meet with one sign (``oracles``).  The orthant
truncation of the Motzkin support at degree 6 keeps A alone, so it runs
no LP and builds no M(A).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from draws import vectors
from test_reuse_differential import _work, built_supports
from tropmom import pseudo
from tropmom.cones import Cone
from tropmom.funcones import binding_rows, comparable_pairs, cover_pairs
from tropmom.lattice import (
    PointConfig,
    a_hat,
    cubical_hull,
    delta_simplex,
    lattice_points,
    midpoint_triples,
)
from tropmom.moments import SemialgSpec, order_cone

MOTZKIN = PointConfig([(0, 0), (1, 1), (1, 2), (2, 1)])
S1 = SemialgSpec.binomials(2, [((0, 1), (2, 0)), ((1, 0), (0, 2))])
S2 = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])
# the double description of the whole system stays quick up to this size
MOST_POINTS = 12


@st.composite
def extensions(draw):
    """(a, e, c): at most 4 points of a simplex Delta_d (d = 3 in two
    dimensions, 5 in one), often without the origin, an extension support
    E of them of at most MOST_POINTS points (a simplex, their cubical hull,
    or their Â for a binomial set), and the set's order cone."""
    n = draw(st.integers(1, 2))
    spec = draw(st.sampled_from(
        [SemialgSpec.cube(n), SemialgSpec.orthant(n)] + ([S1, S2] if n == 2 else [])
    ))
    c = order_cone(spec)
    top = 3 if n == 2 else 5
    pool = delta_simplex(n, top).points
    a = PointConfig(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)))
    d_min = max(sum(p) for p in a)
    way = draw(st.sampled_from(["simplex", "cube", "a_hat"]))
    if way == "simplex":
        e = delta_simplex(n, draw(st.integers(d_min, top + 1)))
    elif way == "cube" or spec.kind != "binomials":
        e = cubical_hull(a)
    else:
        e = a_hat(a, c)
    assume(len(e) <= MOST_POINTS)
    return a, e, c


def _check_kept(a, e, kept, rows, whole):
    """The points kept and their rows are what eliminating the columns met
    with one sign, a column at a time, leaves of the whole system."""
    live, ref = oracles.one_signed_eliminated(len(e), whole, [e.index(p) for p in a])
    assert kept.points == tuple(e.points[c] for c in live)
    assert sorted(rows) == sorted(ref)


@settings(max_examples=150)
@given(extensions())
def test_binding_points_project_as_the_whole_system(case):
    a, e, c = case
    whole = oracles.projected_rows(e, c)
    kept, rows = binding_rows(e, a, midpoint_triples(e), cover_pairs(comparable_pairs(e, c)))
    _check_kept(a, e, kept, rows, whole)
    got = pseudo._projected(a, e, c)
    image = oracles.project(Cone.from_hrep(len(e), whole), [e.index(p) for p in a])
    assert (got.ineqs, got.eqs) == (image.ineqs, image.eqs)


@settings(max_examples=60)
@given(st.integers(1, 2).flatmap(lambda n: vectors(1, 4, n, 0, 8 // n)))
def test_sums_of_squares_dual_projects_as_the_whole_system(points):
    a = PointConfig(sorted(set(points)))
    e = lattice_points(a.points)
    whole = oracles.even_midpoint_rows(e)
    even = lambda p: not any(x % 2 for x in p)
    triples = [t for t in midpoint_triples(e) if even(t.a1) and even(t.a2)]
    kept, rows = binding_rows(e, a, triples, ())
    _check_kept(a, e, kept, rows, whole)
    got, built = built_supports(lambda: pseudo.sigma_dual_trop(a))
    assert built == [("lattice_points", e)]
    image = oracles.project(Cone.from_hrep(len(e), whole), [e.index(p) for p in a])
    assert (got.ineqs, got.eqs) == (image.ineqs, image.eqs)


def test_orthant_truncation_keeping_only_the_support_runs_no_lp(monkeypatch):
    # of Delta_6's 28 points and 90 midpoint rows, the 4 points of A and
    # no row are left
    def not_built(*args):
        raise AssertionError("M(A) was built")

    monkeypatch.setattr(pseudo, "cone_M", not_built)
    got = []
    orthant = SemialgSpec.orthant(2)
    run = lambda: pseudo.trop_pseudomoment(MOTZKIN, orthant, 6)
    counts = _work(lambda: got.extend(built_supports(run)))
    assert (counts["lp"], counts["project"]) == (0, 1)
    assert got[1] == [("delta_simplex", delta_simplex(2, 6))]
    assert got[0] == Cone.full_space(4)
