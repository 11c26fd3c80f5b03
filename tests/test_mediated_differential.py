"""The one midpoint fixpoint against the two loops it replaced.

mediated_set used to rebuild the midpoint of every pair of surviving
points on each pass, and is_midpoint_facet searched point by point with
its own loop.  Both now call lattice.midpoint_fixpoint; on small
triangles, segments and configurations they must give the same sets and
the same verdicts as the old loops kept in tests/oracles.py.

is_midpoint_facet used to validate its triple by listing every midpoint
triple of the configuration; it now checks the one triple directly and
must accept and refuse the same triples.

midpoint_triples pairs points only within their parity class; it must
list the triples that testing every pair of points finds, in the same
order.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from tropmom.errors import PreconditionError
from tropmom.funcones import is_midpoint_facet
from tropmom.lattice import MidpointTriple, PointConfig, mediated_set, midpoint_triples
from tropmom.linalg import rank

COORD = st.integers(0, 8)
TRIANGLES = st.lists(st.tuples(COORD, COORD), min_size=3, max_size=3, unique=True)


@given(TRIANGLES)
def test_mediated_set_on_triangles(vertices):
    assume(rank([v + (1,) for v in vertices]) == 3)
    assert mediated_set(vertices) == oracles.mediated_set(vertices)


@given(st.lists(st.integers(0, 24), min_size=2, max_size=2, unique=True))
def test_mediated_set_on_segments(ends):
    vertices = [(x,) for x in ends]
    assert mediated_set(vertices) == oracles.mediated_set(vertices)


def _configurations(n):
    points = st.tuples(*[st.integers(0, 5)] * n)
    return st.lists(points, min_size=1, max_size=14, unique=True)


@given(st.integers(1, 3).flatmap(_configurations))
def test_midpoint_triples_match_all_pairs(points):
    cfg = PointConfig(points)
    assert midpoint_triples(cfg) == oracles.midpoint_triples_all_pairs(cfg)


def _same_verdicts(cfg: PointConfig) -> None:
    for t in midpoint_triples(cfg):
        assert is_midpoint_facet(cfg, t) is oracles.is_midpoint_facet(cfg, t)


@given(st.lists(st.integers(0, 16), min_size=3, max_size=10, unique=True))
def test_midpoint_facet_on_segment_configurations(xs):
    _same_verdicts(PointConfig([(x,) for x in xs]))


@given(
    st.lists(st.integers(0, 12), min_size=3, max_size=9, unique=True),
    st.tuples(st.integers(1, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_midpoint_facet_on_collinear_points_in_the_plane(ts, step, base):
    # points base + t * step on one line, with a few points off it
    line = [tuple(b + t * s for b, s in zip(base, step)) for t in ts]
    off = [p for p in ((0, 5), (5, 0), (1, 1)) if p not in line]
    _same_verdicts(PointConfig(line + off))


@given(st.lists(st.tuples(COORD, COORD), min_size=3, max_size=9, unique=True))
def test_midpoint_facet_on_plane_configurations(points):
    _same_verdicts(PointConfig(points))


def _verdict(facet_test, cfg, t):
    try:
        return facet_test(cfg, t)
    except PreconditionError:
        return "refused"


def _rounded_mid(p, q):
    return tuple((x + y) // 2 for x, y in zip(p, q))


@given(
    st.lists(st.tuples(COORD, COORD), min_size=2, max_size=6, unique=True),
    st.data(),
)
def test_midpoint_facet_refuses_the_triples_the_listing_refused(points, data):
    # the configuration holds the rounded midpoints of most pairs, so many
    # pairs make triples; the rest are near-triples: either order of the
    # ends, an odd sum, a missing or drawn middle, equal ends and points
    # outside the configuration
    mids = sorted({_rounded_mid(p, q) for p in points for q in points})
    dropped = data.draw(st.sets(st.sampled_from(mids)))
    cfg = PointConfig(dict.fromkeys(points + [m for m in mids if m not in dropped]))
    pick = st.sampled_from(points + sorted(dropped) + [(9, 9), (0, 9)])
    for _ in range(6):
        a1, a2 = data.draw(pick), data.draw(pick)
        for b in (_rounded_mid(a1, a2), data.draw(pick)):
            for t in (MidpointTriple(a1, a2, b), MidpointTriple(a2, a1, b)):
                assert _verdict(is_midpoint_facet, cfg, t) == _verdict(
                    oracles.is_midpoint_facet, cfg, t
                )
