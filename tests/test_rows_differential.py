"""The one midpoint and monotone row builder against the loops it replaced.

The projected pseudo-moment system must list the old rows in the old
order, so that every linear program pivots as before, and so must the
midpoint cone's defining system.  The sums-of-squares dual may list its
even-midpoint rows in another order, but not another set, once the points
they meet with one sign are eliminated.  The LP
projection of the truncated system must equal the double description
projection of the same system.
"""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

import oracles
from tropmom import pseudo
from tropmom.cones import Cone
from tropmom.funcones import cone_M
from tropmom.lattice import PointConfig, delta_simplex, lattice_points
from tropmom.moments import SemialgSpec, order_cone
from tropmom.pseudo import f_s_d, sigma_dual_trop, trop_pseudomoment

S1 = SemialgSpec.binomials(2, [((0, 1), (2, 0)), ((1, 0), (0, 2))])
S2 = SemialgSpec.binomials(2, [((0, 2), (1, 0)), ((1, 0), (0, 3))])
SPECS = st.sampled_from([SemialgSpec.orthant(2), SemialgSpec.cube(2), S1, S2])

CONFIGS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8, unique=True
).map(PointConfig)


def rows_projected(run) -> list:
    """The row list a pseudo-moment routine hands to project_hrep; the
    projection itself is skipped."""
    sent = []

    def capture(dim, rows, coords, outer=None, inner=((), ()), pool=()):
        sent.append(list(rows))
        return Cone.full_space(len(coords))

    with mock.patch.object(pseudo, "project_hrep", capture):
        run()
    (rows,) = sent
    return rows


@given(CONFIGS, SPECS)
def test_midpoint_and_order_rows_match_the_old_loops(cfg, spec):
    c = order_cone(spec)
    rows = rows_projected(lambda: pseudo._projected(cfg, cfg, c))
    assert rows == oracles.projected_rows(cfg, c)
    assert list(cone_M(cfg, c).defining_ineqs) == oracles.cone_m_defining_rows(cfg, c)


@given(CONFIGS)
def test_sigma_rows_match_the_old_loop_as_a_set(cfg):
    rows = rows_projected(lambda: sigma_dual_trop(cfg, max_extension_points=25))
    e = lattice_points(cfg.points)
    coords = [e.index(p) for p in cfg]
    _, ref = oracles.one_signed_eliminated(len(e), oracles.even_midpoint_rows(e), coords)
    assert len(rows) == len(set(rows)) == len(ref)
    assert set(rows) == set(ref)


@st.composite
def truncations(draw):
    """(support, d) with d <= 3 and every support point of degree <= d."""
    d = draw(st.integers(0, 3))
    points = draw(
        st.lists(st.sampled_from(delta_simplex(2, d).points), min_size=1, max_size=8,
                 unique=True)
    )
    return PointConfig(points), d


@given(truncations(), SPECS)
def test_lp_projection_equals_dd_projection(truncation, spec):
    a, d = truncation
    full = f_s_d(spec, d)
    idx = [full.support.index(p) for p in a]
    assert trop_pseudomoment(a, spec, d).cone == oracles.project(full.cone, idx)
