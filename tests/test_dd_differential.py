"""Double description and minimal forms against the two-pass oracles.

The library's double description skips pairs of rays that share too few
tight constraints to be adjacent, keeps no maximality filter, can take
its rows over several calls, and a cone reads the minimal form of its
given representation off the tight masks of the computed one.  The
oracles in ``oracles.py`` do none of this: every pair goes through the
combinatorial test, the rays with maximal tight sets are kept, each
minimal form is a second double description, and the masks are dot
products.  On random cones of dimension at most 6, given by inequalities
or by generators with redundant, repeated and implicitly tight rows,
every canonical tuple must be the oracle's, byte for byte.  A state
seeded from a full-dimensional cone's generators and their incidence with
its facets must continue as a fresh state given those facets does.  The
rows every double description takes, cleaned with one gcd each, must be
the old cleaning's: primitive, nonzero, first occurrence kept.
"""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

import oracles
from tropmom import _dd, cones, linalg
from tropmom._dd import DoubleDescription
from tropmom.cones import Cone, double_description

ENTRY = st.integers(-3, 3)


@st.composite
def rows_with_ties(draw, max_rows=8):
    """(dim, rows, lin_rows) in dimension 1 to 6.

    Besides random rows, rows holds positive multiples of earlier rows,
    nonnegative combinations of them (redundant), and a row followed later
    by its negation or by minus the sum of it and another row (implicitly
    tight); lin_rows holds up to two rows, one of them possibly a
    combination of rows.
    """
    dim = draw(st.integers(1, 6))
    vec = st.tuples(*[ENTRY] * dim)
    rows = draw(st.lists(vec, min_size=1, max_size=max_rows))
    pick = st.sampled_from(rows)
    for kind in draw(st.lists(st.sampled_from("mcnt"), max_size=3)):
        a, b = draw(pick), draw(pick)
        if kind == "m":
            extra = [tuple([2 * x for x in a])]
        elif kind == "c":
            extra = [tuple([x + 2 * y for x, y in zip(a, b)])]
        elif kind == "n":
            extra = [tuple([-x for x in a])]
        else:
            extra = [b, tuple([-x - y for x, y in zip(a, b)])]
        rows.insert(draw(st.integers(0, len(rows))), extra[0])
        rows.extend(extra[1:])
    lin_rows = draw(st.lists(vec, max_size=1))
    if draw(st.booleans()):
        lin_rows.append(tuple([x - y for x, y in zip(draw(pick), draw(pick))]))
    return dim, rows, lin_rows


@st.composite
def rows_with_repeats(draw):
    """Integer rows of one length, with zero rows, repeats, positive
    multiples and negations of earlier rows."""
    dim = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["new", "zero", "again"] if rows else ["new", "zero"]))
        if kind == "new":
            rows.append(tuple(draw(st.lists(ENTRY, min_size=dim, max_size=dim))))
        elif kind == "zero":
            rows.append((0,) * dim)
        else:
            k = draw(st.sampled_from([1, 2, 5, -1, -3]))
            rows.append(tuple([k * a for a in draw(st.sampled_from(rows))]))
    return rows


@given(rows_with_repeats())
def test_clean_rows_match_oracle(rows):
    assert _dd._clean_rows(rows) == oracles.clean_rows(rows)


def forms(cone):
    return cone.ineqs, cone.eqs, cone.rays, cone.lineality


@given(rows_with_ties())
def test_dd_matches_unfiltered_oracle(system):
    dim, rows, eqs = system
    rays, lin = double_description(dim, rows, eqs)
    assert (rays, lin) == oracles.double_description(dim, rows, eqs)


@given(rows_with_ties(), st.data())
def test_rows_added_in_two_calls_match_one_shot(system, data):
    dim, rows, eqs = system
    cut = data.draw(st.integers(0, len(rows)))
    state = DoubleDescription(dim, eqs)
    state.add(rows[:cut])
    prefix = state.result()
    assert prefix == oracles.double_description(dim, rows[:cut], eqs)
    twin = state.copy()
    twin.add(rows[cut:])
    again = state.result()
    assert (again, again.masks) == (prefix, prefix.masks)
    state.add(rows[cut:])
    got = state.result()
    assert got == twin.result() == double_description(dim, rows, eqs)
    assert got == oracles.double_description(dim, rows, eqs)
    assert got.masks == oracles.tight_masks(rows, got[0])


@given(rows_with_ties())
def test_h_given_minimal_forms_match_round_trip(system):
    dim, rows, eqs = system
    cone = Cone.from_hrep(dim, rows, eqs)
    assert forms(cone) == oracles.minimal_forms(dim, rows, eqs, "h")


@given(rows_with_ties())
def test_v_given_minimal_forms_match_round_trip(system):
    dim, gens, lin = system
    cone = Cone.from_vrep(dim, gens, lin)
    assert forms(cone) == oracles.minimal_forms(dim, gens, lin, "v")


@given(rows_with_ties(), st.booleans())
def test_minimal_forms_take_one_double_description(system, h_given):
    dim, rows, lin_rows = system
    make = Cone.from_hrep if h_given else Cone.from_vrep
    with mock.patch.object(
        cones, "double_description", wraps=cones.double_description
    ) as spy:
        cone = make(dim, rows, lin_rows)
        forms(cone)
        forms(cone.dual())
    assert spy.call_count == 1


@given(rows_with_ties(max_rows=6), st.data())
def test_implicit_equality_collapses_through_rank(system, data):
    # a row followed at once by its negation: the first cuts the lineality,
    # and the second finds its new ray strictly negative and none positive
    dim, rows, _ = system
    a = data.draw(st.sampled_from(rows).filter(any))
    planted = [a, tuple([-x for x in a])] + rows
    with mock.patch.object(_dd, "rank", wraps=linalg.rank) as spy:
        got = double_description(dim, planted, ())
    assert spy.call_count >= 1
    assert got == oracles.double_description(dim, planted, ())
    cone = Cone.from_hrep(dim, planted)
    assert linalg.rank(list(cone.eqs) + [a]) == len(cone.eqs)
    assert forms(cone) == oracles.minimal_forms(dim, planted, (), "h")


def test_facet_free_and_origin_cones():
    for dim in range(4):
        cases = [
            (Cone.origin(dim), ((), (), "v")),
            (Cone.full_space(dim), ((), [cones._unit(dim, i) for i in range(dim)], "v")),
            (Cone.from_hrep(dim, ()), ((), (), "h")),
        ]
        if dim:
            # a hyperplane given by two opposite inequalities, and a line
            # given by two opposite generators
            plane = [(1,) * dim, (-1,) * dim]
            cases.append((Cone.from_hrep(dim, plane), (plane, (), "h")))
            cases.append((Cone.from_vrep(dim, plane), (plane, (), "v")))
        for cone, (rows, lin_rows, given_as) in cases:
            got = forms(cone)
            assert got == oracles.minimal_forms(dim, rows, lin_rows, given_as)
            assert got[0] == got[2] == ()


@st.composite
def full_dimensional_generators(draw):
    """(dim, gens, lines, more) in dimension 1 to 5: gens and lines span the
    space, and gens holds repeated members, redundant ones and members of
    the lineality (a line, or a generator's negative); more holds the rows
    added after the seed."""
    dim = draw(st.integers(1, 5))
    vec = st.tuples(*[ENTRY] * dim)
    lines = draw(st.lists(vec, max_size=2))
    gens = draw(st.lists(vec, min_size=1, max_size=6))
    for i in range(dim):
        if linalg.rank(gens + lines) == dim:
            break
        gens.append(cones._unit(dim, i))
    pick = st.sampled_from(gens)
    for kind in draw(st.lists(st.sampled_from("rcl"), max_size=4)):
        if kind == "r":
            extra = draw(pick)
        elif kind == "c":
            extra = tuple([x + 2 * y for x, y in zip(draw(pick), draw(pick))])
        else:
            line = draw(st.sampled_from(lines or [draw(pick)]))
            extra = tuple([draw(st.sampled_from((-1, 1))) * x for x in line])
        gens.insert(draw(st.integers(0, len(gens))), extra)
    return dim, gens, lines, draw(st.lists(vec, max_size=5))


@given(full_dimensional_generators())
def test_seeded_state_continues_as_the_facets_would(case):
    dim, gens, lines, more = case
    dual = DoubleDescription(dim, lines)
    dual.add(gens)
    out = dual.result()
    assert not out[1]
    seeded = DoubleDescription.seeded(dim, out, dual.added)
    fresh = DoubleDescription(dim, ())
    fresh.add(out[0])
    for rows in ((), more):
        seeded.add(rows)
        fresh.add(rows)
        got, want = seeded.result(), fresh.result()
        assert (got, got.masks, got.cone_dim) == (want, want.masks, want.cone_dim)
    assert got == oracles.double_description(dim, list(out[0]) + more, ())
