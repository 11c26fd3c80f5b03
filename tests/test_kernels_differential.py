"""The fraction-free kernels against the Fraction reference oracles.

The integer simplex must reach the same verdict and the same primitive
Farkas certificate as the dense rational tableau, and the integer
Gauss-Jordan routine must give the same canonical bases, ranks and
solutions as rational elimination.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from tropmom import _simplex
from tropmom.cones import Cone, project_hrep
from tropmom.linalg import dot, kernel_basis, rank, rref_int, solve_linear

ENTRY = st.integers(-4, 4)


@st.composite
def systems(draw, max_rows=14):
    """(rows, target) with at most 7 coordinates and max_rows rows."""
    m = draw(st.integers(1, 7))
    vec = st.tuples(*[ENTRY] * m)
    rows = draw(st.lists(vec, max_size=max_rows))
    return rows, draw(vec)


@st.composite
def matrices(draw, rational=False):
    """Row lists of at most 14 rows in at most 7 columns, often rank-deficient:
    each row is a small combination of a few base rows."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    base = draw(st.lists(st.tuples(*[ENTRY] * n), min_size=k, max_size=k))
    coef = st.tuples(*[st.integers(-2, 2)] * k)
    rows = [
        [sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)]
        for cs in draw(st.lists(coef, max_size=12))
    ]
    rows += draw(st.lists(st.tuples(*[ENTRY] * n).map(list), max_size=2))
    if rational:
        dens = st.integers(1, 4)
        rows = [[Fraction(a, draw(dens)) for a in row] for row in rows]
    return n, draw(st.permutations(rows))


@given(systems())
def test_simplex_matches_rational_tableau(system):
    rows, target = system
    ok, w = _simplex.nonneg_combination(rows, target)
    ref_ok, ref_w = oracles.nonneg_combination(rows, target)
    assert ok == ref_ok
    if ok:
        assert w is None
    else:
        assert w == oracles.integerize(ref_w)
        assert dot(w, target) < 0
        assert all(dot(w, row) >= 0 for row in rows)


@given(systems(max_rows=6))
def test_projection_matches_double_description(system):
    rows, _ = system
    dim = len(rows[0]) if rows else 1
    coords = list(range(0, dim, 2))
    assert project_hrep(dim, rows, coords) == Cone.from_hrep(dim, rows).project(coords)


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


@given(matrices(), st.lists(ENTRY, min_size=14, max_size=14))
def test_solve_linear_matches_rational_elimination(mat, rhs):
    _, rows = mat
    rhs = rhs[: len(rows)]
    got = solve_linear(rows, rhs)
    assert got == oracles.solve_linear(rows, rhs)
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)


@given(matrices(rational=True), st.lists(ENTRY, min_size=14, max_size=14))
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
