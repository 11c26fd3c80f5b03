from fractions import Fraction
from math import gcd

import pytest

from tropmom.linalg import (
    barycentric_coords,
    dot,
    integerize,
    kernel_basis,
    lattice_index,
    primitive,
    rank,
    rref_int,
    solve_linear,
)


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert dot((), ()) == 0
    assert dot((Fraction(1, 2), 1), (4, Fraction(1, 3))) == Fraction(7, 3)


def test_content_and_primitive():
    assert gcd(4, -6, 8) == 2
    assert gcd(0, 0) == 0
    assert primitive((4, -6, 8)) == (2, -3, 4)
    assert primitive((0, -5, 10)) == (0, -1, 2)
    # sign is preserved, never normalized away
    assert primitive((-2, -4)) == (-1, -2)


def test_integerize():
    assert integerize((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert integerize((Fraction(-2), Fraction(4))) == (-1, 2)
    assert integerize((0, Fraction(0))) == (0, 0)


def test_rank():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([]) == 0
    assert rank([(0, 0, 0)]) == 0


def test_rref_int_pivots_and_spans():
    rows = rref_int([(2, 4, 0), (1, 2, 1)])
    assert len(rows) == 2
    assert rank(rows) == 2
    for row in rows:
        assert gcd(*row) in (0, 1)


def test_kernel_basis():
    basis = kernel_basis([(1, 1, 1)], 3)
    assert len(basis) == 2
    for v in basis:
        assert dot((1, 1, 1), v) == 0
    assert kernel_basis([], 2) == [(1, 0), (0, 1)]
    assert kernel_basis([(1, 0), (0, 1)], 2) == []


def test_solve_linear():
    sol = solve_linear([(2, 0), (0, 4)], (6, 8))
    assert sol == (3, 2)
    assert solve_linear([(1, 1), (1, 1)], (0, 1)) is None
    sol = solve_linear([(1, 1), (1, -1)], (1, 0))
    assert sol == (Fraction(1, 2), Fraction(1, 2))


def test_barycentric_coords():
    lam = barycentric_coords([(0, 0), (1, 2), (2, 1)], (1, 1))
    assert lam == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert barycentric_coords([(0, 0), (1, 0)], (0, 1)) is None
    lam = barycentric_coords([(0,), (4,)], (3,))
    assert lam == (Fraction(1, 4), Fraction(3, 4))


def test_barycentric_outside_hull_weights():
    lam = barycentric_coords([(0,), (2,)], (3,))
    assert lam is not None and sum(lam) == 1
    assert any(w < 0 for w in lam)


def test_lattice_index():
    assert lattice_index([(1, 0), (0, 1)]) == 1
    assert lattice_index([(2, 0), (0, 2)]) == 4
    assert lattice_index([(-2, 1), (1, -2)]) == 3
    # index in the integer points of the span, not in Z^n
    assert lattice_index([(2, 4, 6)]) == 2
    assert lattice_index([(2, 4, 6), (1, 2, 3)]) == 1
    assert lattice_index([(1, 1, 0), (1, -1, 0)]) == 2
    assert lattice_index([(1, 0), (1, 1), (1, 3)]) == 1
    assert lattice_index([]) == 1
    assert lattice_index([(0, 0)]) == 1
