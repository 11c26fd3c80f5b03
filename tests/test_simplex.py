import random

import pytest

from tropmom._simplex import nonneg_combination, valid_on_system
from tropmom.linalg import dot


def test_member_of_row_cone():
    rows = [(1, 0), (0, 1)]
    ok, cert = nonneg_combination(rows, (3, 5))
    assert ok and cert is None


def test_nonmember_yields_separating_certificate():
    rows = [(1, 0), (0, 1)]
    ok, cert = nonneg_combination(rows, (-1, 2))
    assert not ok
    assert dot(cert, (-1, 2)) < 0
    for row in rows:
        assert dot(cert, row) >= 0


def test_zero_target_always_member():
    ok, cert = nonneg_combination([(2, -3)], (0, 0))
    assert ok and cert is None


def test_no_rows():
    ok, cert = nonneg_combination([], (1, 0))
    assert not ok
    assert dot(cert, (1, 0)) < 0
    ok, _ = nonneg_combination([], (0, 0))
    assert ok


def test_scaled_rows_do_not_matter():
    rows = [(2, 4), (6, -2)]
    assert nonneg_combination(rows, (8, 2))[0]
    assert nonneg_combination(rows, (1, 1))[0]
    assert not nonneg_combination(rows, (-1, -1))[0]


def test_valid_on_system():
    rows = [(1, -2, 1), (0, 1, -1)]
    ok, cert = valid_on_system(rows, (1, -1, 0))
    assert ok and cert is None
    ok, cert = valid_on_system(rows, (-1, 0, 0))
    assert not ok
    assert dot((-1, 0, 0), cert) < 0
    for row in rows:
        assert dot(row, cert) >= 0


def test_random_against_brute_force_small():
    rng = random.Random(20240817)
    for _ in range(120):
        m = rng.randrange(1, 4)
        rows = [
            tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(m)
        ]
        target = tuple(rng.randrange(-4, 5) for _ in range(2))
        ok, cert = nonneg_combination(rows, target)
        grid = None
        found = False
        steps = [x / 2 for x in range(0, 9)]
        for combo in _combos(steps, m):
            if all(
                abs(sum(c * row[i] for c, row in zip(combo, rows)) - target[i])
                < 1e-9
                for i in range(2)
            ):
                found = True
                break
        if found:
            assert ok, (rows, target)
        if not ok:
            # certificate refutes every nonnegative combination exactly
            assert dot(cert, target) < 0
            assert all(dot(cert, row) >= 0 for row in rows)


def _combos(steps, m):
    if m == 1:
        for a in steps:
            yield (a,)
    elif m == 2:
        for a in steps:
            for b in steps:
                yield (a, b)
    else:
        for a in steps:
            for b in steps:
                for c in steps:
                    yield (a, b, c)


def test_refusals():
    with pytest.raises(ValueError) as info:
        nonneg_combination([(1,)], ())
    assert str(info.value) == "empty ambient dimension"
