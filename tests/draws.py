"""Cheap hypothesis strategies for vectors of small integers.

Each primitive draw costs hypothesis tens of microseconds, far more than
the small exact computations the properties run on what it draws, so a
vector drawn entry by entry spends most of an example's time in
drawing.  These strategies draw one seeded generator and read a whole
vector off it.  Its entries are uniform in their range, so hypothesis's
habit of replacing a drawn span by its simplest value (a vector of
zeros) does not flood the examples with trivial ones; in exchange,
failing examples do not shrink to small entries.
"""

from __future__ import annotations

from hypothesis import strategies as st

_RNG = st.randoms(use_true_random=True)


def ints(size: int, lo: int, hi: int) -> st.SearchStrategy:
    """Tuples of size integers in [lo, hi], from one draw."""
    return _RNG.map(lambda r: tuple([r.randint(lo, hi) for _ in range(size)]))


def vectors(least: int, most: int, size: int, lo: int, hi: int) -> st.SearchStrategy:
    """Lists of least to most tuples as ints(size, lo, hi) draws them, from
    two draws."""

    def split(count: int) -> st.SearchStrategy:
        return ints(count * size, lo, hi).map(
            lambda flat: [flat[i * size : (i + 1) * size] for i in range(count)]
        )

    return st.integers(least, most).flatmap(split)

