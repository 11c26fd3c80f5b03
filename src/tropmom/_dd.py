"""Double description as one resumable state.

A ``DoubleDescription`` holds the extreme rays of the cone
{x : <e, x> = 0 for its equations, <a, x> >= 0 for the rows added so far},
each with its tight mask, together with the lineality basis and the
dimension of the current cone.  Rows may be added over several calls,
and a copy continues from a shared prefix without touching the original;
after any split of a sequence of rows into calls, the result is that of
inserting the whole sequence at once.

The lineality basis starts from the unit vectors and is cut by each
equation and row with ``linalg._lineality_step``, which ``kernel_basis``
runs too.  Rows enter through ``_clean_rows``: ints only (any other
number raises TypeError, never truncated), made primitive with one gcd.
Every ray is such a row, a lineality vector or built by ``primitive``, so
``result()`` reduces rays only modulo a nonempty basis; modulo none it
is canonical.
Bit k of a tight mask stands for the k-th of the cleaned rows added, and
is set when the ray is tight on that row.  A ray made from a positive and
a negative one is tight exactly where both are, so the masks are the
ray-row incidence, with no dot product spent on it.

A row with at most three nonzeros (every unit, midpoint and monotone
row) is read flat, padded with zeros, against four rays or more; against
fewer the read costs more than it saves.  Two rays can be adjacent only
if they share at least d - 2 tight rows, d the dimension of the current
cone modulo its lineality, so pairs with fewer skip the combinatorial
test (Fukuda & Prodon 1996), which first retries the ray that ruled out
the positive ray's previous pair.  Only a cut with no ray strictly on
its positive side changes d: the cone collapses to a face, whose
dimension is then computed.  With the exact adjacency test every ray
kept is extreme, so the result needs no maximality filter.
"""

from __future__ import annotations

from math import gcd
from typing import Collection, Iterable, Sequence

from .linalg import IntVec, _lineality_step, _unit, dot, primitive, rank, rref_int


def _clean_rows(rows: Iterable[Sequence[int]]) -> list[IntVec]:
    """Primitive, nonzero, deduplicated, original order; ints only."""
    out: dict[IntVec, None] = {}
    for row in rows:
        g = gcd(*row)
        if g > 1:
            out[tuple([a // g for a in row])] = None
        elif g:
            out[tuple(row)] = None
    return list(out)


def _reduce_mod(basis: Sequence[IntVec], vec: Sequence[int]) -> IntVec:
    """Canonical representative of vec modulo the span of RREF basis rows,
    whose pivots must be positive (as ``rref_int`` and ``kernel_basis``
    give them).

    Every elimination step rescales by a positive integer, so for rays the
    direction is preserved.
    """
    v = list(vec)
    for row in basis:
        p = next(j for j, a in enumerate(row) if a)
        c = v[p]
        if c:
            v = [row[p] * x - c * y for x, y in zip(v, row)]
    return primitive(v)


def _maximal(rows: Collection[IntVec], masks: Sequence[int]) -> tuple:
    """The tight sets of the rows (rows[j] is tight on vector i when bit j
    of masks[i] is set) but the full one, each with its first row, and the
    maximal ones: largest first, unless a maximal one taken contains it."""
    tight = [0] * len(rows)
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            tight[low.bit_length() - 1] |= 1 << i
            m ^= low
    full = (1 << len(masks)) - 1
    by_mask: dict[int, IntVec] = {}
    for a, mask in zip(rows, tight):
        if mask != full:
            by_mask.setdefault(mask, a)
    maximal: list[int] = []
    for m in sorted(by_mask, key=int.bit_count, reverse=True):
        if not any(m & o == m for o in maximal):
            maximal.append(m)
    return by_mask, maximal


class Described(tuple):
    """(rays, lineality basis) of a double description, carrying ``masks``,
    each ray's tight mask in the order of the rays, and ``cone_dim``."""


class DoubleDescription:
    """Resumable double description of {x : eqs . x = 0, rows . x >= 0}."""

    __slots__ = ("lin", "rays", "cone_dim", "added")

    def __init__(self, dim: int, eqs: Iterable[Sequence[int]]):
        lin: list[IntVec] = [_unit(dim, i) for i in range(dim)]
        for a in _clean_rows(eqs):
            lin, _, _ = _lineality_step(lin, a)
        self.lin = lin
        self.cone_dim = len(lin)
        self.rays: list[list] = []  # [vector, tight mask]
        self.added: dict[IntVec, None] = {}  # rows added; bit k is the k-th

    @classmethod
    def seeded(cls, dim: int, out: Described, gens: Collection) -> "DoubleDescription":
        """The state that added the facets out[0] of a full-dimensional cone,
        read off the masks of out, the double description of its generators
        gens in this order: the generators with maximal tight sets, one per
        set, are the rays, and the facets' kernel is the lineality."""
        by_mask, maximal = _maximal(gens, out.masks)
        state = cls(dim, out[0])
        state.cone_dim, state.added = dim, dict.fromkeys(out[0])
        state.rays = [[by_mask[m], m] for m in maximal]
        return state

    def copy(self) -> "DoubleDescription":
        """A state that rows can be added to without changing this one."""
        twin = DoubleDescription.__new__(DoubleDescription)
        twin.lin, twin.cone_dim, twin.added = self.lin, self.cone_dim, dict(self.added)
        twin.rays = [list(entry) for entry in self.rays]  # add mutates entries
        return twin

    def add(self, ineqs: Iterable[Sequence[int]]) -> None:
        """Insert the rows not added before, in the order given."""
        lin, rays, cone_dim = self.lin, self.rays, self.cone_dim
        for a in _clean_rows(ineqs):
            if a in self.added:
                continue
            bit = 1 << len(self.added)
            self.added[a] = None
            lin, b0, s = _lineality_step(lin, a)
            if b0 is not None:
                for entry in rays:
                    t = dot(a, entry[0])
                    if t:
                        entry[0] = primitive(
                            [s * x - t * y for x, y in zip(entry[0], b0)]
                        )
                    entry[1] |= bit
                # the pivot itself survives on the strict side of the cut;
                # as former lineality it is tight for every earlier row
                rays.append([b0, bit - 1])
                continue
            flat = len(rays) > 3 and len(a) - a.count(0) < 4
            if flat:
                nz = [(i, x) for i, x in enumerate(a) if x] + [(0, 0)] * 3
                (i0, a0), (i1, a1), (i2, a2), *_ = nz
            pos, zero, neg = [], [], []
            for entry in rays:
                v = entry[0]
                t = a0 * v[i0] + a1 * v[i1] + a2 * v[i2] if flat else dot(a, v)
                if t > 0:
                    pos.append((entry, t))
                elif t < 0:
                    neg.append((entry, t))
                else:
                    entry[1] |= bit
                    zero.append(entry)
            if not neg:
                rays = [e for e, _ in pos] + zero
                continue
            if not pos:
                rays = zero
                cone_dim = rank([e[0] for e in zero] + lin)
                continue
            need = cone_dim - len(lin) - 2
            combos = []
            for pe, tp in pos:
                last = neg[0][0]  # the ray that ruled out pe's previous pair
                for ne, tn in neg:
                    meet = pe[1] & ne[1]
                    if meet.bit_count() < need:
                        continue
                    if last is not ne and meet & last[1] == meet:
                        continue
                    for other in rays:
                        if other is not pe and other is not ne and meet & other[1] == meet:
                            last = other
                            break
                    else:
                        vec = primitive(
                            [tp * x - tn * y for x, y in zip(ne[0], pe[0])]
                        )
                        combos.append([vec, meet | bit])
            rays = [e for e, _ in pos] + zero + combos
        self.lin, self.rays, self.cone_dim = lin, rays, cone_dim

    def result(self) -> Described:
        """The rays, extreme, reduced modulo the lineality basis (in integer
        reduced row echelon form), primitive, distinct and sorted; the
        basis; the masks; the cone's dimension.  The state is unchanged."""
        lin = rref_int(self.lin)
        by_vec: dict[IntVec, int] = {}
        for vec, mask in self.rays:
            red = _reduce_mod(lin, vec) if lin else vec
            if any(red):
                by_vec.setdefault(red, mask)
        rays = sorted(by_vec)
        out = Described((rays, lin))
        out.masks = [by_vec[r] for r in rays]
        out.cone_dim = self.cone_dim
        return out
