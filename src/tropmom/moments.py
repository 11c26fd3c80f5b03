"""Tropicalization of truncated moment cones over binomial-defined sets.

A set specification names one of the built-in semialgebraic sets (positive
orthant, unit cube, all of R^n, a toric cube) or lists pure binomial
inequalities x^a >= x^b directly.  Its tropicalization is the cone cut out
by the exponent differences, and the dual of that cone is the order cone C
that drives the function-cone constructions: the tropicalized moment cone
of a support A equals the C-convexity cone on A.

Facet normals translate back to inequalities between moments through
exponentiation: positive coefficients become left factors, negated
negative coefficients right factors.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .cones import Cone
from .errors import PreconditionError
from .funcones import cone_K, cone_K_even
from .lattice import AlmostEmptySimplex, PointConfig
from .linalg import (
    IntVec, dot, integerize, intvec, lattice_index, primitive, rank, solve_linear
)

# in the order the command line's schema error lists them
SET_KINDS = ("orthant", "cube", "full_space", "toric_cube", "binomials")


class RegularSupportWarning(UserWarning):
    """The binomial system cuts out a lower-dimensional cone, so the
    tropicalization of the set may be strictly smaller than the cone of
    the exponent differences."""


@dataclass(frozen=True)
class SemialgSpec:
    """A semialgebraic set given by pure binomial inequalities.

    ``generators`` holds exponent pairs (a, b) meaning x^a - x^b >= 0; the
    cube, which is the system 1 >= x_i, carries the pairs (0, e_i), while
    the orthant and full space carry none.  ``q_matrix`` (rows are the d
    coordinates, columns the per-variable exponent vectors) parametrizes a
    toric cube x_j = t^{col_j} over t in [0, 1]^d.
    """

    n: int
    kind: str
    generators: tuple[tuple[IntVec, IntVec], ...] = ()
    q_matrix: Optional[tuple[IntVec, ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be positive")
        if self.kind not in SET_KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}")
        gens = tuple(
            (intvec(a), intvec(b)) for a, b in self.generators
        )
        if self.kind == "cube" and not gens:
            gens = tuple(
                ((0,) * self.n, tuple(1 if j == i else 0 for j in range(self.n)))
                for i in range(self.n)
            )
        object.__setattr__(self, "generators", gens)
        if self.kind in ("orthant", "full_space") and gens:
            raise ValueError(f"{self.kind} takes no generators")
        if self.kind == "binomials" and not gens:
            raise ValueError("binomials kind requires at least one generator pair")
        for a, b in gens:
            if len(a) != self.n or len(b) != self.n:
                raise ValueError("generator exponent of wrong length")
            if any(x < 0 for x in a + b):
                raise ValueError("generator exponents must be nonnegative")
            if a == b:
                raise ValueError("generator pair with equal exponents")
        if self.kind == "toric_cube":
            if self.q_matrix is None:
                raise ValueError("toric_cube requires an exponent matrix")
            q = tuple(intvec(row) for row in self.q_matrix)
            if not q or any(len(row) != self.n for row in q):
                raise ValueError("exponent matrix must have n columns")
            if any(x < 0 for row in q for x in row):
                raise ValueError("exponent matrix entries must be nonnegative")
            if any(all(row[j] == 0 for row in q) for j in range(self.n)):
                raise ValueError("exponent matrix has a zero column")
            object.__setattr__(self, "q_matrix", q)
        elif self.q_matrix is not None:
            raise ValueError("only toric_cube takes an exponent matrix")

    @classmethod
    def orthant(cls, n: int) -> "SemialgSpec":
        return cls(n, "orthant")

    @classmethod
    def cube(cls, n: int) -> "SemialgSpec":
        return cls(n, "cube")

    @classmethod
    def full_space(cls, n: int) -> "SemialgSpec":
        return cls(n, "full_space")

    @classmethod
    def toric_cube(cls, q: Sequence[Sequence[int]]) -> "SemialgSpec":
        q = tuple(intvec(row) for row in q)
        if not q:
            raise ValueError("exponent matrix must be nonempty")
        return cls(len(q[0]), "toric_cube", q_matrix=q)

    @classmethod
    def binomials(
        cls, n: int, gens: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> "SemialgSpec":
        return cls(n, "binomials", tuple((intvec(a), intvec(b)) for a, b in gens))

    def exponent_differences(self) -> tuple[IntVec, ...]:
        return tuple(
            tuple(x - y for x, y in zip(a, b)) for a, b in self.generators
        )


@dataclass(frozen=True)
class BinomialIneq:
    """A pure binomial inequality between moments, prod m_a^{p_a} >=
    prod m_b^{q_b}, with disjoint supports and coprime exponents."""

    plus: tuple[tuple[IntVec, int], ...]
    minus: tuple[tuple[IntVec, int], ...]

    def __post_init__(self):
        if not self.plus and not self.minus:
            raise ValueError("binomial inequality with both sides empty")
        if any(k <= 0 for _, k in self.plus + self.minus):
            raise ValueError("exponents must be positive")
        ps = {p for p, _ in self.plus}
        if len(ps) != len(self.plus) or len({p for p, _ in self.minus}) != len(self.minus):
            raise ValueError("repeated point on one side")
        if ps & {p for p, _ in self.minus}:
            raise ValueError("sides must have disjoint supports")
        if math.gcd(*(k for _, k in self.plus + self.minus)) != 1:
            raise ValueError("exponents must be coprime")

    def __str__(self) -> str:
        def side(entries):
            if not entries:
                return "1"
            return "*".join(
                "m(%s)%s" % (",".join(map(str, p)), f"^{k}" if k >= 2 else "")
                for p, k in entries
            )

        return f"{side(self.plus)} >= {side(self.minus)}"


def render_binomial(support: PointConfig, normal: Sequence[int]) -> BinomialIneq:
    """The binomial inequality of a valid inequality normal on R^A."""
    if len(normal) != len(support):
        raise ValueError("normal length does not match the support")
    v = primitive(intvec(normal))
    if not any(v):
        raise ValueError("the zero vector has no binomial form")
    plus = tuple((p, c) for p, c in zip(support.points, v) if c > 0)
    minus = tuple((p, -c) for p, c in zip(support.points, v) if c < 0)
    return BinomialIneq(plus, minus)


def trop_of_set(s: SemialgSpec) -> Cone:
    """The cone cut out by the exponent differences of the generators.

    Equals the logarithmic limit set of the positive part when that cone
    is full dimensional; otherwise a RegularSupportWarning is emitted and
    the returned cone is only an upper bound.
    """
    if s.kind == "toric_cube":
        raise PreconditionError(
            "a toric cube tropicalizes through its pullback; use order_cone"
        )
    if s.kind == "full_space":
        return Cone.full_space(s.n)
    cone = Cone.from_hrep(s.n, s.exponent_differences())
    if not cone.is_full_dimensional():
        warnings.warn(
            RegularSupportWarning(
                "exponent differences span a lower-dimensional cone; the "
                "tropicalization may be strictly smaller"
            ),
            stacklevel=2,
        )
    return cone


def order_cone(s: SemialgSpec) -> Cone:
    """The dual of the set tropicalization: the cone generated by the
    exponent differences (for a toric cube, by the negated columns of the
    exponent matrix, placed in the parameter space R^d)."""
    if s.kind == "toric_cube":
        d = len(s.q_matrix)
        return Cone.from_vrep(
            d, [tuple(-row[j] for row in s.q_matrix) for j in range(s.n)]
        )
    return Cone.from_vrep(s.n, s.exponent_differences())


def semigroup_generation_check(s: SemialgSpec) -> bool:
    """Whether the exponent differences generate the full semigroup of
    lattice points of the order cone.

    Differences of lattice index above 1 generate a proper sublattice of
    the integer points of their span, which their cone meets outside that
    sublattice, so the answer is no without enumerating anything.  If they
    are independent and of index 1, their cone is unimodular simplicial and
    the answer is yes.  Otherwise each lattice point of the cone lies in
    the cone of a rank-sized independent subset B (Caratheodory), where it
    is a lattice point of B's half-open parallelepiped
    {sum l_i b_i : 0 <= l_i < 1} plus a nonnegative integer combination of
    B.  So the answer is yes iff every such parallelepiped point is
    reachable: it is zero, or a difference taken off it leaves a reachable
    point of the cone.  A depth-first search decides it, and ends: the
    cone is pointed, so some functional is positive on it and falls at
    every step, and the points of the cone below a value are finitely many.
    Only ambient dimension <= 3 is supported, and the order cone must be
    pointed.
    """
    if s.kind == "toric_cube":
        raise PreconditionError(
            "semigroup generation is checked on the pullback of a toric cube"
        )
    n = s.n
    if n > 3:
        raise PreconditionError(
            "semigroup generation check supports ambient dimension <= 3 "
            "only; assert the hypothesis manually to skip it"
        )
    vs = [v for v in dict.fromkeys(s.exponent_differences())]
    if not vs:
        return True
    c = Cone.from_vrep(n, vs)
    if not c.is_pointed():
        raise PreconditionError(
            "semigroup generation check requires a pointed order cone"
        )
    if lattice_index(vs) > 1:
        return False
    r = rank(vs)
    if r == len(vs):
        return True
    seen: dict = {}

    def reachable(t: IntVec) -> bool:
        # depth first on an explicit stack, as a path runs as deep as t is
        # far from 0; a success marks its whole path
        if t in seen or not any(t):
            return seen.get(t, True)
        seen[t] = False
        path = [(t, iter(vs))]
        while path:
            u, rest = path[-1]
            for v in rest:
                w = tuple([x - y for x, y in zip(u, v)])
                if not any(w) or seen.get(w):
                    for x, _ in path:
                        seen[x] = True
                    return True
                if w not in seen and c.contains_point(w):
                    seen[w] = False
                    path.append((w, iter(vs)))
                    break
            else:
                path.pop()
        return False

    return all(
        reachable(z)
        for base in itertools.combinations(vs, r)
        if rank(base) == r
        for z in _parallelepiped_points(base)
    )


def _parallelepiped_points(base: Sequence[IntVec]) -> Iterator[IntVec]:
    """The lattice points of {sum l_i b_i : 0 <= l_i < 1} for independent
    integer vectors b_i, read off their coefficients l.

    On r coordinates where the b_i are independent, the square matrix B_I
    is inverted once.  Each integer point z_I there has the coefficients
    B_I^-1 z_I, taken modulo 1 for the point's class modulo the lattice of
    the b_i; these classes are the sums of B_I^-1's columns modulo 1, found
    by closing {0} under adding them, in integers over the common
    denominator d.  A class's point sum l_i b_i on all coordinates is
    yielded, as the class is found, when it is integral.
    """
    r = len(base)
    rows = list(zip(*base))  # the matrix with columns b_i
    square: list = []
    for row in rows:
        if rank(square + [row]) > len(square):
            square.append(row)
    # the columns of B_I^-1
    inverse = [solve_linear(square, [int(i == j) for i in range(r)]) for j in range(r)]
    d = math.lcm(*(x.denominator for col in inverse for x in col))
    steps = [tuple([int(x * d) % d for x in col]) for col in inverse]
    classes = {(0,) * r}
    todo = [(0,) * r]
    while todo:
        lam = todo.pop()  # d times the coefficients l
        z = [dot(row, lam) for row in rows]
        if all(x % d == 0 for x in z):
            yield tuple([x // d for x in z])
        for step in steps:
            mu = tuple([(x + y) % d for x, y in zip(lam, step)])
            if mu not in classes:
                classes.add(mu)
                todo.append(mu)


def trop_moment_cone(a: PointConfig, s: SemialgSpec) -> Cone:
    """The tropicalized moment cone of the support over the specified set.

    Measures on all of R^n only certify through even powers, so the full
    space routes through the even-simplex cone; a toric cube maps the
    support through its exponent matrix and takes the cube answer there;
    every other kind is the order-cone convexity cone on the support.
    """
    if s.kind != "toric_cube" and s.n != a.n:
        raise ValueError("set specification dimension does not match the support")
    if s.kind == "full_space":
        return cone_K_even(a)
    if s.kind == "toric_cube":
        q = s.q_matrix
        d = len(q)
        image = [tuple(dot(row, p) for row in q) for p in a.points]
        if len(set(image)) != len(image):
            raise PreconditionError(
                "exponent matrix maps two support points to the same monomial"
            )
        # the image keeps the support's order, so its cone is the answer
        return cone_K(PointConfig(image), Cone.nonpos_orthant(d))
    return cone_K(a, order_cone(s))


def binomial_facets(support: PointConfig, cone: Cone) -> tuple[BinomialIneq, ...]:
    """The facets of a function cone on the support as binomial moment
    inequalities."""
    return tuple(render_binomial(support, v) for v in cone.ineqs)


def amgm_moment_cone(t: AlmostEmptySimplex) -> BinomialIneq:
    """The binomial inequality describing the moment cone of an
    almost-empty simplex exactly: the weighted arithmetic-geometric mean
    inequality with cleared denominators."""
    *c, total = integerize(t.weights + (1,))
    plus = tuple(zip(t.vertices, c))
    minus = ((t.interior, total),)
    return BinomialIneq(plus, minus)
