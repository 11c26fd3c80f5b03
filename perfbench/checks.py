"""Checks of the CLI's outputs, made apart from tropmom.

Projection and scan outputs are certified against the constraint system
rebuilt here from its definition: every facet by an exact Farkas
combination of the source rows, and every extreme ray and lineality
direction of the facet description by an exact point of the source cone
that maps onto it.  scipy's LP finds each certificate in floating point;
the certificate is then re-solved on the support scipy returns and
checked in ``Fraction`` arithmetic, so no float decides a verdict.

Moment outputs are checked against the paper's stated answers, against
finitely-atomic measures on the set (every valid binomial inequality
must hold on them exactly), and, where the paper states nothing, against
the library's second route (``tropical_hull_dual``).  Mediated sets are
recomputed by a fixpoint written here; refusals must carry the exit code
and the guard's message, with the size the input implies.

``check`` returns None when the output is right, or raises ``Failed``
(the call did not end as it must) or ``Wrong`` (it ended, with a wrong
answer).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import comb, prod
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from corpus import GUARD_MESSAGE, SEMIGROUP_MESSAGE, Problem
from exact import dot, rank, reduce_mod, rref, solve_near

GUARD_LIMIT = 40
_TOL = 1e-9


class Failed(Exception):
    """The call did not end with the exit code and message it must."""


class Wrong(Exception):
    """The call ended as it must, with a wrong answer."""


# -- sets, order cones and extension supports ---------------------------

def _gens(doc: dict) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(tuple(g["plus"]), tuple(g["minus"])) for g in doc["set"]["gens"]]


def _diff_matrix(doc: dict) -> list[list[int]]:
    """Columns are the exponent differences plus - minus."""
    diffs = [tuple(a - b for a, b in zip(p, m)) for p, m in _gens(doc)]
    n = doc["ambient_dim"]
    if len(diffs) != n or rank(diffs) != n:
        raise ValueError("the checks need n linearly independent generators")
    return [[d[i] for d in diffs] for i in range(n)]


def _inverse(matrix: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    n = len(matrix)
    red, _ = rref([list(row) + [int(i == j) for j in range(n)]
                   for i, row in enumerate(matrix)])
    return [row[n:] for row in red]


def order_test(doc: dict) -> Callable[[Sequence[int]], bool]:
    """Membership in the order cone C of the set: the cone generated by
    the exponent differences (nothing for the orthant, -e_i for the cube)."""
    kind = doc["set"]["kind"]
    if kind == "orthant":
        return lambda v: not any(v)
    if kind == "cube":
        return lambda v: all(x <= 0 for x in v)
    if kind == "binomials":
        inv = _inverse(_diff_matrix(doc))
        return lambda v: all(dot(row, v) >= 0 for row in inv)
    raise ValueError(f"no order cone check for set kind {kind!r}")


def delta(n: int, d: int) -> list[tuple[int, ...]]:
    return [p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d]


def box(support: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    lo = [min(c) for c in zip(*support)]
    hi = [max(c) for c in zip(*support)]
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


def a_hat(doc: dict) -> set[tuple[int, ...]]:
    """{2b - a : a, b in W} with nonnegative coordinates, where
    W = (Z^n_{>=0} minus K) plus the support and K is the intersection of
    the translates a - C.

    With V the difference matrix, x lies in a - C iff V^-1 x <= V^-1 a.
    The hypothesis -C strictly containing the orthant makes every entry of
    -V^-1 positive, which bounds each coordinate of a point outside K.
    """
    support = [tuple(p) for p in doc["support"]]
    inv = _inverse(_diff_matrix(doc))
    n = len(inv)
    if any(inv[r][i] >= 0 for r in range(n) for i in range(n)):
        raise ValueError("stabilization hypothesis fails")
    level = [[dot(row, a) for row in inv] for a in support]
    bound = max(
        lv[r] / inv[r][i] for lv in level for r in range(n) for i in range(n)
    )
    top = max(0, int(bound))
    outside = [
        x for x in itertools.product(range(top + 1), repeat=n)
        if any(dot(inv[r], x) > lv[r] for lv in level for r in range(n))
    ]
    w = set(outside) | set(support)
    hat = {tuple(2 * q - p for p, q in zip(a, b)) for a in w for b in w}
    return {p for p in hat if min(p) >= 0}


def source_rows(points: Sequence[tuple], in_c) -> list[tuple[int, ...]]:
    """Midpoint rows h(a1) + h(a2) - 2h(b) and monotone rows h(a) - h(b)
    for every a - b in C, on the extension support."""
    index = {p: i for i, p in enumerate(points)}
    m = len(points)
    rows = []
    for i, j in itertools.combinations(range(m), 2):
        s = [x + y for x, y in zip(points[i], points[j])]
        if any(x % 2 for x in s):
            continue
        b = index.get(tuple(x // 2 for x in s))
        if b is not None:
            row = [0] * m
            row[i] += 1
            row[j] += 1
            row[b] -= 2
            rows.append(tuple(row))
    for i, j in itertools.permutations(range(m), 2):
        if in_c([x - y for x, y in zip(points[i], points[j])]):
            row = [0] * m
            row[i], row[j] = 1, -1
            rows.append(tuple(row))
    return rows


class Source:
    """The pseudo-moment constraint system on an extension support E and
    the coordinates of the support A inside E."""

    def __init__(self, doc: dict, extension: Sequence[tuple]):
        self.points = sorted(set(extension))
        index = {p: i for i, p in enumerate(self.points)}
        self.coords = [index[tuple(p)] for p in doc["support"]]
        self.rows = source_rows(self.points, order_test(doc))
        self.matrix = np.array(self.rows, dtype=float).reshape(-1, len(self.points))

    def lift(self, normal: Sequence[int]) -> list[int]:
        out = [0] * len(self.points)
        for c, x in zip(self.coords, normal):
            out[c] = x
        return out

    def certify_valid(self, normal: Sequence[int]) -> bool:
        """Whether the lift of the normal is a nonnegative combination of
        the rows, shown by an exact combination."""
        lift = self.lift(normal)
        if not any(lift):
            return True
        if not self.rows:
            return False
        m = len(self.rows)
        res = linprog(np.zeros(m), A_eq=self.matrix.T, b_eq=np.array(lift, float),
                      bounds=(0, None), method="highs-ds")
        if res.status != 0:
            return False
        use = [i for i in range(m) if res.x[i] > _TOL]
        cols = [[self.rows[i][c] for i in use] for c in range(len(lift))]
        y = solve_near(cols, lift, [res.x[i] for i in use])
        if y is None or any(v < 0 for v in y):
            return False
        return all(dot(col, y) == t for col, t in zip(cols, lift))

    def point(self, eqs: Sequence[Sequence[int]], rhs: Sequence) -> bool:
        """Whether some exact h has every row . h >= 0 and eqs . h = rhs."""
        n = len(self.points)
        bounds = {"A_ub": -self.matrix, "b_ub": np.zeros(len(self.rows))} if self.rows else {}
        res = linprog(np.zeros(n), A_eq=np.array(eqs, dtype=float).reshape(-1, n),
                      b_eq=np.array(rhs, float), bounds=(None, None),
                      method="highs-ds", **bounds)
        if res.status != 0:
            return False
        tight = [r for r, s in zip(self.rows, self.matrix @ res.x) if abs(s) <= 1e-7]
        h = solve_near(tight + [list(e) for e in eqs], [0] * len(tight) + list(rhs), res.x)
        return (h is not None
                and all(dot(r, h) >= 0 for r in self.rows)
                and all(dot(e, h) == t for e, t in zip(eqs, rhs)))

    def certify_member(self, x: Sequence) -> bool:
        """Whether x is the image of a point of the source cone."""
        n = len(self.points)
        return self.point([[int(j == c) for j in range(n)] for c in self.coords], list(x))

    def refute(self, normal: Sequence[int]) -> bool:
        """Whether some exact point of the source cone has normal . h_A < 0."""
        return self.point([self.lift(normal)], [-1])

    def image_differs(self, facets, rays, lineality) -> Optional[str]:
        """Why the image of the source cone differs from the cone with
        these facets, extreme rays and lineality basis; None if it does
        not.  Facets valid on the source put the image inside; rays and
        both signs of the lineality in the image put it outside."""
        for nu in facets:
            if not self.certify_valid(nu):
                return f"facet {list(nu)} is not valid on the source system"
        for r in rays:
            if not self.certify_member(r):
                return f"ray {list(r)} is not the image of a source point"
        for l in lineality:
            if not (self.certify_member(l) and self.certify_member([-x for x in l])):
                return "a lineality direction is not in the image"
        return None


def extension(doc: dict, degree: Optional[int]) -> list[tuple]:
    if degree is not None:
        return delta(doc["ambient_dim"], degree)
    kind = doc["set"]["kind"]
    if kind == "cube":
        return box(doc["support"])
    if kind == "binomials":
        return sorted(a_hat(doc))
    raise ValueError(f"no stabilized extension support for {kind!r}")


# -- the facet description of an output cone ---------------------------

def facet_description(facets: Sequence[Sequence[int]], k: int):
    """Extreme rays (canonical modulo lineality) and an RREF lineality
    basis of {x : normal . x >= 0 for every facet}.

    Double description: the facets are inserted one at a time; two rays
    on opposite sides of the new facet combine when no third ray is tight
    on every facet both are tight on (all kept rays are extreme).
    """
    lin = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    rays: list = []  # [vector, set of facet indices it is tight on]
    for idx, a in enumerate(facets):
        vals = [dot(a, b) for b in lin]
        j = next((i for i, t in enumerate(vals) if t), None)
        if j is not None:
            b0 = lin[j] if vals[j] > 0 else [-x for x in lin[j]]
            s = abs(vals[j])
            lin = [[x - t / s * y for x, y in zip(b, b0)]
                   for i, (b, t) in enumerate(zip(lin, vals)) if i != j]
            for ray in rays:
                t = dot(a, ray[0])
                ray[0] = [x - t / s * y for x, y in zip(ray[0], b0)]
                ray[1].add(idx)
            rays.append([b0, set(range(idx))])
            continue
        signs = [dot(a, ray[0]) for ray in rays]
        pos = [(r, t) for r, t in zip(rays, signs) if t > 0]
        neg = [(r, t) for r, t in zip(rays, signs) if t < 0]
        kept = [r for r, t in zip(rays, signs) if t >= 0]
        for r, t in zip(rays, signs):
            if t == 0:
                r[1].add(idx)
        for (p, tp), (n, tn) in itertools.product(pos, neg):
            common = p[1] & n[1]
            if any(o is not p and o is not n and common <= o[1] for o in rays):
                continue
            kept.append([[tp * x - tn * y for x, y in zip(n[0], p[0])], common | {idx}])
        rays = kept
    lred, lpiv = rref(lin)
    return {reduce_mod(lred, lpiv, r) for r, _ in rays}, lred, lpiv


def render(support: Sequence[Sequence[int]], normal: Sequence[int]) -> str:
    def side(terms):
        if not terms:
            return "1"
        return "*".join("m(%s)%s" % (",".join(map(str, p)), f"^{c}" if c > 1 else "")
                        for p, c in terms)
    plus = [(p, c) for p, c in zip(support, normal) if c > 0]
    minus = [(p, -c) for p, c in zip(support, normal) if c < 0]
    return f"{side(plus)} >= {side(minus)}"


def _cone_output(doc: dict, out: dict):
    """Facets, rays and lineality dimension of a cone output, after
    checking its canonical form: facets sorted by normal, each rendered
    as its binomial, rays sorted."""
    facets = [tuple(f["normal"]) for f in out["facets"]]
    if facets != sorted(facets):
        raise Wrong("facets are not sorted by normal")
    for f in out["facets"]:
        if f["binomial"] != render(doc["support"], f["normal"]):
            raise Wrong(f"facet {f['normal']} is rendered as {f['binomial']!r}")
    rays = [tuple(r) for r in out["extreme_rays_mod_lineality"]]
    if rays != sorted(rays):
        raise Wrong("rays are not sorted")
    return facets, rays, out["lineality_dim"]


def check_cone(doc: dict, out: dict, source: Source) -> tuple:
    """The output cone equals the projection of the source cone."""
    facets, rays, lin_dim = _cone_output(doc, out)
    k = len(doc["support"])
    h_rays, lred, lpiv = facet_description(facets, k)
    if len(lred) != lin_dim:
        raise Wrong(f"lineality dimension {lin_dim}, facets give {len(lred)}")
    if {reduce_mod(lred, lpiv, r) for r in rays} != h_rays or len(rays) != len(h_rays):
        raise Wrong("rays are not the extreme rays of the facet description")
    for nu in facets:
        tight = [r for r in h_rays if dot(nu, r) == 0]
        if rank(tight + lred) != k - 1:
            raise Wrong(f"facet {list(nu)} is redundant")
    differs = source.image_differs(facets, h_rays, lred)
    if differs:
        raise Wrong(differs)
    return facets, h_rays, lred


# -- measures -------------------------------------------------------------

def _in_set(doc: dict, x: Sequence[Fraction]) -> bool:
    if doc["set"]["kind"] != "binomials":
        return True
    return all(prod(v ** e for v, e in zip(x, a)) >= prod(v ** e for v, e in zip(x, b))
               for a, b in _gens(doc))


def _atom(doc: dict, rng: random.Random) -> tuple:
    kind = doc["set"]["kind"]
    n = doc["ambient_dim"]
    frac = lambda hi: Fraction(rng.randint(1, 12 * hi), 12)
    if kind == "orthant":
        return tuple(frac(3) for _ in range(n))
    if kind == "full_space":
        return tuple(rng.choice((-1, 1)) * frac(2) for _ in range(n))
    if kind == "toric_cube":
        q = doc["set"]["Q"]
        t = [frac(1) for _ in q]
        return tuple(prod(ti ** row[j] for ti, row in zip(t, q)) for j in range(n))
    for _ in range(100000):
        x = tuple(frac(1) for _ in range(n))
        if _in_set(doc, x):
            return x
    raise ValueError("no rational atom found in the set")


def check_measures(doc: dict, normals, rng: random.Random, count: int = 4) -> None:
    """Each normal's binomial inequality holds exactly on seeded measures
    on the set: the moment cone lies inside every cone the CLI reports."""
    support = [tuple(p) for p in doc["support"]]
    if doc["set"]["kind"] == "full_space" and any(x % 2 for p in support for x in p):
        return
    for _ in range(count):
        atoms = [(_atom(doc, rng), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                 for _ in range(rng.randint(1, 3))]
        m = [sum(w * prod(x ** e for x, e in zip(at, p)) for at, w in atoms)
             for p in support]
        for nu in normals:
            lhs = prod(v ** c for v, c in zip(m, nu) if c > 0)
            rhs = prod(v ** -c for v, c in zip(m, nu) if c < 0)
            if lhs < rhs:
                raise Wrong(f"{render(support, nu)} fails on the measure {atoms}")


# -- per-command checks -----------------------------------------------------

def _degree(argv: Sequence[str]) -> Optional[int]:
    return int(argv[argv.index("--degree") + 1]) if "--degree" in argv else None


def check_projection(p: Problem, out: dict, rng: random.Random) -> None:
    source = Source(p.doc, extension(p.doc, _degree(p.argv)))
    facets, _, _ = check_cone(p.doc, out, source)
    check_measures(p.doc, facets, rng)


def check_scan(p: Problem, out: dict, rng: random.Random) -> None:
    doc = p.doc
    n = doc["ambient_dim"]
    d_min = max(sum(q) for q in doc["support"])
    d_max = int(p.argv[p.argv.index("--dmax") + 1])
    at = out["stabilized_at"]
    if not isinstance(at, int) or not d_min <= at <= d_max:
        raise Wrong(f"stabilized_at {at!r} outside [{d_min}, {d_max}]")
    facets, h_rays, lred = check_cone(doc, out, Source(doc, delta(n, d_max)))
    check_measures(doc, facets, rng)
    if at < d_max:
        stable = Source(doc, delta(n, at))
        if not all(stable.certify_valid(nu) for nu in facets):
            raise Wrong(f"the degree-{at} cone is larger than the final cone")
    if at > d_min:
        before = Source(doc, delta(n, at - 1))
        if not any(before.refute(nu) for nu in facets):
            raise Wrong(f"the degree-{at - 1} cone already equals the final cone")
    notes = []
    if doc["set"]["kind"] != "orthant":
        closed = Source(doc, extension(doc, None))
        notes.append("stabilized formula matches the scan result"
                     if closed.image_differs(facets, h_rays, lred) is None
                     else "stabilized formula does not match the scan result")
    if out["warnings"] != notes:
        raise Wrong(f"warnings {out['warnings']!r}, expected {notes!r}")


def _dual_route_facets(doc: dict) -> set:
    """Facets of the moment cone from the library's second route: the dual
    of the tropical hull of the image of the dual order cone."""
    from tropmom.cones import Cone, tropical_hull_dual

    support = [tuple(p) for p in doc["support"]]
    kind = doc["set"]["kind"]
    n = doc["ambient_dim"]
    if kind == "toric_cube":
        q = doc["set"]["Q"]
        support = [tuple(dot(row, p) for row in q) for p in support]
        n = len(q)
    image = lambda u: tuple(dot(p, u) for p in support)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "orthant":
        y = Cone.from_vrep(len(support), [], [image(u) for u in units])
    elif kind in ("cube", "toric_cube"):
        y = Cone.from_vrep(len(support), [image([-x for x in u]) for u in units])
    else:
        raise ValueError(f"no second route for set kind {kind!r}")
    dual = tropical_hull_dual(y)
    if dual.lineality:
        raise Wrong("the moment cone is not full-dimensional")
    return set(dual.rays)


def check_moment(p: Problem, out: dict, rng: random.Random) -> None:
    facets, rays, _ = _cone_output(p.doc, out)
    if any(dot(nu, r) < 0 for nu in facets for r in rays):
        raise Wrong("a ray violates a facet")
    if p.paper is not None:
        got = {f["binomial"] for f in out["facets"]}
        if got != p.paper or len(got) != len(facets):
            raise Wrong(f"facets {sorted(got)}, the paper states {sorted(p.paper)}")
    if p.doc["set"]["kind"] != "full_space" and set(facets) != _dual_route_facets(p.doc):
        raise Wrong("facets differ from the tropical_hull_dual route")
    check_measures(p.doc, facets, rng)


def check_gap(p: Problem, out: dict, rng: random.Random) -> None:
    got = [f["binomial"] for f in out["facets"]]
    if set(got) != p.paper or len(got) != len(p.paper):
        raise Wrong(f"gap {got}, the paper states {sorted(p.paper)}")
    check_measures(p.doc, [tuple(f["normal"]) for f in out["facets"]], rng)


def _glex(p):
    return (sum(p), tuple(p))


def simplex_points(vertices: Sequence[tuple]) -> list[tuple]:
    """Lattice points of the simplex, by exact barycentric coordinates."""
    n = len(vertices[0])
    matrix = [[v[i] for v in vertices] for i in range(n)] + [[1] * len(vertices)]
    inside = []
    for p in box(vertices):
        lam = solve_near(matrix, list(p) + [1], [0.0] * len(vertices))
        if lam is not None and all(x >= 0 for x in lam):
            inside.append(p)
    return inside


def mediated(vertices: Sequence[tuple]) -> set:
    """Largest set of lattice points of the simplex in which every point
    other than a vertex is the midpoint of two distinct members."""
    current = set(simplex_points(vertices))
    while True:
        mids = set()
        for s, t in itertools.combinations(current, 2):
            tot = [x + y for x, y in zip(s, t)]
            if not any(x % 2 for x in tot):
                mids.add(tuple(x // 2 for x in tot))
        keep = set(vertices) | (current & mids)
        if keep == current:
            return current
        current = keep


def check_mediated(p: Problem, out: dict) -> None:
    text = p.argv[p.argv.index("--vertices") + 1]
    verts = [tuple(int(x) for x in c.split(",")) for c in text.split(";")]
    med = mediated(verts)
    rest = set(simplex_points(verts)) - med
    if out["mediated"] != [list(q) for q in sorted(med, key=_glex)]:
        raise Wrong(f"mediated set {out['mediated']}")
    if out["discarded"] != [list(q) for q in sorted(rest, key=_glex)]:
        raise Wrong(f"discarded points {out['discarded']}")


def expected_refusal(p: Problem) -> tuple[int, str]:
    """The exit code and the first stderr line the input implies."""
    doc, argv = p.doc, p.argv
    n = doc["ambient_dim"]
    degree = _degree(argv)
    if degree is not None:
        size = comb(n + degree, n)
    elif doc["set"]["kind"] == "cube":
        size = len(box(doc["support"]))
    elif "--assume-semigroup-generated" in argv:
        size = len(a_hat(doc))
    else:
        (a, b), (c, d) = _diff_matrix(doc)
        det = abs(a * d - b * c)
        if det == 1:
            raise Wrong("the differences generate the lattice; nothing to refuse")
        # index det > 1: the differences generate a proper sublattice, so
        # some lattice points of their cone are no semigroup combination
        return 3, SEMIGROUP_MESSAGE
    if size <= GUARD_LIMIT:
        raise Wrong(f"extension support of {size} points is within the guard")
    return 4, GUARD_MESSAGE.format(size=size, limit=GUARD_LIMIT)


def check(p: Problem, rc: int, stdout: str, stderr: str, rng: random.Random) -> None:
    if p.kind == "refusal":
        code, message = expected_refusal(p)
        line = stderr.splitlines()[0] if stderr else ""
        if rc != code or not line.startswith(message):
            raise Failed(f"exit {rc} with {line!r}; expected exit {code} with {message!r}")
        if stdout:
            raise Wrong("a refusal printed a result")
        return
    if rc != 0:
        raise Failed(f"exit {rc}: {stderr.strip()[:200]!r}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Wrong(f"stdout is not JSON: {exc}") from None
    if p.kind == "mediated":
        check_mediated(p, out)
    elif p.kind == "projection":
        check_projection(p, out, rng)
    elif p.kind == "scan":
        check_scan(p, out, rng)
    elif p.kind == "moment":
        check_moment(p, out, rng)
    elif p.kind == "gap":
        check_gap(p, out, rng)
    else:
        raise ValueError(f"unknown problem kind {p.kind!r}")
