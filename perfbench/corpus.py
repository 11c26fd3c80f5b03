"""Problem corpora of the four workloads, generated from a seed.

Each workload is a fixed part, which carries most of its time and is the
same for every seed, and a seeded part of small problems.  Seeded supports
of the sizes the kernels find hard vary in cost by two orders of magnitude
from one seed to the next (a 10-point moment support over the cube took
0.2 s on one seed and 30 s on another), so they are kept small and the
hard instances are fixed; the README lists why each problem is in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

MOTZKIN = ((0, 0), (1, 1), (1, 2), (2, 1))
SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))
# S1 = {y >= x^2, x >= y^2} and S2 = {y^2 >= x, x >= y^3}
S1 = (((0, 1), (2, 0)), ((1, 0), (0, 2)))
S2 = (((0, 2), (1, 0)), ((1, 0), (0, 3)))
TORIC_Q = ((1, 2), (1, 3))
# the support named in CHANGES.md whose moment cone runs past 100 s
HARD11 = ((0, 0), (0, 2), (0, 5), (1, 0), (1, 2), (1, 4), (2, 0), (2, 1),
          (3, 3), (3, 4), (4, 2))

AMGM = "m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3"
SEMIGROUP_MESSAGE = (
    "error: the exponent differences do not generate the lattice points of "
    "their cone as a semigroup"
)
GUARD_MESSAGE = "error: extension support has {size} points, exceeding the limit of {limit}"

@dataclass(frozen=True)
class Problem:
    """One CLI call.  ``argv`` holds ``{file}`` where the problem file goes;
    ``doc`` is that file's content (None for ``mediated``, which takes no
    file).  ``kind`` selects the output check; ``paper`` is the answer the
    paper states, as the set of rendered binomials, when it states one."""

    name: str
    argv: tuple[str, ...]
    doc: Optional[dict]
    kind: str
    paper: Optional[frozenset] = None


def _doc(support, set_doc) -> dict:
    return {
        "ambient_dim": len(support[0]),
        "support": [list(p) for p in support],
        "set": set_doc,
    }


def _binomials(gens) -> dict:
    return {
        "kind": "binomials",
        "gens": [{"plus": list(a), "minus": list(b)} for a, b in gens],
    }


CUBE = {"kind": "cube"}
ORTHANT = {"kind": "orthant"}
TORIC = {"kind": "toric_cube", "Q": [list(r) for r in TORIC_Q]}


def _support(rng: random.Random, size: int, box, must=()) -> tuple:
    """``size`` distinct lattice points in the box, containing ``must``,
    returned in a seeded order (the CLI keeps the file's order)."""
    pts = set(must)
    while len(pts) < size:
        pts.add(tuple(rng.randint(0, b) for b in box))
    out = sorted(pts)
    rng.shuffle(out)
    return tuple(out)


def _pseudo(name, support, set_doc, degree=None, assume=False) -> Problem:
    argv = ["pseudomoment", "{file}"]
    if degree is not None:
        argv += ["--degree", str(degree)]
    if assume:
        argv.append("--assume-semigroup-generated")
    return Problem(name, tuple(argv), _doc(support, set_doc), "projection")


def projection(rng: random.Random) -> list[Problem]:
    probs = [
        # few large LPs: Delta_5 has 21 points and 200+ constraint rows
        _pseudo("motzkin-cube-d5", MOTZKIN, CUBE, degree=5),
        _pseudo("motzkin-orthant-d6", MOTZKIN, ORTHANT, degree=6),
        _pseudo("motzkin-s2-d4", MOTZKIN, _binomials(S2), degree=4),
        _pseudo("square-s1-d4", SQUARE, _binomials(S1), degree=4),
        # stabilized routes: A-hat (with and without the semigroup check)
        # and the cubical hull
        _pseudo("square-s2-stable", SQUARE, _binomials(S2)),
        _pseudo("square-s1-stable", SQUARE, _binomials(S1), assume=True),
        _pseudo("motzkin-cube-stable", MOTZKIN, CUBE),
        _pseudo("cube3-d3", ((0, 0, 0), (1, 0, 1), (0, 2, 1), (1, 1, 1)), CUBE,
                degree=3),
        # many small LPs: 6 points whose 16-point box takes 37 LPs
        _pseudo("many-lp-cube-stable",
                ((0, 0), (0, 3), (1, 2), (2, 1), (3, 0), (3, 3)), CUBE),
    ]
    # stabilized cube over the 12-point box [0,2]x[0,3]
    for i in range(2):
        sup = _support(rng, 4, (2, 3), must=((0, 0), (2, 3)))
        probs.append(_pseudo(f"seeded-cube-stable-{i}", sup, CUBE))
    return probs


def _scan(name, support, set_doc, dmax) -> Problem:
    argv = ("scan", "{file}", "--dmax", str(dmax))
    return Problem(name, argv, _doc(support, set_doc), "scan")


def scan(rng: random.Random) -> list[Problem]:
    probs = [
        _scan("motzkin-cube-scan4", MOTZKIN, CUBE, 4),
        _scan("motzkin-orthant-scan5", MOTZKIN, ORTHANT, 5),
        # stabilizes one degree above the support degree
        _scan("square-s1-scan4", SQUARE, _binomials(S1), 4),
    ]
    for i in range(2):
        sup = _support(rng, 3, (1, 1), must=((0, 0),))
        dmax = max(sum(p) for p in sup) + 1
        probs.append(_scan(f"seeded-cube-scan-{i}", sup, CUBE, dmax))
    return probs


def _moment(name, support, set_doc, paper=None) -> Problem:
    return Problem(name, ("moment", "{file}"), _doc(support, set_doc), "moment",
                   None if paper is None else frozenset(paper))


def _mediated(name, vertices) -> Problem:
    text = ";".join(",".join(map(str, v)) for v in vertices)
    return Problem(name, ("mediated", "--vertices", text), None, "mediated")


def _triangle(rng: random.Random, top: int) -> tuple:
    while True:
        v = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(3)]
        (a, b), (c, d), (e, f) = v
        if (c - a) * (f - b) - (d - b) * (e - a) != 0:
            return tuple(v)


def moment(rng: random.Random) -> list[Problem]:
    probs = [
        _moment("motzkin-orthant", MOTZKIN, ORTHANT, [AMGM]),
        _moment("motzkin-cube", MOTZKIN, CUBE,
                ["m(1,1) >= m(1,2)", "m(1,1) >= m(2,1)", AMGM]),
        _moment("motzkin-toric", MOTZKIN, TORIC,
                ["m(2,1) >= m(1,2)", "m(1,1)^2*m(1,2) >= m(2,1)^3",
                 "m(0,0)*m(2,1)^3 >= m(1,1)^4", AMGM]),
        _moment("doubled-motzkin-full", ((0, 0), (2, 4), (4, 2), (2, 2)),
                {"kind": "full_space"}, ["m(0,0)*m(2,4)*m(4,2) >= m(2,2)^3"]),
        Problem("motzkin-cube-gap", ("gap", "{file}"), _doc(MOTZKIN, CUBE),
                "gap", frozenset([AMGM])),
        # double descriptions on tens of inequalities: near the 11-point
        # support, whose moment cone runs past 100 s
        _moment("ten-point-cube", HARD11[:5] + HARD11[6:], CUBE),
        _moment("nine-point-toric", HARD11[:1] + HARD11[2:9] + HARD11[9:10], TORIC),
        # (1, 1) is no midpoint of the Motzkin simplex, which is why the
        # AM-GM facet has no sum-of-squares certificate
        _mediated("mediated-motzkin", ((0, 0), (1, 2), (2, 1))),
        _mediated("mediated-doubled-motzkin", ((0, 0), (2, 4), (4, 2))),
    ]
    probs.append(_moment("seeded-cube", _support(rng, 7, (4, 5), must=((0, 0),)), CUBE))
    probs.append(_moment("seeded-toric", _support(rng, 7, (4, 5), must=((0, 0),)), TORIC))
    probs.append(_moment("seeded-orthant", _support(rng, 9, (5, 5), must=((0, 0),)), ORTHANT))
    for i in range(2):
        probs.append(_mediated(f"seeded-mediated-{i}", _triangle(rng, 8)))
    return probs


def refusal(rng: random.Random) -> list[Problem]:
    k, e, d, g = 300, 200, 60, 12
    # seeded points inside the box or below the degree bound change the
    # input but not the size of the set the guard refuses
    box = _support(rng, 4, (k - 1, k - 1), must=((0, 0), (k, k)))
    ball = [(0, 0, 0), (d // 3, d // 3, d - 2 * (d // 3))]
    while len(ball) < 4:
        p = tuple(rng.randint(0, d // 3) for _ in range(3))
        if p not in ball:
            ball.append(p)
    binom = lambda x: _binomials((((0, 1), (x, 0)), ((1, 0), (0, x))))
    return [
        Problem("cube-box-guard", ("pseudomoment", "{file}"),
                _doc(box, CUBE), "refusal"),
        Problem("s1-like-ahat-guard",
                ("pseudomoment", "{file}", "--assume-semigroup-generated"),
                _doc(SQUARE, binom(e)), "refusal"),
        Problem("cube3-degree-guard", ("pseudomoment", "{file}", "--degree", str(d)),
                _doc(tuple(ball), CUBE), "refusal"),
        Problem("semigroup-refusal", ("pseudomoment", "{file}"),
                _doc(SQUARE, binom(g)), "refusal"),
    ]


WORKLOADS = {"projection": projection, "scan": scan, "moment": moment,
             "refusal": refusal}


def build(workload: str, seed: int) -> list[Problem]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write(problems: list[Problem], folder: Path) -> list[list[str]]:
    """Write the problem files and read them back; returns each call's argv."""
    folder.mkdir(parents=True, exist_ok=True)
    calls = []
    for p in problems:
        path = folder / f"{p.name}.json"
        if p.doc is not None:
            path.write_text(json.dumps(p.doc, indent=1) + "\n", encoding="utf-8")
            if json.loads(path.read_text(encoding="utf-8")) != p.doc:
                raise OSError(f"{path} does not read back as written")
        calls.append([str(path) if a == "{file}" else a for a in p.argv])
    return calls
