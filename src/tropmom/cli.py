"""Command-line front end.

JSON problem files in, canonical JSON (or plain-text inequality lists)
out.  A problem file names a support, a semialgebraic set, an optional
truncation degree, and options; each subcommand runs one top-level
computation.  Output field order and sorting are fixed so that identical
inputs produce byte-identical output.

Exit codes: 0 success, 2 input or schema error, 3 mathematical
precondition failure, 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from typing import Any, NamedTuple, Optional, Sequence

from .cones import Cone
from .errors import PreconditionError, ResourceLimitError, SchemaError
from .lattice import PointConfig, mediated_split
from .linalg import IntVec
from .moments import (
    SET_KINDS,
    SemialgSpec,
    render_binomial,
    semigroup_generation_check,
    trop_moment_cone,
)
from .pseudo import (
    DEFAULT_EXTENSION_LIMIT,
    normal_valid_on,
    stabilization_scan,
    stabilized_pseudomoment,
    trop_pseudomoment,
)

_quote = json.encoder.encode_basestring_ascii
_EXIT_CODES = {SchemaError: 2, PreconditionError: 3, ResourceLimitError: 4}
# mediated's default guard: a simplex of side 100 in the plane holds 5151
# lattice points, listed in about 0.1 s
MEDIATED_LIMIT = 10000


class Problem(NamedTuple):
    support: PointConfig
    spec: SemialgSpec
    degree: Optional[int]
    assume_generated: bool
    max_extension_points: int


def _bad(path: str, want: str) -> SchemaError:
    return SchemaError(f"{path}: expected {want}")


def _as_int(value: Any, path: str, positive: bool = False) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(path, "an integer")
    if positive and value < 1:
        raise _bad(path, "a positive integer")
    return value


def _as_vector(value: Any, path: str, length: int) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise _bad(path, "a list of integers")
    vec = tuple(_as_int(x, f"{path}[{i}]") for i, x in enumerate(value))
    if len(vec) != length:
        raise _bad(path, f"a vector of length {length}")
    return vec


def _check_keys(doc: Any, path: str, allowed: set, required: set) -> None:
    if not isinstance(doc, dict):
        raise _bad(path, "an object")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown field")
    for key in sorted(required):
        if key not in doc:
            raise SchemaError(f"{path}.{key}: missing field")


def _parse_set(doc: Any, n: int) -> SemialgSpec:
    if not isinstance(doc, dict):
        raise _bad("problem.set", "an object")
    kind = doc.get("kind")
    if kind not in SET_KINDS:
        raise SchemaError(
            "problem.set.kind: expected one of " + ", ".join(SET_KINDS)
        )
    extra = {"toric_cube": {"Q"}, "binomials": {"gens"}}.get(kind, set())
    _check_keys(doc, "problem.set", {"kind"} | extra, {"kind"} | extra)
    gens, q = [], None
    if kind == "toric_cube":
        q = doc["Q"]
        if not isinstance(q, list) or not q:
            raise _bad("problem.set.Q", "a non-empty list of rows")
        q = [_as_vector(r, f"problem.set.Q[{i}]", n) for i, r in enumerate(q)]
    if kind == "binomials":
        raw = doc["gens"]
        if not isinstance(raw, list) or not raw:
            raise _bad("problem.set.gens", "a non-empty list of generators")
        for i, g in enumerate(raw):
            path = f"problem.set.gens[{i}]"
            _check_keys(g, path, {"plus", "minus"}, {"plus", "minus"})
            gens.append(
                (
                    _as_vector(g["plus"], f"{path}.plus", n),
                    _as_vector(g["minus"], f"{path}.minus", n),
                )
            )
    try:
        return SemialgSpec(n, kind, tuple(gens), q)
    except ValueError as exc:
        raise SchemaError(f"problem.set: {exc}") from None


def parse_problem(doc: Any) -> Problem:
    """Validate a problem document and build the typed inputs.

    Unknown fields are rejected at every level; a typo in an exponent
    vector should fail loudly, not define a different set.
    """
    _check_keys(
        doc,
        "problem",
        {"ambient_dim", "support", "set", "degree", "options"},
        {"ambient_dim", "support", "set"},
    )
    n = _as_int(doc["ambient_dim"], "problem.ambient_dim", positive=True)
    raw = doc["support"]
    if not isinstance(raw, list) or not raw:
        raise _bad("problem.support", "a non-empty list of integer vectors")
    points = [
        _as_vector(v, f"problem.support[{i}]", n) for i, v in enumerate(raw)
    ]
    try:
        support = PointConfig(points)
    except ValueError as exc:
        raise SchemaError(f"problem.support: {exc}") from None
    spec = _parse_set(doc["set"], n)
    degree = None
    if "degree" in doc:
        degree = _as_int(doc["degree"], "problem.degree", positive=True)
    assume = False
    limit = DEFAULT_EXTENSION_LIMIT
    if "options" in doc:
        opts = doc["options"]
        _check_keys(
            opts,
            "problem.options",
            {"assume_semigroup_generated", "max_extension_points"},
            set(),
        )
        if "assume_semigroup_generated" in opts:
            if not isinstance(opts["assume_semigroup_generated"], bool):
                raise _bad(
                    "problem.options.assume_semigroup_generated", "a boolean"
                )
            assume = opts["assume_semigroup_generated"]
        if "max_extension_points" in opts:
            limit = _as_int(
                opts["max_extension_points"],
                "problem.options.max_extension_points",
                positive=True,
            )
    return Problem(support, spec, degree, assume, limit)


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from None


def reduced_rays(cone: Cone) -> list[IntVec]:
    """Extreme rays in the cone's canonical gauge: reduced modulo the
    row-reduced lineality basis (pivot coordinates zeroed), primitive and
    lex-sorted, as Cone.rays already keeps them."""
    return list(cone.rays)


def _result(
    support: PointConfig,
    normals: Sequence[IntVec],
    cone: Optional[Cone],
    notes: Sequence[str],
    stabilized_at: Optional[int] = None,
) -> dict:
    """The output document of the given facet normals and, when there is
    one, of the cone's rays."""
    return {
        "facets": [
            {"normal": list(nu), "binomial": str(render_binomial(support, nu))}
            for nu in sorted(normals)
        ],
        "extreme_rays_mod_lineality": (
            [] if cone is None else [list(r) for r in reduced_rays(cone)]
        ),
        "lineality_dim": 0 if cone is None else len(cone.lineality),
        "warnings": list(notes),
        "stabilized_at": stabilized_at,
    }


def _problem(args) -> Problem:
    """The problem file with the command's flags applied over it."""
    prob = parse_problem(_load(args.file))
    for field in ("degree", "max_extension_points"):  # checked in this order
        value = getattr(args, field, None)
        if value is not None:
            if value < 1:
                flag = field.replace("_", "-")
                raise SchemaError(f"--{flag}: expected a positive integer")
            prob = prob._replace(**{field: value})
    if getattr(args, "assume_semigroup_generated", False):
        prob = prob._replace(assume_generated=True)
    return prob


def _stabilized(prob: Problem) -> tuple[Cone, list[str]]:
    """The stabilized pseudo-moment cone, with binomial sets gated on the
    semigroup hypothesis unless the problem asserts it."""
    notes = []
    if prob.spec.kind == "binomials":
        if prob.assume_generated:
            notes.append("semigroup generation assumed, not checked")
        elif not semigroup_generation_check(prob.spec):
            raise PreconditionError(
                "the exponent differences do not generate the lattice points of "
                "their cone as a semigroup; pass --assume-semigroup-generated to "
                "proceed anyway"
            )
    cone = stabilized_pseudomoment(prob.support, prob.spec, prob.max_extension_points)
    return cone, notes


def _cmd_moment(args) -> dict:
    prob = _problem(args)
    cone = trop_moment_cone(prob.support, prob.spec)
    return _result(prob.support, cone.ineqs, cone, [])


def _cmd_pseudomoment(args) -> dict:
    prob = _problem(args)
    if prob.degree is None:
        cone, notes = _stabilized(prob)
        notes.append("stable (closed form)")
    else:
        cone = trop_pseudomoment(
            prob.support, prob.spec, prob.degree, prob.max_extension_points
        )
        notes = []
    return _result(prob.support, cone.ineqs, cone, notes)


def _cmd_gap(args) -> dict:
    prob = _problem(args)
    facets = trop_moment_cone(prob.support, prob.spec).ineqs
    if not facets:
        notes = ["moment cone has no facets; pseudo-moment side not computed"]
        return _result(prob.support, [], None, notes)
    # the semigroup gate runs only once the moment side has facets
    cone, notes = _stabilized(prob)
    bad = [nu for nu in facets if not normal_valid_on(cone, nu)]
    return _result(prob.support, bad, cone, notes)


def _cmd_scan(args) -> dict:
    prob = _problem(args)
    report = stabilization_scan(
        prob.support, prob.spec, args.dmax, prob.max_extension_points
    )
    notes = []
    if report.closed_form is not None:
        verdict = "matches" if report.matches_closed_form else "does not match"
        notes.append(f"stabilized formula {verdict} the scan result")
    stable = report.results[-1]
    return _result(prob.support, stable.ineqs, stable, notes, report.first_stable)


def _parse_vertices(text: str) -> list[tuple[int, ...]]:
    chunks = [c.strip() for c in text.split(";") if c.strip()]
    if not chunks:
        raise SchemaError('--vertices: expected points like "0,0;1,2;2,1"')
    out = []
    for c in chunks:
        try:
            out.append(tuple(int(t.strip()) for t in c.split(",")))
        except ValueError:
            raise SchemaError(f"--vertices: bad point {c!r}") from None
    if len({len(p) for p in out}) != 1:
        raise SchemaError("--vertices: points have mixed dimensions")
    if any(x < 0 for p in out for x in p):
        raise SchemaError("--vertices: coordinates must be nonnegative")
    if len(set(out)) != len(out):
        raise SchemaError("--vertices: points must be distinct")
    return out


def _cmd_mediated(args) -> dict:
    vertices = _parse_vertices(args.vertices)
    if args.max_extension_points < 1:
        raise SchemaError("--max-extension-points: expected a positive integer")
    med, discarded = mediated_split(vertices, args.max_extension_points)
    return {
        "mediated": [list(p) for p in med],
        "discarded": [list(p) for p in discarded],
    }


def _text_lines(doc: dict) -> list[str]:
    if "mediated" in doc:
        lines = [",".join(map(str, p)) for p in doc["mediated"]]
        lines += [
            "discarded: " + ",".join(map(str, p)) for p in doc["discarded"]
        ]
        return lines
    return [entry["binomial"] for entry in doc["facets"]]


def _json(value: Any, indent: str = "") -> str:
    """json.dumps(value, indent=2), nested at indent, without the pure-Python
    encoder that json.dumps takes whenever an indent is given."""
    deeper = indent + "  "
    if isinstance(value, dict):
        body, ends = [f"{_quote(k)}: {_json(v, deeper)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        body, ends = [str(v) if type(v) is int else _json(v, deeper) for v in value], "[]"
    else:
        return _quote(value) if type(value) is str else json.dumps(value)
    if not body:
        return ends
    return f"{ends[0]}\n{deeper}" + f",\n{deeper}".join(body) + f"\n{indent}{ends[1]}"


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json(doc) + "\n")
        return
    for note in doc.get("warnings", ()):
        print(f"warning: {note}", file=sys.stderr)
    for line in _text_lines(doc):
        sys.stdout.write(line + "\n")


def _format_flag(p: argparse.ArgumentParser, unit: str) -> None:
    p.add_argument(
        "--format", choices=("json", "text"), default="json",
        help=f"output as canonical JSON or one {unit} per line",
    )


def _common_flags(p: argparse.ArgumentParser, semigroup: bool = True) -> None:
    _format_flag(p, "inequality")
    if semigroup:  # scan runs no semigroup check, so it takes no flag for it
        p.add_argument(
            "--assume-semigroup-generated", action="store_true",
            help="skip the semigroup generation check for binomial sets",
        )
    p.add_argument(
        "--max-extension-points", type=int, default=None, metavar="N",
        help="resource guard on the pre-projection support size",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    leaves it unchanged, and each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="tropmom",
        description=(
            "Tropicalized moment and pseudo-moment cones of finite supports "
            "over sets cut out by pure binomial inequalities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    moment = sub.add_parser(
        "moment", help="facets of the tropicalized moment cone"
    )
    moment.add_argument("file", help="problem file (JSON)")
    _format_flag(moment, "inequality")
    moment.set_defaults(handler=_cmd_moment)

    pseudo = sub.add_parser(
        "pseudomoment",
        help="tropicalized pseudo-moment cone, truncated or stabilized",
    )
    pseudo.add_argument("file", help="problem file (JSON)")
    pseudo.add_argument(
        "--degree", type=int, default=None, metavar="D",
        help="truncation degree; omit for the stabilized cone",
    )
    _common_flags(pseudo)
    pseudo.set_defaults(handler=_cmd_pseudomoment)

    gap = sub.add_parser(
        "gap",
        help="moment facets with no sum-of-squares certificate at any degree",
    )
    gap.add_argument("file", help="problem file (JSON)")
    _common_flags(gap)
    gap.set_defaults(handler=_cmd_gap)

    mediated = sub.add_parser(
        "mediated", help="maximal mediated set of a simplex"
    )
    mediated.add_argument(
        "--vertices", required=True, metavar="PTS",
        help='affinely independent lattice points, e.g. "0,0;2,4;4,2"',
    )
    _format_flag(mediated, "point")
    mediated.add_argument(
        "--max-extension-points", type=int, default=MEDIATED_LIMIT, metavar="N",
        help="resource guard on the lattice points of the simplex",
    )
    mediated.set_defaults(handler=_cmd_mediated)

    scan = sub.add_parser(
        "scan", help="truncated cones by degree and the stabilization point"
    )
    scan.add_argument("file", help="problem file (JSON)")
    scan.add_argument(
        "--dmax", type=int, required=True, metavar="D",
        help="largest truncation degree to scan",
    )
    _common_flags(scan, semigroup=False)
    scan.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            doc = args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    if "warnings" in doc:
        doc["warnings"][:0] = [str(w.message) for w in rec]
    _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
