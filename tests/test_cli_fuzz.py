"""Fuzzed problem documents against every subcommand of the command line.

Each draw is a problem document that is valid, malformed (text that is no
JSON, a field missing, unknown or of the wrong type, a vector of the wrong
length) or out of range (a negative coordinate, a large coordinate,
dimension or degree, a guard of one point), together with the flags of
each subcommand and a vertex list for ``mediated``.  Every subcommand
must exit 0, 2, 3 or 4 within TIME_BOUND_S, raise nothing, and give the
same exit code, stdout and stderr byte for byte when run again.

The suite runs a small derandomized count; ``TROPMOM_FUZZ_EXAMPLES=1000``
in the environment runs that many instead.
"""

import contextlib
import io
import json
import os
import signal
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from draws import vectors
from tropmom import cli
from tropmom.moments import SET_KINDS

TIME_BOUND_S = 30
EXAMPLES = int(os.environ.get("TROPMOM_FUZZ_EXAMPLES", "40"))
# a value of a wrong type for any field
JUNK = st.sampled_from([True, 1.5, "x", [], {}, [[1]], -1, 0])


@st.composite
def valid_documents(draw):
    """Problem documents the parser accepts, mostly: at most 5 points with
    coordinates at most 4 in one or two dimensions, at most 2 in three."""
    n = draw(st.integers(1, 3))
    points = list(dict.fromkeys(draw(vectors(1, 5, n, 0, 4 if n < 3 else 2))))
    kind = draw(st.sampled_from(SET_KINDS))
    spec = {"kind": kind}
    if kind == "binomials":
        gens = draw(vectors(1, 3, 2 * n, 0, 3))
        spec["gens"] = [{"plus": list(g[:n]), "minus": list(g[n:])} for g in gens]
    elif kind == "toric_cube":
        spec["Q"] = [list(row) for row in draw(vectors(1, 2, n, 1, 3))]
    doc = {"ambient_dim": n, "support": [list(p) for p in points], "set": spec}
    if draw(st.booleans()):
        doc["degree"] = draw(st.integers(1, 6))
    if draw(st.booleans()):
        doc["options"] = {
            "assume_semigroup_generated": draw(st.booleans()),
            "max_extension_points": draw(st.integers(1, 40)),
        }
    return doc


def _paths(value, path=()):
    """Every key path into a nested document, the root first."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _replaced(doc, path, new=None):
    """A copy of doc with the value at path set to new, or deleted when
    new is None."""
    doc = json.loads(json.dumps(doc))
    parent = _get(doc, path[:-1])
    if new is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@st.composite
def malformed_texts(draw):
    """A valid document with one field or entry deleted or replaced by a
    value of a wrong type, an unknown field, a vector one entry longer, or
    its text cut short."""
    doc = draw(valid_documents())
    text = json.dumps(doc)
    how = draw(st.sampled_from(["delete", "junk", "unknown", "longer", "cut"]))
    if how == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    paths = list(_paths(doc))
    if how == "unknown":
        objects = [p for p in paths if isinstance(_get(doc, p), dict)]
        return json.dumps(_replaced(doc, draw(st.sampled_from(objects)) + ("extra",), 1))
    if how == "longer":
        vecs = [p for p in paths if isinstance(_get(doc, p), list)
                and all(type(x) is int for x in _get(doc, p))]
        path = draw(st.sampled_from(vecs))
        return json.dumps(_replaced(doc, path, _get(doc, path) + [0]))
    path = draw(st.sampled_from(paths[1:]))
    return json.dumps(_replaced(doc, path, draw(JUNK) if how == "junk" else None))


@st.composite
def out_of_range_texts(draw):
    """A valid document with a negative or large coordinate, a large
    dimension or degree, or an extension guard of one point."""
    doc = draw(valid_documents())
    how = draw(st.sampled_from(["negative", "large", "dimension", "degree", "guard"]))
    if how in ("negative", "large"):
        i = draw(st.integers(0, len(doc["support"]) - 1))
        j = draw(st.integers(0, doc["ambient_dim"] - 1))
        doc["support"][i][j] = -1 if how == "negative" else draw(st.integers(20, 40))
    elif how == "dimension":
        n = draw(st.integers(4, 7))
        doc = {"ambient_dim": n, "support": [list(p) for p in draw(vectors(1, 3, n, 0, 2))],
               "set": draw(st.sampled_from([{"kind": "cube"}, {"kind": "orthant"},
                                            {"kind": "full_space"}]))}
    elif how == "degree":
        doc["degree"] = draw(st.sampled_from([0, 41, 10**6]))
    else:
        doc["options"] = {"max_extension_points": 1}
    return json.dumps(doc)


# valid documents take half the draws
VALID = valid_documents().map(json.dumps)
TEXTS = st.one_of(VALID, VALID, malformed_texts(), out_of_range_texts())
# vertex lists for mediated: points of up to 3 coordinates, some dependent,
# repeated or negative, and text that is no list of points
VERTICES = st.one_of(
    st.integers(1, 3).flatmap(lambda n: vectors(1, 4, n, -1, 4)).map(
        lambda vs: ";".join(",".join(map(str, v)) for v in vs)
    ),
    st.text(st.sampled_from("0123,; -x"), max_size=12),
)


def _argvs(path, flags, vertices):
    """One command line per subcommand, with the drawn flags."""
    degree, dmax, guard, assume, text = flags
    common = (["--format", "text"] if text else []) + (
        ["--max-extension-points", str(guard)] if guard is not None else []
    )
    semigroup = ["--assume-semigroup-generated"] if assume else []
    return [
        ["moment", path] + (["--format", "text"] if text else []),
        ["pseudomoment", path, *common, *semigroup]
        + (["--degree", str(degree)] if degree is not None else []),
        ["gap", path, *common, *semigroup],
        ["scan", path, "--dmax", str(dmax), *common],
        ["mediated", "--vertices", vertices, *common],
    ]


FLAGS = st.tuples(
    st.none() | st.integers(-1, 7),
    st.integers(0, 6),
    st.none() | st.integers(0, 45),
    st.booleans(),
    st.booleans(),
)


def _expire(signum, frame):
    raise TimeoutError


def _run(argv):
    """Exit code, stdout and stderr of one in-process call, under the time
    bound; argparse's usage errors end in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_BOUND_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    except TimeoutError:
        raise AssertionError(f"{argv}: no answer within {TIME_BOUND_S} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=EXAMPLES, suppress_health_check=[HealthCheck.too_slow])
@given(TEXTS, FLAGS, VERTICES)
def test_every_subcommand_ends_with_an_exit_code_and_repeats(text, flags, vertices):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in _argvs(path, flags, vertices):
            first = _run(argv)
            assert first[0] in (0, 2, 3, 4), (argv, text, first)
            assert "Traceback" not in first[2], (argv, text)
            assert _run(argv) == first, (argv, text)
