"""The output checks reject planted wrong answers.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench)

Each test takes a genuine CLI output, confirms the check accepts it, then
plants one fault and confirms the check that covers it rejects it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
from tropmom import cli  # noqa: E402


def run(problem: corpus.Problem):
    argv = corpus.write([problem], HERE / "out" / "test-checks")[0]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def verdict(problem, rc, stdout, stderr) -> str:
    try:
        checks.check(problem, rc, stdout, stderr, random.Random(0))
    except checks.Failed:
        return "failed"
    except checks.Wrong:
        return "wrong"
    return "ok"


def genuine(problem):
    rc, out, err = run(problem)
    assert verdict(problem, rc, out, err) == "ok", err
    return rc, json.loads(out), err


def rendered(problem, doc: dict) -> str:
    """Re-render and re-sort facets so that only the planted fault differs."""
    for f in doc["facets"]:
        f["binomial"] = checks.render(problem.doc["support"], f["normal"])
    doc["facets"].sort(key=lambda f: f["normal"])
    return json.dumps(doc, indent=2) + "\n"


STABLE = corpus._pseudo("motzkin-cube-stable", corpus.MOTZKIN, corpus.CUBE)
TRUNCATED = corpus._pseudo("square-s1-d3", corpus.SQUARE, corpus._binomials(corpus.S1),
                           degree=3)


def test_dropped_facet_is_rejected():
    for problem in (STABLE, TRUNCATED):
        rc, doc, err = genuine(problem)
        doc["facets"].pop(1)
        assert verdict(problem, rc, rendered(problem, doc), err) == "wrong"


def test_dropped_facet_with_matching_rays_is_rejected():
    # the rays are made to agree with the shorter facet list, so only the
    # certificate that each ray is an image of the source cone can fail
    rc, doc, err = genuine(STABLE)
    doc["facets"].pop(0)
    normals = [f["normal"] for f in doc["facets"]]
    rays, _, _ = checks.facet_description(normals, len(STABLE.doc["support"]))
    doc["extreme_rays_mod_lineality"] = sorted(list(r) for r in rays)
    assert verdict(STABLE, rc, rendered(STABLE, doc), err) == "wrong"


def test_perturbed_normal_is_rejected():
    for problem in (STABLE, TRUNCATED):
        rc, doc, err = genuine(problem)
        doc["facets"][0]["normal"][0] += 1
        assert verdict(problem, rc, rendered(problem, doc), err) == "wrong"


def test_wrong_rendering_is_rejected():
    rc, doc, err = genuine(STABLE)
    doc["facets"][0]["binomial"] = doc["facets"][1]["binomial"]
    assert verdict(STABLE, rc, json.dumps(doc), err) == "wrong"


def test_wrong_exit_code_is_rejected():
    problems = corpus.refusal(random.Random(0))
    for problem in problems:
        if problem.name == "cube3-degree-guard":
            break
    rc, out, err = run(problem)
    assert verdict(problem, rc, out, err) == "ok"
    assert verdict(problem, 3, out, err) == "failed"
    assert verdict(problem, 0, out, err) == "failed"
    assert verdict(problem, rc, out, err.replace("points", "points!")) == "failed"
    size = err.split()[4]
    assert verdict(problem, rc, out, err.replace(size, str(int(size) + 1))) == "failed"


def test_traceback_is_a_failure():
    rc, doc, err = genuine(STABLE)
    assert verdict(STABLE, None, "", "Traceback (most recent call last):\n") == "failed"


def test_mediated_set_with_extra_point_is_rejected():
    problem = corpus._mediated("mediated", ((0, 0), (1, 2), (2, 1)))
    rc, doc, err = genuine(problem)
    extra = doc["discarded"][0]
    doc["mediated"] = sorted(doc["mediated"] + [extra], key=lambda p: (sum(p), p))
    doc["discarded"].remove(extra)
    assert verdict(problem, rc, json.dumps(doc), err) == "wrong"


def test_moment_facet_against_paper_is_rejected():
    problem = corpus.moment(random.Random(0))[1]  # Motzkin over the cube
    rc, doc, err = genuine(problem)
    doc["facets"].pop()
    assert verdict(problem, rc, json.dumps(doc), err) == "wrong"


def test_seeded_moment_facet_against_second_route_is_rejected():
    problem = [p for p in corpus.moment(random.Random(0)) if p.name == "seeded-cube"][0]
    rc, doc, err = genuine(problem)
    doc["facets"].pop()
    assert verdict(problem, rc, json.dumps(doc), err) == "wrong"


def test_invalid_inequality_fails_on_a_measure():
    doc = corpus._doc(corpus.MOTZKIN, corpus.CUBE)
    try:
        checks.check_measures(doc, [(0, -1, 1, 0)], random.Random(0))
    except checks.Wrong:
        return
    raise AssertionError("m(1,2) >= m(1,1) holds on no measure on the cube")


def test_scan_with_wrong_stabilization_degree_is_rejected():
    problem = corpus._scan("square-s1-scan3", corpus.SQUARE, corpus._binomials(corpus.S1), 3)
    rc, doc, err = genuine(problem)
    assert doc["stabilized_at"] == 3
    doc["stabilized_at"] = 2
    assert verdict(problem, rc, json.dumps(doc), err) == "wrong"


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
