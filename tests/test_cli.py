import contextlib
import json
import signal
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmom import cli, lattice, moments, pseudo
from tropmom.cli import main
from tropmom.cones import Cone, tropical_hull_dual
from tropmom.funcones import cone_K
from tropmom.lattice import PointConfig
from tropmom.linalg import dot

MOTZKIN_SUPPORT = [[0, 0], [1, 1], [1, 2], [2, 1]]
S2_GENS = [
    {"plus": [0, 2], "minus": [1, 0]},
    {"plus": [1, 0], "minus": [0, 3]},
]
S1_GENS = [
    {"plus": [0, 1], "minus": [2, 0]},
    {"plus": [1, 0], "minus": [0, 2]},
]


def problem_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def motz_cube(tmp_path):
    return problem_file(
        tmp_path,
        "motz_cube.json",
        {"ambient_dim": 2, "support": MOTZKIN_SUPPORT, "set": {"kind": "cube"}},
    )


@pytest.fixture
def motz_orthant(tmp_path):
    return problem_file(
        tmp_path,
        "motz_orthant.json",
        {"ambient_dim": 2, "support": MOTZKIN_SUPPORT, "set": {"kind": "orthant"}},
    )


@pytest.fixture
def motz_s2(tmp_path):
    return problem_file(
        tmp_path,
        "motz_s2.json",
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "binomials", "gens": S2_GENS},
        },
    )


@pytest.fixture
def motz_toric(tmp_path):
    return problem_file(
        tmp_path,
        "motz_toric.json",
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "toric_cube", "Q": [[1, 2], [1, 3]]},
        },
    )


@pytest.fixture
def square_s1(tmp_path):
    return problem_file(
        tmp_path,
        "square_s1.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "set": {"kind": "binomials", "gens": S1_GENS},
        },
    )


@pytest.fixture
def doubled_full(tmp_path):
    return problem_file(
        tmp_path,
        "doubled_full.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [2, 4], [4, 2], [2, 2]],
            "set": {"kind": "full_space"},
        },
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out), out


AMGM = "m(0,0)*m(1,2)*m(2,1) >= m(1,1)^3"

# over the cube, the moment cone of this support has 54 facets and that of
# its first 10 points 43; read through a second double description from the
# hull's rays they take seconds and minutes, so each runs under an alarm
HARD_SUPPORT = [
    (0, 0), (0, 2), (0, 5), (1, 0), (1, 2), (1, 4), (2, 0), (2, 1), (3, 3), (3, 4), (4, 2)
]


@contextlib.contextmanager
def within_seconds(limit: int):
    """Fail the test, instead of hanging the suite, after limit seconds."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    except TimeoutError:
        raise pytest.fail.Exception(f"no answer within {limit} s", pytrace=False) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cube_image(a: PointConfig) -> list:
    """Generators of the image of the cube's dual cone (the nonpositive
    orthant) under u -> (<p, u>) for p in the support."""
    return [tuple([-p[i] for p in a.points]) for i in range(a.n)]


def test_moment_cube(capsys, motz_cube):
    doc, out = run_json(capsys, ["moment", motz_cube])
    assert doc == {
        "facets": [
            {"normal": [0, 1, -1, 0], "binomial": "m(1,1) >= m(1,2)"},
            {"normal": [0, 1, 0, -1], "binomial": "m(1,1) >= m(2,1)"},
            {"normal": [1, -3, 1, 1], "binomial": AMGM},
        ],
        "extreme_rays_mod_lineality": [
            [0, -1, -2, -1],
            [0, -1, -1, -2],
            [0, -1, -1, -1],
        ],
        "lineality_dim": 1,
        "warnings": [],
        "stabilized_at": None,
    }
    # canonical form: parsing and re-serializing reproduces the bytes
    assert json.dumps(doc, indent=2) + "\n" == out


def test_ten_point_cube_moment_cone_matches_dual_route():
    a = PointConfig(HARD_SUPPORT[:10])
    with within_seconds(30):
        hull = cone_K(a, Cone.nonpos_orthant(2))
        assert len(hull.ineqs) == 43
        dual = tropical_hull_dual(Cone.from_vrep(len(a), cube_image(a)))
        assert hull.ineqs == dual.rays
        assert hull.eqs == dual.lineality


def test_moment_eleven_point_cube(capsys, tmp_path):
    doc = {"ambient_dim": 2, "support": HARD_SUPPORT, "set": {"kind": "cube"}}
    with within_seconds(30):
        out, _ = run_json(capsys, ["moment", problem_file(tmp_path, "eleven.json", doc)])
    assert len(out["facets"]) == 54
    for y in cube_image(PointConfig(HARD_SUPPORT)):
        assert all(dot(f["normal"], y) >= 0 for f in out["facets"])


def test_moment_is_deterministic(capsys, motz_cube):
    _, first = run_json(capsys, ["moment", motz_cube])
    _, second = run_json(capsys, ["moment", motz_cube])
    assert first == second


# strings and documents shaped like the output: quotes, backslashes,
# non-ASCII and control characters; nested lists of ints, large and
# negative, empty lists, None, and objects keyed by such strings
TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé\u2028\U0001d11ea '))
DOCUMENTS = st.recursive(
    st.none() | st.integers(-3, 3) | st.integers(-(10**40), 10**40) | TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=100)
@given(DOCUMENTS)
def test_writer_gives_the_bytes_of_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("flags", [[], ["--degree", "6"]])
def test_output_reserializes_byte_for_byte(capsys, motz_cube, flags):
    # test_moment_cube checks the same on moment's output
    doc, out = run_json(capsys, ["pseudomoment", motz_cube, *flags])
    assert json.dumps(doc, indent=2) + "\n" == out


def test_moment_toric_text(capsys, motz_toric):
    code, out, err = run(capsys, ["moment", motz_toric, "--format", "text"])
    assert code == 0
    assert out.splitlines() == [
        "m(2,1) >= m(1,2)",
        "m(1,1)^2*m(1,2) >= m(2,1)^3",
        "m(0,0)*m(2,1)^3 >= m(1,1)^4",
        AMGM,
    ]
    assert err == ""


def test_moment_full_space(capsys, doubled_full):
    doc, _ = run_json(capsys, ["moment", doubled_full])
    assert [f["binomial"] for f in doc["facets"]] == [
        "m(0,0)*m(2,4)*m(4,2) >= m(2,2)^3"
    ]
    assert doc["facets"][0]["normal"] == [1, 1, 1, -3]


def test_pseudomoment_stabilized_cube(capsys, motz_cube):
    doc, _ = run_json(capsys, ["pseudomoment", motz_cube])
    assert [f["normal"] for f in doc["facets"]] == [
        [0, 1, -1, 0],
        [0, 1, 0, -1],
        [1, -2, 0, 1],
        [1, -2, 1, 0],
    ]
    assert len(doc["extreme_rays_mod_lineality"]) == 4
    assert doc["lineality_dim"] == 1
    assert doc["warnings"] == ["stable (closed form)"]
    assert doc["stabilized_at"] is None


def test_library_warnings_precede_notes(capsys, monkeypatch, motz_cube):
    original = cli.stabilized_pseudomoment

    def warned(*args):
        warnings.warn("probe")
        return original(*args)

    monkeypatch.setattr(cli, "stabilized_pseudomoment", warned)
    doc, _ = run_json(capsys, ["pseudomoment", motz_cube])
    assert doc["warnings"] == ["probe", "stable (closed form)"]
    code, _, err = run(capsys, ["pseudomoment", motz_cube, "--format", "text"])
    assert (code, err.splitlines()) == (0, ["warning: probe", "warning: stable (closed form)"])


def test_pseudomoment_degree_flag(capsys, motz_cube):
    doc, _ = run_json(capsys, ["pseudomoment", motz_cube, "--degree", "6"])
    assert [f["normal"] for f in doc["facets"]] == [
        [0, 1, -1, 0],
        [0, 1, 0, -1],
        [1, -2, 0, 1],
        [1, -2, 1, 0],
    ]
    assert doc["warnings"] == []


def test_pseudomoment_degree_from_file(capsys, tmp_path):
    low = problem_file(
        tmp_path,
        "low.json",
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "cube"},
            "degree": 2,
        },
    )
    code, _, err = run(capsys, ["pseudomoment", low])
    assert code == 3
    assert "above the truncation degree" in err
    # the flag overrides the file degree
    code, out, _ = run(capsys, ["pseudomoment", low, "--degree", "6"])
    assert code == 0
    assert len(json.loads(out)["facets"]) == 4


def test_pseudomoment_orthant_degree(capsys, motz_orthant):
    doc, _ = run_json(capsys, ["pseudomoment", motz_orthant, "--degree", "4"])
    assert doc["facets"] == []
    assert doc["lineality_dim"] == 4


def test_pseudomoment_no_stabilized_route(capsys, motz_orthant, motz_toric):
    for path in (motz_orthant, motz_toric):
        code, _, err = run(capsys, ["pseudomoment", path])
        assert code == 3, err


def test_pseudomoment_s2_text(capsys, motz_s2):
    code, out, err = run(capsys, ["pseudomoment", motz_s2, "--format", "text"])
    assert code == 0
    assert out.splitlines() == [
        "m(1,2) >= m(2,1)",
        "m(1,1)^2*m(2,1) >= m(1,2)^3",
        "m(0,0)*m(1,2)^3 >= m(1,1)^4",
        "m(0,0)^4*m(1,2)*m(2,1)^5 >= m(1,1)^10",
    ]
    assert err.splitlines() == ["warning: stable (closed form)"]


def test_pseudomoment_full_space(capsys, doubled_full):
    doc, _ = run_json(capsys, ["pseudomoment", doubled_full])
    assert doc["facets"] == []
    assert doc["lineality_dim"] == 4
    assert doc["warnings"] == ["stable (closed form)"]


def test_semigroup_gate(capsys, square_s1):
    code, _, err = run(capsys, ["pseudomoment", square_s1])
    assert code == 3
    assert "--assume-semigroup-generated" in err

    doc, _ = run_json(
        capsys, ["pseudomoment", square_s1, "--assume-semigroup-generated"]
    )
    assert doc["warnings"] == [
        "semigroup generation assumed, not checked",
        "stable (closed form)",
    ]
    assert [f["binomial"] for f in doc["facets"]] == [
        "m(0,1) >= m(1,1)",
        "m(1,0) >= m(1,1)",
        "m(0,0)*m(0,1) >= m(1,0)^2",
        "m(0,0)*m(1,0) >= m(0,1)^2",
        "m(0,0)^2*m(1,1) >= m(1,0)^3",
        "m(0,0)^2*m(1,1) >= m(0,1)^3",
    ]


def test_semigroup_assumption_from_file(capsys, tmp_path):
    assumed = problem_file(
        tmp_path,
        "assumed.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "set": {"kind": "binomials", "gens": S1_GENS},
            "options": {"assume_semigroup_generated": True},
        },
    )
    doc, _ = run_json(capsys, ["pseudomoment", assumed])
    assert doc["warnings"][0] == "semigroup generation assumed, not checked"


@pytest.mark.parametrize("command", ["pseudomoment", "gap"])
def test_semigroup_search_deeper_than_the_python_stack(capsys, tmp_path, command):
    # the difference (1, 1000) puts the parallelepiped points (1, y),
    # 0 < y < 1000, a thousand steps above the origin; the check answers
    # yes, and the Â hypothesis then fails on the difference (1, 0)
    deep = problem_file(
        tmp_path,
        "deep.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "set": {
                "kind": "binomials",
                "gens": [
                    {"plus": plus, "minus": [0, 0]}
                    for plus in ([1, 0], [0, 1], [1, 1000])
                ],
            },
        },
    )
    code, out, err = run(capsys, [command, deep])
    assert code == 3
    assert out == ""
    assert "stabilization hypothesis fails" in err
    assert "Traceback" not in err


def test_semigroup_gate_not_applied_to_fixed_degree(capsys, square_s1):
    code, _, _ = run(capsys, ["pseudomoment", square_s1, "--degree", "3"])
    assert code == 0


def test_gap_cube(capsys, motz_cube):
    doc, _ = run_json(capsys, ["gap", motz_cube])
    assert [f["binomial"] for f in doc["facets"]] == [AMGM]
    assert doc["facets"][0]["normal"] == [1, -3, 1, 1]
    assert doc["lineality_dim"] == 1


def test_gap_s2(capsys, motz_s2):
    doc, _ = run_json(capsys, ["gap", motz_s2])
    assert [f["binomial"] for f in doc["facets"]] == [AMGM]


def test_gap_without_moment_facets(capsys, tmp_path):
    tri = problem_file(
        tmp_path,
        "tri.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [1, 0], [0, 1]],
            "set": {"kind": "orthant"},
        },
    )
    doc, _ = run_json(capsys, ["gap", tri])
    assert doc["facets"] == []
    assert doc["extreme_rays_mod_lineality"] == []
    assert doc["lineality_dim"] == 0
    assert doc["warnings"] == [
        "moment cone has no facets; pseudo-moment side not computed"
    ]


def test_gap_needs_stabilized_route(capsys, motz_orthant):
    code, _, _ = run(capsys, ["gap", motz_orthant])
    assert code == 3


def test_scan(capsys, motz_cube):
    doc, _ = run_json(
        capsys, ["scan", motz_cube, "--dmax", "6", "--max-extension-points", "45"]
    )
    assert doc["stabilized_at"] == 3
    assert "stabilized formula matches the scan result" in doc["warnings"]
    assert [f["normal"] for f in doc["facets"]] == [
        [0, 1, -1, 0],
        [0, 1, 0, -1],
        [1, -2, 0, 1],
        [1, -2, 1, 0],
    ]


def test_scan_dmax_too_small(capsys, motz_cube):
    code, _, err = run(capsys, ["scan", motz_cube, "--dmax", "2"])
    assert code == 3
    assert "below the support degree" in err


def test_mediated(capsys):
    doc, _ = run_json(capsys, ["mediated", "--vertices", "0,0;1,2;2,1"])
    assert doc == {"mediated": [[0, 0], [1, 2], [2, 1]], "discarded": [[1, 1]]}

    doc, _ = run_json(capsys, ["mediated", "--vertices", "1,0;0,3;3,1"])
    assert doc == {
        "mediated": [[1, 0], [1, 1], [0, 3], [1, 2], [2, 1], [3, 1]],
        "discarded": [],
    }


def test_mediated_large_triangle(capsys):
    # every pair's midpoint, rebuilt on each pass, took about 30 s here
    with within_seconds(10):
        doc, _ = run_json(capsys, ["mediated", "--vertices", "0,0;100,0;0,100"])
    assert len(doc["mediated"]) == 101 * 102 // 2
    assert doc["discarded"] == []


def test_mediated_text(capsys):
    code, out, _ = run(
        capsys, ["mediated", "--vertices", "0,0;1,2;2,1", "--format", "text"]
    )
    assert code == 0
    assert out.splitlines() == ["0,0", "1,2", "2,1", "discarded: 1,1"]


def test_mediated_errors(capsys):
    code, _, _ = run(capsys, ["mediated", "--vertices", "0,0;1,0;2,0"])
    assert code == 3
    for bad in ["0,0;x,1", "0,0;-1,2", "0,0;1", "0,0;0,0", ";"]:
        code, _, err = run(capsys, ["mediated", "--vertices", bad])
        assert code == 2, (bad, err)


def test_resource_limit(capsys, motz_cube):
    code, _, err = run(
        capsys,
        ["pseudomoment", motz_cube, "--degree", "9", "--max-extension-points", "40"],
    )
    assert code == 4
    assert "error:" in err


GUARD = (
    "error: extension support has {} points, exceeding the limit of {}; "
    "raise max_extension_points to proceed\n"
)


def _not_built(*args):
    raise AssertionError("built before the guard")


def test_cube_box_guard_trips_before_building(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(pseudo, "cubical_hull", _not_built)
    path = problem_file(
        tmp_path,
        "box.json",
        {"ambient_dim": 2, "support": [[0, 0], [3000, 3000]], "set": {"kind": "cube"}},
    )
    assert run(capsys, ["pseudomoment", path]) == (4, "", GUARD.format(3001**2, 40))


def test_degree_guard_trips_before_building(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(pseudo, "delta_simplex", _not_built)
    path = problem_file(
        tmp_path,
        "ball.json",
        {"ambient_dim": 3, "support": [[0, 0, 0], [1, 1, 1]], "set": {"kind": "cube"}},
    )
    argv = ["pseudomoment", path, "--degree", "100000"]
    # comb(100003, 3) points of total degree at most 100000
    assert run(capsys, argv) == (4, "", GUARD.format(166676666850001, 40))
    # the scan refuses at the first degree past the limit, comb(8, 3) = 56
    # at degree 5, before projecting degrees 3 and 4
    argv = ["scan", path, "--dmax", "100000"]
    assert run(capsys, argv) == (4, "", GUARD.format(56, 40))
    # degree 3 fits (10 points) but the closed form's 4 x 4 box does not
    path = problem_file(
        tmp_path,
        "corners.json",
        {"ambient_dim": 2, "support": [[3, 0], [0, 3]], "set": {"kind": "cube"}},
    )
    argv = ["scan", path, "--dmax", "3", "--max-extension-points", "12"]
    assert run(capsys, argv) == (4, "", GUARD.format(16, 12))


def test_lattice_guard_trips_before_listing(capsys, tmp_path, monkeypatch):
    # the side-3000 triangle holds 3001 * 3002 / 2 lattice points, counted
    # column by column without listing them
    monkeypatch.setattr(pseudo, "lattice_points", _not_built)
    path = problem_file(
        tmp_path,
        "triangle.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [3000, 0], [0, 3000]],
            "set": {"kind": "full_space"},
        },
    )
    with within_seconds(5):
        assert run(capsys, ["pseudomoment", path]) == (4, "", GUARD.format(4504501, 40))


def test_mediated_guard_trips_before_listing(capsys, monkeypatch):
    # the side-200 triangle holds 201 * 202 / 2 lattice points, counted
    # column by column without listing them; it ran 1.2 s unguarded
    monkeypatch.setattr(lattice, "lattice_points", _not_built)
    argv = ["mediated", "--vertices", "0,0;200,0;0,200"]
    assert run(capsys, argv) == (4, "", GUARD.format(20301, 10000))
    argv += ["--max-extension-points", "20300"]
    assert run(capsys, argv) == (4, "", GUARD.format(20301, 20300))
    argv[-1] = "0"
    code, _, err = run(capsys, argv)
    assert code == 2 and "--max-extension-points" in err
    # a triangle with vertices in [0, 8]^2 holds at most 45 points
    argv = ["mediated", "--vertices", "0,0;8,0;0,8", "--max-extension-points", "44"]
    assert run(capsys, argv) == (4, "", GUARD.format(45, 44))


def test_scan_a_hat_guard_trips_before_projecting(capsys, square_s1, monkeypatch):
    # degrees 2 and 3 fit (6 and 10 points) but the closed form's Â has 13
    monkeypatch.setattr(pseudo, "project_hrep", _not_built)
    argv = ["scan", square_s1, "--dmax", "3", "--max-extension-points", "12"]
    assert run(capsys, argv) == (4, "", GUARD.format(13, 12))


def test_scan_takes_no_semigroup_flag(capsys, square_s1):
    with pytest.raises(SystemExit) as exc:
        main(["scan", square_s1, "--dmax", "3", "--assume-semigroup-generated"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_hat_guard_trips_before_building(capsys, tmp_path, monkeypatch):
    # y >= x^2000, x >= y^2000 over the square: Â is counted, not listed
    monkeypatch.setattr(lattice, "_a_hat_points", _not_built)
    gens = [
        {"plus": [0, 1], "minus": [2000, 0]},
        {"plus": [1, 0], "minus": [0, 2000]},
    ]
    path = problem_file(
        tmp_path,
        "s1_2000.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "set": {"kind": "binomials", "gens": gens},
        },
    )
    argv = ["pseudomoment", path, "--assume-semigroup-generated"]
    with within_seconds(5):
        assert run(capsys, argv) == (4, "", GUARD.format(8005, 40))


def test_semigroup_refusal_by_lattice_index(capsys, tmp_path, monkeypatch):
    # the differences (-400, 1) and (1, -400) have lattice index 159999, so
    # no parallelepiped is listed; its bounding box has 1601^2 points
    monkeypatch.setattr(moments, "_parallelepiped_points", _not_built)
    gens = [
        {"plus": [0, 1], "minus": [400, 0]},
        {"plus": [1, 0], "minus": [0, 400]},
    ]
    path = problem_file(
        tmp_path,
        "s400.json",
        {
            "ambient_dim": 2,
            "support": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "set": {"kind": "binomials", "gens": gens},
        },
    )
    code, out, err = run(capsys, ["pseudomoment", path])
    assert (code, out) == (3, "")
    assert "--assume-semigroup-generated" in err


def test_bad_max_extension_flag(capsys, motz_cube):
    code, _, _ = run(capsys, ["pseudomoment", motz_cube, "--max-extension-points", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "flag", [["--assume-semigroup-generated"], ["--max-extension-points", "5"]]
)
def test_moment_takes_no_extension_flags(capsys, motz_cube, flag):
    with pytest.raises(SystemExit) as exc:
        main(["moment", motz_cube] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_degree_flag(capsys, motz_cube):
    code, _, _ = run(capsys, ["pseudomoment", motz_cube, "--degree", "0"])
    assert code == 2


def test_repeated_calls_in_one_process(capsys, motz_cube):
    # the parser is built once per process; no call may leave state in it
    # that a later call sees
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = [
        ["moment", motz_cube],
        ["pseudomoment", motz_cube, "--degree", "0"],
        ["pseudomoment", motz_cube, "--degree", "x"],
        ["mediated", "--vertices", "0,0;1,2;2,1", "--format", "text"],
        ["moment", motz_cube],
    ]
    first = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 2, 2, 0, 0]
    assert first[-1] == first[0]
    assert "--degree" in first[2][2]
    assert [outcome(argv) for argv in calls] == first


def test_schema_errors(capsys, tmp_path):
    cases = [
        {"ambient_dim": 2, "support": [], "set": {"kind": "cube"}},
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "cube"},
            "extra": 1,
        },
        {"ambient_dim": 2, "support": MOTZKIN_SUPPORT, "set": {"kind": "sphere"}},
        {"ambient_dim": 2, "support": [[0, 0], [1, 2, 3]], "set": {"kind": "cube"}},
        {"ambient_dim": 2, "support": MOTZKIN_SUPPORT},
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "cube"},
            "degree": 0,
        },
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "cube"},
            "options": {"threads": 2},
        },
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "binomials"},
        },
    ]
    for i, doc in enumerate(cases):
        path = problem_file(tmp_path, f"bad{i}.json", doc)
        code, _, err = run(capsys, ["moment", path])
        assert code == 2, (doc, err)
        assert err.startswith("error: "), err


def test_unknown_field_message(capsys, tmp_path):
    path = problem_file(
        tmp_path,
        "extra.json",
        {
            "ambient_dim": 2,
            "support": MOTZKIN_SUPPORT,
            "set": {"kind": "cube"},
            "extra": 1,
        },
    )
    code, _, err = run(capsys, ["moment", path])
    assert code == 2
    assert "problem.extra: unknown field" in err


def test_missing_and_invalid_files(capsys, tmp_path):
    code, _, err = run(capsys, ["moment", str(tmp_path / "nope.json")])
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, ["moment", str(broken)])
    assert code == 2
    assert "invalid JSON" in err


def test_missing_required_argument(capsys):
    with pytest.raises(SystemExit):
        main(["mediated"])
    capsys.readouterr()
