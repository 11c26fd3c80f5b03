"""Planted mutants that the test suite must kill.

    python3 tests/mutants.py

Each mutant is one exact text replacement in one module of src/tropmom.
The script copies src/ to a temporary directory, applies the replacement
there (and stops with an error unless the old text occurs exactly once),
and runs the mutant's test files against the copy under a time bound.
The mutant is killed when pytest exits with code 1, some test failed; a
collection error, an interruption or the time bound does not count.
The unmutated copy must pass every named file first.  The script exits 0
when every mutant is killed.  pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_BOUND_S = 120

# name, module, old text, new text, test files (relative to the root)
MUTANTS = [
    (
        "_reduce_mod adds the pivot row",
        "_dd.py",
        "v = [row[p] * x - c * y for x, y in zip(v, row)]",
        "v = [row[p] * x + c * y for x, y in zip(v, row)]",
        ["tests/test_dd_differential.py"],
    ),
    (
        "lineality cut keeps the first vector's sign",
        "linalg.py",
        "    if s < 0:\n        b0, s = tuple([-x for x in b0]), -s\n",
        "",
        ["tests/test_dd_differential.py"],
    ),
    (
        "Fourier-Motzkin pairs each positive row with the first negative only",
        "cones.py",
        "for q in neg]",
        "for q in neg[:1]]",
        ["tests/test_cones.py::test_fourier_motzkin_matches_vrep_projection"],
    ),
    (
        "certificate check forgives -1",
        "_simplex.py",
        "if min(row_values(system, w), default=0) < 0:",
        "if min(row_values(system, w), default=0) < -1:",
        ["tests/test_kernels_differential.py::test_valid_on_system_rejects_a_bad_certificate"],
    ),
    (
        "tropical hull skips a coordinate",
        "cones.py",
        "piece.add([_unit(n, j) for j in right])",
        "piece.add([_unit(n, j) for j in right[1:]])",
        ["tests/test_cones.py::test_tropical_hull_matches_dual_route_and_index_order"],
    ),
    (
        "tropical hull leaves out cancelled rows without the full-dimension check",
        "cones.py",
        "len(kept) < len(rows) and any(",
        "False and any(",
        ["tests/test_cones.py::test_tropical_hull_keeps_every_row_unless_full_dimensional"],
    ),
    (
        "tropical hull checks full dimension on the rows it kept only",
        "cones.py",
        "for s, _ in sums for a in s[0]",
        "for a in state.added",
        ["tests/test_cones.py::test_tropical_hull_keeps_every_row_unless_full_dimensional"],
    ),
    (
        "minimal forms skip the kernel of a cone that is not full-dimensional",
        "cones.py",
        "cone_dim == dim",
        "cone_dim <= dim",
        ["tests/test_cones.py::test_contains"],
    ),
    (
        "minimal forms keep every tight set as maximal",
        "_dd.py",
        "if not any(m & o == m for o in maximal):",
        "if True:",
        ["tests/test_cones.py::test_tropical_hull_anchors"],
    ),
    (
        "double description combines every pair that passes the prefilter",
        "_dd.py",
        "meet & other[1] == meet",
        "False",
        ["tests/test_dd_differential.py"],
    ),
    (
        "double description retries a witness that is one of the pair",
        "_dd.py",
        "if last is not ne and meet & last[1] == meet:",
        "if meet & last[1] == meet:",
        ["tests/test_dd_differential.py::test_dd_matches_unfiltered_oracle"],
    ),
    (
        "double description classifies a sparse row without its third nonzero",
        "_dd.py",
        "a0 * v[i0] + a1 * v[i1] + a2 * v[i2]",
        "a0 * v[i0] + a1 * v[i1]",
        ["tests/test_dd_differential.py::test_dd_matches_unfiltered_oracle"],
    ),
    (
        "seeded state keeps generators with non-maximal tight sets",
        "_dd.py",
        "state.rays = [[by_mask[m], m] for m in maximal]",
        "state.rays = [[by_mask[m], m] for m in by_mask]",
        ["tests/test_dd_differential.py::test_seeded_state_continues_as_the_facets_would"],
    ),
    (
        "cleaned rows keep a row that is not primitive",
        "_dd.py",
        "out[tuple([a // g for a in row])] = None",
        "out[tuple(row)] = None",
        ["tests/test_dd_differential.py::test_clean_rows_match_oracle"],
    ),
    (
        "result skips the reduction modulo a nonempty lineality basis",
        "_dd.py",
        "red = _reduce_mod(lin, vec) if lin else vec",
        "red = vec",
        ["tests/test_dd_differential.py::test_dd_matches_unfiltered_oracle"],
    ),
    (
        "JSON writer drops the indentation before a closing bracket",
        "cli.py",
        'f"\\n{indent}{ends[1]}"',
        'f"\\n{ends[1]}"',
        ["tests/test_cli.py::test_writer_gives_the_bytes_of_json_dumps"],
    ),
    (
        "cost update unsigned",
        "_simplex.py",
        "y *= best * sign[k]",
        "y *= best",
        ["tests/test_simplex.py"],
    ),
    (
        "starting costs leave out the negative target coordinates",
        "_simplex.py",
        "cost[j] += 2 * a",
        "pass",
        ["tests/test_simplex.py"],
    ),
    (
        "costs not divided by the objective's gcd",
        "_simplex.py",
        "cost = [c // g for c in cost]",
        "pass",
        ["tests/test_kernels_differential.py::test_simplex_branches_match_rational_tableau"],
    ),
    (
        "sparse row update adds the leaving row",
        "_simplex.py",
        "row[k] -= q * y",
        "row[k] += q * y",
        ["tests/test_kernels_differential.py::test_simplex_branches_match_rational_tableau"],
    ),
    (
        "entering column takes a wrong row's sign",
        "_simplex.py",
        "sign[i0] * a0, sign[i1] * a1, sign[i2] * a2",
        "sign[i0] * a0, sign[i0] * a1, sign[i2] * a2",
        ["tests/test_simplex.py"],
    ),
    (
        "fourth and later entries unsigned",
        "_simplex.py",
        "rest = [(i, sign[i] * a) for i, a in more[enter]]",
        "rest = [(i, a) for i, a in more[enter]]",
        ["tests/test_kernels_differential.py::test_simplex_matches_rational_tableau"],
    ),
    (
        "midpoint triples pair points by residue mod 4",
        "lattice.py",
        "tuple(c % 2 for c in p)",
        "tuple(c % 4 for c in p)",
        ["tests/test_mediated_differential.py::test_midpoint_triples_match_all_pairs"],
    ),
    (
        "Â completion box stops one short of 2u",
        "lattice.py",
        "range(2 * y + 1)",
        "range(2 * y)",
        ["tests/test_kernels_differential.py::test_a_hat_matches_box_filter_2d"],
    ),
    (
        "Â size counts the whole column for parity vectors ending in 1",
        "lattice.py",
        "s[e[-1]]",
        "s[0]",
        ["tests/test_kernels_differential.py::test_a_hat_size_reads_columns_in_one_pass"],
    ),
    (
        "projection admits an inner line with one sign only",
        "cones.py",
        "for v in inner[1] for s in (1, -1)]",
        "for v in inner[1] for s in (1,)]",
        ["tests/test_reuse_differential.py::test_outer_cone_missing_a_member_raises"],
    ),
    (
        "projection's row check forgives -1",
        "cones.py",
        "min(row_values(system, h), default=0) < 0",
        "min(row_values(system, h), default=0) < -1",
        ["tests/test_reuse_differential.py::test_inner_point_or_line_off_the_source_raises"],
    ),
    (
        "pool function taken without its admission",
        "cones.py",
        'y = admit(pool.pop(hit), "pool function")',
        "y = primitive(take(pool.pop(hit)))",
        ["tests/test_reuse_differential.py::test_pool_function_off_the_source_raises_when_taken"],
    ),
    (
        "projection admits a member without its outer check",
        "cones.py",
        "if outer is not None and not outer.contains_point(y):",
        "if False:",
        ["tests/test_reuse_differential.py::test_outer_cone_missing_a_member_raises"],
    ),
    (
        "cold projections take an outer cone that misses the image",
        "pseudo.py",
        "outer = cone_M(a, c)",
        "outer = cone_M(a, c).dual()",
        ["tests/test_pseudo.py", "tests/test_corpus_digests.py"],
    ),
    (
        "cone equality ignores the equations",
        "cones.py",
        "self._side(0) == other._side(0)",
        "self._side(0)[0] == other._side(0)[0]",
        ["tests/test_cones.py::test_equality_is_mutual_containment"],
    ),
    (
        "semigroup search forgets the points that reached zero",
        "moments.py",
        "if not any(w) or seen.get(w):",
        "if not any(w):",
        ["tests/test_kernels_differential.py::test_semigroup_check_matches_brute_force"],
    ),
    (
        "semigroup check closes the parallelepiped classes without the first step",
        "moments.py",
        "        for step in steps:",
        "        for step in steps[1:]:",
        ["tests/test_kernels_differential.py::test_semigroup_check_matches_brute_force"],
    ),
    (
        "binding points drop a point met with both signs, negative as a midpoint",
        "funcones.py",
        "neg = {t.b for t in triples}",
        "neg = set()",
        ["tests/test_binding_differential.py::test_binding_points_project_as_the_whole_system"],
    ),
    (
        "hull columns cover the bounding box",
        "lattice.py",
        "    if n > 2:",
        "    if False:",
        ["tests/test_lattice.py::test_thin_hull_reads_only_the_columns_over_its_shadow"],
    ),
    (
        "cubical hull lists its box before it refuses",
        "lattice.py",
        "    guard_size(math.prod(map(len, sides)), max_points)\n"
        "    return PointConfig(graded_lex_sorted(itertools.product(*sides)))",
        "    pts = graded_lex_sorted(itertools.product(*sides))\n"
        "    guard_size(len(pts), max_points)\n"
        "    return PointConfig(pts)",
        ["tests/test_cli.py::test_cube_box_guard_trips_before_building"],
    ),
    (
        "degree simplex lists its points before it refuses",
        "lattice.py",
        "    guard_size(math.comb(n + d, n), max_points)\n"
        "    pts = (p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d)\n"
        "    return PointConfig(graded_lex_sorted(pts))",
        "    pts = (p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d)\n"
        "    pts = graded_lex_sorted(pts)\n"
        "    guard_size(len(pts), max_points)\n"
        "    return PointConfig(pts)",
        ["tests/test_cli.py::test_degree_guard_trips_before_building"],
    ),
    (
        "hull lists its lattice points before it refuses",
        "lattice.py",
        "    guard_size(size, max_points)",
        "    pts = (p + (t,) for p, lo, hi in _hull_columns(vertices) for t in range(lo, hi + 1))\n"
        "    guard_size(len(graded_lex_sorted(pts)), max_points)",
        ["tests/test_cli.py::test_lattice_guard_trips_before_listing",
         "tests/test_cli.py::test_mediated_guard_trips_before_listing"],
    ),
    (
        "trop_of_set accepts a set with empty interior",
        "moments.py",
        "if not cone.is_full_dimensional():",
        "if False:",
        ["tests/test_moments.py", "tests/test_cli.py::test_refusals"],
    ),
]


def run_tests(src: Path, tests: list[str]) -> tuple[int | None, float]:
    """pytest's exit code on the tests with tropmom imported from src (None
    past the time bound), and the seconds taken.  No bytecode is written,
    so a module rewritten within the same second is never read stale."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        code = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=TIME_BOUND_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        code, secs = run_tests(src, sorted({t for *_, tests in MUTANTS for t in tests}))
        print(f"unmutated: exit {code} in {secs:.1f} s")
        if code != 0:
            return 1
        survivors = 0
        for name, module, old, new, tests in MUTANTS:
            path = src / "tropmom" / module
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {module}")
                return 2
            path.write_text(text.replace(old, new))
            code, secs = run_tests(src, tests)
            path.write_text(text)
            killed = code == 1
            survivors += not killed
            print(f"{name}: {'killed' if killed else 'SURVIVED'} (exit {code}) in {secs:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
