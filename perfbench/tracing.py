"""Spans around calls into tropmom's layers, recorded from outside.

``Tracer.install`` replaces each public function named in ``WRAPPED`` by
a wrapper that records a span (name, start, end, parent) and updates the
work counts taken from the call's arguments and result.  The wrapper is
bound in every tropmom module namespace that binds the original, since
``project_hrep``, ``kernel_basis`` and others are imported by name.
Spans stay in memory until the caller takes them.

The scalar helpers of ``linalg`` (``dot``, ``primitive``, ``content``,
``integerize``, ``vec_sub``, ``vec_scale``) are left unwrapped: they run
per vector inside the double description loops, and a span around each
would measure the tracer rather than the layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "tropmom"

# module -> public functions wrapped; the layer is the module name
WRAPPED = {
    "cli": ("main", "parse_problem", "reduced_rays"),
    "pseudo": ("trop_pseudomoment", "trop_pseudomoment_cube_stable",
               "trop_pseudomoment_stable", "sigma_dual_trop",
               "stabilized_pseudomoment", "stabilization_scan",
               "normal_valid_on", "gap_report", "f_s_d", "clamp_extension"),
    "moments": ("trop_moment_cone", "order_cone", "trop_of_set",
                "semigroup_generation_check", "render_binomial",
                "binomial_facets", "amgm_moment_cone"),
    "funcones": ("cone_K", "cone_M", "cone_K_even",
                 "cone_K_facets_via_simplices", "is_midpoint_facet",
                 "projection_equality_KM"),
    "lattice": ("lattice_points", "midpoint_triples", "almost_empty_simplices",
                "mediated_set", "cubical_hull", "delta_simplex", "a_hat",
                "graded_lex_sorted"),
    "cones": ("double_description", "project_hrep", "tropical_hull",
              "tropical_hull_dual", "fourier_motzkin_project", "cone_equal"),
    "_simplex": ("nonneg_combination", "valid_on_system"),
    "linalg": ("rank", "rref_int", "kernel_basis", "solve_linear",
               "barycentric_coords"),
}


def _count_lp(counts, args, result):
    rows, target = args
    m = len(target)
    counts["simplex.lp_calls"] += 1
    counts["simplex.tableau_cells"] += m * (len(rows) + m + 1)
    if not result[0]:
        counts["simplex.lp_refuted"] += 1


def _count_dd(counts, args, result):
    _, ineqs, eqs = args
    counts["cones.dd_rows_in"] += len(ineqs) + len(eqs)
    counts["cones.dd_gens_out"] += len(result[0]) + len(result[1])


def _count_points(counts, args, result):
    counts["lattice.points_built"] += len(result)


COUNTERS = {
    "_simplex.nonneg_combination": _count_lp,
    "cones.double_description": _count_dd,
    "lattice.delta_simplex": _count_points,
    "lattice.cubical_hull": _count_points,
    "lattice.a_hat": _count_points,
    "lattice.lattice_points": _count_points,
}

def layer_of(module: str) -> str:
    return module.lstrip("_")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        # _simplex is first imported inside project_hrep
        for mod_name in WRAPPED:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, funcs in WRAPPED.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{layer_of(mod_name)}.{fname}", orig,
                                     COUNTERS.get(f"{mod_name}.{fname}"))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def take(self) -> tuple[list, Counter]:
        """The spans and counts recorded since the last take."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list, counts: Counter, scale: float = 1.0) -> dict:
    """Per-layer figures of one call from its spans and counts.

    A span's self time is its duration minus the durations of its child
    spans; a layer's self time sums its spans' self times.  Times are
    multiplied by ``scale``.
    """
    self_s: Counter = Counter()
    total: Counter = Counter()
    calls: Counter = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _), c in zip(spans, child):
        layer = name.split(".")[0]
        self_s[layer] += end - start - c
        self_s[name] += end - start - c
        total[name] += end - start
        calls[layer] += 1
        calls[name] += 1
    for table in (self_s, total):
        for k in table:
            table[k] *= scale
    return {
        "simplex.lp_s": self_s["simplex"],
        "simplex.tableau_cells": counts["simplex.tableau_cells"],
        "simplex.lp_calls": counts["simplex.lp_calls"],
        "simplex.lp_refuted": counts["simplex.lp_refuted"],
        "linalg.s": self_s["linalg"],
        "linalg.calls": calls["linalg"],
        "cones.project_calls": calls["cones.project_hrep"],
        "cones.project_self_s": self_s["cones.project_hrep"],
        "cones.dd_calls": calls["cones.double_description"],
        "cones.dd_s": total["cones.double_description"],
        "cones.dd_rows_in": counts["cones.dd_rows_in"],
        "cones.dd_gens_out": counts["cones.dd_gens_out"],
        "cones.tropical_hull_s": total["cones.tropical_hull"],
        "funcones.self_s": self_s["funcones"],
        "lattice.self_s": self_s["lattice"],
        "lattice.points_built": counts["lattice.points_built"],
        "moments.semigroup_check_s": total["moments.semigroup_generation_check"],
        "cli.self_s": self_s["cli"],
        "moments.self_s": self_s["moments"],
        "pseudo.self_s": self_s["pseudo"],
    }


UNITS = {name: "s" if name.endswith(("_s", ".s")) else "count"
         for name in layer_metrics([], Counter())}
