"""The names the benchmark reaches into, and the package's public surface.

perfbench/tracing.py looks up every function in its WRAPPED table by name
and perfbench/checks.py imports tropmom.cones.tropical_hull_dual, so these
must stay in their modules even where they are not exported from the
package.  The surface only tests used is gone: the generator projection
lives in tests/oracles.py.  The entry points return the Cone they compute,
so the records that wrapped it are gone too.  Each support builder guards
its own size, so the size functions are gone, and a scan reports only what
its caller cannot compute.  A set with empty interior is refused by
trop_of_set, so the warning it used to emit is gone.  A Cone holds both
minimal sides from the moment it is built, so the state that completed a
side when it was first read is gone, and it reads its equations off the
incidence its double description kept, so cones computes no kernel and a
double description's result carries no cone dimension.
"""

import importlib
import importlib.util
import dataclasses
import inspect
from pathlib import Path

import tropmom
from tropmom.cones import Cone
from tropmom.linalg import kernel_basis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for mod_name, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"{mod_name}: {missing}"


def test_moment_check_route_exists():
    from tropmom.cones import tropical_hull_dual

    assert callable(tropical_hull_dual)


def test_every_exported_name_resolves():
    missing = [n for n in tropmom.__all__ if not hasattr(tropmom, n)]
    assert not missing


def test_cross_check_routes_are_not_exported():
    for name in ("fourier_motzkin_project", "tropical_hull_dual",
                 "cone_K_facets_via_simplices", "rref_int", "kernel_basis",
                 "cone_equal"):
        assert name not in tropmom.__all__
        assert not hasattr(tropmom, name)


def test_surface_only_tests_used_is_gone():
    assert not hasattr(Cone, "project")
    assert not hasattr(Cone, "nonneg_orthant")
    n = inspect.signature(kernel_basis).parameters["n"]
    assert n.default is inspect.Parameter.empty


def test_cone_records_are_gone():
    for module, name in (("funcones", "GeneralizedConvexityCone"),
                         ("pseudo", "PseudoMomentTrop")):
        assert not hasattr(importlib.import_module(f"tropmom.{module}"), name)
        assert not hasattr(tropmom, name)
        assert name not in tropmom.__all__


def test_size_functions_are_gone():
    lattice = importlib.import_module("tropmom.lattice")
    for name in ("lattice_points_size", "cubical_hull_size", "delta_simplex_size",
                 "a_hat_size"):
        assert not hasattr(lattice, name)


def test_scan_report_holds_only_what_the_caller_cannot_compute():
    fields = [f.name for f in dataclasses.fields(tropmom.ScanReport)]
    assert fields == ["results", "first_stable", "closed_form"]


def test_regular_support_warning_is_gone():
    moments = importlib.import_module("tropmom.moments")
    for module in (tropmom, moments):
        assert not hasattr(module, "RegularSupportWarning")
    assert "RegularSupportWarning" not in tropmom.__all__


def test_lazy_side_state_is_gone():
    assert Cone.__slots__ == ("dim", "_sides")
    for name in ("_side", "_described", "_minimal", "_masks"):
        assert not hasattr(Cone, name)
        assert not hasattr(Cone.origin(2), name)
    params = list(inspect.signature(tropmom.tropical_hull).parameters)
    assert params == ["dim", "rays", "lineality"]


def test_built_cones_compute_no_kernel():
    cones = importlib.import_module("tropmom.cones")
    assert not hasattr(cones, "kernel_basis")
    assert list(inspect.signature(cones._by_incidence).parameters) == ["rows", "given", "masks"]
    assert not hasattr(cones.double_description(2, [(1, 0)], []), "cone_dim")
