"""The names the benchmark reaches into, and the package's public surface.

perfbench/tracing.py looks up every function in its WRAPPED table by name
and perfbench/checks.py imports tropmom.cones.tropical_hull_dual, so these
must stay in their modules even where they are not exported from the
package.  The surface only tests used is gone: the generator projection
lives in tests/oracles.py.  The entry points return the Cone they compute,
so the records that wrapped it are gone too.
"""

import importlib
import importlib.util
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
