"""The public surface: each module's ``__all__``, and a package that re-exports nothing."""

import importlib
import inspect
import sys

import pytest

import wignerlab
from wignerlab.grid import make_grid
from wignerlab.wigner import cross_wigner

LAYERS = ("cli", "grid", "wigner", "modspace", "moments", "ensemble", "io")

# bench/tracing.py wraps every function a layer lists in __all__ and counts
# spans of these by name, so they stay listed.
COUNTED = {
    "wigner": ("cross_wigner",),
    "modspace": ("weighted_l1_norm",),
    "ensemble": ("project_to_basis",),
    "grid": ("catalog_state",),
    "io": ("write_json", "write_field_csv", "write_marginal_csv", "write_state_csv"),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_import_as_binds_the_module(layer):
    scope = {}
    exec(f"import wignerlab.{layer} as m", scope)
    assert scope["m"] is sys.modules[f"wignerlab.{layer}"]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_listed_name_resolves(layer):
    mod = importlib.import_module(f"wignerlab.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        getattr(mod, name)
    assert set(COUNTED.get(layer, ())) <= set(mod.__all__)


def test_package_exports_only_its_version():
    for layer in LAYERS:
        importlib.import_module(f"wignerlab.{layer}")
    public = {name for name in vars(wignerlab) if not name.startswith("_")}
    assert all(inspect.ismodule(getattr(wignerlab, name)) for name in public)
    assert isinstance(wignerlab.__version__, str)


def test_cross_wigner_keeps_the_grid_the_tracer_reads():
    # bench/tracing.py counts a cross_wigner span's rows as args[2].n_points.
    assert list(inspect.signature(cross_wigner).parameters)[:3] == ["psi", "phi", "grid"]
    assert make_grid(64, 8.0).n_points == 64
