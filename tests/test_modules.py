"""The public surface: each module's ``__all__``, and a package that re-exports nothing."""

import ast
import importlib
import inspect
import pathlib
import sys

import pytest

import wignerlab
from wignerlab.grid import make_grid
from wignerlab.wigner import cross_wigner

LAYERS = ("cli", "grid", "wigner", "modspace", "moments", "ensemble", "io")

# Each module imports only modules before it here, so the package has no
# import cycle.  __init__ imports nothing and __main__ only runs the CLI.
IMPORT_ORDER = ("grid", "_csvtext", "ensemble", "wigner", "modspace", "moments", "io", "cli")

# bench/tracing.py wraps every function a layer lists in __all__ and counts
# spans of these by name, so they stay listed.
COUNTED = {
    "wigner": ("cross_wigner",),
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


def loaded_names(path):
    """Names a file reads, as a Name or an Attribute, outside the definition of that name.

    An import binds a name without reading it, and a def or class reading
    its own name (recursion) is not a use from outside.
    """
    names = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in inside:
                names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return names


def test_every_listed_name_is_read_by_the_package_or_a_demo():
    # A name only tests read does not belong in __all__.
    root = pathlib.Path(__file__).resolve().parent.parent
    files = [*(root / "src" / "wignerlab").glob("*.py"), *(root / "demos").glob("*.py")]
    read = set().union(*map(loaded_names, files))
    unread = {
        f"{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"wignerlab.{layer}").__all__
        if name not in read
    }
    assert unread == set()


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


def relative_imports(path):
    """Modules a file imports relatively: at module level, in a function or under TYPE_CHECKING."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else [alias.name for alias in node.names]


def test_each_module_imports_only_earlier_modules():
    order = ("__init__", *IMPORT_ORDER, "__main__")
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "wignerlab"
    files = {path.stem: path for path in src.glob("*.py")}
    assert sorted(files) == sorted(order)
    backward = [
        f"{name} -> {imported}"
        for name, path in files.items()
        for imported in relative_imports(path)
        if imported not in order or order.index(imported) >= order.index(name)
    ]
    assert backward == []
