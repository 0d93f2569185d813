"""The public surface: every exported name resolves, names that moved to
the test oracles or were deleted stay out of the library, and the library
imports only what it uses, without scipy."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import sphereframes

MODULES = (
    "cli",
    "frame_verify",
    "harmonics",
    "rotation_grid",
    "scale_grid",
    "special_functions",
    "transform",
    "wavelet_spectra",
)

# old module -> names now in tests/oracles.py or deleted
GONE = {
    "frame_verify": (
        "ErrorBudget",
        "error_budget",
        "_sup_norms",
        "_poly_partial",
        "normalize_bounds",
    ),
    "special_functions": (
        "gegenbauer",
        "gegenbauer_series",
        "gegenbauer_derivative",
        "gegenbauer_squared_norm",
        "funk_hecke_factor",
    ),
    "harmonics": ("eval_harmonic", "gegenbauer_coeff_from_fourier", "vector_to_angles"),
    "rotation_grid": ("apply_rotation",),
    "wavelet_spectra": (
        "SpectralTruncationWarning",
        "DirectionalCoefficients",
        "directional_coeffs",
        "eval_directional_wavelet",
        "eval_directional_wavelet_uv",
        "_eval_uv_poly",
        "_zonal_derivative_series",
        "zonal_hat_all",
        "spectral_cutoff",
        "beta_tail_indicator",
    ),
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sphereframes.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"sphereframes.{name}.{attr}"


def test_package_all_resolves():
    for attr in sphereframes.__all__:
        assert hasattr(sphereframes, attr), attr


@pytest.mark.parametrize("name", sorted(GONE))
def test_moved_and_deleted_names_are_gone(name):
    module = importlib.import_module(f"sphereframes.{name}")
    for attr in GONE[name]:
        assert not hasattr(module, attr), f"sphereframes.{name}.{attr}"
        assert not hasattr(sphereframes, attr), f"sphereframes.{attr}"


@pytest.mark.parametrize("name", ["transform", "frame_verify", "cli"])
def test_transform_path_binds_no_sphere_grid_round_trip(name):
    # the transform multiplies by the monomials in coefficient space; with
    # the unused-import check below, this keeps the grid round trip out
    module = importlib.import_module(f"sphereframes.{name}")
    assert {"synthesize", "analyze", "build_sphere_grid"} & set(vars(module)) == set()


def test_scale_grid_has_one_node_rule():
    from sphereframes import scale_grid

    for cls in (scale_grid.ScaleGrid, scale_grid.EpsilonReport):
        assert "convention" not in cls.__dataclass_fields__, cls.__name__
    for fn in (scale_grid.build_scale_grid, scale_grid.scale_grid_for_profile, scale_grid.find_ratio):
        assert "convention" not in inspect.signature(fn).parameters, fn.__name__


PACKAGE_DIR = pathlib.Path(sphereframes.__file__).parent
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


def test_import_loads_no_scipy():
    code = (
        "import sys, sphereframes, sphereframes.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    # the child imports the same sphereframes as this process
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert out == [], f"importing sphereframes loads {len(out)} scipy modules: {out[:5]}"


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads and __all__ does not list."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_flags_an_unused_name():
    source = "from __future__ import annotations\nimport math, os\nfrom a import b as c\n__all__ = ['c']\nmath.pi\n"
    assert _unused_imports(source) == ["os (line 2)"]
