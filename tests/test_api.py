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
    "harmonics": (
        "eval_harmonic",
        "gegenbauer_coeff_from_fourier",
        "vector_to_angles",
        "eval_degree_components",
    ),
    "rotation_grid": ("apply_rotation", "PartitionCell"),
    "scale_grid": ("_degree_energies",),
    "wavelet_spectra": (
        "_response_norm",
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


def test_unread_inputs_stay_deleted():
    from sphereframes import (
        frame_verify,
        harmonics,
        rotation_grid,
        scale_grid,
        transform,
        wavelet_spectra,
    )

    for cls, name in (
        (wavelet_spectra.BetaTable, "profile"),
        (transform.TestField, "seed"),
        (rotation_grid.SpherePartition, "delta"),
        # restated another input: the values' length, the factor count,
        # the centres' width and the two beta columns
        (wavelet_spectra.BetaTable, "L"),
        (rotation_grid.RotationGrid, "n"),
        (rotation_grid.SpherePartition, "dimension"),
        (scale_grid.EpsilonReport, "rel_dev"),
    ):
        assert name not in cls.__dataclass_fields__, f"{cls.__name__}.{name}"
    assert not hasattr(rotation_grid.SpherePartition, "dimension")
    assert not hasattr(wavelet_spectra, "_degree_part")
    for name in ("get", "indices", "to_csv", "from_csv"):
        assert not hasattr(harmonics.HarmonicCoefficients, name), name
    for fn, names in (
        (transform.frame_energy, ("scales", "rotations")),
        (transform.energy_identity_oracle, ("n", "profile")),
        # the grid fixes the dimension and the fields their band limit
        (transform._scan, ("n", "field_L")),
        # the degree part carries its profile and dimension
        (wavelet_spectra._directional_hat, ("profile", "n")),
        (wavelet_spectra._scale_energies, ("profile", "n")),
        (scale_grid.find_ratio, ("lo", "hi")),
        # passed on to certify_frame, which keeps their one default
        (
            frame_verify.find_refinement,
            ("tolerance", "margin", "max_elements", "threads", "spatial"),
        ),
    ):
        assert set(names).isdisjoint(inspect.signature(fn).parameters), fn.__name__


PACKAGE_DIR = pathlib.Path(sphereframes.__file__).parent
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


def _modules_imported_under(package: str) -> list[str]:
    """Modules of package that `import sphereframes, sphereframes.cli` loads
    in a fresh interpreter."""
    code = (
        "import sys, sphereframes, sphereframes.cli\n"
        f"print(' '.join(sorted(m for m in sys.modules if (m + '.').startswith('{package}.'))))"
    )
    # the child imports the same sphereframes as this process
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()


def test_import_loads_no_scipy():
    out = _modules_imported_under("scipy")
    assert out == [], f"importing sphereframes loads {len(out)} scipy modules: {out[:5]}"


def test_import_loads_no_numpy_polynomial():
    # q(l) is evaluated by Horner's rule in the library; polyval is the tests' oracle
    out = _modules_imported_under("numpy.polynomial")
    assert out == [], f"importing sphereframes loads numpy.polynomial modules: {out[:5]}"


def test_import_leaves_the_csv_writer_to_its_first_use():
    # its tables cost runs that write no transform or rotation-grid CSV
    assert "sphereframes._csvtext" not in _modules_imported_under("sphereframes")


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


# the parameters the library keeps unread, and why
UNREAD = {
    "transform.wavelet_analysis(sphere_grid)": "perfbench passes it; its tracer reads its size",
    "transform.transform_energies(sphere_grid)": "perfbench passes it; its tracer reads its size",
    "scale_grid.scale_grid_for_profile(n)": "perfbench passes the dimension positionally",
    "rotation_grid._FlatWeights.__get__(owner)": "the descriptor protocol passes the owner class",
}


def _unread_parameters(source: str) -> list[str]:
    """Parameters of every function, method and lambda that its body never reads."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                found.extend(f"{name}({p})" for p in params if p not in read)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_library_has_no_unread_parameters():
    found = [
        f"{path.stem}.{entry}" for path in SOURCES for entry in _unread_parameters(path.read_text())
    ]
    assert sorted(found) == sorted(UNREAD)


def test_unread_parameter_check_flags_an_unread_name():
    source = (
        "def f(a, b=1, *rest, c, **extra):\n    return a + sum(rest) + extra[c]\n"
        "class K:\n    def m(self, used, unused):\n        return (lambda x, y: x)(used, self)\n"
    )
    assert _unread_parameters(source) == ["f(b)", "K.m(unused)", "K.m.<lambda>(y)"]
