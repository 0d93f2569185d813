"""The public surface: every exported name resolves, and names that moved to
the test oracles or were deleted stay out of the library."""

import importlib
import inspect

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
    "frame_verify": ("ErrorBudget", "error_budget", "_sup_norms", "_poly_partial"),
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


def test_scale_grid_has_one_node_rule():
    from sphereframes import scale_grid

    for cls in (scale_grid.ScaleGrid, scale_grid.EpsilonReport):
        assert "convention" not in cls.__dataclass_fields__, cls.__name__
    for fn in (scale_grid.build_scale_grid, scale_grid.scale_grid_for_profile, scale_grid.find_ratio):
        assert "convention" not in inspect.signature(fn).parameters, fn.__name__
