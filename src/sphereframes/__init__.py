"""Wavelet frames on the n-sphere: spectral profiles, discretization, verification."""

from .frame_verify import FrameReport, certify_frame, find_refinement
from .harmonics import (
    HarmonicCoefficients,
    HarmonicIndex,
    SphereGrid,
    analyze,
    angles_to_vector,
    build_sphere_grid,
    dim_harmonic,
    surface_area,
    synthesize,
)
from .rotation_grid import (
    RotationGrid,
    SpherePartition,
    build_rotation_grid,
    partition_sphere,
    rotation_matrix,
)
from .scale_grid import (
    EpsilonReport,
    ScaleCoverageWarning,
    ScaleGrid,
    discrete_beta,
    epsilon_report,
    find_ratio,
    scale_grid_for_profile,
)
from .transform import (
    TestField,
    TransformTable,
    energy_identity_oracle,
    frame_energy,
    random_bandlimited,
    transform_energies,
    wavelet_analysis,
)
from .wavelet_spectra import (
    BetaTable,
    SpectralProfile,
    beta_numeric,
    build_beta_table,
    make_preset,
    wavelet_bounds,
    zonal_hat,
)

__version__ = "0.1.0"

__all__ = [
    "BetaTable",
    "EpsilonReport",
    "FrameReport",
    "HarmonicCoefficients",
    "HarmonicIndex",
    "RotationGrid",
    "ScaleCoverageWarning",
    "ScaleGrid",
    "SphereGrid",
    "SpherePartition",
    "SpectralProfile",
    "TestField",
    "TransformTable",
    "analyze",
    "angles_to_vector",
    "beta_numeric",
    "build_beta_table",
    "build_rotation_grid",
    "build_sphere_grid",
    "certify_frame",
    "dim_harmonic",
    "discrete_beta",
    "energy_identity_oracle",
    "epsilon_report",
    "find_ratio",
    "find_refinement",
    "frame_energy",
    "make_preset",
    "partition_sphere",
    "random_bandlimited",
    "rotation_matrix",
    "scale_grid_for_profile",
    "surface_area",
    "synthesize",
    "transform_energies",
    "wavelet_analysis",
    "wavelet_bounds",
    "zonal_hat",
    "__version__",
]
