"""Geometric scale grids and discretized admissibility sums.

The continuous admissibility value beta(l) integrates the per-degree wavelet
energy over all scales with measure d(rho)/rho.  Here the integral is replaced
by a log-uniform Riemann sum on a geometric sequence rho_j = rho_max * X0^-j
with weights ln X0.  The maximal relative deviation eps_hat between the two
quantifies the discretization: A(1 - eps_hat) and B(1 + eps_hat) bound the
semi-discrete system whenever A, B bound the continuous one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .harmonics import dim_harmonic
from .wavelet_spectra import (
    SpectralProfile,
    _response_norm,
    _scale_log_range,
    beta_numeric,
)

__all__ = [
    "ScaleGrid",
    "ScaleCoverageWarning",
    "build_scale_grid",
    "scale_grid_for_profile",
    "discrete_beta",
    "EpsilonReport",
    "epsilon_report",
    "find_ratio",
]


class ScaleCoverageWarning(UserWarning):
    """The scale grid misses a non-negligible part of some degree's integrand."""


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly decreasing scales with log-quadrature weights.

    ``convention`` records whether each node sits at the midpoint or the left
    (small-rho) endpoint of its log-cell; the node positions differ by a half
    step X0^(-1/2) between the two.
    """

    scales: np.ndarray
    weights: np.ndarray
    ratio: float
    convention: str = "midpoint"

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", weights)
        if scales.ndim != 1 or scales.size == 0:
            raise ValueError("scales must be a nonempty 1-d sequence")
        if scales.shape != weights.shape:
            raise ValueError("scales and weights must have equal length")
        if np.any(scales <= 0) or np.any(weights <= 0):
            raise ValueError("scales and weights must be positive")
        if self.ratio <= 1.0:
            raise ValueError(f"ratio bound must exceed 1, got {self.ratio}")
        if scales.size > 1:
            step = scales[:-1] / scales[1:]
            if np.any(step <= 1.0) or np.any(step > self.ratio * (1.0 + 1e-12)):
                raise ValueError("consecutive scale ratios must lie in (1, ratio]")
        if self.convention not in ("midpoint", "left"):
            raise ValueError(f"unknown convention {self.convention!r}")

    def __len__(self) -> int:
        return int(self.scales.size)

    @property
    def rho_max(self) -> float:
        return float(self.scales[0])

    @property
    def rho_min(self) -> float:
        return float(self.scales[-1])


def build_scale_grid(
    rho_max: float, ratio: float, count: int, convention: str = "midpoint"
) -> ScaleGrid:
    """Geometric grid rho_j = rho_max * ratio^-j for j = 0..count, weights ln ratio.

    ``count`` is the number of ratio steps, so the grid holds count + 1 scales.
    The left-endpoint convention shifts every node down by ratio^(-1/2), which
    turns the midpoint rule for the log-cells into the left-endpoint rule on
    the same cells.
    """
    if rho_max <= 0:
        raise ValueError(f"rho_max must be positive, got {rho_max}")
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    j = np.arange(count + 1)
    scales = rho_max * ratio ** (-j.astype(float))
    if convention == "left":
        scales = scales / math.sqrt(ratio)
    weights = np.full(count + 1, math.log(ratio))
    return ScaleGrid(scales, weights, ratio, convention)


def _degree_energies(n: int, profile: SpectralProfile, l: int, scales: np.ndarray):
    """Vectorized sum_kappa |a_l^kappa(Psi_rho)|^2 over a scale array."""
    lam = (n - 1) / 2
    q = float(profile.q_eval(l))
    if q <= 0.0:
        if l >= 1:
            raise ValueError(f"q({l}) <= 0 inside the requested range")
        return np.zeros_like(np.asarray(scales, dtype=float))
    R = _response_norm(n, profile.d, l)
    scales = np.asarray(scales, dtype=float)
    s = scales**profile.a * q**profile.b
    hat = profile.amplitude * s**profile.c * np.exp(-s) * (l + lam) / lam
    return scales ** (2.0 * profile.tilde_exponent * profile.d) * hat * hat * R


def discrete_beta(n: int, profile: SpectralProfile, grid: ScaleGrid, l: int) -> float:
    """Riemann-sum counterpart of beta(l) on the given scale grid.

    Warns when the integrand at either end of the grid exceeds 1e-12 of its
    peak, i.e. when the grid range truncates the scale integral noticeably.
    """
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    if l == 0 and (profile.d >= 1 or profile.q_eval(0) == 0.0):
        return 0.0
    energies = _degree_energies(n, profile, l, grid.scales)
    peak = energies.max()
    if peak > 0 and max(energies[0], energies[-1]) > 1e-12 * peak:
        warnings.warn(
            f"scale grid [{grid.rho_min:.3g}, {grid.rho_max:.3g}] truncates the "
            f"degree-{l} integrand (endpoint/peak = "
            f"{max(energies[0], energies[-1]) / peak:.2e})",
            ScaleCoverageWarning,
            stacklevel=2,
        )
    return float(np.dot(grid.weights, energies)) / dim_harmonic(n, l)


def scale_grid_for_profile(
    n: int,
    profile: SpectralProfile,
    ratio: float,
    L: int,
    convention: str = "midpoint",
) -> ScaleGrid:
    """Grid whose range covers the scale integrands of all degrees 1..L.

    The range is the union of the per-degree supports at relative level 1e-15,
    comfortably under the 1e-12 coverage threshold of discrete_beta, so the
    truncation error stays negligible against the discretization error.
    """
    if L < 1:
        raise ValueError(f"band limit must be >= 1, got {L}")
    u_lo_L, _ = _scale_log_range(profile, L, 1e-15)
    _, u_hi_1 = _scale_log_range(profile, 1, 1e-15)
    count = max(1, math.ceil((u_hi_1 - u_lo_L) / math.log(ratio)))
    return build_scale_grid(math.exp(u_hi_1), ratio, count, convention)


@dataclass(frozen=True)
class EpsilonReport:
    """Per-degree comparison of discrete vs continuous admissibility."""

    degrees: np.ndarray
    beta_continuous: np.ndarray
    beta_discrete: np.ndarray
    rel_dev: np.ndarray
    ratio: float
    count: int
    rho_min: float
    rho_max: float
    convention: str = "midpoint"

    @property
    def epsilon_hat(self) -> float:
        return float(self.rel_dev.max())

    def to_csv(self) -> str:
        lines = ["l,beta_continuous,beta_discrete,rel_dev"]
        for l, bc, bd, rd in zip(
            self.degrees, self.beta_continuous, self.beta_discrete, self.rel_dev
        ):
            lines.append(f"{int(l)},{bc:.17g},{bd:.17g},{rd:.17g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "epsilon_hat": self.epsilon_hat,
            "ratio": self.ratio,
            "count": self.count,
            "rho_min": self.rho_min,
            "rho_max": self.rho_max,
            "convention": self.convention,
        }


def epsilon_report(n: int, profile: SpectralProfile, grid: ScaleGrid, L: int) -> EpsilonReport:
    """eps_hat = max over 1 <= l <= L of |discrete_beta - beta| / beta."""
    if L < 1:
        raise ValueError(f"band limit must be >= 1, got {L}")
    degrees = np.arange(1, L + 1)
    cont = np.array([beta_numeric(n, profile, int(l)) for l in degrees])
    disc = np.array([discrete_beta(n, profile, grid, int(l)) for l in degrees])
    rel = np.abs(disc - cont) / cont
    return EpsilonReport(
        degrees,
        cont,
        disc,
        rel,
        grid.ratio,
        len(grid) - 1,
        grid.rho_min,
        grid.rho_max,
        grid.convention,
    )


def find_ratio(
    n: int,
    profile: SpectralProfile,
    L: int,
    target: float = 0.05,
    lo: float = 1.005,
    hi: float = 2.0,
    rel_tol: float = 1e-3,
    convention: str = "midpoint",
) -> float:
    """Largest grid ratio X0 in [lo, hi] whose eps_hat stays within target.

    Bisection on ln X0; relies on eps_hat decreasing as X0 approaches 1.
    """
    if not (1.0 < lo < hi):
        raise ValueError("need 1 < lo < hi")

    def eps(ratio: float) -> float:
        grid = scale_grid_for_profile(n, profile, ratio, L, convention)
        return epsilon_report(n, profile, grid, L).epsilon_hat

    if eps(hi) <= target:
        return hi
    if eps(lo) > target:
        raise ValueError(f"eps_hat at X0={lo} already exceeds {target}")
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if eps(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo
