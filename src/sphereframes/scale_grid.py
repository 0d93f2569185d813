"""Geometric scale grids and discretized admissibility sums.

The continuous admissibility value beta(l) integrates the per-degree wavelet
energy over all scales with measure d(rho)/rho.  Here the integral is replaced
by a log-uniform Riemann sum on a geometric sequence rho_j = rho_max * X0^-j,
j = 0..count, with weights ln X0.  The maximal relative deviation eps_hat
between the two quantifies the discretization: A(1 - eps_hat) and
B(1 + eps_hat) bound the semi-discrete system whenever A, B bound the
continuous one.

A ``ScaleGrid`` is the sequence's three numbers (rho_max, X0, count): it
makes its scales and weights once, at construction, and an
``EpsilonReport`` holds the grid that its sums were taken on.

Both sums read the energies of all their degrees from the one spectrum
evaluator of ``wavelet_spectra``, over a (scales x degrees) array.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .wavelet_spectra import (
    SpectralProfile,
    _degree_means,
    _DegreePart,
    _natural,
    _scale_energies,
    _scale_log_range,
    beta_numeric,
    profile_order,
)

__all__ = [
    "ScaleGrid",
    "ScaleCoverageWarning",
    "scale_grid_for_profile",
    "discrete_beta",
    "EpsilonReport",
    "epsilon_report",
    "find_ratio",
]


# find_ratio's bracket: the finest and the coarsest ratio it considers
_FINEST_RATIO, _COARSEST_RATIO = 1.005, 2.0


class ScaleCoverageWarning(UserWarning):
    """The scale grid misses a non-negligible part of some degree's integrand."""


def _user_stacklevel() -> int:
    """The stacklevel at which a warnings.warn made by this function's caller
    names the first frame outside the package: the library's user."""
    package = os.path.dirname(__file__)
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == package:
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class ScaleGrid:
    """The geometric grid rho_j = rho_max * ratio^-j for j = 0..count, with
    log-quadrature weights ln ratio.

    The grid is its three numbers, which it compares and hashes by.
    ``count`` is the number of ratio steps, so the grid holds count + 1
    scales, each at the midpoint of its log-cell; the ``scales`` and
    ``weights`` arrays are made once, at construction.
    """

    rho_max: float
    ratio: float
    count: int
    scales: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.rho_max) and self.rho_max > 0):
            raise ValueError(f"rho_max must be positive and finite, got {self.rho_max}")
        _check_ratio(self.ratio)
        object.__setattr__(self, "count", _natural(self.count, "count"))
        scales, weights = _geometric_scales(self.rho_max, self.ratio, self.count)
        if not scales[-1] > 0:
            raise ValueError(f"rho_max {self.rho_max} / {self.ratio}^{self.count} underflows to 0")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.count + 1

    @property
    def rho_min(self) -> float:
        return float(self.scales[-1])


def _check_ratio(ratio: float) -> None:
    """Refuse a grid ratio that is not finite and above 1."""
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise ValueError(f"ratio must exceed 1 and be finite, got {ratio}")


def _geometric_scales(rho_max: float, ratio: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The scales rho_max * ratio^-j, j = 0..count, and their weights ln ratio."""
    j = np.arange(count + 1)
    scales = rho_max * ratio ** (-j.astype(float))
    weights = np.full(count + 1, math.log(ratio))
    return scales, weights


def discrete_beta(n: int, profile: SpectralProfile, grid: ScaleGrid, l) -> float | np.ndarray:
    """Riemann-sum counterpart of beta(l) on the given scale grid.

    l is an int (giving a float) or an integer array of degrees, whose
    energies at every scale come from one (scales x degrees) evaluation.
    Warns, once per degree, when the integrand at either end of the grid
    exceeds 1e-12 of its peak, i.e. when the grid truncates its integral.
    """
    return _degree_means(
        n, profile, l, lambda part: _riemann_means(grid.scales, grid.weights, part)
    )


def _riemann_means(scales: np.ndarray, weights: np.ndarray, part: _DegreePart) -> np.ndarray:
    """``discrete_beta`` of the degrees of a ``_DegreePart`` on the decreasing
    scales with their weights: the Riemann sums of the energies over N(n, l),
    with the coverage warning.  Only the scale part of the spectrum is
    evaluated, and no ``ScaleGrid`` is built or checked."""
    energies = _scale_energies(scales[:, None], part)
    peak = energies.max(axis=0)
    ends = np.maximum(energies[0], energies[-1])
    for i in np.flatnonzero((peak > 0) & (ends > 1e-12 * peak)):
        warnings.warn(
            f"scale grid [{scales[-1]:.3g}, {scales[0]:.3g}] truncates the "
            f"degree-{part.degrees[i]} integrand (endpoint/peak = {ends[i] / peak[i]:.2e})",
            ScaleCoverageWarning,
            stacklevel=_user_stacklevel(),
        )
    return weights @ energies / part.dimensions


def scale_grid_for_profile(n: int, profile: SpectralProfile, ratio: float, L: int) -> ScaleGrid:
    """Grid whose range covers the scale integrands of the degrees m+1..L.

    m is the profile order, so degree 0 counts for zonal profiles with
    q(0) > 0.  The range is the union of the per-degree supports at
    ``_scale_log_range``'s default level, where every integrand has fallen
    to 1e-15 of its peak, so the truncation error stays negligible against
    the discretization error.  The grid runs down from the top of that
    range in steps of the ratio until it passes the bottom.
    """
    if L < 1:
        raise ValueError(f"band limit must be >= 1, got {L}")
    _check_ratio(ratio)
    q = profile.positive_q(np.arange(profile_order(profile) + 1, L + 1))
    return ScaleGrid(*_range_scales(_scale_log_range(profile, q), ratio))


def _range_scales(log_range: tuple[float, float], ratio: float) -> tuple[float, float, int]:
    """The rho_max, ratio and count of the geometric grid of the given ratio
    from the top of a log-rho range down past its bottom: the only part of a
    profile's grid that depends on the ratio.  A ``find_ratio`` step makes
    the grid's arrays from them and builds no ``ScaleGrid``."""
    u_lo, u_hi = log_range
    return math.exp(u_hi), ratio, max(1, math.ceil((u_hi - u_lo) / math.log(ratio)))


@dataclass(frozen=True)
class EpsilonReport:
    """Per-degree comparison of discrete vs continuous admissibility on a grid."""

    degrees: np.ndarray
    beta_continuous: np.ndarray
    beta_discrete: np.ndarray
    grid: ScaleGrid

    @property
    def rel_dev(self) -> np.ndarray:
        return np.abs(self.beta_discrete - self.beta_continuous) / self.beta_continuous

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
            "ratio": self.grid.ratio,
            "count": self.grid.count,
            "rho_min": self.grid.rho_min,
            "rho_max": self.grid.rho_max,
        }


def epsilon_report(n: int, profile: SpectralProfile, grid: ScaleGrid, L: int) -> EpsilonReport:
    """eps_hat = max of |discrete_beta - beta| / beta over the degrees m+1..L.

    m is the profile order, so degree 0 counts for zonal profiles with q(0) > 0.
    The continuous beta comes from one ``beta_numeric`` call over the degrees,
    the discrete one from one Riemann sum on the grid; only the latter depends
    on the grid's ratio, which is why ``find_ratio`` computes the former once.
    """
    if L < 1:
        raise ValueError(f"band limit must be >= 1, got {L}")
    degrees = np.arange(profile_order(profile) + 1, L + 1)
    return _epsilon_report(n, profile, grid, degrees, beta_numeric(n, profile, degrees))


def _epsilon_report(
    n: int, profile: SpectralProfile, grid: ScaleGrid, degrees: np.ndarray, cont: np.ndarray
) -> EpsilonReport:
    """The report of the grid's Riemann sums against the continuous beta
    ``cont`` of the degrees, which the caller has computed."""
    return EpsilonReport(degrees, cont, discrete_beta(n, profile, grid, degrees), grid)


def find_ratio(
    n: int, profile: SpectralProfile, L: int, target: float = 0.05, rel_tol: float = 1e-3
) -> float:
    """Largest grid ratio X0 in [_FINEST_RATIO, _COARSEST_RATIO] whose eps_hat
    stays within target.

    Bisection on ln X0 until the bracket's relative width is at most rel_tol,
    a positive finite number, or its midpoint rounds onto one of its ends;
    relies on eps_hat decreasing as X0 approaches 1.  Once per call it
    computes what no ratio changes: the profile order, the degree part of
    the spectrum at the degrees m+1..L (``_DegreePart``: q(l), evaluated and
    checked once, q(l)^b, R(l), N(n, l)), the log-rho range of
    ``scale_grid_for_profile`` from the part's q (two closed-form roots)
    and the degrees' continuous beta.  Each step then makes only the
    scales and weights of its ratio over that range, those of
    ``scale_grid_for_profile(n, profile, ratio, L)``, with no ``ScaleGrid``
    built or checked, and evaluates the scale part of the spectrum on them
    for the Riemann sums, the bits of ``discrete_beta`` on that grid.
    Feasibility is checked last: eps_hat at _FINEST_RATIO, the finest
    grid, is evaluated only when no step met the target, and a ValueError
    says so when it exceeds the target there too.  target, like rel_tol,
    is a positive finite number.
    """
    if L < 1:
        raise ValueError(f"band limit must be >= 1, got {L}")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be a positive finite number, got {rel_tol}")
    if not (math.isfinite(target) and target > 0):
        raise ValueError(f"target must be a positive finite number, got {target}")
    part = _DegreePart(profile, n, np.arange(profile_order(profile) + 1, L + 1))
    log_range = _scale_log_range(profile, part.q)
    cont = beta_numeric(n, profile, part)

    def eps(ratio: float) -> float:
        disc = _riemann_means(*_geometric_scales(*_range_scales(log_range, ratio)), part)
        return float((np.abs(disc - cont) / cont).max())

    lo, hi = _FINEST_RATIO, _COARSEST_RATIO
    if eps(hi) <= target:
        return hi
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if eps(mid) <= target:
            lo = mid
        else:
            hi = mid
    if lo == _FINEST_RATIO and eps(lo) > target:
        raise ValueError(f"eps_hat at X0={_FINEST_RATIO} already exceeds {target}")
    return lo
