"""End-to-end frame certification for discretized wavelet systems.

Pulls together the admissibility table, a scale grid, and a rotation grid,
runs seeded random band-limited trial fields through the discrete transform,
and compares every trial's energy against the frame window [A(1-tau),
B(1+tau)].  The rotation-discretization deviation delta_hat is estimated by
re-running the trials on a grid with all diameter caps halved; the scale
deviation eps_hat comes from the per-degree admissibility comparison.  A
report passes when all trial ratios stay inside the window and the combined
deviation eps_hat + delta_hat leaves the required margin below 1.

The sup-norm error budget mirrors the per-level structure of the grid error
bound; the constants in that bound are unspecified, so the budget is reported
as a relative diagnostic, not as a certified bound.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .harmonics import build_sphere_grid
from .rotation_grid import build_rotation_grid
from .scale_grid import ScaleGrid, discrete_beta, epsilon_report, scale_grid_for_profile
from .transform import energy_identity_oracle, random_bandlimited, transform_energies
from .wavelet_spectra import (
    SpectralProfile,
    _eval_uv_poly,
    _theta_derivative_tableau,
    _zonal_derivative_series,
    build_beta_table,
    profile_order,
    spectral_cutoff,
    wavelet_bounds,
)

__all__ = [
    "FrameReport",
    "certify_frame",
    "find_refinement",
    "ErrorBudget",
    "error_budget",
    "normalize_bounds",
]


@dataclass(frozen=True)
class FrameReport:
    """Trial-by-trial frame check with the grid deviations that scope it."""

    n: int
    L: int
    profile_summary: dict
    A: float
    B: float
    epsilon_hat: float
    delta_hat: float
    tolerance: float
    margin: float
    seed: int
    ratios: np.ndarray
    energies: np.ndarray
    energies_half: np.ndarray
    oracles: np.ndarray
    discrepancies: np.ndarray
    verdict: bool
    grid_info: dict
    normalization: float = 1.0

    @property
    def lower(self) -> float:
        return self.A * (1.0 - self.tolerance)

    @property
    def upper(self) -> float:
        return self.B * (1.0 + self.tolerance)

    def trials(self) -> list:
        out = []
        for i in range(len(self.ratios)):
            out.append(
                {
                    "trial": i,
                    "energy": float(self.energies[i]),
                    "energy_half": float(self.energies_half[i]),
                    "oracle": float(self.oracles[i]),
                    "ratio": float(self.ratios[i]),
                    "discrepancy": float(self.discrepancies[i]),
                }
            )
        return out

    def to_json(self, extra: dict | None = None) -> str:
        doc = {
            "energy": float(np.mean(self.energies)),
            "oracle": float(np.mean(self.oracles)),
            "ratio": float(np.mean(self.ratios)),
            "A": self.A,
            "B": self.B,
            "epsilon_hat": self.epsilon_hat,
            "delta_hat": self.delta_hat,
            "tolerance": self.tolerance,
            "margin": self.margin,
            "seed": self.seed,
            "verdict": "pass" if self.verdict else "fail",
            "n": self.n,
            "band_limit": self.L,
            "profile": self.profile_summary,
            "grid": self.grid_info,
            "normalization": self.normalization,
            "trials": self.trials(),
        }
        if extra:
            doc.update(extra)
        return json.dumps(doc, indent=2, sort_keys=False)

    def ratios_csv(self) -> str:
        lines = ["trial,energy,oracle,ratio,discrepancy"]
        for t in self.trials():
            lines.append(
                f"{t['trial']},{t['energy']:.17g},{t['oracle']:.17g},"
                f"{t['ratio']:.17g},{t['discrepancy']:.17g}"
            )
        return "\n".join(lines) + "\n"


def _profile_summary(profile: SpectralProfile) -> dict:
    doc = dataclasses.asdict(profile)
    doc["q"] = list(doc["q"])
    return doc


def certify_frame(
    n: int,
    profile: SpectralProfile,
    L: int,
    ratio: float,
    delta_list,
    trials: int,
    seed: int,
    tolerance: float = 0.1,
    margin: float = 0.05,
    max_elements: int = 200_000,
    threads=None,
    spatial: bool | None = None,
) -> FrameReport:
    """Run seeded trial fields through the discrete system and judge the frame.

    Full spatial verification (rotation grids and sphere quadrature) runs for
    n = 2 by default and for n = 3 with L <= 4 when ``spatial=True``.  Higher
    dimensions fall back to the spectral side: scale discretization only, with
    the rotation integral taken as exact (delta_hat = 0).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if spatial is None:
        spatial = n == 2
    if spatial and n == 3 and L > 4:
        raise ValueError("spatial verification for n=3 is limited to L <= 4")
    if spatial and n > 3:
        raise ValueError("spatial verification is limited to n <= 3")

    beta = build_beta_table(n, profile, L)
    A, B = wavelet_bounds(beta)
    m = profile_order(profile)
    scales = scale_grid_for_profile(n, profile, ratio, L)
    eps = epsilon_report(n, profile, scales, L).epsilon_hat

    children = np.random.SeedSequence(seed).spawn(trials)
    fields = [random_bandlimited(n, L, m, s) for s in children]
    oracles = np.array(
        [energy_identity_oracle(n, profile, f, beta) for f in fields]
    )

    grid_info = {
        "ratio": ratio,
        "scale_count": len(scales),
        "rho_min": scales.rho_min,
        "rho_max": scales.rho_max,
        "mode": "spatial" if spatial else "spectral",
    }
    if spatial:
        deltas = tuple(float(x) for x in delta_list)
        rot = build_rotation_grid(n, deltas, max_elements)
        rot_half = build_rotation_grid(
            n, tuple(x / 2 for x in deltas), max_elements
        )
        sphere = build_sphere_grid(n, L)
        energies = transform_energies(n, profile, fields, scales, rot, sphere, threads)
        energies_half = transform_energies(
            n, profile, fields, scales, rot_half, sphere, threads
        )
        delta_hat = float(
            2.0 * np.max(np.abs(energies - energies_half) / energies_half)
        )
        grid_info.update(
            {
                "delta": list(deltas),
                "rotation_sizes": list(rot.sizes),
                "rotation_half_sizes": list(rot_half.sizes),
            }
        )
    else:
        # semi-discrete check: scales discretized, rotations integrated exactly
        disc = np.array([discrete_beta(n, profile, scales, l) for l in range(L + 1)])
        energies = np.array(
            [
                sum(disc[l] * f.coeffs.degree_energy(l) for l in range(L + 1))
                for f in fields
            ]
        )
        energies_half = energies.copy()
        delta_hat = 0.0
        grid_info["delta"] = list(delta_list) if delta_list is not None else []

    ratios = energies.copy()
    discrepancies = np.abs(energies - oracles) / oracles
    in_window = bool(
        np.all(ratios >= A * (1.0 - tolerance))
        and np.all(ratios <= B * (1.0 + tolerance))
    )
    verdict = in_window and (eps + delta_hat < 1.0 - margin)
    return FrameReport(
        n,
        L,
        _profile_summary(profile),
        A,
        B,
        eps,
        delta_hat,
        tolerance,
        margin,
        seed,
        ratios,
        energies,
        energies_half,
        oracles,
        discrepancies,
        verdict,
        grid_info,
    )


def find_refinement(
    n: int,
    profile: SpectralProfile,
    L: int,
    ratio: float,
    delta_list,
    trials: int,
    seed: int,
    tolerance: float = 0.1,
    margin: float = 0.05,
    max_rounds: int = 5,
    max_elements: int = 200_000,
    threads=None,
) -> FrameReport:
    """Halve one global refinement knob until certify_frame passes.

    Each round halves every rotation cap and the log of the scale ratio.
    Returns the first passing report; raises if max_rounds is exhausted.
    """
    deltas = tuple(float(x) for x in delta_list)
    report = None
    for _ in range(max_rounds):
        report = certify_frame(
            n,
            profile,
            L,
            ratio,
            deltas,
            trials,
            seed,
            tolerance,
            margin,
            max_elements,
            threads,
        )
        if report.verdict:
            return report
        ratio = math.sqrt(ratio)
        deltas = tuple(x / 2 for x in deltas)
    raise RuntimeError(
        f"no passing refinement within {max_rounds} rounds; "
        f"last deviations eps={report.epsilon_hat:.3g}, delta={report.delta_hat:.3g}"
    )


def normalize_bounds(report: FrameReport) -> FrameReport:
    """Rescale the family by 2/(A+B) so the window becomes (1-eps, 1+eps).

    Energies and ratios scale along with the bounds, so the verdict carries
    over unchanged; eps here is (B-A)/(A+B), the tightness of the rescaled
    frame, not the grid deviation.
    """
    if report.A <= 0 or report.B <= 0:
        raise ValueError("frame bounds must be positive to normalize")
    s = 2.0 / (report.A + report.B)
    return dataclasses.replace(
        report,
        A=report.A * s,
        B=report.B * s,
        ratios=report.ratios * s,
        energies=report.energies * s,
        energies_half=report.energies_half * s,
        oracles=report.oracles * s,
        normalization=report.normalization * s,
    )


# ---------------------------------------------------------------------------
# sup-norm error budget


@dataclass(frozen=True)
class ErrorBudget:
    """Per-scale sup norms and per-level grid-error indicators."""

    sup_wavelet: np.ndarray
    sup_gradient: np.ndarray
    delta_list: tuple
    per_level: np.ndarray
    total: float


def _poly_partial(table: np.ndarray, axis: int) -> np.ndarray:
    out = np.zeros_like(table)
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            c = table[i, j]
            if c == 0.0:
                continue
            if axis == 0 and i >= 1:
                out[i - 1, j] += c * i
            elif axis == 1 and j >= 1:
                out[i, j - 1] += c * j
    return out


def _sup_norms(
    n: int, profile: SpectralProfile, rho: float, dense: int, max_degree: int
):
    """Sup of |Psi_rho| and of its tangential gradient on a dense angle net.

    The wavelet depends on the point only through y1 and y2, so the net runs
    over that pair; the gradient uses the exact derivative of the expansion,
    projected onto the tangent plane.
    """
    d = profile.d
    L = min(spectral_cutoff(profile, rho, n), max_degree)
    theta = np.linspace(0.0, math.pi, dense)
    phi = np.linspace(0.0, math.pi, max(dense // 8, 9))
    y1 = np.repeat(np.cos(theta), phi.size)
    y2 = np.outer(np.sin(theta), np.cos(phi)).ravel()

    def series(k: int) -> np.ndarray:
        return _zonal_derivative_series(profile, rho, n, L, k, y1)

    scale = rho ** (profile.tilde_exponent * d)
    if d == 0:
        val = series(0)
        grad_u = series(1)
        grad_v = np.zeros_like(val)
    else:
        tables = _theta_derivative_tableau(d)
        val = np.zeros_like(y1)
        grad_u = np.zeros_like(y1)
        grad_v = np.zeros_like(y1)
        for k in range(1, d + 1):
            tab = tables[k - 1]
            pk = _eval_uv_poly(tab, y1, y2)
            sk = series(k)
            val += pk * sk
            grad_u += _eval_uv_poly(_poly_partial(tab, 0), y1, y2) * sk
            grad_u += pk * series(k + 1)
            grad_v += _eval_uv_poly(_poly_partial(tab, 1), y1, y2) * sk
    val *= scale
    grad_u *= scale
    grad_v *= scale
    grad_sq = (
        grad_u**2 * (1.0 - y1**2)
        - 2.0 * grad_u * grad_v * y1 * y2
        + grad_v**2 * (1.0 - y2**2)
    )
    return float(np.max(np.abs(val))), float(np.sqrt(max(np.max(grad_sq), 0.0)))


def error_budget(
    n: int,
    profile: SpectralProfile,
    scales: ScaleGrid,
    delta_list,
    dense: int = 257,
    max_degree: int = 2048,
) -> ErrorBudget:
    """Per-level indicators delta_J * sum_j w_j |Psi_j|_inf |grad Psi_j|_inf.

    Relative diagnostic only: the proportionality constants of the underlying
    bound are unknown, and the series is capped at max_degree for very small
    scales.
    """
    deltas = tuple(float(x) for x in delta_list)
    if len(deltas) != n:
        raise ValueError(f"need {n} diameter caps, got {len(deltas)}")
    if any(x < 0 for x in deltas):
        raise ValueError("diameter caps must be nonnegative")
    sup_w = np.empty(len(scales))
    sup_g = np.empty(len(scales))
    for j, rho in enumerate(scales.scales):
        sup_w[j], sup_g[j] = _sup_norms(n, profile, float(rho), dense, max_degree)
    weighted = float(np.dot(scales.weights, sup_w * sup_g))
    per_level = np.array([dlt * weighted for dlt in deltas])
    return ErrorBudget(sup_w, sup_g, deltas, per_level, float(per_level.sum()))
