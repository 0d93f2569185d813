"""End-to-end frame certification for discretized wavelet systems.

Pulls together the admissibility table, a scale grid, and a rotation grid,
runs seeded random band-limited trial fields through the discrete transform,
and compares every trial's energy against the frame window [A(1-tau),
B(1+tau)].  The scale deviation eps_hat comes from the per-degree
admissibility comparison.  Integrating the rotations exactly leaves the
semi-discrete energy S = sum_l discrete_beta(l) ||f_l||^2 of a trial, so the
rotation deviation delta_hat = max_i |E_i - S_i| / O_i measures each trial's
energy E_i against S_i, relative to its continuous energy O_i.  With that
denominator |E - O| / O <= eps_hat + delta_hat by the triangle inequality.
In spectral mode E - O is summed per degree as sum_l (discrete_beta(l) -
beta(l)) ||f_l||^2, so the bound holds to rounding for tight families too.  A
report passes when all trial ratios stay inside the window and the combined
deviation eps_hat + delta_hat leaves the required margin below 1.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .rotation_grid import _MAX_CELLS, build_rotation_grid
from .scale_grid import _epsilon_report, scale_grid_for_profile
from .transform import _scan, energy_identity_oracle, random_bandlimited
from .wavelet_spectra import SpectralProfile, build_beta_table, profile_order, wavelet_bounds

__all__ = [
    "FrameReport",
    "certify_frame",
    "find_refinement",
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
    energies: np.ndarray
    oracles: np.ndarray
    discrepancies: np.ndarray
    verdict: bool
    grid_info: dict

    @property
    def ratios(self) -> np.ndarray:
        """Energy per unit field norm; trial fields have unit norm, so the energies."""
        return self.energies

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
    max_elements: int = _MAX_CELLS,
    threads=None,
    spatial: bool | None = None,
) -> FrameReport:
    """Run seeded trial fields through the discrete system and judge the frame.

    Every trial's semi-discrete energy S (scales discretized, rotations
    integrated exactly) is the reference for delta_hat = max |E - S| / O, with
    O the continuous energy.  The continuous beta is computed once per call,
    in the table that gives A, B and O, and eps_hat compares the Riemann sums
    on the grid of ``ratio`` against that table's values.  Full spatial
    verification (the discrete transform over the rotation grid, computed in
    coefficient space) computes E for n = 2 by default and for any n when
    ``spatial=True``.  Otherwise the check stays on the spectral side, where
    E is S and delta_hat = 0.  Missing or wrong caps raise before any work.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if spatial is None:
        spatial = n == 2
    if spatial:
        if delta_list is None:
            raise ValueError("spatial certification needs the rotation caps delta_list")
        rot = build_rotation_grid(n, delta_list, max_elements)

    beta = build_beta_table(n, profile, L)
    A, B = wavelet_bounds(beta)
    m = profile_order(profile)
    scales = scale_grid_for_profile(n, profile, ratio, L)
    eps_report = _epsilon_report(
        n, profile, scales, np.arange(m + 1, L + 1), beta.values[m + 1 :]
    )
    eps = eps_report.epsilon_hat
    disc = np.zeros(L + 1)
    disc[eps_report.degrees] = eps_report.beta_discrete

    children = np.random.SeedSequence(seed).spawn(trials)
    fields = [random_bandlimited(n, L, m, s) for s in children]
    oracles = np.array([energy_identity_oracle(f, beta) for f in fields])
    power = np.array([f.coeffs.degree_energies() for f in fields])
    semi = power @ disc

    grid_info = {
        "ratio": ratio,
        "scale_count": len(scales),
        "rho_min": scales.rho_min,
        "rho_max": scales.rho_max,
        "mode": "spatial" if spatial else "spectral",
    }
    if spatial:
        # the kernel of transform_energies, without the sphere_grid argument
        # that it ignores and perfbench's tracer reads
        energies = _scan(profile, fields, scales, rot, threads)
        grid_info.update({"delta": list(rot.delta_list), "rotation_sizes": list(rot.sizes)})
    else:
        energies = semi
        grid_info["delta"] = list(delta_list) if delta_list is not None else []
    delta_hat = float(np.max(np.abs(energies - semi) / oracles))

    if spatial:
        discrepancies = np.abs(energies - oracles) / oracles
    else:
        # E - O summed per degree, each term at most eps_hat beta(l) ||f_l||^2;
        # E and O rounded separately can differ by more than a tight family's eps_hat
        gap = disc - beta.values[: L + 1]
        discrepancies = np.array([abs(math.fsum(gap * p)) for p in power]) / oracles
    in_window = bool(
        np.all(energies >= A * (1.0 - tolerance))
        and np.all(energies <= B * (1.0 + tolerance))
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
        energies,
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
    *,
    max_rounds: int = 5,
    **certify,
) -> FrameReport:
    """Halve one global refinement knob until certify_frame passes.

    Each round halves every rotation cap, if any, and the log of the scale
    ratio, and passes the other keywords on to ``certify_frame``, whose
    defaults they keep.  Returns the first passing report; raises if
    max_rounds is exhausted.
    """
    if max_rounds < 1:
        raise ValueError(f"need at least one round, got max_rounds={max_rounds}")
    deltas = None if delta_list is None else tuple(float(x) for x in delta_list)
    for _ in range(max_rounds):
        report = certify_frame(n, profile, L, ratio, deltas, trials, seed, **certify)
        if report.verdict:
            return report
        ratio = math.sqrt(ratio)
        if deltas is not None:
            deltas = tuple(x / 2 for x in deltas)
    raise RuntimeError(
        f"no passing refinement within {max_rounds} rounds; "
        f"last deviations eps={report.epsilon_hat:.3g}, delta={report.delta_hat:.3g}"
    )

