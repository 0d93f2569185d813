"""Acceptance suite: one test per verification target, each with a runtime cap.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
target.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from oracles import (
    beta_tail_indicator,
    eval_directional_wavelet_uv,
    funk_hecke_factor,
    gegenbauer,
    grid_response_norms,
    polynomial_residual,
    quadrature_beta,
    spectral_cutoff,
)

from sphereframes.frame_verify import certify_frame, find_refinement
from sphereframes.harmonics import (
    HarmonicCoefficients,
    angles_to_vector,
    build_sphere_grid,
    dim_harmonic,
    harmonic_basis,
    synthesize,
)
from sphereframes.scale_grid import epsilon_report, scale_grid_for_profile
from sphereframes.special_functions import surface_area, zonal_gauss_rule
from sphereframes.wavelet_spectra import beta_numeric, build_beta_table, make_preset

PRESETS = ("abel-poisson", "gauss-weierstrass", "poisson")


@pytest.fixture(scope="module")
def certified_frame():
    # shared by the discrete-frame and energy-identity tests
    profile = make_preset("abel-poisson", 2, d=1)
    report = find_refinement(
        2, profile, 8, 1.5, (1.2, 1.2), trials=20, seed=2026, tolerance=0.1
    )
    return report


def test_zonal_tight_frame_beta_is_quarter():
    t0 = time.time()
    profile = make_preset("abel-poisson", 2)  # a=b=c=1, q(l)=l, d=0
    table = build_beta_table(2, profile, 32)
    rel = np.abs(table.values[1:] - 0.25) / 0.25
    assert float(rel.max()) <= 1e-8
    assert time.time() - t0 < 10.0


def test_directional_closed_form_matches_quadrature():
    t0 = time.time()
    ls = range(1, 33)
    for n in (2, 3):
        for d in (1, 2):
            profile = make_preset("abel-poisson", n, d=d)
            R = grid_response_norms(n, d, 32)
            closed = [beta_numeric(n, profile, l) for l in ls]
            # q(l) = l here, so l^(2d) beta(l) is a degree-2d polynomial
            values = [b * l ** (2 * d) for b, l in zip(closed, ls)]
            residual = polynomial_residual(ls, values, 2 * d)
            assert residual <= 1e-6, f"(n={n}, d={d}) residual {residual:.2e}"
            for l, value in zip(ls, closed):
                numeric = quadrature_beta(n, profile, l, R[l])
                assert abs(value - numeric) / numeric <= 1e-12, (n, d, l)
    assert time.time() - t0 < 120.0


def test_directional_derivative_matches_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(314)
    rho, n = 0.7, 2
    for d in (1, 2):
        profile = make_preset("abel-poisson", n, d=d)
        zonal = dataclasses.replace(profile, d=0)
        L = spectral_cutoff(zonal, rho, n)
        scale = rho ** (profile.tilde_exponent * d)
        for _ in range(25):
            theta = rng.uniform(0.15, math.pi - 0.15)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            y1 = math.cos(theta)
            y2 = math.sin(theta) * math.cos(phi)

            def F(t):
                arg = math.cos(t) * y1 + math.sin(t) * y2
                return float(
                    eval_directional_wavelet_uv(zonal, rho, n, np.array(arg), 0.0, L)
                )

            h = 0.01
            if d == 1:
                coarse = (F(h) - F(-h)) / (2 * h)
                fine = (F(h / 2) - F(-h / 2)) / h
            else:
                coarse = (F(h) - 2 * F(0.0) + F(-h)) / h**2
                fine = (F(h / 2) - 2 * F(0.0) + F(-h / 2)) / (h / 2) ** 2
            richardson = (4.0 * fine - coarse) / 3.0
            value = float(
                eval_directional_wavelet_uv(
                    profile, rho, n, np.array(y1), np.array(y2), L
                )
            )
            expect = scale * richardson
            assert abs(value - expect) / max(abs(expect), 1e-12) <= 1e-6
    assert time.time() - t0 < 30.0


def test_funk_hecke_and_parseval_identities():
    t0 = time.time()
    rng = np.random.default_rng(5)
    for n, L in ((2, 16), (3, 8)):
        lam = (n - 1) / 2
        grid = build_sphere_grid(n, L)
        _, mat = harmonic_basis(grid, L)
        y = angles_to_vector(n, grid.angles)
        # Funk-Hecke with a degree-L zonal polynomial (exact on the grid)
        f = lambda t: t**L + t ** (L - 1)
        tq, wq = zonal_gauss_rule(lam, L + 4)
        for l in (1, L // 2, L):
            m = dim_harmonic(n, l)
            start = sum(dim_harmonic(n, j) for j in range(l))
            c = rng.normal(size=m) + 1j * rng.normal(size=m)
            Y = c @ mat[start : start + m, :]
            x, Yx = y[3], complex(c @ mat[start : start + m, 3])
            lhs = complex(np.sum(f(y @ x) * Y * grid.weights))
            rhs = (
                funk_hecke_factor(n, l)
                * Yx
                * float(np.dot(f(tq) * gegenbauer(lam, l, tq), wq))
            )
            assert abs(lhs - rhs) / abs(rhs) <= 1e-8, (n, l)
        # Parseval on the quadrature grid
        coeffs = HarmonicCoefficients.zeros(n, L)
        coeffs.values[:] = rng.normal(size=coeffs.values.shape) + 1j * rng.normal(
            size=coeffs.values.shape
        )
        samples = synthesize(coeffs, grid)
        quad = float(np.sum(np.abs(samples) ** 2 * grid.weights)) / surface_area(n)
        spectral = float(np.sum(np.abs(coeffs.values) ** 2))
        assert abs(quad - spectral) / spectral <= 1e-10, n
    assert time.time() - t0 < 60.0


def test_scale_deviation_ladder_for_every_preset():
    t0 = time.time()
    for name in PRESETS:
        for d in (0, 1):
            profile = make_preset(name, 2, d=d)
            eps = []
            for X0 in (2.0, 1.5, 1.2, 1.1, 1.05):
                grid = scale_grid_for_profile(2, profile, X0, 16)
                eps.append(epsilon_report(2, profile, grid, 16).epsilon_hat)
            diffs = np.diff(eps)
            assert np.all(diffs <= 1e-12), (name, d, eps)
            assert min(eps) <= 0.05, (name, d, eps)
    assert time.time() - t0 < 120.0


def test_discrete_frame_certification_on_sphere(certified_frame):
    t0 = time.time()
    rep = certified_frame
    assert rep.verdict
    lo, hi = rep.A * 0.9, rep.B * 1.1
    assert np.all(rep.ratios >= lo) and np.all(rep.ratios <= hi)
    control = certify_frame(
        2,
        make_preset("abel-poisson", 2, d=1),
        8,
        1.5,
        (math.pi, 2 * math.pi),
        trials=20,
        seed=2026,
    )
    assert not control.verdict
    assert np.all(control.discrepancies <= control.epsilon_hat + control.delta_hat)
    assert time.time() - t0 < 600.0


def test_energy_identity_within_deviation_budget(certified_frame):
    rep = certified_frame
    budget = rep.epsilon_hat + rep.delta_hat
    assert np.all(rep.discrepancies <= budget)


def test_directional_presets_positive_with_settled_tail():
    t0 = time.time()
    for name in PRESETS:
        profile = make_preset(name, 2, d=1)
        table = build_beta_table(2, profile, 32)
        assert table.values[0] == 0.0, name
        assert np.all(table.values[1:] > 0.0), name
        assert beta_tail_indicator(table) < 0.05, name
    assert time.time() - t0 < 60.0
