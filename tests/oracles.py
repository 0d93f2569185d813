"""Numerical oracles for the exact admissibility path and the transform.

The library computes beta(l) and the per-degree response in closed form, and
the transform through per-cell moments.  The functions here compute the same
quantities the long way, from their definitions, so tests can check the fast
paths against them:

- ``grid_response_norms`` analyzes the directional derivative of each
  Gegenbauer kernel on an exact product grid and sums the squared
  coefficients of the surviving harmonics;
- ``quadrature_beta`` integrates the degree-l energy over log-scale with
  composite Gauss-Legendre panels, twice, and requires the two to agree;
- ``direct_transform`` evaluates the rotated wavelet on the sphere grid for
  every rotation and scale and pairs it with the weighted field;
- ``table_csv`` formats a transform table one entry at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import roots_legendre

from sphereframes.harmonics import (
    HarmonicIndex,
    angles_to_vector,
    dim_harmonic,
    fourier_from_gegenbauer_factor,
    harmonic_normalization,
    synthesize,
)
from sphereframes.rotation_grid import rotation_matrix
from sphereframes.special_functions import gegenbauer_all, surface_area, zonal_gauss_rule
from sphereframes.wavelet_spectra import (
    _eval_uv_poly,
    _scale_log_range,
    _theta_derivative_tableau,
    eval_directional_wavelet_uv,
)


def grid_response_norms(n: int, d: int, L: int) -> np.ndarray:
    """R[l] = sum_kappa |a_l^kappa(D^d[C_l kernel])|^2 for l <= L by grid analysis,
    D the rotation derivative in the (x_1, x_2) plane."""
    lam = (n - 1) / 2
    out = np.zeros(L + 1)
    if d == 0:
        for l in range(L + 1):
            out[l] = 1.0 / fourier_from_gegenbauer_factor(n, l) ** 2
        return out

    tables = _theta_derivative_tableau(d)
    if n == 2:
        t1, w1 = zonal_gauss_rule(0.5, L + 1)
        m_phi = 2 * L + 1
        phi = 2.0 * math.pi * np.arange(m_phi) / m_phi
        wphi = 2.0 * math.pi / m_phi
        sin1 = np.sqrt(1.0 - t1 * t1)
        Y1 = t1[:, None] * np.ones_like(phi)[None, :]
        Y2 = sin1[:, None] * np.cos(phi)[None, :]
        wgt = w1[:, None] * np.full_like(phi, wphi)[None, :]
    else:
        # the wavelet and the surviving harmonics depend only on (theta_1, theta_2);
        # remaining angles integrate to their total weight
        t1, w1 = zonal_gauss_rule((n - 1) / 2, L + 1)
        t2, w2 = zonal_gauss_rule((n - 2) / 2, L + 1)
        rest = surface_area(n) / (np.sum(w1) * np.sum(w2))
        sin1 = np.sqrt(1.0 - t1 * t1)
        Y1 = t1[:, None] * np.ones_like(t2)[None, :]
        Y2 = sin1[:, None] * t2[None, :]
        wgt = (w1[:, None] * w2[None, :]) * rest

    # stacks of Gegenbauer derivatives of the kernel, per chain-rule order k
    deriv_stacks = []
    for k in range(1, d + 1):
        factor = 2.0**k
        for i in range(k):
            factor *= lam + i
        stack = np.zeros((L + 1,) + Y1.shape)
        if L >= k:
            stack[k:] = factor * gegenbauer_all(lam + k, L - k, Y1)
        deriv_stacks.append(stack)
    poly_vals = [_eval_uv_poly(tables[k - 1], Y1, Y2) for k in range(1, d + 1)]

    sigma = surface_area(n)
    for l in range(L + 1):
        g = np.zeros_like(Y1)
        for k in range(1, d + 1):
            g += poly_vals[k - 1] * deriv_stacks[k - 1][l]
        acc = 0.0
        for j in range(d % 2, min(d, l) + 1, 2):
            if n == 2:
                # index is the signed azimuthal order; +-j are distinct harmonics
                for signed in [0] if j == 0 else [-j, j]:
                    idx = HarmonicIndex(l, (signed,))
                    A = harmonic_normalization(n, idx)
                    mats = gegenbauer_all(0.5 + j, l - j, t1)[l - j] * sin1**j
                    basis = A * mats[:, None] * np.exp(1j * signed * phi)[None, :]
                    a = np.sum(np.conj(basis) * g * wgt) / sigma
                    acc += abs(a) ** 2
            else:
                # one real harmonic per j: later indices all vanish
                idx = HarmonicIndex(l, (j,) + (0,) * (n - 2))
                A = harmonic_normalization(n, idx)
                f1 = gegenbauer_all(lam + j, l - j, t1)[l - j] * sin1**j
                f2 = gegenbauer_all((n - 2) / 2, j, t2)[j]
                basis = A * f1[:, None] * f2[None, :]
                a = np.sum(basis * g * wgt) / sigma
                acc += abs(a) ** 2
        out[l] = acc
    return out


def scale_quadrature(profile, l: int, panels: int, order: int = 16):
    """Composite Gauss-Legendre scales/weights over the log-rho support of degree l >= 1."""
    u_lo, u_hi = _scale_log_range(profile, l)
    x, w = roots_legendre(order)
    edges = np.linspace(u_lo, u_hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return np.exp(nodes), weights


def quadrature_beta(n: int, profile, l: int, response: float, rtol: float = 1e-9) -> float:
    """beta(l) = (1/N(n,l)) int rho^(2ed) hat_rho(l)^2 R(l) drho/rho, degree l >= 1,
    with R(l) = ``response``; the panel count is doubled once to confirm convergence."""
    lam = (n - 1) / 2
    q = float(profile.q_eval(l))
    u_lo, u_hi = _scale_log_range(profile, l)
    panels = max(8, math.ceil(u_hi - u_lo))

    def integral(rhos, wts):
        # the literal spectrum s^c e^(-s) (l + lam) / lam, s = rho^a q(l)^b
        s = rhos**profile.a * q**profile.b
        hat = profile.amplitude * s**profile.c * np.exp(-s) * (l + lam) / lam
        energy = rhos ** (2.0 * profile.tilde_exponent * profile.d) * hat**2 * response
        return float(np.dot(energy, wts)) / dim_harmonic(n, l)

    coarse = integral(*scale_quadrature(profile, l, panels))
    fine = integral(*scale_quadrature(profile, l, 2 * panels))
    if abs(fine - coarse) > rtol * abs(fine):
        raise RuntimeError(f"scale quadrature did not converge at degree {l}")
    return fine


def polynomial_residual(ls, values, degree: int) -> float:
    """Max relative residual of the least-squares polynomial of the given degree."""
    ls = np.asarray(ls, dtype=float)
    values = np.asarray(values, dtype=float)
    poly = np.polynomial.Polynomial.fit(ls, values, deg=degree)
    return float(np.max(np.abs(poly(ls) - values) / np.abs(values)))


def direct_transform(n: int, profile, field, scales, rotations, sphere) -> np.ndarray:
    """W[j, g] rotation by rotation: the wavelet at scale j evaluated at
    (U_g . x, V_g . x), U_g and V_g the images of e_1 and e_2, truncated at the
    field's band and summed against f(x) w(x) / Sigma_n over the sphere grid."""
    X = angles_to_vector(n, sphere.angles)
    weighted = synthesize(field.coeffs, sphere) * sphere.weights / surface_area(n)
    out = np.empty((len(scales), len(rotations)), dtype=complex)
    for g, euler in enumerate(rotations.angles):
        R = rotation_matrix(n, euler)
        y1, y2 = X @ R[:, 0], X @ R[:, 1]
        for j, rho in enumerate(scales.scales):
            psi = eval_directional_wavelet_uv(profile, float(rho), n, y1, y2, field.L)
            out[j, g] = psi @ weighted
    return out


def table_csv(values: np.ndarray) -> str:
    """The "j,g,re,im" text of a (scales x rotations) table, one f-string per entry."""
    lines = ["j,g,re,im"]
    for j in range(values.shape[0]):
        for g in range(values.shape[1]):
            w = values[j, g]
            lines.append(f"{j},{g},{w.real:.17g},{w.imag:.17g}")
    return "\n".join(lines) + "\n"
