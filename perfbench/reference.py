"""Reference values computed apart from sphereframes.

Everything here uses only the standard library and numpy: the admissibility
function beta(l) in closed form, its Riemann sum on a scale grid (which gives
eps_hat), and the Haar volume of SO(n+1).  The workload checks compare the
program's outputs against these values.

Profiles are read through their parameters ``a, b, c, q, d, amplitude`` only,
so any object carrying those attributes can be passed in.
"""

from __future__ import annotations

import math

import numpy as np


def sphere_area(J: int) -> float:
    """Surface measure |S^J| = 2 pi^((J+1)/2) / Gamma((J+1)/2)."""
    return 2.0 * math.pi ** ((J + 1) / 2) / math.gamma((J + 1) / 2)


def haar_volume(n: int) -> float:
    """Total measure of SO(n+1) in the coset parametrization: prod_J |S^J|."""
    return math.prod(sphere_area(J) for J in range(1, n + 1))


def q_eval(profile, l: float) -> float:
    return float(sum(c * l**i for i, c in enumerate(profile.q)))


def ladder_norm_sq(n: int, d: int, l: int) -> float:
    """||T_l^d e_0||^2 for the coupling matrix T_l; closed for d <= 1."""
    lam = (n - 1) / 2
    if d == 0:
        return 1.0
    if d == 1:
        return l * (l + 2.0 * lam) / (2.0 * lam + 1.0)
    raise ValueError(f"reference covers derivative orders d <= 1, got {d}")


def order(profile) -> int:
    """Vanishing-moment order m: beta(l) = 0 for l <= m."""
    return 0 if profile.d >= 1 or q_eval(profile, 0) == 0.0 else -1


def beta(n: int, profile, l: int) -> float:
    """beta(l) = amp^2 Gamma(2c') / (a 4^c') q(l)^(-2d/gamma) ||T_l^d e_0||^2,

    with c' = c + d / (gamma b).
    """
    if l <= order(profile):
        return 0.0
    gamma = len(profile.q) - 1
    d = profile.d
    cprime = profile.c + d / (gamma * profile.b)
    head = profile.amplitude**2 * math.gamma(2.0 * cprime) / (profile.a * 4.0**cprime)
    return head * q_eval(profile, l) ** (-2.0 * d / gamma) * ladder_norm_sq(n, d, l)


def beta_table(n: int, profile, L: int) -> np.ndarray:
    return np.array([beta(n, profile, l) for l in range(L + 1)])


def bounds(n: int, profile, L: int) -> tuple[float, float]:
    """Frame bounds (A, B): extrema of beta over the degrees above the order."""
    vals = beta_table(n, profile, L)[order(profile) + 1 :]
    return float(vals.min()), float(vals.max())


def discrete_beta(n: int, profile, scales, weights, l: int) -> float:
    """Riemann sum of the scale integral of beta(l) on the given nodes.

    The degree-l energy over the harmonic dimension is
    amp^2 ||T_l^d e_0||^2 rho^(2ad/(gamma b)) s^(2c) exp(-2s), s = rho^a q(l)^b.
    """
    if l <= order(profile):
        return 0.0
    gamma = len(profile.q) - 1
    rho = np.asarray(scales, dtype=float)
    s = rho**profile.a * q_eval(profile, l) ** profile.b
    integrand = (
        rho ** (2.0 * profile.a * profile.d / (gamma * profile.b))
        * s ** (2.0 * profile.c)
        * np.exp(-2.0 * s)
    )
    head = profile.amplitude**2 * ladder_norm_sq(n, profile.d, l)
    return head * float(np.dot(np.asarray(weights, dtype=float), integrand))


def epsilon_hat(n: int, profile, scales, weights, L: int) -> float:
    """max over 1 <= l <= L of |discrete beta - beta| / beta."""
    devs = []
    for l in range(max(1, order(profile) + 1), L + 1):
        exact = beta(n, profile, l)
        devs.append(abs(discrete_beta(n, profile, scales, weights, l) - exact) / exact)
    return max(devs)


def geometric_scales(rho_max: float, ratio: float, count: int):
    """Midpoint-convention nodes rho_max * ratio^-j, j < count, weights ln ratio."""
    scales = rho_max * ratio ** (-np.arange(count, dtype=float))
    return scales, np.full(count, math.log(ratio))


def oracle_energy(n: int, profile, degree_energies) -> float:
    """Continuous-transform energy sum_l beta(l) ||f_l||^2."""
    return float(
        sum(beta(n, profile, l) * e for l, e in enumerate(degree_energies))
    )
