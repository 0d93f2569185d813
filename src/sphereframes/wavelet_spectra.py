"""Zonal wavelet spectra, directional derivation, and the admissibility function beta.

A profile (a, b, c, q, d) defines the scale family
    hat Psi_rho(l) = (rho^a q(l)^b)^c exp(-rho^a q(l)^b) * (l + lam)/lam,
and for d >= 1 the directional member is the d-th derivative in the rotation
angle about a tangent axis at the pole, scaled by rho^(a d / (gamma b)) with
gamma the degree of q. The admissibility function
    beta(l) = (1/N(n,l)) sum_kappa int |a_l^kappa(Psi_rho)|^2 drho/rho
is exact: the scale integral is a Gamma function and the directional response
is a power of the coupling matrix T_l built from ``ladder_beta``, so
    beta(l) = amp^2 Gamma(2c') / (a 4^c') q(l)^(-2d/gamma) ||T_l^d e_0||^2,
    c' = c + d / (gamma b).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from .harmonics import (
    HarmonicCoefficients,
    SphereGrid,
    analyze,
    angles_to_vector,
    build_sphere_grid,
    dim_harmonic,
    fourier_from_gegenbauer_factor,
)
from .special_functions import gegenbauer_all

__all__ = [
    "SpectralProfile",
    "BetaTable",
    "DirectionalCoefficients",
    "SpectralTruncationWarning",
    "make_preset",
    "PRESET_NAMES",
    "zonal_hat",
    "zonal_hat_all",
    "spectral_cutoff",
    "eval_directional_wavelet",
    "eval_directional_wavelet_uv",
    "directional_coeffs",
    "ladder_beta",
    "beta_numeric",
    "wavelet_bounds",
    "beta_tail_indicator",
    "build_beta_table",
    "degree_response_norms",
    "profile_order",
]


class SpectralTruncationWarning(UserWarning):
    """Spectral tail above tolerance at the requested truncation degree."""


@dataclass(frozen=True)
class SpectralProfile:
    """Parameters of an exponential-class wavelet spectrum; q ascending coefficients."""

    a: float
    b: float
    c: float
    q: tuple[float, ...]
    d: int = 0
    direction: int = 2
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise ValueError("a, b, c must be positive")
        if self.d < 0:
            raise ValueError(f"derivative order must be >= 0, got {self.d}")
        q = tuple(float(x) for x in self.q)
        object.__setattr__(self, "q", q)
        if len(q) < 2 or q[-1] == 0.0:
            raise ValueError("q must be a polynomial of degree >= 1")
        if self.direction < 2:
            raise ValueError("direction axis must be >= 2 (tangent at the pole)")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.q_eval(0) < 0:
            raise ValueError("q(0) must be >= 0")

    @property
    def gamma(self) -> int:
        return len(self.q) - 1

    def q_eval(self, l) -> float | np.ndarray:
        return npoly.polyval(l, self.q)

    def validate_positive(self, L: int) -> None:
        """Require q(l) > 0 for 1 <= l <= L."""
        vals = self.q_eval(np.arange(1, L + 1))
        if np.any(vals <= 0):
            bad = int(np.arange(1, L + 1)[vals <= 0][0])
            raise ValueError(f"q({bad}) <= 0; profile invalid up to band limit {L}")

    @property
    def tilde_exponent(self) -> float:
        """Exponent e with rho-tilde^d = rho^(e d)."""
        return self.a / (self.gamma * self.b)


PRESET_NAMES = ("abel-poisson", "gauss-weierstrass", "poisson")


def make_preset(name: str, n: int, d: int = 0, order: int = 2) -> SpectralProfile:
    """Catalogued profile bundles; names label parameter sets, not exact literature forms."""
    lam = (n - 1) / 2
    if name == "abel-poisson":
        return SpectralProfile(a=1.0, b=1.0, c=1.0, q=(0.0, 1.0), d=d)
    if name == "gauss-weierstrass":
        return SpectralProfile(a=1.0, b=1.0, c=1.0, q=(0.0, 2.0 * lam, 1.0), d=d)
    if name == "poisson":
        if order < 1 or order != int(order):
            raise ValueError(f"poisson order must be a positive integer, got {order}")
        return SpectralProfile(a=1.0, b=1.0, c=float(order), q=(0.0, 1.0), d=d)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def zonal_hat(profile: SpectralProfile, rho: float, l, n: int):
    """Spectrum value hat Psi_rho(l); l may be an integer array."""
    if rho <= 0:
        raise ValueError(f"scale must be positive, got {rho}")
    lam = (n - 1) / 2
    larr = np.atleast_1d(np.asarray(l))
    qv = np.atleast_1d(np.asarray(profile.q_eval(larr), dtype=float))
    if np.any(qv[larr >= 1] <= 0):
        raise ValueError("q(l) <= 0 inside the requested range")
    pos = qv > 0
    s = np.zeros_like(qv)
    s[pos] = rho**profile.a * qv[pos] ** profile.b
    val = np.zeros_like(qv)
    val[pos] = s[pos] ** profile.c * np.exp(-s[pos])
    out = profile.amplitude * val * (larr + lam) / lam
    return float(out[0]) if np.asarray(l).ndim == 0 else out


def zonal_hat_all(profile: SpectralProfile, rho: float, n: int, L: int) -> np.ndarray:
    return zonal_hat(profile, rho, np.arange(L + 1), n)


def spectral_cutoff(
    profile: SpectralProfile, rho: float, n: int, tol: float = 1e-14, cap: int = 200_000
) -> int:
    """Smallest degree beyond the peak with hat(l) < tol * max hat."""
    if rho <= 0:
        raise ValueError(f"scale must be positive, got {rho}")
    best = 0.0
    l = 0
    while l < cap:
        v = zonal_hat(profile, rho, l, n)
        if v > best:
            best = v
        elif best > 0 and v < tol * best:
            return l
        l += 1
    raise RuntimeError(f"no spectral cutoff below degree {cap} at scale {rho}")


# ---------------------------------------------------------------------------
# directional evaluation


@lru_cache(maxsize=None)
def _theta_derivative_tableau(d: int) -> tuple[np.ndarray, ...]:
    """Coefficient arrays T[k][i, j] with d^d/dTheta^d psi(t(Theta))|_0 =
    sum_k T[k](y1, y2) psi^(k)(y1), entries indexing y1^i y2^j."""
    size = d + 1
    tables = [np.zeros((size, size)) for _ in range(d + 1)]  # index k = 0..d
    tables[1][0, 1] = 1.0  # first derivative: y2 * psi'
    for step in range(1, d):
        nxt = [np.zeros((size, size)) for _ in range(d + 1)]
        for k in range(1, step + 1):
            cur = tables[k]
            for i in range(size):
                for j in range(size):
                    coef = cur[i, j]
                    if coef == 0.0:
                        continue
                    # derivative through the arguments: u' = v, v' = -u
                    if i >= 1:
                        nxt[k][i - 1, j + 1] += coef * i
                    if j >= 1:
                        nxt[k][i + 1, j - 1] -= coef * j
                    # chain factor raising the derivative order
                    nxt[k + 1][i, j + 1] += coef
        tables = nxt
    return tuple(tables[1:]) if d >= 1 else tuple()


def _eval_uv_poly(coeffs: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast(u, v).shape)
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            if coeffs[i, j] != 0.0:
                out = out + coeffs[i, j] * u**i * v**j
    return out


def _zonal_derivative_series(
    profile: SpectralProfile, rho: float, n: int, L: int, k: int, t: np.ndarray
) -> np.ndarray:
    """k-th derivative of the truncated zonal wavelet psi_rho at t."""
    lam = (n - 1) / 2
    hat = zonal_hat_all(profile, rho, n, L)
    if k == 0:
        coeffs = hat
        order = lam
    else:
        if L < k:
            return np.zeros_like(t)
        factor = 2.0**k
        for i in range(k):
            factor *= lam + i
        coeffs = hat[k:] * factor
        order = lam + k
    stack = gegenbauer_all(order, coeffs.size - 1, t)
    return np.tensordot(coeffs, stack, axes=(0, 0))


def eval_directional_wavelet_uv(
    profile: SpectralProfile, rho: float, n: int, y1: np.ndarray, y2: np.ndarray, L: int
) -> np.ndarray:
    """Directional wavelet value from the two relevant coordinates y1 = x_1, y2 = x_s."""
    d = profile.d
    scale = rho ** (profile.tilde_exponent * d)
    if d == 0:
        return _zonal_derivative_series(profile, rho, n, L, 0, np.asarray(y1, float))
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    tables = _theta_derivative_tableau(d)
    out = np.zeros(np.broadcast(y1, y2).shape)
    for k in range(1, d + 1):
        pk = _eval_uv_poly(tables[k - 1], y1, y2)
        if np.any(pk != 0.0):
            out = out + pk * _zonal_derivative_series(profile, rho, n, L, k, y1)
    return scale * out


def eval_directional_wavelet(
    profile: SpectralProfile,
    rho: float,
    n: int,
    point,
    L: int,
    check_tail: bool = True,
) -> float | np.ndarray:
    """Evaluate the order-d directional wavelet at angle tuples, truncated at L."""
    if check_tail:
        hat = zonal_hat_all(profile, rho, n, L)
        peak = hat.max()
        if peak > 0 and hat[-1] > 1e-14 * peak:
            warnings.warn(
                f"spectral tail at degree {L} is {hat[-1] / peak:.2e} of the peak",
                SpectralTruncationWarning,
                stacklevel=2,
            )
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    x = angles_to_vector(n, np.atleast_2d(pts))
    s = profile.direction
    if s > n + 1:
        raise ValueError(f"direction axis {s} outside ambient dimension {n + 1}")
    vals = eval_directional_wavelet_uv(profile, rho, n, x[:, 0], x[:, s - 1], L)
    return float(vals[0]) if single else vals


@dataclass
class DirectionalCoefficients:
    """Harmonic coefficients of one scale of the directional family."""

    rho: float
    d: int
    coeffs: HarmonicCoefficients

    def surviving_orders(self) -> tuple[int, ...]:
        return tuple(range(self.d % 2, self.d + 1, 2))


def directional_coeffs(
    profile: SpectralProfile,
    rho: float,
    n: int,
    L: int,
    grid: SphereGrid | None = None,
) -> DirectionalCoefficients:
    """Analyze the directional wavelet on an exact grid and zero the vanishing orders."""
    profile.validate_positive(L)
    if grid is None:
        grid = build_sphere_grid(n, L)
    samples = eval_directional_wavelet(
        profile, rho, n, grid.angles, L, check_tail=False
    )
    coeffs = analyze(samples.astype(complex), grid, L)
    allowed = set()
    for j in range(profile.d % 2, profile.d + 1, 2):
        allowed.add(j)
    scale = np.abs(coeffs.values).max()
    tol = 1e-10 * max(scale, 1.0)
    for i, idx in enumerate(coeffs.indices()):
        first = abs(idx.k[0]) if idx.k else 0
        lives = first in allowed and all(ki == 0 for ki in idx.k[1:])
        if profile.direction != 2:
            lives = True  # generic axis: no sparsity pattern enforced
        if not lives:
            if abs(coeffs.values[i]) > tol:
                raise RuntimeError(
                    f"coefficient {idx} = {coeffs.values[i]:.3e} violates the "
                    f"vanishing pattern for derivative order {profile.d}"
                )
            coeffs.values[i] = 0.0
    return DirectionalCoefficients(rho, profile.d, coeffs)


def ladder_beta(lam: float, l: int, iota: int) -> float:
    """Coupling coefficient linking adjacent azimuthal orders within degree l."""
    lam = getattr(lam, "lam", lam)
    if not 0 <= iota <= l:
        raise ValueError(f"need 0 <= iota <= l, got iota={iota}, l={l}")
    bracket = l * (2.0 * lam + l) - iota * (2.0 * lam + iota)
    if iota == 0:
        # the printed factor (2 lam + iota - 1)/(2 lam + 2 iota - 1) is 0/0 at
        # lam = 1/2; cancelled analytically before evaluation
        radicand = bracket / (2.0 * lam + 1.0)
    else:
        radicand = (
            (iota + 1.0)
            * (2.0 * lam + iota - 1.0)
            / ((2.0 * lam + 2.0 * iota - 1.0) * (2.0 * lam + 2.0 * iota + 1.0))
            * bracket
        )
    if radicand < -1e-12:
        raise ValueError(f"negative radicand {radicand} for lam={lam}, l={l}, iota={iota}")
    return math.sqrt(max(radicand, 0.0))


# ---------------------------------------------------------------------------
# per-degree response and the admissibility function


def _response_norm(n: int, d: int, l: int) -> float:
    """sum_kappa |a_l^kappa(D^d[C_l kernel])|^2 = ||T_l^d e_0||^2 / (A_l^0)^2, with
    T_l the antisymmetric tridiagonal coupling matrix of degree l.

    The d-th rotation derivative moves order 0 along the ladder through orders
    <= min(d, l), so the leading block of T_l suffices.
    """
    lam = (n - 1) / 2
    links = [ladder_beta(lam, l, i) for i in range(min(d, l))]
    T = np.diag(links, -1) - np.diag(links, 1)
    v = np.linalg.matrix_power(T, d)[:, 0]
    return float(v @ v) / fourier_from_gegenbauer_factor(n, l) ** 2


def degree_response_norms(n: int, d: int, L: int) -> np.ndarray:
    """R[l] = sum_kappa |a_l^kappa(D^d[C_l kernel])|^2 for l <= L, D the rotation
    derivative about the default tangent axis (admissibility is axis-independent)."""
    return np.array([_response_norm(n, d, l) for l in range(L + 1)])


def _envelope_log_range(cprime: float, tol: float = 1e-18) -> tuple[float, float]:
    """Range of s where s^(2c') e^(-2s) stays above tol times its peak value."""
    target = math.log(tol)

    def g(s: float) -> float:
        return 2.0 * cprime * math.log(s / cprime) - 2.0 * (s - cprime) - target

    lo = brentq(g, cprime * 1e-30, cprime)
    hi_guess = cprime - target
    while g(hi_guess) > 0:
        hi_guess *= 2.0
    hi = brentq(g, cprime, hi_guess)
    return lo, hi


def _scale_log_range(
    profile: SpectralProfile, l: int, tol: float = 1e-18
) -> tuple[float, float]:
    """log-rho interval outside which the degree-l scale integrand is negligible."""
    if l < 1:
        raise ValueError("scale range is defined for degrees l >= 1")
    cprime = profile.c + profile.d / (profile.gamma * profile.b)
    s_lo, s_hi = _envelope_log_range(cprime, tol)
    q = float(profile.q_eval(l))
    u_lo = (math.log(s_lo) - profile.b * math.log(q)) / profile.a
    u_hi = (math.log(s_hi) - profile.b * math.log(q)) / profile.a
    return u_lo, u_hi


def beta_numeric(n: int, profile: SpectralProfile, l: int) -> float:
    """Admissibility beta(l) = (1/N(n,l)) int E_l(rho) drho/rho, in closed form.

    The degree-l energy E_l(rho) = rho^(2ed) hat_rho(l)^2 R(l) is a multiple of
    s^(2c') e^(-2s) in s = rho^a q(l)^b, with c' = c + d/(gamma b), and that
    shape integrates over log rho to Gamma(2c') / (a 4^c').  Reading the
    multiple at s = 1 gives beta(l) = e^2 Gamma(2c') / (a 4^c') E_l(rho_1) / N,
    which equals amp^2 Gamma(2c') / (a 4^c') q(l)^(-2d/gamma) ||T_l^d e_0||^2.
    Reading E_l through ``zonal_hat`` keeps the amplitude and the (l + lam)/lam
    normalization of the spectrum defined in one place.
    """
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    if l <= profile_order(profile):
        return 0.0
    profile.validate_positive(max(l, 1))
    q = float(profile.q_eval(l))
    rho = q ** (-profile.b / profile.a)  # the scale with s = 1
    hat = zonal_hat(profile, rho, l, n)
    energy = (
        rho ** (2.0 * profile.tilde_exponent * profile.d)
        * hat
        * hat
        * _response_norm(n, profile.d, l)
    )
    cprime = profile.c + profile.d / (profile.gamma * profile.b)
    shape = math.e**2 * math.gamma(2.0 * cprime) / (profile.a * 4.0**cprime)
    return shape * energy / dim_harmonic(n, l)


def profile_order(profile: SpectralProfile) -> int:
    """Vanishing-moment order m: beta(l) = 0 for l <= m."""
    if profile.d >= 1 or profile.q_eval(0) == 0.0:
        return 0
    return -1


@dataclass
class BetaTable:
    """Per-degree admissibility values with their extremal bounds."""

    n: int
    L: int
    m: int
    values: np.ndarray
    profile: SpectralProfile | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.L + 1,):
            raise ValueError(f"expected {self.L + 1} values, got {self.values.shape}")
        if np.any(self.values[: self.m + 1] != 0.0):
            raise ValueError(f"values at degrees <= order m={self.m} must be zero")

    @property
    def A(self) -> float:
        return float(np.min(self.values[self.m + 1 :]))

    @property
    def B(self) -> float:
        return float(np.max(self.values[self.m + 1 :]))

    def to_csv(self) -> str:
        a, b = self.A, self.B
        lines = [f"# dimension={self.n} band_limit={self.L} order={self.m}", "l,beta,A,B"]
        for l in range(self.L + 1):
            lines.append(
                f"{l},{self.values[l]:.17g},{a:.17g},{b:.17g}"
            )
        return "\n".join(lines) + "\n"


def build_beta_table(n: int, profile: SpectralProfile, L: int) -> BetaTable:
    """Tabulate beta(l) for l <= L."""
    profile.validate_positive(L)
    m = profile_order(profile)
    if L <= m:
        raise ValueError(f"band limit {L} leaves no degrees above the order m={m}")
    vals = np.zeros(L + 1)
    for l in range(m + 1, L + 1):
        vals[l] = beta_numeric(n, profile, l)
    return BetaTable(n, L, m, vals, profile)


def wavelet_bounds(table: BetaTable) -> tuple[float, float]:
    """Extremal admissibility values (A, B) over degrees above the order."""
    if table.L <= table.m:
        raise ValueError(f"no degrees above order m={table.m} in a table to L={table.L}")
    return table.A, table.B


def beta_tail_indicator(table: BetaTable) -> float:
    """|beta(L) - beta(L/2)| / beta(L), a convergence indicator for the tail."""
    l_hi = table.L
    l_mid = table.L // 2
    if l_mid <= table.m:
        raise ValueError("table too short for a tail indicator")
    return abs(table.values[l_hi] - table.values[l_mid]) / table.values[l_hi]
