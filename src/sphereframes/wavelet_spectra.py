"""Zonal wavelet spectra, the directional derivative tableau, and admissibility beta.

A profile (a, b, c, q, d) defines the scale family
    hat Psi_rho(l) = (rho^a q(l)^b)^c exp(-rho^a q(l)^b) * (l + lam)/lam,
and for d >= 1 the directional member is the d-th derivative in the rotation
angle of the (x_1, x_2) plane, towards the tangent x_2 at the pole, scaled by
rho^(a d / (gamma b)) with gamma the degree of q. The admissibility function
    beta(l) = (1/N(n,l)) sum_kappa int |a_l^kappa(Psi_rho)|^2 drho/rho
is exact: the scale integral is a Gamma function and the directional response
is a power of the coupling matrix T_l built from ``ladder_beta``, so
    beta(l) = amp^2 Gamma(2c') / (a 4^c') q(l)^(-2d/gamma) ||T_l^d e_0||^2,
    c' = c + d / (gamma b).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .harmonics import dim_harmonic, fourier_from_gegenbauer_factor

__all__ = [
    "SpectralProfile",
    "BetaTable",
    "make_preset",
    "PRESET_NAMES",
    "zonal_hat",
    "ladder_beta",
    "beta_numeric",
    "wavelet_bounds",
    "build_beta_table",
    "degree_response_norms",
    "profile_order",
]


def _natural(value, name: str) -> int:
    """value as an int through ``operator.index``; a ValueError names it
    unless it is an integer >= 0."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value}")
    return index


@dataclass(frozen=True)
class SpectralProfile:
    """Parameters of an exponential-class wavelet spectrum; q ascending coefficients."""

    a: float
    b: float
    c: float
    q: tuple[float, ...]
    d: int = 0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise ValueError("a, b, c must be positive")
        object.__setattr__(self, "d", _natural(self.d, "derivative order"))
        q = tuple(float(x) for x in self.q)
        object.__setattr__(self, "q", q)
        if len(q) < 2 or q[-1] == 0.0:
            raise ValueError("q must be a polynomial of degree >= 1")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.q_eval(0) < 0:
            raise ValueError("q(0) must be >= 0")

    @property
    def gamma(self) -> int:
        return len(self.q) - 1

    def q_eval(self, l) -> float | np.ndarray:
        """q(l) by Horner's rule, in numpy's ``polyval`` operation order
        (highest coefficient plus l * 0, then c + out * l), so the values are
        polyval's to the bit; l an integer or an integer array."""
        out = self.q[-1] + l * 0
        for c in self.q[-2::-1]:
            out = c + out * l
        return out

    def positive_q(self, l) -> np.ndarray:
        """q(l) at the integer degrees l, as a float array, checked > 0 at
        every degree >= 1: a ValueError names the first degree where it is not."""
        degrees = np.asarray(l)
        q = np.asarray(self.q_eval(degrees), dtype=float)
        bad = (q <= 0) & (degrees >= 1)
        if bad.any():
            first = degrees[bad].flat[0]
            raise ValueError(f"q({first}) <= 0: the spectrum needs q(l) > 0 at every degree l >= 1")
        return q

    def validate_positive(self, L: int) -> None:
        """Require q(l) > 0 for 1 <= l <= L."""
        self.positive_q(np.arange(1, L + 1))

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


def zonal_hat(profile: SpectralProfile, rho: float | np.ndarray, l, n: int):
    """Spectrum value hat Psi_rho(l); the scales rho and the integer degrees l
    may be arrays that broadcast together.  A float when both are scalars.

    l may also be the ``_DegreePart`` of the profile at such degrees, which a
    library caller builds once to evaluate the spectrum at many of its own
    scales, already positive; only caller degrees have their scales checked.
    """
    rho = np.asarray(rho, dtype=float)
    if isinstance(l, _DegreePart):
        part = l
    else:
        if (rho <= 0).any():
            raise ValueError(f"scale must be positive, got {rho[rho <= 0].flat[0]}")
        part = _DegreePart(profile, n, l)
    lam = (n - 1) / 2
    s = rho**profile.a * part.q_power
    val = np.where(part.positive, np.power(s, profile.c) * np.exp(-s), 0.0)
    out = profile.amplitude * val * part.shifted / lam
    return float(out) if np.ndim(out) == 0 else out


def _directional_hat(rho, part: _DegreePart):
    """rho^(ed) hat Psi_rho(l), e = a/(gamma b): the spectrum of the scale-rho
    member with its directional scaling, at the degrees of the part; rho an
    array of positive scales that broadcasts with them."""
    profile = part.profile
    return zonal_hat(profile, rho, part, part.n) * rho ** (profile.tilde_exponent * profile.d)


# ---------------------------------------------------------------------------
# directional derivative


def _theta_derivative_tableau(d: int) -> tuple[np.ndarray, ...]:
    """Coefficient arrays T[k][i, j] with d^d/dTheta^d psi(t(Theta))|_0 =
    sum_k T[k](y1, y2) psi^(k)(y1), entries indexing y1^i y2^j; none for d = 0."""
    powers = np.arange(d + 1)
    tables = np.zeros((d + 1, d + 1, d + 1))  # tables[k, i, j], k = 0..d
    if d:
        tables[1, 0, 1] = 1.0  # first derivative: y2 * psi'
    for _ in range(1, d):
        nxt = np.zeros_like(tables)
        # derivative through the arguments: u' = v, v' = -u
        nxt[:, :-1, 1:] += powers[1:, None] * tables[:, 1:, :-1]
        nxt[:, 1:, :-1] -= powers[1:] * tables[:, :-1, 1:]
        # chain factor raising the derivative order
        nxt[1:, :, 1:] += tables[:-1, :, :-1]
        tables = nxt
    return tuple(tables[1:])


def ladder_beta(lam: float, l: int, iota: int) -> float:
    """Coupling coefficient linking adjacent azimuthal orders within degree l."""
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


def _response_norms(n: int, d: int, ls: np.ndarray) -> np.ndarray:
    """R(l) = sum_kappa |a_l^kappa(D^d[C_l kernel])|^2 at the integer degrees ls.

    R(l) = ||T_l^d e_0||^2 / (A_l^0)^2, T_l the antisymmetric tridiagonal
    coupling matrix of degree l, of which D^d reaches the orders <= min(d, l):
    each degree's leading (d+1)-block is one matrix of a stack.
    """
    lam = (n - 1) / 2
    T = np.zeros((len(ls), d + 1, d + 1))
    for k, l in enumerate(ls.tolist()):
        for i in range(min(d, l)):
            T[k, i + 1, i] = ladder_beta(lam, l, i)
    v = np.linalg.matrix_power(T - T.transpose(0, 2, 1), d)[:, :, 0]
    bridge = [fourier_from_gegenbauer_factor(n, l) ** 2 for l in ls.tolist()]
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0] / bridge


def degree_response_norms(n: int, d: int, L: int) -> np.ndarray:
    """R[l] = sum_kappa |a_l^kappa(D^d[C_l kernel])|^2 for l <= L, D the rotation
    derivative in the (x_1, x_2) plane (admissibility is axis-independent),
    from one stack of ladder blocks, as the admissibility energies read it."""
    return _response_norms(n, d, np.arange(L + 1))


class _DegreePart:
    """The degree part of a profile's spectrum at the integer degrees l: what
    no scale changes, computed once so that a caller evaluating the spectrum
    at many scales pays only for the scales.

    q(l) is evaluated and checked once.  The part holds the positivity mask,
    q(l)^b and l + lam that ``zonal_hat`` reads and, from their first read,
    the response norms R(l) of ``_response_norms`` and the dimensions N(n, l)
    that the energies and their degree means read (l a 1-d array for those).
    """

    _ARRAYS = ("degrees", "q", "positive", "q_power", "shifted", "response_norms", "dimensions")

    def __init__(self, profile: SpectralProfile, n: int, l):
        if n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got n={n}")
        self.profile, self.n = profile, n
        self.degrees = np.asarray(l)
        self.q = profile.positive_q(self.degrees)
        self.positive = self.q > 0
        self.q_power = np.power(np.where(self.positive, self.q, 0.0), profile.b)
        self.shifted = self.degrees + (n - 1) / 2

    @functools.cached_property
    def response_norms(self) -> np.ndarray:
        return _response_norms(self.n, self.profile.d, self.degrees)

    @functools.cached_property
    def dimensions(self) -> np.ndarray:
        return np.asarray([dim_harmonic(self.n, l) for l in self.degrees.tolist()])

    def at(self, k: int) -> _DegreePart:
        """The part of the k-th degree alone (l a 1-d array): one-element
        views of this part's arrays, R(l) and N(n, l) included, so a caller
        going degree by degree computes none of them again."""
        one = object.__new__(_DegreePart)
        one.profile, one.n = self.profile, self.n
        for name in self._ARRAYS:
            setattr(one, name, getattr(self, name)[k : k + 1])
        return one


def _cprime(profile: SpectralProfile) -> float:
    """c' = c + d/(gamma b): E_l(rho) is a multiple of s^(2c') e^(-2s)."""
    return profile.c + profile.d / (profile.gamma * profile.b)


def _scale_log_range(profile: SpectralProfile, q, tol: float = 1e-15) -> tuple[float, float]:
    """log-rho interval outside which the scale integrands of some degrees
    stay below tol times their peak, from the degrees' values q(l), which
    the caller has evaluated and checked positive.  The default level is the
    profile grid's: comfortably under discrete_beta's 1e-12 coverage
    threshold, so truncation stays negligible against discretization.

    Each integrand is the envelope s^(2c') e^(-2s) of s = rho^a q(l)^b: its
    range in s, s = c' u for the roots u of ``_envelope_roots``, is solved
    once, then shifted by -b log q(l) / a to the lower end of the degree
    with the largest q and the upper end of the one with the least q.
    """
    cprime = _cprime(profile)
    log_u_lo, u_hi = _envelope_roots(cprime, tol)
    log_c = math.log(cprime)
    return tuple(
        (log_c + log_u - profile.b * math.log(float(q_end))) / profile.a
        for log_u, q_end in ((log_u_lo, np.max(q)), (math.log(u_hi), np.min(q)))
    )


def _envelope_roots(cprime: float, tol: float) -> tuple[float, float]:
    """(ln u_lo, u_hi) for the two roots u = s/c' of ln u - u = kappa,
    kappa = ln(tol)/(2c') - 1: where the envelope s^(2c') e^(-2s) falls to
    tol times its peak at s = c'.  They are the Lambert-W values
    -W_0(-e^kappa) < 1 < -W_{-1}(-e^kappa).

    With delta = -1 - kappa > 0 both solve e^v - 1 - v = delta in v = ln u,
    and delta is kept apart from the 1 that kappa would round it into near
    the branch point (small delta, large c').  Newton runs on ln u for the
    lower root from max(kappa, ln(1 - sqrt(2 delta))) and on u for the upper
    from max(1 + sqrt(2 delta), -kappa + ln(-kappa)).  Every start lies below
    its root: the lower's convex, decreasing residual then converges
    monotonically, and the upper's overshoots once.
    """
    delta = -math.log(tol) / (2.0 * cprime)
    p = math.sqrt(2.0 * delta)
    log_u_lo = _newton(
        lambda v: (_exp_excess(v) - delta) / math.expm1(v),
        max(-1.0 - delta, math.log1p(-p) if p < 1.0 else -math.inf),
    )
    u_hi = _newton(
        lambda u: u * (u - 1.0 - math.log(u) - delta) / (u - 1.0),
        max(1.0 + p, 1.0 + delta + math.log1p(delta)),
    )
    return log_u_lo, u_hi


# 1/k! for k = 14 down to 2: the Taylor series of e^v - 1 - v, whose terms
# past k = 14 stay below 1e-18 of the sum for |v| <= 1/4
_EXCESS_SERIES = tuple(1.0 / math.factorial(k) for k in range(14, 1, -1))


def _exp_excess(v: float) -> float:
    """e^v - 1 - v to a few ulps.  For |v| <= 1/4, where expm1(v) - v would
    cancel its leading digits and leave the lower root of
    ``_envelope_roots`` short of 1e-14 relative accuracy, by its series."""
    if abs(v) > 0.25:
        return math.expm1(v) - v
    out = 0.0
    for coeff in _EXCESS_SERIES:
        out = coeff + out * v
    return out * v * v


# Newton's step cap; from the starts of _envelope_roots both roots take at
# most 6 steps for c' in [1e-3, 1e6] and tol in [1e-18, 1e-12]
_NEWTON_STEPS = 32


def _newton(step, x: float) -> float:
    """Root of f by Newton's method from x, step(x) = f(x)/f'(x), done once
    a step moves the iterate by at most 4 ulps."""
    for _ in range(_NEWTON_STEPS):
        dx = step(x)
        x -= dx
        if abs(dx) <= 4.0 * math.ulp(x):
            return x
    raise RuntimeError(f"Newton's method did not converge in {_NEWTON_STEPS} steps, at {x}")


def _scale_energies(rho, part: _DegreePart) -> np.ndarray:
    """E_l(rho) = sum_kappa |a_l^kappa(Psi_rho)|^2 = (rho^(ed) hat_rho(l))^2 R(l),
    the positive scales rho broadcast against the degrees of the part."""
    hat = _directional_hat(rho, part)
    return hat * hat * part.response_norms


def _degree_means(n: int, profile: SpectralProfile, l, means) -> float | np.ndarray:
    """means(part) at the degrees l above the profile order, part their
    ``_DegreePart``, and 0 at or below it.  l is an int or an integer array,
    checked once, and the result is a float for an int; or l is already the
    part of degrees above the order, which goes to means as it is."""
    if isinstance(l, _DegreePart):
        return means(l)
    ls = np.asarray(l)
    if (ls < 0).any():
        raise ValueError(f"degree must be >= 0, got {ls[ls < 0].flat[0]}")
    out = np.zeros(ls.shape)
    above = ls > profile_order(profile)
    if above.any():
        out[above] = means(_DegreePart(profile, n, ls[above]))
    return float(out) if out.ndim == 0 else out


def beta_numeric(n: int, profile: SpectralProfile, l) -> float | np.ndarray:
    """Admissibility beta(l) = (1/N(n,l)) int E_l(rho) drho/rho, in closed form.

    The degree-l energy E_l(rho) = rho^(2ed) hat_rho(l)^2 R(l) is a multiple of
    s^(2c') e^(-2s) in s = rho^a q(l)^b, with c' = c + d/(gamma b), and that
    shape integrates over log rho to Gamma(2c') / (a 4^c').  Reading the
    multiple at s = 1 gives beta(l) = e^2 Gamma(2c') / (a 4^c') E_l(rho_1) / N,
    which equals amp^2 Gamma(2c') / (a 4^c') q(l)^(-2d/gamma) ||T_l^d e_0||^2.
    The energies of all the degrees come from one ``zonal_hat`` call, so the
    spectrum is defined in one place, and q(l) is evaluated once.  l is an
    int or an integer array, like ``zonal_hat``'s, and an int gives a float;
    or l is the ``_DegreePart`` of degrees above the profile order.
    """

    def integrals(part: _DegreePart) -> np.ndarray:
        rho = part.q ** (-profile.b / profile.a)  # the scales with s = 1
        cprime = _cprime(profile)
        shape = math.e**2 * math.gamma(2.0 * cprime) / (profile.a * 4.0**cprime)
        return shape * _scale_energies(rho, part) / part.dimensions

    return _degree_means(n, profile, l, integrals)


def profile_order(profile: SpectralProfile) -> int:
    """Vanishing-moment order m: beta(l) = 0 for l <= m."""
    if profile.d >= 1 or profile.q[0] == 0.0:  # q(0) is the constant coefficient
        return 0
    return -1


@dataclass
class BetaTable:
    """Per-degree admissibility values with their extremal bounds."""

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError(f"expected one value per degree, got shape {self.values.shape}")
        if (self.values[: self.m + 1] != 0.0).any():
            raise ValueError(f"values at degrees <= order m={self.m} must be zero")

    @property
    def L(self) -> int:
        """The band limit: the table holds degrees 0..L."""
        return self.values.size - 1

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
    """Tabulate beta(l) for l <= L.

    One ``_DegreePart`` of the degrees m+1..L evaluates and checks q(l) and
    holds R(l) and N(n, l) for the whole table; each degree's
    ``beta_numeric`` call reads its one-degree view of it.  One call per
    degree, as perfbench's tracer counts them; one array call over the
    degrees gives the same bits.
    """
    m = profile_order(profile)
    part = _DegreePart(profile, n, np.arange(m + 1, L + 1))
    if L <= m:
        raise ValueError(f"band limit {L} leaves no degrees above the order m={m}")
    vals = np.zeros(L + 1)
    for k, l in enumerate(range(m + 1, L + 1)):
        vals[l : l + 1] = beta_numeric(n, profile, part.at(k))
    return BetaTable(n, m, vals)


def wavelet_bounds(table: BetaTable) -> tuple[float, float]:
    """Extremal admissibility values (A, B) over degrees above the order."""
    if table.L <= table.m:
        raise ValueError(f"no degrees above order m={table.m} in a table to L={table.L}")
    return table.A, table.B
