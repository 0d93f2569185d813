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
        if self.d < 0:
            raise ValueError(f"derivative order must be >= 0, got {self.d}")
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

    def validate_positive(self, L: int) -> None:
        """Require q(l) > 0 for 1 <= l <= L."""
        vals = self.q_eval(np.arange(1, L + 1))
        if (vals <= 0).any():
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
        self.profile, self.n = profile, n
        self.degrees = np.asarray(l)
        self.q = np.asarray(profile.q_eval(self.degrees), dtype=float)
        if (self.q[self.degrees >= 1] <= 0).any():
            raise ValueError("q(l) <= 0 inside the requested range")
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


def _brent_root(f, xa: float, xb: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of the reference C routine brentq with its default
    tolerances (xtol 2e-12, rtol 4 eps, 100 iterations), so it returns the
    same root to the last bit.  Raises ValueError if f(xa) and f(xb) have
    the same sign.
    """
    xtol, rtol = 2e-12, 4.0 * np.finfo(float).eps
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in 100 iterations, value is {xcur}")


def _cprime(profile: SpectralProfile) -> float:
    """c' = c + d/(gamma b): E_l(rho) is a multiple of s^(2c') e^(-2s)."""
    return profile.c + profile.d / (profile.gamma * profile.b)


def _scale_log_range(
    profile: SpectralProfile, first: int, last: int, tol: float = 1e-15
) -> tuple[float, float]:
    """log-rho interval outside which the scale integrands of the degrees
    first..last stay below tol times their peak.  The default level is the
    profile grid's: comfortably under discrete_beta's 1e-12 coverage
    threshold, so truncation stays negligible against discretization.

    Each integrand is the envelope s^(2c') e^(-2s) of s = rho^a q(l)^b: its
    range in s is solved once, then shifted by -b log q(l) / a to the lower
    end of the degree with the largest q and the upper end of the one with
    the least q.
    """
    cprime, target = _cprime(profile), math.log(tol)

    def g(s: float) -> float:
        return 2.0 * cprime * math.log(s / cprime) - 2.0 * (s - cprime) - target

    hi_guess = cprime - target
    while g(hi_guess) > 0:
        hi_guess *= 2.0
    s_lo, s_hi = _brent_root(g, cprime * 1e-30, cprime), _brent_root(g, cprime, hi_guess)
    degrees = np.arange(first, last + 1)
    q = profile.q_eval(degrees)
    if (q <= 0.0).any():
        l = int(degrees[q <= 0.0][0])
        raise ValueError(f"q({l}) <= 0: degree {l} has no scale range")
    return tuple(
        (math.log(s) - profile.b * math.log(float(q_end))) / profile.a
        for s, q_end in ((s_lo, q.max()), (s_hi, q.min()))
    )


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
    try:
        part = _DegreePart(profile, n, np.arange(m + 1, L + 1))
    except ValueError:
        profile.validate_positive(L)  # names the first degree with q(l) <= 0
        raise
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
