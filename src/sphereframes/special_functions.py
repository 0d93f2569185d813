"""Gegenbauer stacks and connection coefficients, weighted Gauss rules, sphere areas."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gegenbauer_all",
    "gegenbauer_connection",
    "zonal_gauss_rule",
    "surface_area",
]

_T_TOL = 1e-12


def _check_args(lam: float, l: int, t) -> np.ndarray:
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + _T_TOL):
        raise ValueError("argument outside [-1, 1]")
    return t


def _gegenbauer_pair(lam: float, l: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C_{l-1}, C_l) at t, with C_{-1} = 0."""
    # forward recurrence l*C_l = 2(l+lam-1) t C_{l-1} - (l+2lam-2) C_{l-2}
    prev = np.ones_like(t)
    if l == 0:
        return np.zeros_like(t), prev
    cur = 2.0 * lam * t
    for m in range(2, l + 1):
        prev, cur = cur, (2.0 * (m + lam - 1.0) * t * cur - (m + 2.0 * lam - 2.0) * prev) / m
    return prev, cur


def gegenbauer_all(lam: float, L: int, t: np.ndarray) -> np.ndarray:
    """Stack C_0..C_L at the given points; shape (L+1,) + t.shape."""
    t = _check_args(lam, L, t)
    out = np.empty((L + 1,) + t.shape)
    out[0] = 1.0
    if L >= 1:
        out[1] = 2.0 * lam * t
    for m in range(2, L + 1):
        out[m] = (2.0 * (m + lam - 1.0) * t * out[m - 1] - (m + 2.0 * lam - 2.0) * out[m - 2]) / m
    return out


def _times_t(lam: float, coeffs: np.ndarray) -> np.ndarray:
    """C^lam-series coefficients of t times the series, one degree longer:
    t C_l = ((l + 1) C_{l+1} + (l + 2 lam - 1) C_{l-1}) / (2 (l + lam))."""
    l = np.arange(coeffs.shape[-1])
    out = np.zeros(coeffs.shape[:-1] + (l.size + 1,))
    out[..., 1:] += coeffs * ((l + 1) / (2.0 * (l + lam)))
    out[..., :-2] += coeffs[..., 1:] * ((l[1:] + 2.0 * lam - 1) / (2.0 * (l[1:] + lam)))
    return out


def gegenbauer_connection(lam: float, k: int, poly, coeffs: np.ndarray) -> np.ndarray:
    """C^lam-series coefficients of poly(t) * sum_m coeffs[..., m] C^{lam+k}_m(t).

    poly holds ascending monomial coefficients, not all zero.  The order is
    lowered k times with C^{mu+1}_m = sum_{i <= m/2} (m - 2i + mu) / mu
    C^mu_{m-2i}, so the C^mu coefficient of degree l is (l + mu) / mu times
    the sum of the C^{mu+1} coefficients of degrees l, l + 2, ...; then the
    product with poly runs by Horner's rule on the three-term relation for
    t C^lam_l.  The last axis of the result runs to degree m_max + deg(poly).
    """
    out = np.asarray(coeffs, dtype=float)
    l = np.arange(out.shape[-1])
    for mu in lam + np.arange(k - 1, -1, -1):
        tail = np.empty_like(out)
        for parity in (0, 1):
            same = out[..., parity::2]
            tail[..., parity::2] = np.cumsum(same[..., ::-1], axis=-1)[..., ::-1]
        out = tail * ((l + mu) / mu)
    poly = np.trim_zeros(np.asarray(poly, dtype=float), "b")
    acc = poly[-1] * out
    for c in poly[-2::-1]:
        acc = _times_t(lam, acc)
        acc[..., : out.shape[-1]] += c * out
    return acc


def _pochhammer(x: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def _log_squared_norm(lam: float, l: int) -> float:
    # pi 2^(1-2 lam) Gamma(l+2 lam) / (l! (l+lam) Gamma(lam)^2), in log space
    return (
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + math.lgamma(l + 2.0 * lam)
        - math.lgamma(l + 1.0)
        - math.log(l + lam)
        - 2.0 * math.lgamma(lam)
    )


def zonal_gauss_rule(lam: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1, 1] for the weight (1-t^2)^(lam-1/2); exact to degree 2 npts - 1.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Gegenbauer recurrence (Golub & Welsch, Math. Comp. 23, 1969).  Its
    diagonal is zero, so with the even rows first it is [[0, B], [B^T, 0]],
    and the squares of the positive nodes are the eigenvalues of the
    half-size tridiagonal B^T B; an odd rule adds the node 0.
    """
    if npts < 1:
        raise ValueError(f"need at least one node, got {npts}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    # monic recurrence t p_k = p_{k+1} + b_k^2 p_{k-1}, b[k - 1] coupling rows k - 1, k;
    # b[npts - 1] = 0 stands for the coupling past the last row
    k = np.arange(1.0, npts + 1)
    b = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    b[-1] = 0.0
    half = npts // 2
    # B^T B over the odd rows 2i + 1, each coupled to the even rows 2i and 2i + 2
    diag = b[0 : 2 * half : 2] ** 2 + b[1 : 2 * half + 1 : 2] ** 2
    off = b[1 : 2 * half - 1 : 2] * b[2 : 2 * half : 2]
    squares = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return _gauss_rule_from_nodes(lam, npts, np.sqrt(squares))


def _gauss_rule_from_nodes(lam: float, npts: int, positive: np.ndarray):
    """The Gauss rule from approximations to its npts // 2 positive nodes.

    Two Newton steps on C_npts polish them, the second in extended precision
    where the platform has it, so that each lands on the double nearest its
    root; they are mirrored about 0, with 0 added for odd npts.  The weights
    are 1 / ((1 - t^2) C'_npts(t)^2), scaled to the total mass of the weight.
    """
    t = positive
    for dtype in (float, np.longdouble):
        # (1 - t^2) C'_N = (N + 2 lam - 1) C_{N-1} - N t C_N
        x, a = t.astype(dtype), dtype(lam)
        prev, cur = _gegenbauer_pair(a, npts, x)
        step = cur * (1 - x) * (1 + x) / ((npts + 2 * a - 1) * prev - npts * x * cur)
        t = (x - step).astype(float)
    t = np.concatenate([-t[::-1], np.zeros(npts % 2), t])
    # C'_npts = 2 lam C^{lam+1}_{npts-1}; constant factors cancel in the scaling
    slope = _gegenbauer_pair(lam + 1.0, npts - 1, t)[1]
    w = 1.0 / ((1.0 - t) * (1.0 + t) * slope * slope)
    mass = math.sqrt(math.pi) * math.exp(math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0))
    return t, w * (mass / w.sum())


def surface_area(n: int) -> float:
    """Total measure of the n-sphere, 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
