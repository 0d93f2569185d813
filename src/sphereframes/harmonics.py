"""Hyperspherical harmonics: indexing, evaluation, quadrature analysis and synthesis.

Angle convention on the n-sphere: (theta_1, ..., theta_{n-1}, phi) with
x_1 = cos theta_1, x_j = cos theta_j * prod_{i<j} sin theta_i, and the final
pair (x_n, x_{n+1}) carrying the azimuth phi. The last index k_{n-1} is signed
and enters as exp(i k phi); the polar factors use |k_{n-1}|.

The sphere grid is a tensor product: a Gauss rule per polar axis and uniform
azimuths.  synthesize runs over it axis by axis (the Driscoll-Healy scheme):
polar axis tau contracts the chain index k_{tau-1} against normalized rows
h^(-1/2) C_m^mu(cos theta) sin^|k_tau|(theta), made by one recurrence in m,
and a DFT over the azimuths sums the signed last index.  analyze is the
adjoint of the same steps and takes a trailing column axis, so several
sample sets share one pass.  The rows depend only on the grid, so
build_sphere_grid computes them once, for every order, and the grid holds
them: (n - 1)(L + 1)^3 * 8 bytes, 2.1 MiB at n=2, L=64 and 16 MiB at
L=128.  It refuses a grid whose rows would pass _MAX_ARRAY_BYTES (1 GiB;
at n=2 the largest grid is L=511).  synthesize and analyze at a band below
the grid's take a slice of them; besides the rows, their working memory is
a few arrays the size of the grid.  _polar_values evaluates every harmonic
at points of azimuth 0 from rows of the same recurrence at those points;
at any other azimuth a harmonic only gains its factor e^(i k phi).
multiply_coordinates multiplies a coefficient table by each ambient
coordinate without any grid: on each polar axis, cos and sin move the chain
index by +-1 with closed-form coefficients of the normalized rows (the
three-term recurrence and the order-raising identity), and e^(+-i phi)
moves the signed last index.
harmonic_basis keeps the dense matrix of every harmonic on the grid as the
reference the tests compare against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .special_functions import (
    _log_squared_norm,
    gegenbauer_all,
    surface_area,
    zonal_gauss_rule,
)

__all__ = [
    "HarmonicIndex",
    "HarmonicCoefficients",
    "SphereGrid",
    "dim_harmonic",
    "coefficient_count",
    "enumerate_indices",
    "all_indices",
    "build_sphere_grid",
    "harmonic_basis",
    "analyze",
    "synthesize",
    "multiply_coordinates",
    "fourier_from_gegenbauer_factor",
    "angles_to_vector",
]


# Largest dense basis harmonic_basis allocates, and largest set of axis rows
# a SphereGrid holds; larger requests raise.
_MAX_ARRAY_BYTES = 2**30


class HarmonicIndex(NamedTuple):
    l: int
    k: tuple[int, ...]


def validate_index(n: int, index: HarmonicIndex) -> None:
    l, k = index
    if len(k) != n - 1:
        raise ValueError(f"index needs {n - 1} inner entries, got {len(k)}")
    chain = (l,) + tuple(k[:-1]) + (abs(k[-1]),)
    if l < 0 or any(a < b for a, b in zip(chain, chain[1:])):
        raise ValueError(f"index {index} violates l >= k_1 >= ... >= |k_last| >= 0")
    if any(ki < 0 for ki in k[:-1]):
        raise ValueError(f"inner entries before the last must be nonnegative: {index}")


def dim_harmonic(n: int, l: int) -> int:
    """Number of linearly independent degree-l harmonics on the n-sphere."""
    if n < 2 or l < 0:
        raise ValueError(f"need n >= 2 and l >= 0, got n={n}, l={l}")
    return (n + 2 * l - 1) * math.factorial(n + l - 2) // (math.factorial(n - 1) * math.factorial(l))


def coefficient_count(n: int, L: int) -> int:
    """Number of harmonics of every degree l <= L on the n-sphere (0 for L < 0).

    They span the polynomials of degree <= L restricted to S^n, as many as
    the degree-L harmonics on S^(n+1), so the count is dim_harmonic(n + 1, L),
    which is C(n + L, n) + C(n + L - 1, n).
    """
    if L < 0:
        return 0
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return math.comb(n + L, n) + math.comb(n + L - 1, n)


def enumerate_indices(n: int, l: int) -> list[HarmonicIndex]:
    """All degree-l indices (k_1, ..., k_{n-1}), last entry signed, lexicographic."""
    if n < 2 or l < 0:
        raise ValueError(f"need n >= 2 and l >= 0, got n={n}, l={l}")

    def rec(bound: int, remaining: int) -> Iterable[tuple[int, ...]]:
        if remaining == 1:
            for k in range(-bound, bound + 1):
                yield (k,)
            return
        for k in range(0, bound + 1):
            for tail in rec(k, remaining - 1):
                yield (k,) + tail

    return [HarmonicIndex(l, k) for k in rec(l, n - 1)]


def all_indices(n: int, L: int) -> list[HarmonicIndex]:
    """Indices for every degree l <= L, ordered by (l, k) lexicographic."""
    out: list[HarmonicIndex] = []
    for l in range(L + 1):
        out.extend(enumerate_indices(n, l))
    return out


def _log_norm_product(n: int, index: HarmonicIndex) -> float:
    """log of (2 pi / Sigma_n) * prod_tau h(mu_tau, m_tau); A = exp(-log/2)."""
    l, k = index
    chain = (l,) + tuple(abs(ki) for ki in k)
    log = math.log(2.0 * math.pi) - math.log(surface_area(n))
    for tau in range(1, n):
        mu = (n - tau) / 2 + chain[tau]
        m = chain[tau - 1] - chain[tau]
        log += _log_squared_norm(mu, m)
    return log


def harmonic_normalization(n: int, index: HarmonicIndex) -> float:
    """Constant A_l^k making the harmonic unit-norm under the 1/Sigma_n inner product."""
    validate_index(n, index)
    return math.exp(-0.5 * _log_norm_product(n, index))


@dataclass
class SphereGrid:
    """Product quadrature grid on the n-sphere, exact for harmonic products at 2L."""

    n: int
    L: int
    axis_nodes: list[np.ndarray]  # per polar axis, cos(theta) ascending
    axis_weights: list[np.ndarray]
    phi_nodes: np.ndarray
    phi_weight: float
    angles: np.ndarray  # (M, n) flattened angle tuples
    weights: np.ndarray  # (M,)
    # per polar axis, read-only rows[kk, m, node] of _axis_rows for every kk <= L
    axis_rows: list[np.ndarray]

    @property
    def size(self) -> int:
        return self.angles.shape[0]


def build_sphere_grid(n: int, L: int) -> SphereGrid:
    """Gauss rule per polar angle (weight-matched) and uniform azimuth, exact at 2L.

    Also computes each polar axis's normalized rows for every order kk <= L,
    which synthesize and analyze share.  Raises before holding more than _MAX_ARRAY_BYTES of rows.
    """
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    if L < 0:
        raise ValueError(f"band limit must be >= 0, got {L}")
    nbytes = (n - 1) * (L + 1) ** 3 * np.dtype(float).itemsize
    if nbytes > _MAX_ARRAY_BYTES:
        raise ValueError(
            f"axis rows of the sphere grid for n={n}, L={L} need {nbytes} bytes, "
            f"over the {_MAX_ARRAY_BYTES}-byte limit"
        )
    axis_nodes, axis_weights, axis_rows = [], [], []
    for tau in range(1, n):
        t, w = zonal_gauss_rule((n - tau) / 2, L + 1)
        axis_nodes.append(t)
        axis_weights.append(w)
        rows = _axis_rows((n - tau) / 2, t, L, np.arange(L + 1))
        rows.flags.writeable = False
        axis_rows.append(rows)
    m_phi = 2 * L + 1
    phi = 2.0 * math.pi * np.arange(m_phi) / m_phi
    phi_w = 2.0 * math.pi / m_phi

    thetas = [np.arccos(t) for t in axis_nodes]
    mesh = np.meshgrid(*thetas, phi, indexing="ij")
    angles = np.stack([m.reshape(-1) for m in mesh], axis=1)
    wmesh = np.meshgrid(*axis_weights, np.full(m_phi, phi_w), indexing="ij")
    weights = np.ones(angles.shape[0])
    for wm in wmesh:
        weights = weights * wm.reshape(-1)
    return SphereGrid(n, L, axis_nodes, axis_weights, phi, phi_w, angles, weights, axis_rows)


def harmonic_basis(grid: SphereGrid, L: int) -> tuple[list[HarmonicIndex], np.ndarray]:
    """Dense matrix of Y_l^k values on the grid, one row per index with l <= L.

    The reference that the separable synthesize and analyze are tested
    against; nothing on the transform path builds it.  Raises before
    allocating more than _MAX_ARRAY_BYTES.
    """
    n = grid.n
    count = coefficient_count(n, L)
    nbytes = count * grid.size * np.dtype(complex).itemsize
    if nbytes > _MAX_ARRAY_BYTES:
        raise ValueError(
            f"dense harmonic basis for n={n}, L={L} on {grid.size} nodes needs "
            f"{nbytes} bytes, over the {_MAX_ARRAY_BYTES}-byte limit"
        )
    indices = all_indices(n, L)
    # per-axis blocks C_m^{(n-tau)/2 + kk}(t) * sin^kk(theta), any m <= L, kk <= L
    axis_blocks: list[dict[int, np.ndarray]] = []
    for tau in range(1, n):
        t = grid.axis_nodes[tau - 1]
        sin_pow = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        blocks = {}
        for kk in range(L + 1):
            mu = (n - tau) / 2 + kk
            blocks[kk] = gegenbauer_all(mu, L - kk, t) * sin_pow**kk
        axis_blocks.append(blocks)
    phi_block = {
        k: np.exp(1j * k * grid.phi_nodes) for k in range(-L, L + 1)
    }
    mat = np.empty((len(indices), grid.size), dtype=complex)
    for row, idx in enumerate(indices):
        l, k = idx
        chain = (l,) + tuple(abs(ki) for ki in k)
        parts = []
        for tau in range(1, n):
            m = chain[tau - 1] - chain[tau]
            parts.append(axis_blocks[tau - 1][chain[tau]][m])
        parts.append(phi_block[k[-1]])
        val = harmonic_normalization(n, idx)
        acc = np.asarray(parts[0], dtype=complex) * val
        for p in parts[1:]:
            acc = np.multiply.outer(acc, p)
        mat[row] = acc.reshape(-1)
    return indices, mat


def _log_beta_half(base: float, kk: np.ndarray) -> np.ndarray:
    """log B(base + kk, 1/2) for ascending integer orders kk.

    One lgamma pair at the base order, then B(mu + 1, 1/2) = B(mu, 1/2) mu /
    (mu + 1/2) as a running product: within 3e-15 of the exact log up to
    mu = 800.5.
    """
    steps = base + np.arange(int(kk[-1]))
    ratio = np.cumprod(np.concatenate(([1.0], steps / (steps + 0.5))))
    start = math.lgamma(base) - math.lgamma(base + 0.5) + 0.5 * math.log(math.pi)
    return start + np.log(ratio[np.asarray(kk, dtype=int)])


def _axis_rows(base: float, t: np.ndarray, L: int, kk: np.ndarray) -> np.ndarray:
    """Normalized rows of one polar axis for the ascending orders kk.

    rows[j, m, i] = h(mu, m)^(-1/2) C_m^mu(t_i) sin^kk_j(theta_i) with
    mu = base + kk_j, for m <= L - kk_j, and zero above; m runs to L - kk_0.
    One three-term recurrence in m runs for every kk at once.  The norms are
    folded into its coefficients and the start sin^kk / sqrt(h(mu, 0)) is
    taken in log space, so rows stay finite where C_m^mu itself overflows.
    t may include the poles +-1.
    """
    kk = np.asarray(kk, dtype=float)
    mu = base + kk[:, None]
    # h(mu, 0) = pi / (mu B(mu, 1/2))
    log_h0 = math.log(math.pi) - np.log(mu) - _log_beta_half(base, kk)[:, None]
    top = L - int(kk[0])
    rows = np.zeros((kk.size, top + 1, t.size))
    # log sin^kk(theta); at the poles sin^0 = 1 and every higher power is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sin = kk[:, None] * (0.5 * (np.log1p(-t) + np.log1p(t)))
    rows[:, 0] = np.exp(np.where(kk[:, None] > 0, log_sin, 0.0) - 0.5 * log_h0)
    if top == 0:
        return rows
    # m C_m = 2(m + mu - 1) t C_{m-1} - (m + 2mu - 2) C_{m-2}, rescaled to unit norm
    m = np.arange(1.0, top + 1)
    alpha = 2.0 * np.sqrt((m + mu - 1) * (m + mu) / (m * (m + 2 * mu - 1)))
    m = m[1:]
    beta = np.sqrt(
        (m - 1) * (m + mu) * (m + 2 * mu - 2) / (m * (m + mu - 2) * (m + 2 * mu - 1))
    )
    live = np.searchsorted(kk, L - np.arange(top + 1), side="right")
    K = live[1]
    rows[:K, 1] = alpha[:K, :1] * t * rows[:K, 0]
    for j in range(2, top + 1):
        K = live[j]
        rows[:K, j] = (
            alpha[:K, j - 1 : j] * t * rows[:K, j - 1] - beta[:K, j - 2 : j - 1] * rows[:K, j - 2]
        )
    return rows


def _chain_coords(n: int, L: int) -> tuple[np.ndarray, ...]:
    """(l, k_1, ..., k_{n-1}) of all_indices(n, L) as arrays, last index signed.

    C order over (l, k_1, ..., k_{n-1}) with the last index signed is the
    lexicographic order of all_indices, so the valid entries come out in
    that order.
    """
    side = L + 1
    chain = [np.arange(side).reshape((-1,) + (1,) * (n - 1 - tau)) for tau in range(n - 1)]
    signed = np.arange(-L, side)
    valid = chain[-1] >= np.abs(signed)
    for a, b in zip(chain, chain[1:]):
        valid = valid & (a >= b)
    coords = np.nonzero(valid)
    return coords[:-1] + (coords[-1] - L,)


def _chain_offsets(n: int, L: int) -> list[np.ndarray]:
    """offsets[tau][kk]: how many index chains come before kk_tau = kk among
    those that agree with a chain before tau, for kk <= L.

    The position of (l, k_1, ..., k_{n-1}) in all_indices is then the sum of
    offsets[tau][kk_tau] for tau < n - 1, plus kk_{n-2} + k_{n-1}; it does
    not depend on the band, since all_indices(n, L) is a prefix of every
    larger band's list.
    """
    # tails[kk]: chains (kk_{tau+1}, ..., k_{n-1}) below kk_tau = kk, from
    # 2 kk + 1 signed last indices inwards
    tails = 2 * np.arange(L + 1) + 1
    offsets = []
    for _ in range(n - 1):
        offsets.append(np.concatenate(([0], np.cumsum(tails)[:-1])))
        tails = np.cumsum(tails)
    return offsets[::-1]


def _ladder(base: float, a: np.ndarray, b: np.ndarray, da, db) -> np.ndarray:
    """<P_{a+da, b+db}, g P_{a,b}> on one polar axis: g = cos(theta) when db
    is the scalar 0, else sin(theta), with db the array of +-1 moves of b.

    P_{a,b} = h(mu, m)^(-1/2) C_m^mu(t) sin^b(theta), mu = base + b and
    m = a - b, are the orthonormal rows of _axis_rows under the axis weight
    (1 - t^2)^(base - 1/2).  cos is the Jacobi matrix of the normalized
    C^mu, t p_m = b_(m+1) p_(m+1) + b_m p_(m-1), whose b is the off-diagonal
    of zonal_gauss_rule; sin raises mu through
    C_m^mu = mu / (m + mu) (C_m^(mu+1) - C_(m-2)^(mu+1)), and lowers it by
    the adjoint of that raise.  Every case is
    sign * sqrt(num / (4 (m + mu) (m + mu + da))), num a product of two
    factors linear in m and mu.  Where the target chain is invalid the
    value may be nan or inf; callers mask those entries.
    """
    mu = base + b
    m = a - b
    if np.isscalar(db):
        num = (m + (1 + da) // 2) * (m + 2 * mu - (1 - da) // 2)
        sign = 1
    else:
        x = np.where(db == da, m + 2 * mu - 1 + db, m - db)
        num = x * (x + 1)
        sign = da * db
    return sign * np.sqrt(num / (4.0 * (m + mu) * (m + mu + da)))


def multiply_coordinates(coeffs: "HarmonicCoefficients", L: int) -> "HarmonicCoefficients":
    """Coefficients of x_c times the expanded function for every ambient
    coordinate c = 0..n, to degree L; values[:, c] holds x_c's product, and
    the trailing axes of coeffs.values follow it.

    Exact, without a grid.  x_c, c <= n - 2, is cos(theta) on polar axis c
    times sin(theta) on the axes before it; x_(n-1) and x_n are sin(theta)
    on every polar axis times cos(phi) and sin(phi), so they share one pass
    that moves the signed last index by e^(+-i phi).  Each factor moves its
    axis's chain index by +-1 with the closed-form _ladder coefficients, so
    each output coefficient gathers one input coefficient per choice of
    those moves, 2^(affected axes) of them, scales and adds them.
    """
    n = coeffs.n
    if L < 0:
        raise ValueError(f"band limit must be >= 0, got {L}")
    columns = coeffs.values.shape[1:]
    # sources above degree L + 1 reach no degree <= L
    top = min(coeffs.L, L + 1)
    count = coefficient_count(n, top)
    values = np.ascontiguousarray(coeffs.values[:count].reshape(count, -1)).view(np.float64)
    offsets = _chain_offsets(n, top)
    *kk, k = _chain_coords(n, L)
    new = kk + [np.abs(k)]
    out = np.empty((k.size, n + 1, values.shape[1] // 2), dtype=complex)
    for axis in range(n):
        # polar axis p couples a = kk[p] with b = kk[p + 1]; cos acts on axis
        # `axis` and sin on the axes before it, or sin on every axis when phi
        # moves.  One row per choice of moves: of phi's k first, then of
        # those axes' a; old holds the source chain of each output chain.
        inner = min(axis, n - 2)
        moves_phi = axis == n - 1
        shifts = np.array(list(itertools.product((1, -1), repeat=moves_phi + inner + 1)))
        shifts = shifts[:, ::-1, None]
        old_k = k - shifts[:, -1] if moves_phi else k
        old = [kk[p] - shifts[:, p] if p <= inner else kk[p] for p in range(n - 1)]
        old.append(np.abs(old_k))
        live = old[0] <= top
        for a, b in zip(old, old[1:]):
            live = live & (a >= b)
        factor = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for p in range(inner + 1):
                db = 0 if p == axis else new[p + 1] - old[p + 1]
                factor = factor * _ladder((n - 1 - p) / 2, old[p], old[p + 1], shifts[:, p], db)
        # a source outside the table has scale 0 and reads any row
        scale = np.where(live, factor, 0.0)
        source = old[-2] + old_k + sum(offsets[p].take(old[p], mode="clip") for p in range(n - 1))
        source = np.where(live, source, 0)
        if not moves_phi:
            out[:, axis] = _gathered_sum(values, scale, source)
            continue
        # cos(phi) = (e^(i phi) + e^(-i phi)) / 2, sin(phi) = -i (e^(i phi) - e^(-i phi)) / 2;
        # the first half of the rows raise k, the second half lower it
        half = len(shifts) // 2
        raised = _gathered_sum(values, scale[:half], source[:half])
        lowered = _gathered_sum(values, scale[half:], source[half:])
        out[:, n - 1] = 0.5 * (raised + lowered)
        out[:, n] = -0.5j * (raised - lowered)
    return HarmonicCoefficients(n, L, out.reshape((k.size, n + 1) + columns))


def _gathered_sum(values: np.ndarray, scale: np.ndarray, source: np.ndarray) -> np.ndarray:
    """sum_p scale[p, :, None] * values[source[p]], viewed as complex: the
    rows of one choice of moves are gathered, scaled and added at a time, so
    one gathered copy is held instead of all of them."""
    total = np.zeros((source.shape[1], values.shape[1]))
    for weights, rows in zip(scale, source):
        total += weights[:, None] * values.take(rows, axis=0)
    return total.view(complex)


def _chain_positions(n: int, L: int) -> np.ndarray:
    """Positions of all_indices(n, L) in the dense (l, kk_1, ..., kk_{n-1}, sign) array.

    kk_tau = |k_tau|, and sign is 1 for a negative last index.
    """
    coords = _chain_coords(n, L)
    k = coords[-1]
    return np.ravel_multi_index(coords[:-1] + (np.abs(k), k < 0), (L + 1,) * n + (2,))


@dataclass
class HarmonicCoefficients:
    """Band-limited coefficient table aligned with all_indices(n, L).

    values has one row per index; trailing axes, when present, hold several
    tables over the same indices (one per column of the analysed samples).
    """

    n: int
    L: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        expect = coefficient_count(self.n, self.L)
        if self.values.shape[:1] != (expect,):
            raise ValueError(
                f"expected {expect} coefficients for n={self.n}, L={self.L}, "
                f"got shape {self.values.shape}"
            )

    @classmethod
    def zeros(cls, n: int, L: int) -> "HarmonicCoefficients":
        return cls(n, L, np.zeros(coefficient_count(n, L), dtype=complex))

    def degree_slice(self, l: int) -> slice:
        if not 0 <= l <= self.L:
            raise ValueError(f"degree {l} outside [0, {self.L}]")
        return slice(coefficient_count(self.n, l - 1), coefficient_count(self.n, l))

    def _single(self) -> np.ndarray:
        """values of a one-column table; the per-table methods below reduce
        over all of values, so several columns are refused, not summed."""
        if self.values.ndim != 1:
            raise ValueError(
                f"needs one coefficient table, got columns of shape {self.values.shape[1:]}"
            )
        return self.values

    def degree_energy(self, l: int) -> float:
        v = self._single()[self.degree_slice(l)]
        return float(np.vdot(v, v).real)

    def degree_energies(self) -> np.ndarray:
        """degree_energy(l) for every l <= L, from one pass over the values."""
        v = self._single()
        starts = [coefficient_count(self.n, l - 1) for l in range(self.L + 1)]
        return np.add.reduceat(v.real**2 + v.imag**2, starts)

    def norm(self) -> float:
        v = self._single()
        return float(np.sqrt(np.vdot(v, v).real))


def analyze(samples: np.ndarray, grid: SphereGrid, L: int) -> HarmonicCoefficients:
    """Project grid samples onto harmonics: a_l^k = (1/Sigma_n) sum conj(Y) f w.

    The adjoint of synthesize: a weighted DFT in phi, then the polar axes
    from last to first, each contracting its nodes against its normalized
    rows.  samples has one row per grid node; trailing axes are independent
    columns that share the rows and come back as trailing axes of values.
    """
    samples = np.asarray(samples)
    if samples.shape[:1] != (grid.size,):
        raise ValueError(f"expected {grid.size} samples, got {samples.shape}")
    if L > grid.L:
        raise ValueError(f"grid exact to band {grid.L}, cannot analyze at L={L}")
    n, side = grid.n, L + 1
    kk = np.arange(side)
    columns = samples.shape[1:]
    width = math.prod(columns)
    n_phi = grid.phi_nodes.size
    weighted = samples.reshape(-1, n_phi, width) * grid.weights.reshape(-1, n_phi, 1)
    spectrum = np.fft.fft(weighted, axis=1)
    # x[p, kk, sign, c]: the phi sums against e^{-i k phi} for k = kk and k = -kk
    x = np.zeros((spectrum.shape[0], side, 2, width), dtype=complex)
    x[:, :, 0] = spectrum[:, :side]
    x[:, 1:, 1] = spectrum[:, n_phi - np.arange(1, side)]
    del weighted, spectrum  # grid-sized; the axis passes below need the room
    for tau in range(n - 1, 0, -1):
        t = grid.axis_nodes[tau - 1]
        # (nodes of the axes before tau, node of axis tau, kk_tau, later kk, sign and column)
        xr = x.reshape(-1, t.size, side, 2 * side ** (n - 1 - tau) * width).view(np.float64)
        rows = grid.axis_rows[tau - 1][:side, :side]  # (kk_tau, m, node)
        rhs = xr.transpose(2, 1, 0, 3).reshape(side, t.size, -1)
        out = (rows @ rhs).reshape(side, side, xr.shape[0], -1)
        # y[p, kk_{tau-1}, kk_tau, q] with kk_{tau-1} = kk_tau + m, padded to
        # 2L; the padding holds the rows' m > L - kk_tau, which no harmonic
        # of degree <= L reaches, and is dropped after the axis
        y = np.zeros((xr.shape[0], 2 * L + 1, side, xr.shape[3]))
        y[:, kk[:, None] + kk, kk[:, None]] = out.transpose(2, 0, 1, 3)
        x = y[:, :side].view(complex)
    scale = math.sqrt(surface_area(n) / (2.0 * math.pi)) / surface_area(n)
    values = x.reshape(-1, width)[_chain_positions(n, L)] * scale
    return HarmonicCoefficients(n, L, values.reshape((-1,) + columns))


def synthesize(coeffs: HarmonicCoefficients, grid: SphereGrid) -> np.ndarray:
    """Pointwise sum of the coefficient table against the harmonics on the grid.

    Separable over the tensor grid: each polar axis in turn contracts the
    chain index it ends (l, then k_1, ...) against its normalized rows, and a
    DFT over the uniform azimuths sums the signed last index.
    """
    if coeffs.n != grid.n:
        raise ValueError(f"dimension mismatch: coefficients n={coeffs.n}, grid n={grid.n}")
    if coeffs.L > grid.L:
        raise ValueError(f"coefficients at L={coeffs.L} exceed grid band {grid.L}")
    n, L = grid.n, coeffs.L
    side = L + 1
    kk = np.arange(side)
    x = np.zeros((side,) * n + (2,), dtype=complex)
    x.reshape(-1)[_chain_positions(n, L)] = coeffs._single()
    for tau in range(1, n):
        t = grid.axis_nodes[tau - 1]
        rows = grid.axis_rows[tau - 1][:side, :side]  # (kk_tau, m, node)
        # (nodes of the axes before tau, kk_{tau-1}, kk_tau, later kk and sign),
        # padded with zeros to kk_{tau-1} = 2L so that every kk_tau + m exists;
        # the zeros meet the rows' m > L - kk_tau
        xr = x.reshape(-1, side, side, 2 * side ** (n - 1 - tau)).view(np.float64)
        pad = np.concatenate([xr, np.zeros_like(xr[:, :L])], axis=1)
        lhs = pad[:, kk[:, None] + kk, kk[:, None]].transpose(1, 0, 3, 2)
        out = lhs.reshape(side, -1, side) @ rows
        y = out.reshape(side, xr.shape[0], -1, t.size).transpose(1, 3, 0, 2)
        x = np.ascontiguousarray(y).view(complex)
    x = x.reshape(-1, side, 2)
    n_phi = grid.phi_nodes.size
    fourier = np.zeros((x.shape[0], n_phi), dtype=complex)
    fourier[:, :side] = x[:, :, 0]
    fourier[:, n_phi - np.arange(1, side)] = x[:, 1:, 1]
    values = np.fft.ifft(fourier, axis=1, norm="forward")
    return values.reshape(-1) * math.sqrt(surface_area(n) / (2.0 * math.pi))


def _polar_values(n: int, L: int, polar: np.ndarray) -> np.ndarray:
    """Every harmonic of all_indices(n, L) at the points of azimuth 0 and
    polar angles polar[p], shape (P, n - 1): real, shape (count, P).

    The azimuth enters a harmonic only as e^(i k phi), so at any other
    azimuth these values take that factor.  One recurrence per polar axis
    gives its normalized rows at every point, and each harmonic is the
    product of entries along its index chain.
    """
    coords = _chain_coords(n, L)
    chain = coords[:-1] + (np.abs(coords[-1]),)
    every = np.arange(L + 1)
    out = np.full((coords[0].size, polar.shape[0]), math.sqrt(surface_area(n) / (2.0 * math.pi)))
    for tau in range(1, n):
        rows = _axis_rows((n - tau) / 2, np.cos(polar[:, tau - 1]), L, every)
        kk = chain[tau]
        out *= rows[kk, chain[tau - 1] - kk]
    return out


def fourier_from_gegenbauer_factor(n: int, l: int) -> float:
    """The zonal bridge constant A_l^0 = (lam + l) / (lam sqrt(N(n, l)))."""
    lam = (n - 1) / 2
    return (lam + l) / (lam * math.sqrt(dim_harmonic(n, l)))


def angles_to_vector(n: int, angles) -> np.ndarray:
    """Embed angle tuples into ambient coordinates; (..., n) -> (..., n+1)."""
    a = np.asarray(angles, dtype=float)
    single = a.ndim == 1
    a = np.atleast_2d(a)
    if a.shape[-1] != n:
        raise ValueError(f"need {n} angles, got {a.shape[-1]}")
    out = np.empty(a.shape[:-1] + (n + 1,))
    run = np.ones(a.shape[:-1])
    for j in range(n - 1):
        out[..., j] = run * np.cos(a[..., j])
        run = run * np.sin(a[..., j])
    out[..., n - 1] = run * np.cos(a[..., n - 1])
    out[..., n] = run * np.sin(a[..., n - 1])
    return out[0] if single else out
