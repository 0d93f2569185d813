"""Spherical wavelet transform of band-limited fields and the coefficient-space energy identity.

W f(rho, R) pairs the field with the wavelet rotated by R, so the wavelet only
enters through the two inner products y1 = x . (R e_1) and y2 = x . (R e_2).
For a band-limited field the wavelet may be truncated at the field's band
limit without any error: higher wavelet degrees are orthogonal to the field.

The directional wavelet is sum_k p_k(y1, y2) psi^(k)(y1), and y2^j =
(R e_2 . x)^j expands over the degree-j monomials x^mu, so the transform is
a sum of zonal kernels in y1 paired with x^mu f.  A zonal kernel acts
diagonally in degree (Funk-Hecke): closed-form Gegenbauer connection
coefficients turn each one into a per-degree filter, and the pairing is
that filter applied to the degree components of x^mu f at U = R e_1.  The
fields are synthesized on the sphere grid, multiplied by each monomial and
analysed once per call; the products stay within the grid rule's band, so
the analysis is exact.  The rotation grid is a product of sphere
partitions.  U depends only on a rotation's outer S^n cell, so each outer
cell evaluates the degree components once, in O(L^n) work.  R e_2 is the
image under the cell's T_n of a point fixed by the S^(n-1) cell, and T_n
acts linearly on the monomials of that point; so the energy of all of a
cell's inner rotations is a quadratic form in the cell's per-scale sums,
with one matrix for the whole grid, and no rotation is visited.  Only the
table of wavelet_analysis has one column per rotation.

The energy identity sums beta(l) against the per-degree field energies and is
the rotation-quadrature-free reference value for frame checks.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    HarmonicCoefficients,
    analyze,
    coefficient_count,
    eval_degree_components,
    synthesize,
)
from .rotation_grid import RotationGrid, rotation_matrix
from .scale_grid import ScaleGrid
from .special_functions import _pochhammer, gegenbauer_connection, surface_area
from .wavelet_spectra import (
    BetaTable,
    SpectralProfile,
    _theta_derivative_tableau,
    zonal_hat,
)

__all__ = [
    "TestField",
    "random_bandlimited",
    "TransformTable",
    "wavelet_analysis",
    "transform_energies",
    "frame_energy",
    "energy_identity_oracle",
]


@dataclass(frozen=True)
class TestField:
    """Unit-norm band-limited field with vanishing moments through order m."""

    __test__ = False  # keep pytest collection away from the Test* name

    coeffs: HarmonicCoefficients
    order: int
    seed: object = None

    def __post_init__(self):
        low = coefficient_count(self.coeffs.n, self.order)
        if low and np.any(self.coeffs.values[:low] != 0.0):
            raise ValueError(f"coefficients up to degree {self.order} must vanish")
        if abs(self.coeffs.norm() - 1.0) > 1e-12:
            raise ValueError(f"field norm {self.coeffs.norm()} is not 1")

    @property
    def n(self) -> int:
        return self.coeffs.n

    @property
    def L(self) -> int:
        return self.coeffs.L


def random_bandlimited(n: int, L: int, m: int, seed) -> TestField:
    """Unit field with independent complex Gaussian coefficients for m < l <= L.

    Deterministic for a fixed seed (int or SeedSequence).
    """
    if L <= m:
        raise ValueError(f"band limit {L} leaves no degrees above order {m}")
    rng = np.random.default_rng(seed)
    total = coefficient_count(n, L)
    low = coefficient_count(n, m)
    vals = np.zeros(total, dtype=complex)
    live = total - low
    vals[low:] = (rng.standard_normal(live) + 1j * rng.standard_normal(live)) / math.sqrt(2)
    vals /= np.sqrt(np.vdot(vals, vals).real)
    return TestField(HarmonicCoefficients(n, L, vals), m, seed)


@dataclass(frozen=True)
class TransformTable:
    """Transform values W[j, g] aligned with a scale grid and a rotation grid."""

    values: np.ndarray
    scales: ScaleGrid
    rotations: RotationGrid

    def __post_init__(self):
        if self.values.shape != (len(self.scales), len(self.rotations)):
            raise ValueError(
                f"table shape {self.values.shape} does not match grids "
                f"({len(self.scales)}, {len(self.rotations)})"
            )

    def to_csv(self) -> str:
        """One "j,g,re,im" line per entry, scale-major, parts in %.17g."""
        n_scales, n_rotations = self.values.shape
        columns = (
            np.repeat(np.arange(n_scales), n_rotations).tolist(),
            np.tile(np.arange(n_rotations), n_scales).tolist(),
            self.values.real.ravel().tolist(),
            self.values.imag.ravel().tolist(),
        )
        return "j,g,re,im\n" + "".join(map("{},{},{:.17g},{:.17g}\n".format, *columns))


# Bytes of one chunk of outer cells: the normalized axis rows and phases at
# their centres, their degree components, the per-scale sums and their
# products with the grid's quadratic form (or the chunk's table).  A chunk
# holds at least one cell, so the real bound is max(_CHUNK_BYTES, one cell):
# at n=2, L=128 one cell's rows are 129 x 129 x 8 B, about 130 kB.
_CHUNK_BYTES = 8 * 2**20


def _haar_normalization(n: int) -> float:
    return math.prod(surface_area(J) for J in range(1, n + 1))


def _monomials(n: int, j: int):
    """Degree-j monomials in x_0..x_n as index tuples, with the multinomial
    weights that give (v . x)^j = sum_mu weight_mu v^mu x^mu."""
    combos = list(itertools.combinations_with_replacement(range(n + 1), j))
    weights = [
        math.factorial(j) / math.prod(math.factorial(c.count(a)) for a in set(c))
        for c in combos
    ]
    return combos, np.array(weights)


def _eval_monomials(points: np.ndarray, combos) -> np.ndarray:
    """x^mu for every row x of points and every index tuple mu; one column each."""
    return np.stack([np.prod(points[:, list(c)], axis=1) for c in combos], axis=1)


def _monomial_action(T: np.ndarray, combos, weights) -> np.ndarray:
    """A[c] with m(T[c] v) = A[c] m(v) for every v, T of shape (cells, n+1, n+1)
    and m(v) the weighted degree-j monomials weights[mu] v^mu, mu in combos.

    (T v)^mu = prod_k (T v)_{mu_k} expands over the index sequences b =
    (b_1 .. b_j) as prod_k T[mu_k, b_k] v_{b_k}; the sequences of one
    multiset nu add up to the coefficient of v^nu.
    """
    cells, dim = T.shape[0], T.shape[1]
    j = len(combos[0])
    rows = np.ones((cells, len(combos), 1))
    for k in range(j):
        rows = rows[..., None] * T[:, [mu[k] for mu in combos], None, :]
        rows = rows.reshape(cells, len(combos), -1)
    position = {mu: i for i, mu in enumerate(combos)}
    sequences = itertools.product(range(dim), repeat=j)
    fold = np.zeros((rows.shape[2], len(combos)))
    fold[np.arange(rows.shape[2]), [position[tuple(sorted(b))] for b in sequences]] = 1.0
    return (rows @ fold) * (weights[:, None] / weights)


def _filters(n: int, profile: SpectralProfile, field_L: int, scales: ScaleGrid) -> dict:
    """filters[j][s, l]: the Funk-Hecke multiplier of degree l, at scale s, of
    the wavelet terms that carry y2^j.

    The wavelet is sum_k p_k(y1, y2) psi^(k)(y1), with p_0 = 1 when zonal,
    and psi^(k) = sum_m hat(m + k) 2^k (lam)_k C^{lam+k}_m.  Every monomial
    y1^i y2^j of p_k has i + j = k, so the y1 part times psi^(k) re-expands
    in C^lam_l for l <= field_L - j, and C^lam_l(U . x) pairs with a field
    as lam / (l + lam) times its degree-l component at U.
    """
    lam = (n - 1) / 2
    d = profile.d
    tables = {0: np.ones((1, 1))} if d == 0 else dict(
        enumerate(_theta_derivative_tableau(d), start=1)
    )
    hats = zonal_hat(profile, scales.scales[:, None], np.arange(field_L + 1), n)
    hats *= (scales.scales ** (profile.tilde_exponent * d))[:, None]
    filters = {}
    for k, tab in tables.items():
        if k > field_L:
            continue
        spectrum = hats[:, k:] * (2.0**k * _pochhammer(lam, k))
        for j in range(tab.shape[1]):
            if not tab[:, j].any():
                continue
            filt = filters.setdefault(j, np.zeros((len(scales), field_L - j + 1)))
            filt += gegenbauer_connection(lam, k, tab[:, j], spectrum)
    for j, filt in filters.items():
        filt *= lam / (np.arange(filt.shape[1]) + lam)
    return filters


def _scan(
    n: int,
    profile: SpectralProfile,
    fields,
    field_L: int,
    scales: ScaleGrid,
    rotations: RotationGrid,
    sphere_grid,
    threads=None,
    collect: bool = False,
):
    """Frame energies of a batch of fields over the factored rotation grid,
    each outer cell's inner rotations summed in closed form; or, with
    collect, the first field's transform table.

    W f(rho, R) = sum over the wavelet terms y2^j G_j(y1) of the pairing of
    G_j(U . x) with (V . x)^j f(x), U = R e_1 and V = R e_2.  Expanding
    (V . x)^j = m_j(V) . x^mu over the degree-j monomials, with m_j(V) the
    weighted monomials of V, each field is multiplied by x^mu on the sphere
    grid and analysed once, to degree field_L - j, where the grid rule is
    still exact for the product.  By the addition theorem G_j(U . x) pairs
    with x^mu f as sum_l filters[j][s, l] times the degree-l component of
    x^mu f at U.  The inner factors T_J, J < n, fix e_1, so U is the outer
    cell's centre, where the components are evaluated once.  T_J, J < n - 1,
    also fix e_2, so V = T_n(x_c) p, with p = T_(n-1)(x^(n-1)) e_2 running
    over the S^(n-1) cells, and m(V) = A_c m(p) with A_c the action of
    T_n(x_c) on the monomials.  So W = m(p) . B[s, c], where B[s, c] is the
    per-scale sum of the components after A_c^T, applied before the filter.
    Summed over a cell's inner rotations, with omega_p the S^(n-1) cell
    measure times the total measure of the smaller factors, |W|^2 is the
    quadratic form B^H Q0 B, Q0 = sum_p omega_p m(p) m(p)^T = H^T H, so the
    energy is a weighted sum of |H B|^2.  Cells run in chunks of at most
    _CHUNK_BYTES or one cell, whichever is larger, which bounds memory
    independently of the inner grid and of the thread count.  The table
    has one column per rotation, in the grid's row order.
    """
    if sphere_grid.L < field_L:
        raise ValueError(
            f"sphere grid exact to band {2 * sphere_grid.L} cannot integrate "
            f"field band {field_L} against the equally truncated wavelet"
        )
    if collect:
        rotations.check_flat()
    n_fields = len(fields)
    n_scales = len(scales)
    filters = _filters(n, profile, field_L, scales)

    # moments[j]: coefficients of x^mu f to degree field_L - j, one column per
    # (mu, field); analysed one monomial at a time to keep the grid-sized
    # transients at n_fields columns
    samples = np.stack([synthesize(f.coeffs, sphere_grid) for f in fields], axis=1)
    monomials, columns, moments = {}, {}, {}
    start = 0
    for j in sorted(filters):
        combos, weights = _monomials(n, j)
        monomials[j] = (combos, weights)
        columns[j] = slice(start, start + len(combos))
        start += len(combos)
        parts = [
            analyze(xm[:, None] * samples, sphere_grid, field_L - j).values
            for xm in _eval_monomials(sphere_grid.cartesian, combos).T
        ]
        moments[j] = HarmonicCoefficients(n, field_L - j, np.stack(parts, axis=1))
    n_cols = start

    # p = T_(n-1)(x^(n-1)) e_2 over the S^(n-1) cells, and their weighted monomials
    m = n * (n + 1) // 2
    euler = np.zeros((rotations.sizes[1], m))
    euler[:, n : 2 * n - 1] = rotations.centres[1]
    p = rotation_matrix(n, euler)[:, :, 1]
    p_mono = np.concatenate(
        [w * _eval_monomials(p, combos) for combos, w in monomials.values()], axis=1
    )
    omega = rotations.measures[1] * math.prod(w.sum() for w in rotations.measures[2:])
    H = np.linalg.qr(np.sqrt(omega)[:, None] * p_mono, mode="r")
    centres = rotations.centres[0]
    cell_weights = rotations.measures[0] / _haar_normalization(n)
    n_cells = centres.shape[0]
    inner = len(rotations) // n_cells
    table = np.empty((n_scales, n_cells, inner), dtype=complex) if collect else None

    cell_bytes = 8 * (
        (n - 1) * (field_L + 1) ** 2
        + 2 * (2 * field_L + 1)
        + 6 * (field_L + 1) * n_cols * n_fields
        + 4 * n_scales * n_cols * n_fields
        + (2 * n_scales * (len(p) + inner) if collect else 0)
    )
    per_chunk = max(1, _CHUNK_BYTES // cell_bytes)
    chunks = [slice(c, min(c + per_chunk, n_cells)) for c in range(0, n_cells, per_chunk)]

    def scan_chunk(cells: slice):
        n_chunk = cells.stop - cells.start
        chunk_euler = np.zeros((n_chunk, m))
        chunk_euler[:, :n] = centres[cells]
        T = rotation_matrix(n, chunk_euler)
        # B[c, col, s, (t, re/im)]: A_c^T applied to the degree components at
        # the cell centres, then each scale's filter
        B = np.empty((n_chunk, n_cols, n_scales, 2 * n_fields))
        for j, filt in filters.items():
            comps = eval_degree_components(moments[j], centres[cells]).view(np.float64)
            x = np.ascontiguousarray(comps.transpose(1, 2, 0, 3))  # (c, mu, l, (t, re/im))
            action = _monomial_action(T, *monomials[j])
            y = np.swapaxes(action, 1, 2) @ x.reshape(n_chunk, x.shape[1], -1)
            B[:, columns[j]] = filt @ y.reshape(x.shape)
        B = B.reshape(n_chunk, n_cols, -1)
        if collect:
            W = (p_mono @ B).view(complex).reshape(n_chunk, len(p), n_scales, n_fields)
            table[:, cells] = np.repeat(W[..., 0].transpose(2, 0, 1), inner // len(p), axis=2)
            return None
        Y = H @ B
        Y *= Y
        per_cell = cell_weights[cells] @ Y.reshape(n_chunk, -1)
        return scales.weights @ per_cell.reshape(-1, n_scales, n_fields, 2).sum(axis=(0, 3))

    if threads and threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(scan_chunk, chunks))
    else:
        results = [scan_chunk(cells) for cells in chunks]
    if collect:
        return table.reshape(n_scales, -1)
    return np.sum(results, axis=0)


def wavelet_analysis(
    n: int,
    profile: SpectralProfile,
    f: TestField,
    scales: ScaleGrid,
    rotations: RotationGrid,
    sphere_grid,
    threads=None,
) -> TransformTable:
    """W f(rho_j, R_g) for every grid pair: each scale's Funk-Hecke filters
    applied to the degree components of the monomial-weighted field at the
    rotation's cell centre."""
    if f.n != n or sphere_grid.n != n:
        raise ValueError("field, sphere grid, and transform dimension must agree")
    table = _scan(
        n, profile, [f], f.L, scales, rotations, sphere_grid, threads, collect=True
    )
    return TransformTable(table, scales, rotations)


def transform_energies(
    n: int,
    profile: SpectralProfile,
    fields,
    scales: ScaleGrid,
    rotations: RotationGrid,
    sphere_grid,
    threads=None,
) -> np.ndarray:
    """Discrete frame energies of several fields, sharing the wavelet rows."""
    if not fields:
        return np.zeros(0)
    field_L = max(f.L for f in fields)
    for f in fields:
        if f.n != n:
            raise ValueError("field dimension mismatch")
    return _scan(n, profile, fields, field_L, scales, rotations, sphere_grid, threads)


def frame_energy(table: TransformTable, scales=None, rotations=None) -> float:
    """Sum of w_j * (lambda_g / prod Sigma_J) * |W[j,g]|^2 over the table."""
    scales = table.scales if scales is None else scales
    rotations = table.rotations if rotations is None else rotations
    if table.values.shape != (len(scales), len(rotations)):
        raise ValueError("table does not align with the given grids")
    rot_norm = rotations.weights / _haar_normalization(rotations.n)
    per_scale = np.abs(table.values) ** 2 @ rot_norm
    return float(np.dot(scales.weights, per_scale))


def energy_identity_oracle(
    n: int, profile: SpectralProfile, f: TestField, beta: BetaTable
) -> float:
    """Continuous-transform energy sum_l beta(l) * ||f_l||^2, no rotation grid."""
    if beta.n != n:
        raise ValueError(f"beta table is for n={beta.n}, not {n}")
    if beta.L < f.L:
        raise ValueError(f"beta table to degree {beta.L} cannot cover a field at {f.L}")
    return float(
        sum(beta.values[l] * f.coeffs.degree_energy(l) for l in range(f.L + 1))
    )
