"""Spherical wavelet transform by quadrature and the coefficient-space energy identity.

W f(rho, R) pairs the field with the wavelet rotated by R, so the wavelet only
enters through the two inner products y1 = x . (R e_1) and y2 = x . (R e_2).
For a band-limited field the wavelet may be truncated at the field's band
limit without any error: higher wavelet degrees are orthogonal to the field.
That keeps the quadrature requirement at twice the field band and lets one
sphere grid serve every scale and rotation.

The rotation grid factors the same way.  R e_1 depends only on the outer S^n
angles of a rotation, so every rotation of one outer cell shares the
Gegenbauer stack in y1.  The directional wavelet is sum_k p_k(y1, y2)
psi^(k)(y1), and y2^j = (R e_2 . x)^j expands over the degree-j monomials
x^mu.  So each cell keeps the moments of its stack, times the y1 part of
p_k, against x^mu times the field, and a rotation costs only the contraction
of its R e_2 monomials against those moments.  Cells are processed in chunks
whose stack stays under a fixed byte budget.

The energy identity sums beta(l) against the per-degree field energies and is
the rotation-quadrature-free reference value for frame checks.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .harmonics import (
    HarmonicCoefficients,
    all_indices,
    angles_to_vector,
    dim_harmonic,
    synthesize,
)
from .rotation_grid import RotationGrid, rotation_matrix
from .scale_grid import ScaleGrid
from .special_functions import _pochhammer, gegenbauer_all, surface_area
from .wavelet_spectra import (
    BetaTable,
    SpectralProfile,
    _theta_derivative_tableau,
    zonal_hat_all,
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
        low = sum(dim_harmonic(self.coeffs.n, l) for l in range(self.order + 1))
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
    total = len(all_indices(n, L))
    low = sum(dim_harmonic(n, l) for l in range(m + 1))
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
        lines = ["j,g,re,im"]
        for j in range(self.values.shape[0]):
            for g in range(self.values.shape[1]):
                w = self.values[j, g]
                lines.append(f"{j},{g},{w.real:.17g},{w.imag:.17g}")
        return "\n".join(lines) + "\n"


# Bytes of one chunk of outer cells: their Gegenbauer stack over the sphere
# nodes, its moments and their per-scale sums.  A chunk holds at least one
# cell, so the real bound is max(_CHUNK_BYTES, one cell): at n=2, L=128 one
# cell's stack is 129 x 33 153 x 8 B, about 34 MB.
_CHUNK_BYTES = 8 * 2**20


def _rotated_axes(n: int, angles: np.ndarray):
    """Images of e_1 and e_2 under the rotations of the given angle rows."""
    mats = rotation_matrix(n, angles)
    return mats[..., 0], mats[..., 1]


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


def _scan(
    n: int,
    profile: SpectralProfile,
    field_matrix: np.ndarray,
    field_L: int,
    scales: ScaleGrid,
    rotations: RotationGrid,
    sphere_grid,
    threads=None,
    collect: bool = False,
):
    """Shared driver over (scale, rotation) pairs for pre-weighted field columns.

    field_matrix holds f(node) * w(node) / Sigma_n, one column per field.  The
    rotations are grouped into outer cells by their S^n angles, which fix
    U = R e_1.  Per cell and chain-rule order k, the Gegenbauer stack
    C^{lam+k}_l(U . x), times the y1 part of the tableau polynomial p_k, is
    summed against x^mu times the field for every monomial x^mu that the
    powers of y2 = V . x need; those moments are scale-independent, and the
    spectrum folds them into per-scale sums.  A rotation then contracts the
    monomials of its V = R e_2 against its cell's sums.  Cells run in chunks
    of at most _CHUNK_BYTES or one cell, whichever is larger, which bounds
    memory independently of the inner grid and of the thread count; one
    cell's stack has (field_L + 1) x M entries.  Returns (energies per
    field, table or None); the table keeps only the first field's values.
    """
    lam = (n - 1) / 2
    d = profile.d
    X = angles_to_vector(n, sphere_grid.angles)
    M = X.shape[0]
    # truncating the wavelet at the field band is exact: higher degrees are
    # orthogonal to the field, so the product stays within band 2 * field_L
    if 2 * sphere_grid.L < 2 * field_L:
        raise ValueError(
            f"sphere grid exact to band {2 * sphere_grid.L} cannot integrate "
            f"field band {field_L} against the equally truncated wavelet"
        )
    rot_norm = rotations.weights / _haar_normalization(n)
    n_fields = field_matrix.shape[1]
    n_scales = len(scales)
    table = np.empty((n_scales, len(rotations)), dtype=complex) if collect else None

    # the wavelet is sum_k p_k(y1, y2) psi^(k)(y1), with p_0 = 1 when zonal,
    # and psi^(k) = sum_l hat(l + k) 2^k (lam)_k C^{lam+k}_l
    tables = {0: np.ones((1, 1))} if d == 0 else dict(
        enumerate(_theta_derivative_tableau(d), start=1)
    )
    hats = np.array([zonal_hat_all(profile, float(r), n, field_L) for r in scales.scales])
    hats *= (scales.scales ** (profile.tilde_exponent * d))[:, None]
    # terms[k]: (j, y1 polynomial or None when constant, spectrum) per power
    # y2^j of p_k, the constant folded into the spectrum
    terms = {}
    for k, tab in tables.items():
        if k > field_L:
            continue
        spectrum = hats[:, k:] * (2.0**k * _pochhammer(lam, k))
        terms[k] = []
        for j in range(tab.shape[1]):
            poly = np.trim_zeros(tab[:, j], "b")
            if poly.size == 1:
                terms[k].append((j, None, spectrum * poly[0]))
            elif poly.size > 1:
                terms[k].append((j, poly, spectrum))

    # one block of columns per power j: x^mu * f for |mu| = j, viewed as
    # real pairs so that the real stack multiplies it without a complex copy
    powers = sorted({j for parts in terms.values() for j, _, _ in parts})
    monomials, columns, field_cols = {}, {}, {}
    start = 0
    for j in powers:
        combos, weights = _monomials(n, j)
        monomials[j] = (combos, weights)
        columns[j] = slice(start, start + len(combos))
        start += len(combos)
        xf = _eval_monomials(X, combos)[:, :, None] * field_matrix[:, None, :]
        field_cols[j] = xf.reshape(M, -1).view(np.float64)
    n_cols = start

    cell_of = np.unique(rotations.angles[:, :n], axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(cell_of, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(cell_of))])
    n_cells = bounds.size - 1
    cell_bytes = 8 * (
        (field_L + 1) * (M + 2 * n_cols * n_fields) + 2 * n_scales * n_cols * n_fields
    )
    per_chunk = max(1, _CHUNK_BYTES // cell_bytes)
    chunks = [range(c, min(c + per_chunk, n_cells)) for c in range(0, n_cells, per_chunk)]

    def scan_chunk(cells: range):
        rows = order[bounds[cells.start] : bounds[cells.stop]]
        offsets = bounds[cells.start : cells.stop + 1] - bounds[cells.start]
        U, V = _rotated_axes(n, rotations.angles[rows])
        T1 = U[offsets[:-1]] @ X.T
        # sums[s, c, col, t]: cell c's moments summed against scale s's spectrum
        sums = np.zeros((n_scales, len(cells), n_cols, n_fields), dtype=complex)
        for k, parts in terms.items():
            stack = gegenbauer_all(lam + k, field_L - k, T1)
            for j, poly, spectrum in parts:
                weighted = stack if poly is None else stack * polyval(T1, poly)
                mom = (weighted.reshape(-1, M) @ field_cols[j]).view(complex)
                part = spectrum @ mom.reshape(stack.shape[0], -1)
                sums[:, :, columns[j]] += part.reshape(n_scales, len(cells), -1, n_fields)
        Vmono = np.concatenate(
            [w * _eval_monomials(V, combos) for combos, w in monomials.values()], axis=1
        )
        local_energy = np.zeros(n_fields)
        local_rows = np.empty((n_scales, rows.size), dtype=complex) if collect else None
        for c in range(len(cells)):
            a, b = offsets[c], offsets[c + 1]
            W = Vmono[a:b] @ sums[:, c]
            local_energy += scales.weights @ (rot_norm[rows[a:b]] @ np.abs(W) ** 2)
            if collect:
                local_rows[:, a:b] = W[:, :, 0]
        return rows, local_energy, local_rows

    if threads and threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(scan_chunk, chunks))
    else:
        results = [scan_chunk(cells) for cells in chunks]
    energies = np.zeros(n_fields)
    for rows, local_energy, local_rows in results:
        energies += local_energy
        if collect:
            table[:, rows] = local_rows
    return energies, table


def _weighted_field_matrix(fields, sphere_grid) -> np.ndarray:
    cols = []
    for f in fields:
        fv = synthesize(f.coeffs, sphere_grid)
        cols.append(fv * sphere_grid.weights / surface_area(sphere_grid.n))
    return np.stack(cols, axis=1)


def wavelet_analysis(
    n: int,
    profile: SpectralProfile,
    f: TestField,
    scales: ScaleGrid,
    rotations: RotationGrid,
    sphere_grid,
    threads=None,
) -> TransformTable:
    """W f(rho_j, R_g) by sphere quadrature for every grid pair."""
    if f.n != n or sphere_grid.n != n:
        raise ValueError("field, sphere grid, and transform dimension must agree")
    fm = _weighted_field_matrix([f], sphere_grid)
    _, table = _scan(
        n, profile, fm, f.L, scales, rotations, sphere_grid, threads, collect=True
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
    fm = _weighted_field_matrix(fields, sphere_grid)
    energies, _ = _scan(n, profile, fm, field_L, scales, rotations, sphere_grid, threads)
    return energies


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
