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
coefficients of x^mu f, x in the charge coordinates of multiply_coordinates,
come from the fields' coefficients through its exact ladder recurrences,
once per call, so the transform reads no sphere grid.  The rotation grid is
a product of sphere partitions.  U depends only on a rotation's outer S^n
cell, and R e_2 is the image under the cell's T_n of a point fixed by the
S^(n-1) cell, so the scale weights, the filters and the quadratic form of
those points fold into one matrix, reduced once per call to a triangular
factor by QR.  The outer cells lie on latitude bands of C equal arcs, and
T_n is the rotation by the cell's azimuth after one fixed per band: in the
charge basis of the last plane the azimuth only shifts frequencies, so a
band's C cells are a length-C DFT of at most 2L + 1 folded vectors.  Each
band scatter-adds its coefficients onto their residues once, and by
Parseval its energy is the squared norm of the triangular factor times
those vectors; no cell and no rotation is visited.  Only the table of
wavelet_analysis has one column per rotation.

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
    coefficient_count,
    _chain_coords,
    _polar_values,
    multiply_coordinates,
)
from .rotation_grid import RotationGrid, rotation_matrix
from .scale_grid import ScaleGrid
from .special_functions import _pochhammer, gegenbauer_connection, surface_area
from .wavelet_spectra import (
    BetaTable,
    SpectralProfile,
    _DegreePart,
    _directional_hat,
    _theta_derivative_tableau,
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
    return TestField(HarmonicCoefficients(n, L, vals), m)


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
        from ._csvtext import csv_text  # on first use: its tables take 1.7 ms and 1.2 MB

        n_rotations = self.values.shape[1]
        flat = self.values.reshape(-1)

        def columns(lo, hi):
            j, g = np.divmod(np.arange(lo, hi), n_rotations)
            return [j, g, flat[lo:hi].real, flat[lo:hi].imag]

        return csv_text("j,g,re,im\n", flat.size, columns)


# Bytes of one chunk of latitude bands: a band's polar rows and monomial
# actions, per coefficient its harmonics, fold targets and one field's
# weighted moments, and per residue and field of a batch its folded vectors,
# Z and the operator's product (or the chunk's table entries).  The moments
# and the operator are held for the whole call, outside it.  A chunk holds at
# least one band and a batch at least one field, so the real bound is
# max(_CHUNK_BYTES, one band at one field): at n=2, L=256, delta=0.1 the
# largest band, 209 cells, counts 17.5 MB at one field (11.3 MB traced).
_CHUNK_BYTES = 8 * 2**20

# Largest distance of a band's azimuths from phi_0 + 2 pi c / C: rounding of
# the partition's (c + 1/2) 2 pi / C, with a wide margin.
_ARC_TOL = 1e-13


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


def _monomial_moments(n: int, values: np.ndarray, field_L: int, degrees) -> dict:
    """moments[j]: coefficients of x'^mu f to degree field_L - j for the
    degree-j monomials mu of _monomials in the charge coordinates x' =
    (x_0, ..., x_(n-2), z, conj(z)), z = x_(n-1) + i x_n (multiply_coordinates),
    one column per (mu, field), for each j <= field_L in degrees.  values
    holds the fields' coefficients to field_L, one column each.

    x'^mu f = x'_c x'^nu f for c the last index of mu, and the degrees of
    x'^nu f above field_L - j + 1 reach none at or below field_L - j, so each
    degree's products come from the last degree's, all within field_L.
    """
    moments = {}
    level = values[:, None]  # the degree-0 monomial
    for j in range(max(degrees) + 1):
        if j:
            parents = {nu: i for i, nu in enumerate(_monomials(n, j - 1)[0])}
            combos = _monomials(n, j)[0]
            moved = multiply_coordinates(
                HarmonicCoefficients(n, field_L - j + 1, level), field_L - j
            ).values
            # take, unlike a two-array index, leaves the rows C-contiguous
            picks = [mu[-1] * len(parents) + parents[mu[:-1]] for mu in combos]
            level = moved.reshape(moved.shape[0], -1, values.shape[1]).take(picks, axis=1)
        if j in degrees:
            moments[j] = HarmonicCoefficients(n, field_L - j, level)
    return moments


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
    part = _DegreePart(profile, n, np.arange(field_L + 1))
    hats = _directional_hat(scales.scales[:, None], part)
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


def _fold(left: np.ndarray, filters: dict, columns: dict) -> np.ndarray:
    """F[(s, i), (col, l)] = filters[j][s, l] * left[i, col] for the columns
    col of each power j, the blocks of every j side by side."""
    blocks = [
        (filt[:, None, None, :] * left[None, :, columns[j], None]).reshape(
            filt.shape[0] * left.shape[0], -1
        )
        for j, filt in filters.items()
    ]
    return np.concatenate(blocks, axis=1)


def _latitude_bands(centres: np.ndarray, measures: np.ndarray):
    """(starts, counts) of the outer cells' latitude bands, in cell order.

    A band is a run of cells with equal polar angles and equal measures
    whose azimuths are uniform arcs, phi_c = phi_0 + 2 pi c / C for c < C,
    as partition_sphere builds them; every other cell is a band of one.
    """
    n_cells = measures.size
    same = np.all(centres[1:, :-1] == centres[:-1, :-1], axis=1) & (measures[1:] == measures[:-1])
    heads = np.concatenate(([True], ~same))
    starts = np.flatnonzero(heads)
    counts = np.diff(np.append(starts, n_cells))
    first, size = np.repeat(starts, counts), np.repeat(counts, counts)
    phi = centres[:, -1]
    drift = np.abs(phi - phi[first] - 2.0 * math.pi * (np.arange(n_cells) - first) / size)
    uneven = np.maximum.reduceat(drift, starts) > _ARC_TOL
    heads |= np.repeat(uneven, counts)
    starts = np.flatnonzero(heads)
    return starts, np.diff(np.append(starts, n_cells))


def _charge_basis(n: int) -> np.ndarray:
    """V with v . x = (V v) . x' for every v, where the charge coordinates x'
    replace the last plane's (x_(n-1), x_n) by z = x_(n-1) + i x_n and
    conj(z).  A rotation by phi in that plane multiplies z by e^(i phi), and
    the last two entries of V v by e^(-i phi) and e^(i phi)."""
    V = np.eye(n + 1, dtype=complex)
    V[n - 1 :, n - 1 :] = [[0.5, -0.5j], [0.5, 0.5j]]
    return V


def _scan(
    profile: SpectralProfile,
    fields,
    scales: ScaleGrid,
    rotations: RotationGrid,
    threads=None,
    collect: bool = False,
):
    """Frame energies of a batch of fields over the factored rotation grid,
    each latitude band of outer cells summed in closed form; or, with
    collect, the transform table of a batch of one field.  The fields lie on
    the grid's sphere S^n, and field_L is the largest of their band limits.

    W f(rho, R) = sum over the wavelet terms y2^j G_j(y1) of the pairing of
    G_j(U . x) with (V . x)^j f(x), U = R e_1 and V = R e_2.  Expanding
    (V . x)^j = m_j(V) . x^mu over the degree-j monomials, with m_j(V) the
    weighted monomials of V, the coefficients of x^mu f to degree
    field_L - j come once from _monomial_moments, in coefficient space.  By
    the addition theorem G_j(U . x) pairs with x^mu f as sum_l
    filters[j][s, l] times the degree-l component of x^mu f at U.  The inner
    factors T_J, J < n, fix e_1, so U is the outer cell's centre.  T_J,
    J < n - 1, also fix e_2, so V = T_n(x_c) p, with p = T_(n-1)(x^(n-1)) e_2
    running over the S^(n-1) cells, and m(V) = A_c m(p) with A_c the action
    of T_n(x_c) on the monomials.  So W at scale s is sum_(col, l)
    filters[j][s, l] m(p)[col] Z[(col, l), c], where Z holds the components
    after A_c^T: the table is one product M Z, M[(s, p), (col, l)] =
    filters[j][s, l] m(p)[col].  Summed over a cell's inner rotations, with
    omega_p the S^(n-1) cell measure times the total measure of the smaller
    factors, and over the scales with weights w_s, |W|^2 is the quadratic
    form Z^H K^T K Z of K[(s, i), (col, l)] = sqrt(w_s) filters[j][s, l]
    H[i, col], with H^T H = sum_p omega_p m(p) m(p)^T.  K is the same for
    every cell, and so is R with R^T R = K^T K: the triangular factor of one
    QR of K when K has more rows than columns, else K itself, never the
    Gram matrix.

    No cell is visited either.  A cell's rotation is T(theta, phi) =
    P_phi T(theta, 0), P_phi the rotation by phi in the last plane.  In the
    charge basis of that plane (_charge_basis) P_phi is diagonal: the
    moment x'^mu f of a charge monomial mu with a factors z and b factors
    conj(z) pairs with e^(i nu phi), nu = k + b - a, at its coefficient of
    last index k.  So over a latitude band of C cells at phi_c = phi_0 +
    2 pi c / C (_latitude_bands), Z_c = sum_nu e^(i nu phi_c) z_nu with
    |nu| <= field_L, and Z_c = sum_r e^(2 pi i r c / C) g_r with g_r =
    sum_(nu = r mod C) e^(i nu phi_0) z_nu over min(C, 2 field_L + 1)
    residues r.  A band weights its moments' coefficients by the harmonics
    at its polar angles and by e^(i nu phi_0), scatter-adds them onto their
    (l, r) and applies the action of Q T(theta, 0) on the charge monomials,
    Q the charge coordinates of V: once per band.  By Parseval the band's energy
    is C w sum_r |R g_r|^2, w the common weight of its cells, and its table
    entries are a length-C inverse DFT of M g_r, zero at the residues that
    no frequency reaches.  Any other cell is a band of one.  Bands run in
    order of their residue counts, in chunks of at most _CHUNK_BYTES or one
    band, which bounds memory independently of the inner grid and of the
    thread count; a chunk gives each band as many residues as its last,
    with zeros past the band's own, and takes the fields in batches, all at
    once unless the band of most residues would then pass the budget.  The
    table has one column per rotation, in the grid's row order.
    """
    n = rotations.n
    for f in fields:
        if f.n != n:
            raise ValueError(f"rotation grid is on SO({n + 1}), not SO({f.n + 1}) for n={f.n}")
    field_L = max(f.L for f in fields)
    if collect:
        rotations.check_flat()
    n_fields = len(fields)
    n_scales = len(scales)
    filters = _filters(n, profile, field_L, scales)

    values = np.zeros((coefficient_count(n, field_L), n_fields), dtype=complex)
    for i, f in enumerate(fields):
        values[: f.coeffs.values.size, i] = f.coeffs.values
    moments = _monomial_moments(n, values, field_L, filters)
    del values  # the chunks read only the moments
    v_charge = _charge_basis(n)
    # columns[j]: power j's monomials among all; rows[j]: its (col, l) rows of Z;
    # charges[j]: b - a of each charge monomial
    monomials, columns, rows, charges = {}, {}, {}, {}
    start = n_rows = 0
    for j in sorted(filters):
        monomials[j] = _monomials(n, j)
        combos = monomials[j][0]
        count = len(combos)
        columns[j] = slice(start, start + count)
        rows[j] = slice(n_rows, n_rows + count * (field_L - j + 1))
        start, n_rows = columns[j].stop, rows[j].stop
        charges[j] = np.array([mu.count(n) - mu.count(n - 1) for mu in combos])
        # moments[j][t, mu]: the moment of charge monomial mu and field t
        moments[j] = np.ascontiguousarray(moments[j].values.transpose(2, 1, 0))

    # p = T_(n-1)(x^(n-1)) e_2 over the S^(n-1) cells, and their weighted monomials
    m = n * (n + 1) // 2
    euler = np.zeros((rotations.sizes[1], m))
    euler[:, n : 2 * n - 1] = rotations.centres[1]
    p = rotation_matrix(n, euler)[:, :, 1]
    p_mono = np.concatenate(
        [w * _eval_monomials(p, combos) for combos, w in monomials.values()], axis=1
    )
    if collect:
        op = _fold(p_mono, filters, columns)
    else:
        omega = rotations.measures[1] * math.prod(w.sum() for w in rotations.measures[2:])
        H = np.linalg.qr(np.sqrt(omega)[:, None] * p_mono, mode="r")
        root_w = np.sqrt(scales.weights)[:, None]
        op = _fold(H, {j: root_w * filt for j, filt in filters.items()}, columns)
        if op.shape[0] > op.shape[1]:
            op = np.linalg.qr(op, mode="r")
    centres = rotations.centres[0]
    n_cells = centres.shape[0]
    starts, counts = _latitude_bands(centres, rotations.measures[0])
    slots = np.minimum(counts, 2 * field_L + 1)
    band_weights = counts * rotations.measures[0][starts] / _haar_normalization(n)
    # rows[j]'s (mu, l) row of each coefficient of moment mu, and its
    # frequency nu = k + b - a
    degree, *_, order = _chain_coords(n, field_L)  # l and k of every coefficient
    place, frequency = {}, {}
    for j in filters:
        count = coefficient_count(n, field_L - j)
        place[j] = np.arange(len(charges[j]))[:, None] * (field_L - j + 1) + degree[:count]
        frequency[j] = order[:count] + charges[j][:, None]
    # a cell's rotations run over the S^(n-1) cells, each over the smaller factors
    shape = (n_scales, n_cells, len(p), len(rotations) // (n_cells * len(p)))
    table = np.empty(shape, dtype=complex) if collect else None

    # a band's bytes, as _CHUNK_BYTES counts them, at its chunk's residue count
    widest = max(len(combos) for combos, _ in monomials.values())
    fixed = 16 * degree.size * (1 + widest) + 8 * sum(place[j].size for j in filters)
    fixed += 8 * (n - 1) * (field_L + 1) ** 2
    fixed += 16 * sum(len(combos) ** 2 for combos, _ in monomials.values())
    per_field = 16 * (widest * (field_L + 1) + n_rows + op.shape[0])
    # fields per batch: all of them, or as many as keep the band of most
    # residues within budget, at least one, spread evenly over the batches
    group = int(np.clip((_CHUNK_BYTES - fixed) // (per_field * slots.max()), 1, n_fields))
    group = -(-n_fields // -(-n_fields // group))
    per_slot = per_field * group
    chunks = [[]]
    for b in np.lexsort((starts, slots)).tolist():
        grown = (len(chunks[-1]) + 1) * (fixed + per_slot * slots[b])
        if chunks[-1] and grown > _CHUNK_BYTES:
            chunks.append([])
        chunks[-1].append(b)

    def scan_chunk(bands: list):
        # each band has cycle slots, its residues r < slots[b] the first
        cycles = slots[bands]
        cycle = cycles[-1]
        # each band's harmonics at azimuth 0 and its polar angles times
        # e^(i k phi_0), and per power the action of Q T(theta, 0) on the
        # charge monomials with e^(i (b - a) phi_0) on each, so that a
        # coefficient of frequency nu carries e^(i nu phi_0)
        polar, phi = centres[starts[bands], :-1], centres[starts[bands], -1]
        harmonic = np.exp(1j * np.outer(phi, np.arange(-field_L, field_L + 1)))
        harmonic = harmonic.take(order + field_L, axis=1) * _polar_values(n, field_L, polar).T
        euler = np.zeros((len(bands), m))
        euler[:, : n - 1] = polar
        QT = v_charge @ rotation_matrix(n, euler)
        # per power the action of Q T(theta, 0), and the targets of the fold:
        # coefficient (l, k) of moment mu goes to the residue of its
        # frequency mod C at degree l, folded[band, mu, l, r]
        turned, folds = {}, {}
        for j in filters:
            turned[j] = _monomial_action(QT, *monomials[j]) * np.exp(
                1j * np.outer(phi, charges[j])
            )[:, :, None]
            block = place[j].shape[0] * (field_L - j + 1) * cycle
            target = place[j] * cycle + block * np.arange(len(bands))[:, None, None]
            target += frequency[j] % cycles[:, None, None]
            folds[j] = target.ravel(), len(bands) * block
        energy = []
        for first in range(0, n_fields, group):
            batch = range(first, min(first + group, n_fields))
            # Z[band, (col, l), (r, t)]: each band's folded and turned vectors
            # of the batch's fields t, made once the first power's fold is done
            Z = None
            for j in filters:
                width, count = place[j].shape
                target, size = folds[j]
                # filled, not np.zeros: its fresh pages would fault in on every call
                folded = np.empty((size, len(batch)), dtype=complex)
                folded.fill(0)
                values = np.empty((len(bands), width, count), dtype=complex)
                for i, t in enumerate(batch):
                    np.multiply(moments[j][t], harmonic[:, None, :count], out=values)
                    np.add.at(folded[:, i], target, values.ravel())
                del values
                if Z is None:
                    Z = np.empty((len(bands), n_rows, cycle * len(batch)), dtype=complex)
                np.matmul(
                    turned[j].transpose(0, 2, 1),
                    folded.reshape(len(bands), width, -1),
                    out=Z[:, rows[j]].reshape(len(bands), width, -1),
                )
                del folded
            Y = np.matmul(op, Z.view(np.float64))
            del Z
            if collect:
                W = Y.view(complex).reshape(len(bands), n_scales, len(p), cycle)
                for b, g in zip(bands, W):
                    # the band's C cells are an unscaled inverse FFT of its
                    # residues: slot s holds residue s, or s + C - slots[b]
                    # when C > slots[b] and s > field_L; the residues no
                    # frequency reaches are zero
                    C, g = counts[b], g[..., : slots[b]]
                    if C > slots[b]:
                        gap = np.zeros(g.shape[:-1] + (C - slots[b],))
                        g = np.concatenate(
                            [g[..., : field_L + 1], gap, g[..., field_L + 1 :]], axis=-1
                        )
                    cells = np.fft.ifft(g, axis=-1, norm="forward")
                    table[:, starts[b] : starts[b] + C] = cells.transpose(0, 2, 1)[..., None]
                return None
            Y *= Y
            energy.append(Y.sum(axis=1).reshape(len(bands), cycle, len(batch), 2).sum(axis=(1, 3)))
        return band_weights[bands] @ np.concatenate(energy, axis=1)

    if threads and threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(scan_chunk, chunks))
    else:
        results = [scan_chunk(bands) for bands in chunks]
    if collect:
        return table.reshape(n_scales, -1)
    return np.sum(results, axis=0)


def wavelet_analysis(
    n: int,
    profile: SpectralProfile,
    f: TestField,
    scales: ScaleGrid,
    rotations: RotationGrid,
    sphere_grid=None,
    threads=None,
) -> TransformTable:
    """W f(rho_j, R_g) for every grid pair: each scale's Funk-Hecke filters
    applied to the degree components of the monomial-weighted field at the
    rotation's cell centre."""
    if f.n != n:
        raise ValueError("field and transform dimension must agree")
    table = _scan(profile, [f], scales, rotations, threads, collect=True)
    return TransformTable(table, scales, rotations)


def transform_energies(
    n: int,
    profile: SpectralProfile,
    fields,
    scales: ScaleGrid,
    rotations: RotationGrid,
    sphere_grid=None,
    threads=None,
) -> np.ndarray:
    """Discrete frame energies of several fields, sharing the wavelet rows."""
    if not fields:
        return np.zeros(0)
    for f in fields:
        if f.n != n:
            raise ValueError("field dimension mismatch")
    return _scan(profile, fields, scales, rotations, threads)


def frame_energy(table: TransformTable) -> float:
    """Sum of w_j * (lambda_g / prod Sigma_J) * |W[j,g]|^2 over the table,
    whose grids TransformTable has aligned with its values."""
    rotations = table.rotations
    rot_norm = rotations.weights / _haar_normalization(rotations.n)
    per_scale = np.abs(table.values) ** 2 @ rot_norm
    return float(np.dot(table.scales.weights, per_scale))


def energy_identity_oracle(f: TestField, beta: BetaTable) -> float:
    """Continuous-transform energy sum_l beta(l) * ||f_l||^2, no rotation grid."""
    if beta.n != f.n:
        raise ValueError(f"beta table is for n={beta.n}, not the field's n={f.n}")
    if beta.L < f.L:
        raise ValueError(f"beta table to degree {beta.L} cannot cover a field at {f.L}")
    return math.fsum(beta.values[: f.L + 1] * f.coeffs.degree_energies())
