"""Numerical oracles for the exact admissibility path and the transform.

The library computes beta(l) and the per-degree response in closed form, and
the transform through per-cell moments.  The functions here compute the same
quantities the long way, from their definitions, so tests can check the fast
paths against them:

- ``grid_response_norms`` analyzes the directional derivative of each
  Gegenbauer kernel on an exact product grid and sums the squared
  coefficients of the surviving harmonics;
- ``literal_energies`` evaluates the degree-l energy at given scales from the
  literal spectrum; ``quadrature_beta`` integrates it over log-scale with
  composite Gauss-Legendre panels, twice, and requires the two to agree, and
  ``riemann_beta`` sums it on a scale grid one degree at a time;
- ``direct_transform`` evaluates the rotated wavelet on the sphere grid for
  every rotation and scale and pairs it with the weighted field;
- ``grid_monomial_moments`` multiplies fields by the monomials x^mu on the
  sphere grid and analyses the products; in the charge coordinates
  (x_0, ..., x_(n-2), z, conj(z)), z = x_(n-1) + i x_n, which it builds
  itself, it is the reference for ``multiply_coordinates`` and for the
  coefficient-space products of ``transform._monomial_moments``;
- ``per_scale_energies`` sums the frame energies one scale at a time: each
  outer cell's per-scale sums B, their product with the inner-point form's
  factor H and the square, the reference for the stacked triangular
  operator of ``transform._scan`` and for its latitude bands;
- ``per_cell_table`` evaluates the transform table one outer cell at a
  time: the degree components of the monomial moments at the cell's centre
  (``eval_degree_components``), turned by the action of the cell's rotation
  on the monomials and filtered, the reference for the latitude bands of
  ``transform._scan``;
- ``gram_matrix`` is the frame energy as a Hermitian form on the
  coefficients of degrees m+1..L: the transform tables of every unit
  coefficient field, weighted as ``frame_energy`` weights them, so its
  extreme eigenvalues are the discrete frame bounds on that space;
- ``table_csv`` formats a transform table one entry at a time;
- ``flat_rotation_rows`` builds a rotation grid's angle rows and weights one
  row per rotation, as the grid was once stored;
- ``gegenbauer``, ``gegenbauer_derivative``, ``gegenbauer_squared_norm`` and
  ``funk_hecke_factor`` give single Gegenbauer values, derivatives, norms
  and the Funk-Hecke multiplier;
- ``eval_harmonic`` evaluates one harmonic pointwise, ``vector_to_angles``
  inverts ``angles_to_vector`` and ``apply_rotation`` rotates a point given
  by its angles;
- ``eval_directional_wavelet_uv`` and ``eval_directional_wavelet`` evaluate
  the directional wavelet pointwise as a series of zonal derivatives
  (``_zonal_derivative_series``), the reference for the Funk-Hecke filters
  of ``transform._filters``; ``eval_directional_wavelet`` warns with
  ``SpectralTruncationWarning`` when the spectrum is cut above 1e-14 of its
  peak.  ``directional_coeffs`` analyzes it on an exact grid;
- ``spectral_cutoff`` finds the degree where the spectrum has decayed, and
  ``beta_tail_indicator`` measures how settled beta is at the band limit;
- ``gegenbauer_roots`` refines double-precision Gauss nodes to 40-digit
  roots of C^lam_N with mpmath, ``gauss_weights`` gives the Gauss weights
  at those roots to about 40 digits, and ``dense_gauss_rule`` is the Gauss
  rule from the eigenvalues of the whole Jacobi matrix;
- ``bisect_ratio`` is ``find_ratio``'s bisection with every step built from
  the public calls, ``scale_grid_for_profile`` then ``epsilon_report``, and
  its feasibility check first, the reference for the once-per-call range,
  degree part and beta of ``find_ratio`` and for its deferred check;
- ``aliasing_deviation`` is the exact signed relative deviation of the
  Riemann sum of a degree's scale integrand on a geometric grid from beta,
  as the Poisson-summation series of the integrand's Fourier transform, a
  Gamma function along a vertical line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.special import roots_legendre

from sphereframes.harmonics import (
    HarmonicCoefficients,
    HarmonicIndex,
    SphereGrid,
    _axis_rows,
    _chain_coords,
    all_indices,
    analyze,
    angles_to_vector,
    build_sphere_grid,
    coefficient_count,
    dim_harmonic,
    fourier_from_gegenbauer_factor,
    harmonic_normalization,
    synthesize,
    validate_index,
)
from sphereframes.rotation_grid import _partition, rotation_matrix
from sphereframes.scale_grid import (
    _COARSEST_RATIO,
    _FINEST_RATIO,
    epsilon_report,
    scale_grid_for_profile,
)
from sphereframes.special_functions import (
    _check_args,
    _gauss_rule_from_nodes,
    _gegenbauer_pair,
    _log_squared_norm,
    _pochhammer,
    gegenbauer_all,
    surface_area,
    zonal_gauss_rule,
)
from sphereframes.transform import (
    TestField,
    _charge_basis,
    _eval_monomials,
    _filters,
    _haar_normalization,
    _monomial_action,
    _monomial_moments,
    _monomials,
    wavelet_analysis,
)
from sphereframes.wavelet_spectra import (
    BetaTable,
    SpectralProfile,
    _scale_log_range,
    _theta_derivative_tableau,
    zonal_hat,
)


def eval_degree_components(coeffs: HarmonicCoefficients, points) -> np.ndarray:
    """sum_K a_lK Y_lK(x) for every degree l <= L at angle tuples x, shape (P, n).

    Returns shape (L + 1, P) plus the trailing axes of coeffs.values.  Each
    point gets every polar axis's normalized rows in one recurrence; a
    degree's harmonics are then products of entries along their index
    chains, contracted against that degree's coefficients before the next
    degree is built, so the working set is the rows and one degree.
    """
    n, L = coeffs.n, coeffs.L
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != n:
        raise ValueError(f"points need {n} angles for the {n}-sphere, got {pts.shape[1]}")
    values = coeffs.values.reshape(coeffs.values.shape[0], -1)
    coords = _chain_coords(n, L)
    chain = coords[:-1] + (np.abs(coords[-1]),)
    every = np.arange(L + 1)
    rows = [_axis_rows((n - tau) / 2, np.cos(pts[:, tau - 1]), L, every) for tau in range(1, n)]
    phase = np.exp(1j * np.arange(-L, L + 1)[:, None] * pts[:, n - 1])
    out = np.empty((L + 1, pts.shape[0], values.shape[1]), dtype=complex)
    starts = np.searchsorted(coords[0], np.arange(L + 2))  # coefficients run by degree
    for l in range(L + 1):
        block = slice(starts[l], starts[l + 1])
        Y = phase[coords[-1][block] + L]
        for tau in range(1, n):
            kk = chain[tau][block]
            Y = Y * rows[tau - 1][kk, chain[tau - 1][block] - kk]
        out[l] = Y.T @ values[block]
    out *= math.sqrt(surface_area(n) / (2.0 * math.pi))
    return out.reshape((L + 1, pts.shape[0]) + coeffs.values.shape[1:])


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
    u_lo, u_hi = _scale_log_range(profile, profile.q_eval(l), 1e-18)
    x, w = roots_legendre(order)
    edges = np.linspace(u_lo, u_hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return np.exp(nodes), weights


def literal_energies(n: int, profile, l: int, rhos, response: float) -> np.ndarray:
    """E_l(rho) = rho^(2ed) hat_rho(l)^2 R(l) at the scales rhos, from the literal
    spectrum s^c e^(-s) (l + lam) / lam, s = rho^a q(l)^b, with R(l) = ``response``."""
    lam = (n - 1) / 2
    q = float(profile.q_eval(l))
    s = rhos**profile.a * q**profile.b
    hat = profile.amplitude * s**profile.c * np.exp(-s) * (l + lam) / lam
    return rhos ** (2.0 * profile.tilde_exponent * profile.d) * hat**2 * response


def riemann_beta(n: int, profile, scales, l: int, response: float) -> float:
    """The scale grid's Riemann sum (1/N(n,l)) sum_j w_j E_l(rho_j), one degree at
    a time from ``literal_energies``, with R(l) = ``response``."""
    energy = literal_energies(n, profile, l, scales.scales, response)
    return float(np.dot(scales.weights, energy)) / dim_harmonic(n, l)


def quadrature_beta(n: int, profile, l: int, response: float, rtol: float = 1e-9) -> float:
    """beta(l) = (1/N(n,l)) int rho^(2ed) hat_rho(l)^2 R(l) drho/rho, degree l >= 1,
    with R(l) = ``response``; the panel count is doubled once to confirm convergence."""
    u_lo, u_hi = _scale_log_range(profile, profile.q_eval(l), 1e-18)
    panels = max(8, math.ceil(u_hi - u_lo))

    def integral(rhos, wts):
        energy = literal_energies(n, profile, l, rhos, response)
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


def grid_monomial_moments(
    fields, field_L: int, degrees, sphere: SphereGrid, charged: bool = False
) -> dict:
    """moments[j]: coefficients of x^mu f to degree field_L - j for the
    degree-j monomials mu of transform._monomials, one column per (mu,
    field), through the sphere grid: every field (a one-column coefficient
    table) is synthesized, multiplied by each monomial at the nodes and
    analysed.  With charged, the monomials are in the charge coordinates
    (x_0, ..., x_(n-2), z, conj(z)), z = x_(n-1) + i x_n.  The grid
    integrates x^mu f Y exactly when its band is at least field_L and the
    fields' bands."""
    n = sphere.n
    samples = np.stack([synthesize(f, sphere) for f in fields], axis=1)
    points = angles_to_vector(n, sphere.angles)
    if charged:
        X = np.eye(n + 1, dtype=complex)
        X[n - 1 :, n - 1 :] = [[1, 1j], [1, -1j]]
        points = points @ X.T
    moments = {}
    for j in degrees:
        combos, _ = _monomials(n, j)
        parts = [
            analyze(xm[:, None] * samples, sphere, field_L - j).values
            for xm in _eval_monomials(points, combos).T
        ]
        moments[j] = HarmonicCoefficients(n, field_L - j, np.stack(parts, axis=1))
    return moments


def per_scale_energies(n: int, profile, fields, scales, rotations) -> np.ndarray:
    """Frame energies of a batch of fields over the factored rotation grid,
    one scale at a time.

    Each outer cell c has the per-scale sums B[c, col, s] = filters[j][s] @
    (A_c^T comps), comps the degree components of the moments of the charge
    monomials at the cell's centre and A_c the action of V T_c on the
    weighted monomials, V the charge basis; a cell's inner rotations
    contribute sum_s w_s |H B[c, :, s]|^2 with H the triangular factor of the
    inner points' weighted monomials.  Every cell is held at once, and the nonnegative
    terms are summed with math.fsum.
    """
    field_L = max(f.L for f in fields)
    n_fields = len(fields)
    filters = _filters(n, profile, field_L, scales)
    values = np.zeros((coefficient_count(n, field_L), n_fields), dtype=complex)
    for i, f in enumerate(fields):
        values[: f.coeffs.values.size, i] = f.coeffs.values
    moments = _monomial_moments(n, values, field_L, filters)
    monomials = {j: _monomials(n, j) for j in sorted(filters)}

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
    n_cells = centres.shape[0]
    euler = np.zeros((n_cells, m))
    euler[:, :n] = centres
    # the moments are of the charge monomials, x' = X x with V = X^(-T)
    T = _charge_basis(n) @ rotation_matrix(n, euler)
    blocks = []
    for j, filt in filters.items():
        comps = eval_degree_components(moments[j], centres)  # (l, c, mu, t)
        action = _monomial_action(T, *monomials[j])  # (c, mu, nu)
        y = np.einsum("cmn,lcmt->cnlt", action, comps)
        blocks.append(np.einsum("sl,cnlt->cnst", filt, y))
    B = np.concatenate(blocks, axis=1)  # (c, col, s, t)
    Y = np.abs(np.einsum("ik,ckst->cist", H, B)) ** 2
    cell_weights = rotations.measures[0] / _haar_normalization(n)
    terms = cell_weights[:, None, None, None] * scales.weights[:, None] * Y
    return np.array([math.fsum(terms[..., t].ravel()) for t in range(n_fields)])


def per_cell_table(n: int, profile, field, scales, rotations) -> np.ndarray:
    """W[j, g] one outer cell at a time, for every inner point p of the
    S^(n-1) factor: sum over the powers j and degrees l of filters[j][s, l]
    times the degree-l components of the moments x'^mu f of the charge
    monomials at the cell's centre U, paired with m_j(V' T_c p) = A_c m_j(p),
    A_c the action of V' T_c on the weighted monomials, V' the charge basis
    of the moments and T_c the cell's rotation.  The smaller factors fix U
    and T_c p, so their rotations repeat the value."""
    L = field.L
    filters = _filters(n, profile, L, scales)
    moments = _monomial_moments(n, field.coeffs.values[:, None], L, filters)
    m = n * (n + 1) // 2
    euler = np.zeros((rotations.sizes[1], m))
    euler[:, n : 2 * n - 1] = rotations.centres[1]
    p = rotation_matrix(n, euler)[:, :, 1]
    centres = rotations.centres[0]
    euler = np.zeros((centres.shape[0], m))
    euler[:, :n] = centres
    T = _charge_basis(n) @ rotation_matrix(n, euler)  # for the charge monomials
    W = np.zeros((len(scales), centres.shape[0], len(p)), dtype=complex)
    for j, filt in filters.items():
        combos, w = _monomials(n, j)
        comps = eval_degree_components(moments[j], centres)[..., 0]  # (l, c, mu)
        turned = _monomial_action(T, combos, w) @ (w * _eval_monomials(p, combos)).T
        W += np.einsum("sl,lcm,cmp->scp", filt, comps, turned)
    inner = len(rotations) // W[0].size
    return np.repeat(W[..., None], inner, axis=-1).reshape(len(scales), -1)


def gram_matrix(n: int, profile, L: int, m: int, scales, rotations) -> np.ndarray:
    """G with c^H G c the frame energy of the field whose coefficients of
    degrees m+1..L are c: G = W^H diag(w_s lambda_g / prod Sigma_J) W, the
    column k of W the flattened ``wavelet_analysis`` table of the k-th unit
    coefficient field.  The transform is linear in the coefficients, so W c
    is the table of the field c."""
    low, total = coefficient_count(n, m), coefficient_count(n, L)
    columns = []
    for k in range(low, total):
        unit = np.zeros(total, dtype=complex)
        unit[k] = 1.0
        field = TestField(HarmonicCoefficients(n, L, unit), m)
        columns.append(wavelet_analysis(n, profile, field, scales, rotations).values.ravel())
    W = np.stack(columns, axis=1)
    weights = scales.weights[:, None] * rotations.weights / _haar_normalization(n)
    return W.conj().T @ (weights.reshape(-1, 1) * W)


def table_csv(values: np.ndarray) -> str:
    """The "j,g,re,im" text of a (scales x rotations) table, one f-string per entry."""
    lines = ["j,g,re,im"]
    for j in range(values.shape[0]):
        for g in range(values.shape[1]):
            w = values[j, g]
            lines.append(f"{j},{g},{w.real:.17g},{w.imag:.17g}")
    return "\n".join(lines) + "\n"


def flat_rotation_rows(n: int, delta_list) -> tuple[np.ndarray, np.ndarray]:
    """Angle rows and weights of every rotation of build_rotation_grid(n,
    delta_list), outer factor varying slowest, filled factor by factor."""
    parts = [_partition(J, float(delta_list[n - J])) for J in range(n, 0, -1)]
    total = math.prod(len(p) for p in parts)
    angles = np.empty((total, n * (n + 1) // 2))
    weights = np.ones(total)
    stride = total
    offset = 0
    for p in parts:
        J = p.centres.shape[1]
        stride //= len(p)
        reps = total // (stride * len(p))
        idx = np.tile(np.repeat(np.arange(len(p)), stride), reps)
        angles[:, offset : offset + J] = p.centres[idx]
        weights *= p.measures[idx]
        offset += J
    return angles, weights


# ---------------------------------------------------------------------------
# Gegenbauer values, derivatives and norms


def gegenbauer(lam: float, l: int, t):
    """Evaluate C_l^lam(t) by the three-term recurrence; t may be an array."""
    t = _check_args(lam, l, t)
    scalar = t.ndim == 0
    c = _gegenbauer_pair(lam, l, np.atleast_1d(t))[1]
    return float(c[0]) if scalar else c


def gegenbauer_derivative(lam: float, l: int, t, k: int = 1):
    """k-th derivative of C_l^lam at t, via d/dt C_l^lam = 2 lam C_{l-1}^{lam+1}."""
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    t = _check_args(lam, l, t)
    if k == 0:
        return gegenbauer(lam, l, t)
    if k > l:
        return 0.0 if t.ndim == 0 else np.zeros_like(t)
    factor = 2.0**k * _pochhammer(lam, k)
    scalar = t.ndim == 0
    c = _gegenbauer_pair(lam + k, l - k, np.atleast_1d(t))[1]
    return float(factor * c[0]) if scalar else factor * c


def gegenbauer_squared_norm(lam: float, l: int) -> float:
    """Weighted squared norm int_{-1}^{1} C_l^lam(t)^2 (1-t^2)^(lam-1/2) dt."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    return math.exp(_log_squared_norm(lam, l))


def funk_hecke_factor(n: int, l: int) -> float:
    """Degree-l multiplier (4 pi)^lam l! Gamma(lam) / Gamma(2 lam + l) on the n-sphere."""
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    lam = (n - 1) / 2
    log = (
        lam * math.log(4.0 * math.pi)
        + math.lgamma(l + 1.0)
        + math.lgamma(lam)
        - math.lgamma(2.0 * lam + l)
    )
    return math.exp(log)


# ---------------------------------------------------------------------------
# pointwise harmonics and rotations


def eval_harmonic(n: int, index: HarmonicIndex, point) -> complex | np.ndarray:
    """Evaluate Y_l^k at angle tuples; accepts one point or an array (P, n)."""
    index = HarmonicIndex(index[0], tuple(index[1]))
    validate_index(n, index)
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    if pts.shape[1] != n:
        raise ValueError(f"points need {n} angles for the {n}-sphere, got {pts.shape[1]}")
    l, k = index
    chain = (l,) + tuple(abs(ki) for ki in k)
    out = np.full(pts.shape[0], harmonic_normalization(n, index), dtype=complex)
    for tau in range(1, n):
        mu = (n - tau) / 2 + chain[tau]
        m = chain[tau - 1] - chain[tau]
        theta = pts[:, tau - 1]
        t = np.cos(theta)
        out *= gegenbauer_all(mu, m, t)[m] * np.sin(theta) ** chain[tau]
    out *= np.exp(1j * k[-1] * pts[:, n - 1])
    return out[0] if np.asarray(point).ndim == 1 else out


def vector_to_angles(n: int, x) -> np.ndarray:
    """Inverse of angles_to_vector; tolerant at the poles (phi set to 0 there)."""
    v = np.asarray(x, dtype=float)
    single = v.ndim == 1
    v = np.atleast_2d(v)
    if v.shape[-1] != n + 1:
        raise ValueError(f"need {n + 1} coordinates, got {v.shape[-1]}")
    out = np.empty(v.shape[:-1] + (n,))
    for j in range(n - 1):
        tail = np.sqrt(np.sum(v[..., j + 1 :] ** 2, axis=-1))
        out[..., j] = np.arctan2(tail, v[..., j])
    phi = np.arctan2(v[..., n], v[..., n - 1])
    out[..., n - 1] = np.mod(phi, 2.0 * math.pi)
    return out[0] if single else out


def apply_rotation(n: int, euler, point):
    """Rotate a point given by its angle tuple; returns the image's angles."""
    R = rotation_matrix(n, euler)
    return vector_to_angles(n, R @ angles_to_vector(n, point))


# ---------------------------------------------------------------------------
# pointwise directional wavelet


class SpectralTruncationWarning(UserWarning):
    """Spectral tail above tolerance at the requested truncation degree."""


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
    hat = zonal_hat(profile, rho, np.arange(L + 1), n)
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
    """Directional wavelet value from the two relevant coordinates y1 = x_1, y2 = x_2."""
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
        hat = zonal_hat(profile, rho, np.arange(L + 1), n)
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
    vals = eval_directional_wavelet_uv(profile, rho, n, x[:, 0], x[:, 1], L)
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
    for i, idx in enumerate(all_indices(n, L)):
        first = abs(idx.k[0]) if idx.k else 0
        lives = first in allowed and all(ki == 0 for ki in idx.k[1:])
        if not lives:
            if abs(coeffs.values[i]) > tol:
                raise RuntimeError(
                    f"coefficient {idx} = {coeffs.values[i]:.3e} violates the "
                    f"vanishing pattern for derivative order {profile.d}"
                )
            coeffs.values[i] = 0.0
    return DirectionalCoefficients(rho, profile.d, coeffs)


def beta_tail_indicator(table: BetaTable) -> float:
    """|beta(L) - beta(L/2)| / beta(L), a convergence indicator for the tail."""
    l_hi = table.L
    l_mid = table.L // 2
    if l_mid <= table.m:
        raise ValueError("table too short for a tail indicator")
    return abs(table.values[l_hi] - table.values[l_mid]) / table.values[l_hi]


def gegenbauer_roots(lam: float, npts: int, start, dps: int = 40) -> list:
    """Roots of C^lam_npts to dps digits, one per start value, as mpmath numbers.

    Takes one Newton step at dps digits from each start value.  Each must
    lie within 1e-14 of its root (else this raises), so the step lands within
    about 1e-23 of it: the error squares, times |C''/(2C')| at the root, which
    the Gegenbauer equation makes (2 lam + 1)|t| / (2(1 - t^2)), below 1e5 for
    lam <= 3/2 at 257 nodes.
    """
    with mpmath.workdps(dps):
        lam = mpmath.mpf(lam)
        # m C_m = 2(m + lam - 1) t C_{m-1} - (m + 2 lam - 2) C_{m-2}
        up = [2 * (m + lam - 1) / m for m in range(2, npts + 1)]
        down = [(m + 2 * lam - 2) / m for m in range(2, npts + 1)]
        roots = []
        for x0 in start:
            x = mpmath.mpf(float(x0))
            prev, cur = mpmath.mpf(1), 2 * lam * x
            for a, b in zip(up, down):
                prev, cur = cur, a * x * cur - b * prev
            # (1 - t^2) C'_N = (N + 2 lam - 1) C_{N-1} - N t C_N
            step = cur * (1 - x * x) / ((npts + 2 * lam - 1) * prev - npts * x * cur)
            if abs(step) > 1e-14:
                raise ValueError(f"start {float(x0)} is not within 1e-14 of a root")
            roots.append(x - step)
    return roots


def _fixed_point_pair(two_lam: int, npts: int, x: int, bits: int) -> tuple[int, int]:
    """(C_{npts-1}, C_npts) of C^lam at x / 2^bits, in integers scaled by 2^bits.

    m C_m = (2m + 2 lam - 2) t C_{m-1} - (m + 2 lam - 2) C_{m-2} has integer
    coefficients for integer 2 lam, so the recurrence runs in exact integer
    arithmetic apart from one floor per product and division.
    """
    one = 1 << bits
    prev, cur = one, two_lam * x
    for m in range(2, npts + 1):
        prev, cur = cur, ((2 * m + two_lam - 2) * x * cur // one - (m + two_lam - 2) * prev) // m
    return prev, cur


def gauss_weights(lam: float, npts: int, start, bits: int = 160) -> list:
    """Gauss weights for (1 - t^2)^(lam - 1/2) at the roots of C^lam_npts,
    one per start value, to about 40 digits, as mpmath numbers.

    Each start, within 1e-14 of its root (else this raises), takes one
    Newton step, as in gegenbauer_roots; the weight at the root r is
    pi 2^(2 - 2 lam) Gamma(npts + 2 lam) / (Gamma(lam)^2 npts!) times
    (1 - r^2) / ((npts + 2 lam - 1) C_{npts-1}(r))^2, since there
    (1 - t^2) C'_npts = (npts + 2 lam - 1) C_{npts-1}.  The recurrences run
    in integers scaled by 2^bits (_fixed_point_pair), so 2 lam must be an
    integer; that is far faster than mpmath numbers at 800 nodes.
    """
    two_lam = round(2 * lam)
    if two_lam != 2 * lam:
        raise ValueError(f"needs an integer 2 lam, got lam={lam}")
    one = 1 << bits
    with mpmath.workdps(45):
        lam = mpmath.mpf(lam)
        top = npts + 2 * lam - 1
        const = (
            mpmath.pi
            * 2 ** (2 - 2 * lam)
            * mpmath.gamma(npts + 2 * lam)
            / (mpmath.gamma(lam) ** 2 * mpmath.factorial(npts))
        )
        weights = []
        for x0 in start:
            x = mpmath.mpf(float(x0))
            pair = _fixed_point_pair(two_lam, npts, int(x * one), bits)
            prev, cur = (mpmath.mpf(c) / one for c in pair)
            step = cur * (1 - x * x) / (top * prev - npts * x * cur)
            if abs(step) > 1e-14:
                raise ValueError(f"start {float(x0)} is not within 1e-14 of a root")
            r = x - step
            prev = mpmath.mpf(_fixed_point_pair(two_lam, npts, int(r * one), bits)[0]) / one
            weights.append(const * (1 - r * r) / (top * prev) ** 2)
    return weights


def dense_gauss_rule(lam: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """zonal_gauss_rule with the nodes from the eigenvalues of the whole
    npts x npts Jacobi matrix rather than its half-size block."""
    k = np.arange(1.0, npts)
    b = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    t = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
    return _gauss_rule_from_nodes(lam, npts, t[npts - npts // 2 :])


def bisect_ratio(
    n: int, profile, L: int, target: float = 0.05, rel_tol: float = 1e-3
) -> float:
    """``find_ratio`` with every step computing its grid's range and the
    continuous beta afresh, through ``scale_grid_for_profile`` and
    ``epsilon_report``, and with the feasibility check at the finest ratio
    made before bisecting: where eps_hat decreases as X0 falls, the order of
    the checks changes no result."""

    def eps(ratio: float) -> float:
        grid = scale_grid_for_profile(n, profile, ratio, L)
        return epsilon_report(n, profile, grid, L).epsilon_hat

    lo, hi = _FINEST_RATIO, _COARSEST_RATIO
    if eps(hi) <= target:
        return hi
    if eps(lo) > target:
        raise ValueError(f"eps_hat at X0={_FINEST_RATIO} already exceeds {target}")
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if eps(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def aliasing_deviation(profile, ratio: float, rho_max: float, degrees, terms: int = 30):
    """Signed (Riemann sum - beta(l)) / beta(l) on the grid rho_max * ratio^-j
    over all integers j, for each degree l, by Poisson summation.

    In u = ln rho the degree-l integrand is K g(a u + b ln q(l)), with
    g(v) = exp(2c'v - 2e^v), so its Fourier transform at w is proportional
    to Gamma(2c' - iw/a) 2^(iw/a) exp(iw b ln q(l) / a).  So the step-h sum
    deviates from the integral by
        sum_{k != 0} Gamma(2c' - iw_k/a) / Gamma(2c') 2^(iw_k/a)
                     exp(iw_k (b ln q(l) / a + ln rho_max)),  w_k = 2 pi k / h,
    with h = ln ratio; the terms at k and -k are conjugate, and |Gamma|
    decays like exp(-pi |w| / (2a)), so ``terms`` pairs settle it.
    """
    a, b = profile.a, profile.b
    cprime = profile.c + profile.d / (profile.gamma * b)
    with mpmath.workdps(30):
        h = mpmath.log(ratio)
        u0 = mpmath.log(rho_max)
        coeffs = []
        for k in range(1, terms + 1):
            w = 2 * mpmath.pi * k / h
            gamma = mpmath.gamma(2 * cprime - 1j * w / a) / mpmath.gamma(2 * cprime)
            coeffs.append((w, gamma * 2 ** (1j * w / a)))
        out = []
        for l in degrees:
            shift = b * mpmath.log(profile.q_eval(int(l))) / a + u0
            series = sum(c * mpmath.exp(1j * w * shift) for w, c in coeffs)
            out.append(float(2 * mpmath.re(series)))
    return np.array(out)
