import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    eval_degree_components,
    eval_harmonic,
    gegenbauer,
    grid_monomial_moments,
    vector_to_angles,
)

from sphereframes.harmonics import (
    HarmonicCoefficients,
    HarmonicIndex,
    _axis_rows,
    _log_beta_half,
    all_indices,
    analyze,
    angles_to_vector,
    build_sphere_grid,
    coefficient_count,
    dim_harmonic,
    _polar_values,
    enumerate_indices,
    fourier_from_gegenbauer_factor,
    harmonic_basis,
    harmonic_normalization,
    multiply_coordinates,
    synthesize,
    validate_index,
)
from sphereframes.special_functions import surface_area, zonal_gauss_rule


def test_dim_harmonic_closed_forms():
    for l in range(12):
        assert dim_harmonic(2, l) == 2 * l + 1
        assert dim_harmonic(3, l) == (l + 1) ** 2
    assert dim_harmonic(4, 0) == 1


def test_enumeration_matches_dimension():
    for n in (2, 3, 4):
        for l in (0, 1, 3, 5):
            idxs = enumerate_indices(n, l)
            assert len(idxs) == dim_harmonic(n, l)
            assert len(set(idxs)) == len(idxs)
    # the last index component is the only signed one
    for idx in enumerate_indices(3, 2):
        assert idx.k[0] >= 0


def test_index_validation():
    validate_index(2, HarmonicIndex(3, (-2,)))
    with pytest.raises(ValueError):
        validate_index(2, HarmonicIndex(3, (4,)))
    with pytest.raises(ValueError):
        validate_index(3, HarmonicIndex(2, (1,)))  # wrong chain length
    with pytest.raises(ValueError):
        validate_index(3, HarmonicIndex(2, (1, 2)))  # not non-increasing in magnitude


@pytest.mark.parametrize("n,L", [(2, 8), (3, 4)])
def test_orthonormality_on_grid(n, L):
    grid = build_sphere_grid(n, L)
    _, mat = harmonic_basis(grid, L)
    gram = (mat * grid.weights) @ mat.conj().T / surface_area(n)
    np.testing.assert_allclose(gram, np.eye(mat.shape[0]), atol=1e-12)


@pytest.mark.parametrize("n,L", [(2, 6), (3, 4)])
def test_addition_theorem(n, L):
    # sum_k |Y_l^k(x)|^2 = N(n, l) at every point
    grid = build_sphere_grid(n, L)
    _, mat = harmonic_basis(grid, L)
    start = 0
    for l in range(L + 1):
        m = dim_harmonic(n, l)
        s = np.sum(np.abs(mat[start : start + m, :]) ** 2, axis=0)
        np.testing.assert_allclose(s, float(m), rtol=1e-11)
        start += m


def test_analyze_synthesize_round_trip():
    rng = np.random.default_rng(42)
    for n, L in ((2, 8), (3, 4)):
        grid = build_sphere_grid(n, L)
        coeffs = HarmonicCoefficients.zeros(n, L)
        coeffs.values[:] = rng.normal(size=coeffs.values.shape) + 1j * rng.normal(
            size=coeffs.values.shape
        )
        back = analyze(synthesize(coeffs, grid), grid, L)
        np.testing.assert_allclose(back.values, coeffs.values, atol=1e-11)


@pytest.mark.parametrize(
    "n,L,grid_L", [(2, 16, 16), (3, 8, 8), (4, 4, 4), (2, 5, 9), (3, 5, 8)]
)
def test_separable_transforms_match_dense_basis(n, L, grid_L):
    rng = np.random.default_rng(n * 100 + L)
    grid = build_sphere_grid(n, grid_L)
    _, mat = harmonic_basis(grid, L)
    coeffs = HarmonicCoefficients.zeros(n, L)
    size = coeffs.values.shape
    coeffs.values[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
    want = coeffs.values @ mat
    got = synthesize(coeffs, grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    samples = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    want = mat.conj() @ (samples * grid.weights) / surface_area(n)
    got = analyze(samples, grid, L).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n,L", [(2, 9), (3, 5), (4, 3)])
def test_batched_analyze_matches_per_column(n, L):
    rng = np.random.default_rng(n)
    grid = build_sphere_grid(n, L)
    samples = rng.normal(size=(grid.size, 2, 3)) + 1j * rng.normal(size=(grid.size, 2, 3))
    batched = analyze(samples, grid, L)
    assert batched.values.shape == (coefficient_count(n, L), 2, 3)
    for a in range(2):
        for b in range(3):
            single = analyze(samples[:, a, b], grid, L).values
            assert np.max(np.abs(batched.values[:, a, b] - single)) <= 1e-14 * np.max(
                np.abs(single)
            )


def test_multi_column_table_refuses_single_table_reductions():
    # a table with a column axis comes from analyze; the methods that read one
    # table must not silently reduce over all columns
    n, L = 2, 3
    grid = build_sphere_grid(n, L)
    table = analyze(np.ones((grid.size, 2)), grid, L)
    for call in (
        table.norm,
        lambda: table.degree_energy(0),
        lambda: synthesize(table, grid),
    ):
        with pytest.raises(ValueError, match="one coefficient table"):
            call()


@pytest.mark.parametrize("n,L", [(2, 7), (3, 5), (4, 3)])
def test_degree_components_match_dense_basis_and_eval_harmonic(n, L):
    rng = np.random.default_rng(10 + n)
    count = coefficient_count(n, L)
    values = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    coeffs = HarmonicCoefficients(n, L, values)
    starts = [coefficient_count(n, l - 1) for l in range(L + 2)]
    # on a grid, against the dense basis
    grid = build_sphere_grid(n, L)
    _, mat = harmonic_basis(grid, L)
    got = eval_degree_components(coeffs, grid.angles)
    assert got.shape == (L + 1, grid.size, 2)
    for l in range(L + 1):
        block = slice(starts[l], starts[l + 1])
        want = mat[block].T @ values[block]
        assert np.max(np.abs(got[l] - want)) <= 1e-12 * np.max(np.abs(want))
    # at scattered points and both poles, against eval_harmonic index by index
    points = rng.uniform(0.0, math.pi, size=(6, n))
    points[:, -1] *= 2.0
    points[0, 0], points[1, 0] = 0.0, math.pi
    got = eval_degree_components(coeffs, points)
    want = np.zeros_like(got)
    for row, idx in enumerate(all_indices(n, L)):
        want[idx.l] += eval_harmonic(n, idx, points)[:, None] * values[row]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n,L", [(2, 9), (3, 6), (4, 4)])
def test_polar_values_are_the_harmonics_at_azimuth_zero(n, L):
    # every harmonic at polar angles theta and azimuth phi is the value at
    # azimuth 0 times e^(i k phi), k its signed last index; the poles included
    rng = np.random.default_rng(n)
    polar = rng.uniform(0.0, math.pi, size=(5, n - 1))
    polar[0, 0], polar[1, 0] = 0.0, math.pi
    got = _polar_values(n, L, polar)
    assert got.shape == (coefficient_count(n, L), 5) and got.dtype == np.float64
    phi = rng.uniform(0.0, 2.0 * math.pi, size=5)
    points = np.column_stack([polar, phi])
    for row, idx in enumerate(all_indices(n, L)):
        want = eval_harmonic(n, idx, points)
        moved = got[row] * np.exp(1j * idx.k[-1] * phi)
        assert np.max(np.abs(moved - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_round_trip_at_band_128():
    # the dense basis would need 8.2 GiB here
    rng = np.random.default_rng(128)
    n, L = 2, 128
    grid = build_sphere_grid(n, L)
    coeffs = HarmonicCoefficients.zeros(n, L)
    size = coeffs.values.shape
    coeffs.values[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
    back = analyze(synthesize(coeffs, grid), grid, L)
    assert np.max(np.abs(back.values - coeffs.values)) <= 1e-12 * np.max(np.abs(coeffs.values))


def test_synthesis_memory_stays_far_below_dense_basis():
    # the dense basis at n=2, L=64 is 8 385 x 4 225 complex entries, 567 MB
    n, L = 2, 64
    grid = build_sphere_grid(n, L)
    coeffs = HarmonicCoefficients.zeros(n, L)
    coeffs.values[:] = np.random.default_rng(64).normal(size=coeffs.values.shape)
    tracemalloc.start()
    try:
        synthesize(coeffs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_dense_basis_refuses_oversized_request():
    grid = build_sphere_grid(2, 128)
    with pytest.raises(ValueError, match="8827185168 bytes"):
        harmonic_basis(grid, 128)


@pytest.mark.parametrize("n,L", [(2, 9), (3, 5), (4, 3)])
def test_grid_holds_the_axis_rows_of_every_order(n, L):
    grid = build_sphere_grid(n, L)
    assert len(grid.axis_rows) == n - 1
    for tau in range(1, n):
        held = grid.axis_rows[tau - 1]
        fresh = _axis_rows((n - tau) / 2, grid.axis_nodes[tau - 1], L, np.arange(L + 1))
        assert held.shape == fresh.shape == (L + 1, L + 1, L + 1)
        assert held.tobytes() == fresh.tobytes()
        assert not held.flags.writeable


def test_sphere_grid_refuses_oversized_axis_rows():
    # (n - 1)(L + 1)^3 * 8 bytes of rows; refused before any of them exist
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1736654408 bytes"):
            build_sphere_grid(2, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("kk", [0, 200, 400])
def test_normalized_axis_rows_stay_finite_at_band_800(kk):
    # unnormalized C_m^(kk + 1/2) at these nodes overflow to inf by L = 768
    L = 800
    t, w = zonal_gauss_rule(0.5, L + 1)
    rows = _axis_rows(0.5, t, L, np.array([kk]))[0]
    assert rows.shape == (L + 1 - kk, L + 1)
    assert np.all(np.isfinite(rows))
    gram = (rows * w) @ rows.T
    assert np.max(np.abs(gram - np.eye(L + 1 - kk))) <= 1e-12


@pytest.mark.parametrize("base", [0.5, 1.0, 1.5])
def test_log_beta_start_matches_40_digit_reference(base):
    kk = np.arange(801)
    got = _log_beta_half(base, kk)
    with mpmath.workdps(40):
        half = mpmath.loggamma(mpmath.mpf(0.5))
        want = [
            mpmath.loggamma(base + k) + half - mpmath.loggamma(base + k + mpmath.mpf(0.5))
            for k in range(kk.size)
        ]
        err = max(abs(float(mpmath.mpf(float(g)) - w)) for g, w in zip(got, want))
    assert err <= 1e-14
    # gaps in kk read the same running product
    assert np.array_equal(_log_beta_half(base, kk[::7]), got[::7])


def test_parseval_on_grid():
    rng = np.random.default_rng(7)
    n, L = 2, 10
    grid = build_sphere_grid(n, L)
    coeffs = HarmonicCoefficients.zeros(n, L)
    coeffs.values[:] = rng.normal(size=coeffs.values.shape)
    f = synthesize(coeffs, grid)
    quad_energy = float(np.sum(np.abs(f) ** 2 * grid.weights)) / surface_area(n)
    assert quad_energy == pytest.approx(float(np.sum(np.abs(coeffs.values) ** 2)), rel=1e-12)


def test_harmonic_values_at_pole():
    # only the k=0 chain survives at theta=0
    pole2 = np.zeros(2)
    assert abs(eval_harmonic(2, HarmonicIndex(3, (1,)), pole2)) < 1e-14
    v = eval_harmonic(2, HarmonicIndex(3, (0,)), pole2)
    expect = harmonic_normalization(2, HarmonicIndex(3, (0,))) * gegenbauer(0.5, 3, 1.0)
    assert v.real == pytest.approx(expect, rel=1e-13)
    assert abs(eval_harmonic(3, HarmonicIndex(2, (2, 1)), np.zeros(3))) < 1e-14


def test_eval_matches_basis_matrix():
    n, L = 2, 5
    grid = build_sphere_grid(n, L)
    idxs, mat = harmonic_basis(grid, L)
    for row in (0, len(idxs) // 2, len(idxs) - 1):
        direct = eval_harmonic(n, idxs[row], grid.angles)
        np.testing.assert_allclose(direct, mat[row], rtol=1e-12, atol=1e-12)


def test_zonal_reproduction():
    # a zonal series sum fhat(l) C_l(cos theta) analyzes into only k=0 terms
    # with Fourier coefficients fhat(l) / A_l^0
    n, L = 2, 8
    grid = build_sphere_grid(n, L)
    fhat = np.array([0.3, -1.0, 0.0, 2.5, 0.7, 0.0, 0.0, 0.1, -0.2])
    t = np.cos(grid.angles[:, 0])
    f = np.zeros(grid.size)
    for l in range(L + 1):
        f += fhat[l] * gegenbauer(0.5, l, t)
    coeffs = analyze(f, grid, L)
    for idx, v in zip(all_indices(n, L), coeffs.values):
        if idx.k == (0,):
            expect = fhat[idx.l] / fourier_from_gegenbauer_factor(n, idx.l)
            assert v.real == pytest.approx(expect, abs=1e-9)
            assert abs(v.imag) < 1e-12
        else:
            assert abs(v) < 1e-10


def test_fourier_gegenbauer_bridge():
    for n in (2, 3):
        lam = (n - 1) / 2
        for l in (0, 1, 4):
            factor = fourier_from_gegenbauer_factor(n, l)
            assert factor == pytest.approx(
                (lam + l) / (lam * math.sqrt(dim_harmonic(n, l))), rel=1e-14
            )
    # n=3 zonal bridge is the identity: (1 + l) / sqrt((l+1)^2) = 1
    for l in (0, 2, 9):
        assert fourier_from_gegenbauer_factor(3, l) == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    vals=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
)
def test_angle_vector_round_trip(n, vals):
    x = np.array(vals[: n + 1])
    norm = np.linalg.norm(x)
    if norm < 1e-3:
        return
    x = x / norm
    ang = vector_to_angles(n, x)
    assert ang.shape == (n,)
    back = angles_to_vector(n, ang)
    np.testing.assert_allclose(back, x, atol=1e-12)
    assert np.linalg.norm(back) == pytest.approx(1.0, abs=1e-12)


def test_grid_shapes_and_weights():
    grid = build_sphere_grid(2, 4)
    assert grid.size == 5 * 9  # (L+1) polar nodes x (2L+1) azimuths
    assert grid.angles.shape == (grid.size, 2)
    assert float(grid.weights.sum()) == pytest.approx(surface_area(2), rel=1e-13)
    grid3 = build_sphere_grid(3, 3)
    assert float(grid3.weights.sum()) == pytest.approx(surface_area(3), rel=1e-13)


def test_coefficient_table_access():
    coeffs = HarmonicCoefficients.zeros(2, 3)
    coeffs.values[coeffs.degree_slice(2)] = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert coeffs.degree_energy(2) == pytest.approx(55.0)
    assert coeffs.degree_energy(1) == 0.0
    assert coeffs.norm() == pytest.approx(math.sqrt(55.0))
    with pytest.raises(ValueError):
        coeffs.degree_slice(4)
    with pytest.raises(ValueError):
        HarmonicCoefficients(2, 3, np.zeros(5))


def test_degree_slice_matches_running_sum():
    # a zero-stride table, so that n=6, L=40 needs no 17.5 M coefficients
    for n in range(2, 7):
        L = 40
        table = HarmonicCoefficients(n, L, np.broadcast_to(0j, (coefficient_count(n, L),)))
        start = 0
        for l in range(L + 1):
            assert table.degree_slice(l) == slice(start, start + dim_harmonic(n, l))
            start += dim_harmonic(n, l)
        assert start == coefficient_count(n, L) == len(table.values)
    assert coefficient_count(3, -1) == 0


def test_analyze_band_limit_guard():
    grid = build_sphere_grid(2, 4)
    with pytest.raises(ValueError):
        analyze(np.zeros(grid.size), grid, 5)
    with pytest.raises(ValueError):
        analyze(np.zeros(3), grid, 4)


def _random_tables(n, L, count, seed):
    rng = np.random.default_rng(seed)
    size = coefficient_count(n, L)
    return [
        HarmonicCoefficients(n, L, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "n, L", [(n, L) for n in (2, 3) for L in (0, 1, 2, 8, 33)] + [(4, 5)]
)
def test_multiply_coordinates_match_grid_products(n, L):
    # x_c f for every ambient coordinate, at output bands from 0 to L + 1,
    # against the product analysed on a grid that integrates it exactly
    fields = _random_tables(n, L, 2, 10 * n + L)
    table = HarmonicCoefficients(n, L, np.stack([f.values for f in fields], axis=1))
    scale = np.linalg.norm(table.values)
    sphere = build_sphere_grid(n, L + 1)
    for band in sorted({0, L // 2, max(L - 1, 0), L, L + 1}):
        want = grid_monomial_moments(fields, band + 1, [1], sphere)[1].values
        got = multiply_coordinates(table, band)
        assert got.L == band and got.values.shape == want.shape
        assert np.max(np.abs(got.values - want)) <= 1e-14 * scale


def test_multiply_coordinates_of_a_constant():
    # 1 times x_c lands in degree 1 only, with the mean of x_c^2 on S^3, 1/4,
    # and the columns of a table stay apart
    one = HarmonicCoefficients.zeros(3, 0)
    one.values[0] = 1.0
    moved = multiply_coordinates(one, 2)
    assert moved.values.shape == (coefficient_count(3, 2), 4)
    for c in range(4):
        column = HarmonicCoefficients(3, 2, moved.values[:, c])
        np.testing.assert_allclose(column.degree_energies(), [0.0, 0.25, 0.0], atol=1e-16)
    table = HarmonicCoefficients(3, 0, np.array([[1.0, 2.0j]]))
    np.testing.assert_array_equal(
        multiply_coordinates(table, 2).values, np.stack([moved.values, 2j * moved.values], axis=2)
    )
    with pytest.raises(ValueError):
        multiply_coordinates(one, -1)


def test_degree_energies_match_each_degree():
    for n, L in ((2, 9), (3, 5)):
        table = _random_tables(n, L, 1, n)[0]
        np.testing.assert_allclose(
            table.degree_energies(),
            [table.degree_energy(l) for l in range(L + 1)],
            rtol=1e-14,
        )
