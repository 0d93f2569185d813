import math
import tracemalloc

import numpy as np
import pytest
from oracles import direct_transform, directional_coeffs, grid_monomial_moments, table_csv

from sphereframes import transform
from sphereframes.harmonics import HarmonicCoefficients, build_sphere_grid, coefficient_count
from sphereframes.rotation_grid import RotationGrid, build_rotation_grid
from sphereframes.scale_grid import build_scale_grid, scale_grid_for_profile
from sphereframes.transform import (
    TestField,
    TransformTable,
    energy_identity_oracle,
    frame_energy,
    random_bandlimited,
    transform_energies,
    wavelet_analysis,
)
from sphereframes.wavelet_spectra import PRESET_NAMES, build_beta_table, make_preset


def test_random_field_determinism():
    a = random_bandlimited(2, 8, 0, 123)
    b = random_bandlimited(2, 8, 0, 123)
    c = random_bandlimited(2, 8, 0, 124)
    np.testing.assert_array_equal(a.coeffs.values, b.coeffs.values)
    assert np.any(a.coeffs.values != c.coeffs.values)


def test_random_field_structure():
    f = random_bandlimited(3, 6, 2, 5)
    assert f.n == 3 and f.L == 6
    assert f.coeffs.norm() == pytest.approx(1.0, abs=1e-13)
    for l in (0, 1, 2):
        assert f.coeffs.degree_energy(l) == 0.0
    assert f.coeffs.degree_energy(3) > 0.0
    with pytest.raises(ValueError):
        random_bandlimited(2, 4, 4, 0)


def test_field_validation():
    coeffs = HarmonicCoefficients.zeros(2, 2)
    coeffs.values[0] = 1.0
    with pytest.raises(ValueError):
        TestField(coeffs, order=0)  # degree-0 coefficient must vanish
    low = HarmonicCoefficients.zeros(2, 2)
    low.values[-1] = 0.5
    with pytest.raises(ValueError):
        TestField(low, order=0)  # norm is not 1


def _identity_grid(n):
    """One rotation, the identity: a single cell at zero angles per factor."""
    zeros = tuple(np.zeros((1, J)) for J in range(n, 0, -1))
    return RotationGrid(n, (math.pi,) * n, zeros, (np.ones(1),) * n)


def test_identity_rotation_matches_spectral_inner_product():
    n, L = 2, 8
    prof = make_preset("abel-poisson", n, d=1)
    field = random_bandlimited(n, L, 0, 123)
    scales = build_scale_grid(2.0, 1.5, 4)
    table = wavelet_analysis(
        n, prof, field, scales, _identity_grid(n), build_sphere_grid(n, L)
    )
    for j, rho in enumerate(scales.scales):
        dc = directional_coeffs(prof, float(rho), n, L)
        ref = complex(np.vdot(dc.coeffs.values, field.coeffs.values))
        assert table.values[j, 0] == pytest.approx(ref, abs=1e-12)


def test_linearity_of_transform():
    n, L = 2, 6
    prof = make_preset("abel-poisson", n, d=1)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(1.5, 1.5, 3)
    rot = build_rotation_grid(n, (1.5, 1.5))
    f = random_bandlimited(n, L, 0, 1)
    g = random_bandlimited(n, L, 0, 2)
    mix = 0.6 * f.coeffs.values - 0.8j * g.coeffs.values
    norm = float(np.linalg.norm(mix))
    h = TestField(HarmonicCoefficients(n, L, mix / norm), order=0)
    Wf = wavelet_analysis(n, prof, f, scales, rot, sphere).values
    Wg = wavelet_analysis(n, prof, g, scales, rot, sphere).values
    Wh = wavelet_analysis(n, prof, h, scales, rot, sphere).values
    np.testing.assert_allclose(Wh, (0.6 * Wf - 0.8j * Wg) / norm, atol=1e-13)


def test_zonal_rescaled_energy_is_near_unit():
    # tight zonal family: frame energy / beta approximates the unit field norm
    n, L = 2, 8
    prof = make_preset("abel-poisson", n)
    field = random_bandlimited(n, L, 0, 7)
    scales = scale_grid_for_profile(n, prof, 1.3, L)
    rot = build_rotation_grid(n, (0.6, 0.6))
    table = wavelet_analysis(n, prof, field, scales, rot, build_sphere_grid(n, L))
    energy = frame_energy(table)
    assert energy / 0.25 == pytest.approx(1.0, rel=0.05)


def test_energy_identity_oracle_additivity():
    n, L = 2, 8
    prof = make_preset("abel-poisson", n, d=1)
    beta = build_beta_table(n, prof, L)
    f = random_bandlimited(n, L, 0, 11)
    expect = sum(
        beta.values[l] * f.coeffs.degree_energy(l) for l in range(L + 1)
    )
    assert energy_identity_oracle(n, prof, f, beta) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        energy_identity_oracle(3, prof, f, beta)
    short = build_beta_table(n, prof, 4)
    with pytest.raises(ValueError):
        energy_identity_oracle(n, prof, f, short)


def test_shared_rows_match_single_field_runs():
    n, L = 2, 6
    prof = make_preset("abel-poisson", n, d=1)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(1.5, 1.5, 3)
    rot = build_rotation_grid(n, (1.2, 1.2))
    fields = [random_bandlimited(n, L, 0, s) for s in (1, 2, 3)]
    energies = transform_energies(n, prof, fields, scales, rot, sphere)
    for f, e in zip(fields, energies):
        table = wavelet_analysis(n, prof, f, scales, rot, sphere)
        assert e == pytest.approx(frame_energy(table), rel=1e-12)
    assert transform_energies(n, prof, [], scales, rot, sphere).size == 0


def test_thread_count_does_not_change_values():
    n, L = 2, 6
    prof = make_preset("abel-poisson", n, d=2)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(1.5, 1.5, 2)
    rot = build_rotation_grid(n, (1.0, 1.0))
    f = random_bandlimited(n, L, 0, 9)
    one = wavelet_analysis(n, prof, f, scales, rot, sphere, threads=1)
    two = wavelet_analysis(n, prof, f, scales, rot, sphere, threads=2)
    np.testing.assert_array_equal(one.values, two.values)


def _cell_sample(grid, cells):
    """The given outer cells of a product grid, in the given order, each with
    all of its inner rotations."""
    cells = list(cells)
    return RotationGrid(
        grid.n,
        grid.delta_list,
        (grid.centres[0][cells],) + grid.centres[1:],
        (grid.measures[0][cells],) + grid.measures[1:],
    )


@pytest.mark.parametrize("n", [2, 3])
def test_monomial_action_moves_weighted_monomials(n):
    # m(T v) = A m(v) for the weighted monomials m of each degree, any T
    rng = np.random.default_rng(n)
    T = rng.standard_normal((5, n + 1, n + 1))
    v = rng.standard_normal((5, n + 1))
    for j in range(4):
        combos, w = transform._monomials(n, j)
        A = transform._monomial_action(T, combos, w)
        moved = w * transform._eval_monomials(np.einsum("cab,cb->ca", T, v), combos)
        want = np.einsum("cab,cb->ca", A, w * transform._eval_monomials(v, combos))
        np.testing.assert_allclose(moved, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("L", [0, 1, 2, 8, 33])
def test_monomial_moments_match_grid_oracle(n, L):
    # x^mu f for every monomial of degree j <= 2, from the coefficients by
    # repeated coordinate products, against the sphere-grid round trip
    rng = np.random.default_rng(L)
    count = coefficient_count(n, L)
    values = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    fields = [HarmonicCoefficients(n, L, v) for v in values.T]
    degrees = range(min(L, 2) + 1)
    got = transform._monomial_moments(n, values, L, degrees)
    want = grid_monomial_moments(fields, L, degrees, build_sphere_grid(n, L))
    assert got.keys() == want.keys()
    for j in degrees:
        assert got[j].L == want[j].L == L - j
        assert np.max(np.abs(got[j].values - want[j].values)) <= 1e-14 * np.linalg.norm(values)


def test_transform_reads_no_sphere_grid():
    n, L = 2, 8
    prof = make_preset("abel-poisson", n, d=2)
    scales = build_scale_grid(1.5, 1.5, 3)
    rot = build_rotation_grid(n, (1.2, 1.2))
    fields = [random_bandlimited(n, L, 0, s) for s in (4, 5)]
    sphere = build_sphere_grid(n, L)
    np.testing.assert_array_equal(
        transform_energies(n, prof, fields, scales, rot, sphere_grid=None),
        transform_energies(n, prof, fields, scales, rot, sphere),
    )
    np.testing.assert_array_equal(
        wavelet_analysis(n, prof, fields[0], scales, rot).values,
        wavelet_analysis(n, prof, fields[0], scales, rot, sphere).values,
    )


@pytest.mark.parametrize(
    "n, d", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)]
)
def test_transform_matches_direct_oracle(n, d):
    L = 4 if n == 2 else 3
    prof = make_preset("abel-poisson", n, d=d)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(1.5, 1.5, 4)
    full = build_rotation_grid(n, (1.6,) * n if n == 2 else (2.5,) * n)
    cells = (0, 7, 19, 31) if n == 2 else (0, 57, 173)
    grid = _cell_sample(full, cells)
    # the outer factor permuted, so that the cells are not in partition order
    shuffled = _cell_sample(full, np.random.default_rng(d).permutation(cells))
    fields = [random_bandlimited(n, L, 0, s) for s in (1, 2)]
    for rot in (grid, shuffled, _identity_grid(n)):
        expect = [direct_transform(n, prof, f, scales, rot, sphere) for f in fields]
        table = wavelet_analysis(n, prof, fields[0], scales, rot, sphere)
        scale = np.max(np.abs(expect[0]))
        assert np.max(np.abs(table.values - expect[0])) <= 1e-12 * scale
        energies = transform_energies(n, prof, fields, scales, rot, sphere)
        for e, values in zip(energies, expect):
            want = frame_energy(TransformTable(values, scales, rot))
            assert e == pytest.approx(want, rel=1e-12)
        assert energies[0] == pytest.approx(frame_energy(table), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_transform_matches_direct_oracle_at_band_32(d):
    # at L=32 the kernel's connection coefficients and degree components run
    # over many degrees; two whole outer cells keep the oracle cheap
    n, L = 2, 32
    prof = make_preset("abel-poisson", n, d=d)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(0.5, 1.5, 4)
    grid = _cell_sample(build_rotation_grid(n, (1.6, 1.6)), (5, 18))
    f = random_bandlimited(n, L, 0, 32 + d)
    expect = direct_transform(n, prof, f, scales, grid, sphere)
    table = wavelet_analysis(n, prof, f, scales, grid, sphere)
    assert np.max(np.abs(table.values - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_transform_memory_at_band_64():
    # the field batch of the band-64 benchmark: 4 fields, 32 outer cells of 4
    # rotations, 42 scales.  One analysis of all 12 monomial-weighted columns
    # peaks at 11.9 MiB by itself; one monomial per analysis keeps the whole
    # call at 6.8 MiB.
    n, L = 2, 64
    prof = make_preset("abel-poisson", n, d=1)
    sphere = build_sphere_grid(n, L)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    rot = build_rotation_grid(n, (1.6, 1.6))
    fields = [random_bandlimited(n, L, 0, s) for s in np.random.SeedSequence(7).spawn(4)]
    tracemalloc.start()
    try:
        transform_energies(n, prof, fields, scales, rot, sphere)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_transform_memory_does_not_grow_with_inner_cells():
    # the outer S^2 cells fix the cell centres U; refining S^1 from 4 to 32
    # cells multiplies the rotations by 8 but must not grow the working set
    n, L = 2, 16
    prof = make_preset("abel-poisson", n, d=1)
    sphere = build_sphere_grid(n, L)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    fields = [random_bandlimited(n, L, 0, s) for s in (1, 2)]
    peaks = []
    for inner_cap in (1.6, 0.2):
        rot = build_rotation_grid(n, (0.8, inner_cap))
        tracemalloc.start()
        try:
            transform_energies(n, prof, fields, scales, rot, sphere)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rot.sizes[1] == (4 if inner_cap == 1.6 else 32)
    assert peaks[1] <= 1.25 * peaks[0]


def test_cell_chunks_split_across_threads(monkeypatch):
    # one outer cell per chunk, so the threaded path runs many chunks
    n, L = 2, 6
    prof = make_preset("abel-poisson", n, d=2)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(1.5, 1.5, 2)
    rot = build_rotation_grid(n, (1.0, 1.0))
    f = random_bandlimited(n, L, 0, 9)
    whole = wavelet_analysis(n, prof, f, scales, rot, sphere).values
    monkeypatch.setattr(transform, "_CHUNK_BYTES", 1)
    one = wavelet_analysis(n, prof, f, scales, rot, sphere, threads=1)
    two = wavelet_analysis(n, prof, f, scales, rot, sphere, threads=2)
    np.testing.assert_array_equal(one.values, two.values)
    assert np.max(np.abs(one.values - whole)) <= 1e-13 * np.max(np.abs(whole))
    energies = [
        transform_energies(n, prof, [f], scales, rot, sphere, threads=t) for t in (1, 2)
    ]
    np.testing.assert_array_equal(energies[0], energies[1])


def test_band_limit_mismatch_rejected():
    n = 2
    prof = make_preset("abel-poisson", n)
    f = random_bandlimited(n, 8, 0, 1)
    scales = build_scale_grid(1.0, 1.5, 2)
    rot = build_rotation_grid(n, (2.0, 2.0))
    with pytest.raises(ValueError):
        wavelet_analysis(3, prof, f, scales, rot, build_sphere_grid(n, 8))


def test_table_csv_and_alignment():
    n, L = 2, 4
    prof = make_preset("abel-poisson", n)
    scales = build_scale_grid(1.0, 1.5, 2)
    rot = build_rotation_grid(n, (2.0, 2.0))
    f = random_bandlimited(n, L, 0, 3)
    table = wavelet_analysis(n, prof, f, scales, rot, build_sphere_grid(n, L))
    lines = table.to_csv().splitlines()
    assert lines[0] == "j,g,re,im"
    assert len(lines) == 1 + len(scales) * len(rot)
    with pytest.raises(ValueError):
        TransformTable(np.zeros((2, 3), dtype=complex), scales, rot)
    other = build_rotation_grid(n, (1.5, 1.5))
    with pytest.raises(ValueError):
        frame_energy(table, rotations=other)


@pytest.mark.parametrize("n", [2, 3])
def test_filters_match_per_scale_spectra(n, monkeypatch):
    # one zonal_hat call over (scales x degrees) gives the bits of one
    # zonal_hat call per scale
    L = 12
    one_scale = transform.zonal_hat

    def per_scale(profile, rho, l, n):
        return np.array([one_scale(profile, float(r), l, n) for r in rho.ravel()])

    for name in PRESET_NAMES:
        for d in range(3):
            prof = make_preset(name, n, d=d)
            scales = scale_grid_for_profile(n, prof, 1.5, L)
            whole = transform._filters(n, prof, L, scales)
            with monkeypatch.context() as m:
                m.setattr(transform, "zonal_hat", per_scale)
                stacked = transform._filters(n, prof, L, scales)
            assert whole.keys() == stacked.keys()
            for j in whole:
                assert whole[j].tobytes() == stacked[j].tobytes()


def test_table_csv_matches_per_entry_formatter():
    n = 2
    scales = build_scale_grid(1.0, 1.5, 2)
    rot = build_rotation_grid(n, (2.0, 2.0))
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1 / 3, -2.5e-310, 1e300]
    values = np.empty((len(scales), len(rot)), dtype=complex)
    values.real = np.resize(special, values.shape)
    values.imag = np.resize(special[::-1] + [7.0], values.shape)
    table = TransformTable(values, scales, rot)
    text = table.to_csv()
    assert text == table_csv(values)
    assert {"0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324"} <= set(
        text.replace("\n", ",").split(",")
    )
