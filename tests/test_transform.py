import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    direct_transform,
    directional_coeffs,
    gram_matrix,
    grid_monomial_moments,
    per_cell_table,
    per_scale_energies,
    table_csv,
)

from sphereframes import _csvtext, transform, wavelet_spectra
from sphereframes.harmonics import HarmonicCoefficients, build_sphere_grid, coefficient_count
from sphereframes.rotation_grid import RotationGrid, build_rotation_grid, rotation_matrix
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
    return RotationGrid((math.pi,) * n, zeros, (np.ones(1),) * n)


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
    assert energy_identity_oracle(f, beta) == pytest.approx(expect, rel=1e-14)
    # a table of another dimension is refused, not summed
    other = build_beta_table(3, make_preset("abel-poisson", 3, d=1), L)
    with pytest.raises(ValueError, match="beta table is for n=3, not the field's n=2"):
        energy_identity_oracle(f, other)
    short = build_beta_table(n, prof, 4)
    with pytest.raises(ValueError):
        energy_identity_oracle(f, short)


def test_gram_form_gives_the_frame_energies_and_bounds():
    # on the quickstart grid the frame energy is the Hermitian form c^H G c
    # of the 80 coefficients of degrees 1..8, and the extreme eigenvalues of
    # G are the discrete frame bounds on them, which seeded trials only sample
    n, L = 2, 8
    prof = make_preset("abel-poisson", n, d=1)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    rot = build_rotation_grid(n, (0.6, 0.6))
    G = gram_matrix(n, prof, L, 0, scales, rot)
    assert G.shape == (80, 80)
    assert np.max(np.abs(G - G.conj().T)) <= 1e-15 * np.max(np.abs(G))
    fields = [random_bandlimited(n, L, 0, s) for s in np.random.SeedSequence(26).spawn(5)]
    c = np.stack([f.coeffs.values[coefficient_count(n, 0) :] for f in fields], axis=1)
    forms = np.einsum("kt,kl,lt->t", c.conj(), G, c).real
    np.testing.assert_allclose(forms, transform_energies(n, prof, fields, scales, rot), rtol=1e-12)
    bounds = np.linalg.eigvalsh(G)[[0, -1]]
    np.testing.assert_allclose(bounds, [0.022738, 0.419481], rtol=0, atol=5e-7)


def test_gram_eigenvector_energy_matches_the_sphere_grid_transform():
    # the field of G's least eigenvalue, transformed rotation by rotation on
    # the sphere grid, has that eigenvalue as its frame energy
    n, L = 2, 4
    prof = make_preset("abel-poisson", n, d=1)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    rot = build_rotation_grid(n, (1.0, 1.0))
    lam, vec = np.linalg.eigh(gram_matrix(n, prof, L, 0, scales, rot))
    values = np.zeros(coefficient_count(n, L), dtype=complex)
    values[coefficient_count(n, 0) :] = vec[:, 0]
    field = TestField(HarmonicCoefficients(n, L, values), 0)
    table = direct_transform(n, prof, field, scales, rot, build_sphere_grid(n, L))
    assert frame_energy(TransformTable(table, scales, rot)) == pytest.approx(lam[0], rel=1e-12)


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


def test_thread_count_does_not_change_values(monkeypatch):
    pooled = []  # the chunk count of every map the pool runs

    class CountingPool(transform.ThreadPoolExecutor):
        def map(self, fn, chunks, **kwargs):
            chunks = list(chunks)
            pooled.append(len(chunks))
            return super().map(fn, chunks, **kwargs)

    monkeypatch.setattr(transform, "ThreadPoolExecutor", CountingPool)
    # 64 KiB chunks split the 71 outer cells of the (1.0, 1.0) grid, so
    # threads=2 runs the pool
    monkeypatch.setattr(transform, "_CHUNK_BYTES", 2**16)
    n, L = 2, 6
    prof = make_preset("abel-poisson", n, d=2)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(1.5, 1.5, 2)
    rot = build_rotation_grid(n, (1.0, 1.0))
    f = random_bandlimited(n, L, 0, 9)
    one = wavelet_analysis(n, prof, f, scales, rot, sphere, threads=1)
    assert pooled == []
    two = wavelet_analysis(n, prof, f, scales, rot, sphere, threads=2)
    assert len(pooled) == 1 and 2 <= pooled[0] < 71
    np.testing.assert_array_equal(one.values, two.values)
    # at n=4 the 126 sub-bands of the (2.5)^4 grid's 5006 outer cells take
    # about 4 MB, so 1 MiB chunks split them
    monkeypatch.setattr(transform, "_CHUNK_BYTES", 2**20)
    n, L = 4, 4
    prof = make_preset("abel-poisson", n, d=1)
    rot = build_rotation_grid(n, (2.5,) * n)
    fields = [random_bandlimited(n, L, 1, s) for s in (9, 10)]
    one, two = (transform_energies(n, prof, fields, scales, rot, threads=t) for t in (1, 2))
    assert len(pooled) == 2 and pooled[1] >= 2
    np.testing.assert_array_equal(one, two)


def _cell_sample(grid, *cells):
    """A product grid cut to the given cells of its leading factors, outer
    factor first, in the given order; the factors after them stay whole."""
    cut = [list(c) for c in cells] + [slice(None)] * (grid.n - len(cells))
    return RotationGrid(
        grid.delta_list,
        tuple(c[k] for c, k in zip(grid.centres, cut)),
        tuple(m[k] for m, k in zip(grid.measures, cut)),
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_rotation_is_its_azimuth_after_its_polar_part(n):
    # T(theta, phi) = P_phi T(theta, 0), P_phi the rotation by phi in the
    # last plane, whatever the inner factors
    rng = np.random.default_rng(n)
    euler = rng.uniform(0.0, 2.0 * math.pi, size=(6, n * (n + 1) // 2))
    polar = euler.copy()
    polar[:, n - 1] = 0.0
    c, s = np.cos(euler[:, n - 1]), np.sin(euler[:, n - 1])
    P = np.zeros((6, n + 1, n + 1))
    P[:, range(n - 1), range(n - 1)] = 1.0
    P[:, n - 1 :, n - 1 :] = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    np.testing.assert_allclose(
        rotation_matrix(n, euler), P @ rotation_matrix(n, polar), rtol=0, atol=1e-15
    )


def test_latitude_bands_are_whole_circles_of_uniform_arcs():
    full = build_rotation_grid(2, (0.45, 0.45))
    starts, counts = transform._latitude_bands(full.centres[0], full.measures[0])
    assert counts.tolist() == [15, 28, 38, 44, 47, 47, 44, 38, 28, 15]
    assert starts.tolist() == [0, *np.cumsum(counts)[:-1]]
    # the innermost circles of the higher spheres' bands
    for n, delta, bands in ((3, 0.9, 69), (4, 1.6, 410)):
        grid = build_rotation_grid(n, (delta,) * n)
        starts, counts = transform._latitude_bands(grid.centres[0], grid.measures[0])
        assert len(starts) == bands and counts.sum() == grid.sizes[0] and counts.min() > 1
    # a whole band stays one; parts of bands, a permuted band and the
    # identity are bands of one
    for cut, want in (
        ((range(15),), [15]),
        ((range(14),), [1] * 14),
        (((0, 1),), [1, 1]),
        (((0, 7, 19, 31),), [1] * 4),
        ((np.random.default_rng(0).permutation(15),), [1] * 15),
    ):
        grid = _cell_sample(full, *cut)
        assert transform._latitude_bands(grid.centres[0], grid.measures[0])[1].tolist() == want
    grid = _identity_grid(2)
    assert transform._latitude_bands(grid.centres[0], grid.measures[0])[1].tolist() == [1]


def _first_bands(n, deltas, bands, inner):
    """The product grid cut to the first whole latitude bands of its outer
    factor, and with inner=False every inner factor cut to one cell, so that
    the table has one column per outer cell."""
    full = build_rotation_grid(n, deltas)
    starts, counts = transform._latitude_bands(full.centres[0], full.measures[0])
    outer = range(full.sizes[0] if bands is None else starts[bands - 1] + counts[bands - 1])
    return _cell_sample(full, outer, *([] if inner else [[0]] * (n - 1)))


# (n, L, caps, d, bands kept): at n=2, L=8 the bands hold 15-47 cells
# against 17 frequencies, so a band of more cells has empty residues; at L=64
# 3 bands of 10-12 cells fold 129 frequencies; at n=3 and n=4 the bands are
# the sub-bands of the innermost circle, the first of 14 and of 12 cells
# against 17 and 13 frequencies, the others of 23-51 cells
BAND_CONFIGS = (
    [(2, 8, (0.45, 0.45), d, None) for d in range(4)]
    + [(2, 64, (1.6, 1.6), 1, None), (2, 16, (1.0, 0.45), 3, None)]
    + [(3, 8, (0.9,) * 3, d, 12) for d in range(4)]
    + [(4, 6, (1.6,) * 4, d, 15) for d in range(4)]
)


@pytest.mark.parametrize("n, L, deltas, d, bands", BAND_CONFIGS)
def test_bands_match_the_per_cell_oracles(n, L, deltas, d, bands):
    prof = make_preset("abel-poisson", n, d=d)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    fields = [random_bandlimited(n, L, 0, s) for s in np.random.SeedSequence(n + L + d).spawn(3)]
    grid = _first_bands(n, deltas, bands, inner=True)
    got = transform_energies(n, prof, fields, scales, grid)
    np.testing.assert_allclose(got, per_scale_energies(n, prof, fields, scales, grid), rtol=1e-13)
    grid = _first_bands(n, deltas, bands, inner=False)
    table = wavelet_analysis(n, prof, fields[0], scales, grid).values
    want = per_cell_table(n, prof, fields[0], scales, grid)
    assert np.max(np.abs(table - want)) <= 1e-13 * np.max(np.abs(want))
    # the same cells in reverse order are bands of one
    cut = _cell_sample(grid, np.arange(grid.sizes[0])[::-1])
    assert transform._latitude_bands(cut.centres[0], cut.measures[0])[1].max() == 1
    table = wavelet_analysis(n, prof, fields[0], scales, cut).values
    want = per_cell_table(n, prof, fields[0], scales, cut)
    assert np.max(np.abs(table - want)) <= 1e-13 * np.max(np.abs(want))


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
    # x'^mu f for every charge monomial of degree j <= 2, from the
    # coefficients by repeated coordinate products, against the sphere-grid
    # round trip
    rng = np.random.default_rng(L)
    count = coefficient_count(n, L)
    values = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    fields = [HarmonicCoefficients(n, L, v) for v in values.T]
    degrees = range(min(L, 2) + 1)
    got = transform._monomial_moments(n, values, L, degrees)
    want = grid_monomial_moments(fields, L, degrees, build_sphere_grid(n, L), charged=True)
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


# cells kept of the leading factors; at n=4 every factor of the 5006 x 174 x
# 14 x 3 grid is cut, to 2 x 3 x 2 x 3 = 36 rotations
ORACLE_CELLS = {2: ((0, 7, 19, 31),), 3: ((0, 57, 173),), 4: ((0, 57), (0, 5, 11), (0, 3))}


@pytest.mark.parametrize(
    "n, d", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)]
)
def test_transform_matches_direct_oracle(n, d):
    L = 4 if n == 2 else 3
    prof = make_preset("abel-poisson", n, d=d)
    sphere = build_sphere_grid(n, L)
    scales = build_scale_grid(1.5, 1.5, 4)
    full = build_rotation_grid(n, (1.6,) * n if n == 2 else (2.5,) * n)
    outer, *inner = ORACLE_CELLS[n]
    grid = _cell_sample(full, outer, *inner)
    # the outer factor permuted, so that the cells are not in partition order
    shuffled = _cell_sample(full, np.random.default_rng(d).permutation(outer), *inner)
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


# (preset, n, d, L, rotation caps)
ORACLE_CONFIGS = (
    [
        ("abel-poisson", 2, d, L, (0.45, 0.45) if L == 8 else (1.6, 1.6))
        for d in range(3)
        for L in (8, 16, 64)
    ]
    + [(name, 2, d, 8, (0.6, 0.6)) for name in PRESET_NAMES[1:] for d in range(3)]
    + [("abel-poisson", 3, d, 8, (1.6, 1.6, 1.6)) for d in range(3)]
    + [("abel-poisson", 2, 1, 8, (math.pi, 2 * math.pi)), ("poisson", 3, 2, 8, (3.2, 3.2, 3.2))]
)


@pytest.mark.parametrize("name, n, d, L, deltas", ORACLE_CONFIGS)
def test_energies_match_per_scale_oracle(name, n, d, L, deltas):
    # one triangular operator over (scale, inner point) against filtering,
    # multiplying by H and squaring one scale at a time; the last two grids
    # have a single outer cell
    prof = make_preset(name, n, d=d)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    rot = build_rotation_grid(n, deltas)
    fields = [random_bandlimited(n, L, 0, s) for s in np.random.SeedSequence(L + d).spawn(3)]
    got = transform_energies(n, prof, fields, scales, rot)
    want = per_scale_energies(n, prof, fields, scales, rot)
    # at L=64, d=2 the energies are ill-conditioned in the azimuths: moving
    # each cell's azimuth by one ulp moves the oracle's energies by up to
    # 2e-13, and the bands round each cell's phases from phi_0 and 2 pi c / C
    # where the oracle rounds them from the cell's rotation (2.6e-13 apart)
    rtol = 1e-12 if (L, d) == (64, 2) else 1e-13
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


@pytest.mark.parametrize("n, L, deltas", [(2, 16, (0.6, 0.6)), (3, 8, (2.0, 2.0, 2.0))])
def test_table_energy_matches_energies(n, L, deltas):
    # the table's operator and the energies' triangular factor share Z
    prof = make_preset("abel-poisson", n, d=2)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    rot = build_rotation_grid(n, deltas)
    fields = [random_bandlimited(n, L, 0, s) for s in (11, 12)]
    energies = transform_energies(n, prof, fields, scales, rot)
    for f, e in zip(fields, energies):
        table = wavelet_analysis(n, prof, f, scales, rot)
        assert frame_energy(table) == pytest.approx(e, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "n, L, delta, d", [(2, 8, 0.45, 1), (2, 16, 0.3, 2), (3, 8, 0.9, 1), (2, 64, 0.6, 1)]
)
def test_chunk_budget_bounds_memory(n, L, delta, d, monkeypatch):
    # the chunk's arrays stay within the budget, so the call's peak exceeds
    # it by no more than the per-call moments and operator
    budget = 4 * 2**20
    monkeypatch.setattr(transform, "_CHUNK_BYTES", budget)
    prof = make_preset("abel-poisson", n, d=d)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    rot = build_rotation_grid(n, (delta,) * n)
    fields = [random_bandlimited(n, L, 0, s) for s in np.random.SeedSequence(4).spawn(4)]
    tracemalloc.start()
    try:
        transform_energies(n, prof, fields, scales, rot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * budget


def test_field_batches_keep_each_chunk_within_budget(monkeypatch):
    # at L=64 a band of 70 cells takes about 0.6 MB per field over its 0.6 MB
    # of fold arrays, so 8 fields at once would pass a 2 MiB budget about
    # twofold; the fields go in batches, and each chunk's own arrays, from
    # its polar rows (made at its start) to the next chunk's, stay within it
    n, L, d = 2, 64, 1
    prof = make_preset("abel-poisson", n, d=d)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    rot = build_rotation_grid(n, (0.3, 0.3))
    fields = [random_bandlimited(n, L, 0, s) for s in np.random.SeedSequence(5).spawn(8)]
    whole = transform_energies(n, prof, fields, scales, rot)
    budget = 2 * 2**20
    monkeypatch.setattr(transform, "_CHUNK_BYTES", budget)
    marks = []
    polar_values = transform._polar_values

    def chunk_start(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return polar_values(*args)

    monkeypatch.setattr(transform, "_polar_values", chunk_start)
    tracemalloc.start()
    try:
        batched = transform_energies(n, prof, fields, scales, rot)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(marks) > 2
    assert max(peak - base for (base, _), (_, peak) in zip(marks, marks[1:])) <= budget
    np.testing.assert_allclose(batched, whole, rtol=1e-14, atol=0)


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


def test_rotation_grid_of_another_dimension_rejected():
    # fields on S^2 need a grid on SO(3); one on SO(4) or SO(2) is refused
    # up front, naming both groups
    n, L = 2, 6
    prof = make_preset("abel-poisson", n, d=1)
    f = random_bandlimited(n, L, 0, 1)
    scales = build_scale_grid(1.0, 1.5, 2)
    for other, deltas in ((3, (1.6,) * 3), (1, (1.0,))):
        rot = build_rotation_grid(other, deltas)
        message = rf"SO\({other + 1}\), not SO\(3\)"
        with pytest.raises(ValueError, match=message):
            transform_energies(n, prof, [f, f], scales, rot)
        with pytest.raises(ValueError, match=message):
            wavelet_analysis(n, prof, f, scales, rot)


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


@pytest.mark.parametrize("n", [2, 3])
def test_filters_match_per_scale_spectra(n, monkeypatch):
    # one zonal_hat call over (scales x degrees) gives the bits of one
    # zonal_hat call per scale
    L = 12
    one_scale = wavelet_spectra.zonal_hat

    def per_scale(profile, rho, l, n):
        return np.array([one_scale(profile, float(r), l, n) for r in rho.ravel()])

    for name in PRESET_NAMES:
        for d in range(3):
            prof = make_preset(name, n, d=d)
            scales = scale_grid_for_profile(n, prof, 1.5, L)
            whole = transform._filters(n, prof, L, scales)
            with monkeypatch.context() as m:
                m.setattr(wavelet_spectra, "zonal_hat", per_scale)
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


def test_mixed_magnitude_table_matches_per_entry_formatter():
    # both notations, both signs, round numbers, exact ties and the values
    # formatted one at a time, over 3 x 880 entries: more than one block
    rng = np.random.default_rng(24)
    scales = build_scale_grid(1.0, 1.5, 2)
    rot = build_rotation_grid(2, (0.8, 0.8))
    shape = (len(scales), len(rot))
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 18, shape)
    values = values + 1j * rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 1, shape)
    special = [1.0, -1000.0, 0.5, 1e-5, 1e16, 1e17, 1000000000000000.25, 0.0, -np.inf, 3e-310]
    values.real.flat[: 17 * len(special) : 17] = special
    table = TransformTable(values, scales, rot)
    assert values.size > _csvtext._BLOCK_BYTES // (4 * _csvtext._COLUMN_BYTES)
    assert table.to_csv() == table_csv(values)
