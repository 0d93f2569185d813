import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apply_rotation, flat_rotation_rows
from scipy.integrate import quad

from sphereframes import rotation_grid
from sphereframes.harmonics import angles_to_vector
from sphereframes.rotation_grid import (
    RotationGrid,
    build_rotation_grid,
    partition_sphere,
    rotation_matrix,
    sin_power_integral,
)
from sphereframes.special_functions import surface_area

# invariant-measure mean of exp(R00 + 0.3 R12) over SO(3) in this Euler
# parametrization, from a spectrally exact product rule (Gauss x trapezoid)
HAAR_REFERENCE = 1.1934489004032496


def test_sin_power_integral():
    assert sin_power_integral(0, 0.2, 1.5) == pytest.approx(1.3)
    assert sin_power_integral(1, 0.0, math.pi) == pytest.approx(2.0)
    for m in (2, 3, 5, 8):
        got = sin_power_integral(m, 0.3, 2.1)
        ref, _ = quad(lambda x: math.sin(x) ** m, 0.3, 2.1)
        assert got == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError):
        sin_power_integral(-1, 0.0, 1.0)


def test_partition_single_cell_for_wide_cap():
    part = partition_sphere(2, math.pi)
    assert len(part) == 1
    assert part.centres.shape == (1, 2)
    assert part.diameters[0] == pytest.approx(math.pi)
    assert part.measures[0] == pytest.approx(surface_area(2), rel=1e-13)


def test_partition_circle_arcs():
    part = partition_sphere(1, 0.5)
    assert len(part) == math.ceil(2 * math.pi / 0.5)
    assert part.total_measure == pytest.approx(2 * math.pi, rel=1e-13)
    assert np.all(part.diameters <= 0.5 + 1e-12)


@pytest.mark.parametrize("J,delta", [(1, 0.3), (2, 0.7), (2, 0.2), (3, 0.9)])
def test_partition_measure_and_diameter(J, delta):
    part = partition_sphere(J, delta)
    assert part.total_measure == pytest.approx(surface_area(J), rel=1e-12)
    assert part.centres.shape == (len(part), J)
    assert np.all(part.diameters <= delta + 1e-12)
    assert np.all(part.measures > 0)


def test_partition_covering_oracle():
    # every point of the sphere lies within one cell diameter of some center
    J, delta = 2, 0.2
    part = partition_sphere(J, delta)
    centers = angles_to_vector(J, part.centres)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, J + 1))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    cosang = np.clip(x @ centers.T, -1.0, 1.0)
    nearest = np.arccos(np.max(cosang, axis=1))
    assert float(nearest.max()) <= delta + 1e-12


def test_partition_count_scales_with_cap():
    n_04 = len(partition_sphere(2, 0.4))
    n_02 = len(partition_sphere(2, 0.2))
    assert 2.5 <= n_02 / n_04 <= 6.0  # area-driven growth ~ (1/delta)^2


def test_grid_frozen_sizes_s2():
    grid = build_rotation_grid(2, (1.2, 1.2))
    assert grid.sizes == (54, 6)
    assert len(grid) == 324
    assert grid.total_weight == pytest.approx(8 * math.pi**2, rel=1e-12)
    assert grid.angles.shape == (324, 3)
    assert np.all(grid.weights > 0)


def test_grid_frozen_sizes_s3():
    grid = build_rotation_grid(3, (1.0, 1.0, 1.0), max_elements=1_000_000)
    assert grid.sizes == (1678, 71, 7)
    assert len(grid) == 1678 * 71 * 7
    expect = surface_area(3) * surface_area(2) * surface_area(1)
    assert grid.total_weight == pytest.approx(expect, rel=1e-9)


def test_grid_element_cap():
    with pytest.raises(ValueError):
        build_rotation_grid(2, (1.0,))  # wrong cap count
    with pytest.raises(ValueError, match="must be positive"):
        build_rotation_grid(2, (1.2, 0.0))
    # the cap bounds each factor, not the product: the 1678 x 71 x 7 = 833 966
    # rotations are held as 1678 + 71 + 7 cells, and the 1 x 1558 x 629 =
    # 979 982 rotations as 1 + 1558 + 629
    grid = build_rotation_grid(3, (1.0, 1.0, 1.0))
    assert len(grid) == 833_966
    with pytest.raises(ValueError, match="more than 200000 elements, the cap"):
        grid.angles
    assert build_rotation_grid(3, (3.2, 0.2, 0.01)).sizes == (1, 1558, 629)
    # the flat cap is exact: the 54 x 6 grid fits 324 elements and not 323
    assert build_rotation_grid(2, (1.2, 1.2), max_elements=324).angles.shape == (324, 3)
    tight = build_rotation_grid(2, (1.2, 1.2), max_elements=323)
    for flat in (lambda: tight.angles, lambda: tight.weights, tight.to_csv):
        with pytest.raises(ValueError, match="more than 323 elements"):
            flat()
    with pytest.raises(ValueError, match="more than 53 elements"):
        build_rotation_grid(2, (1.2, 1.2), max_elements=53)  # 54 outer cells


@pytest.mark.parametrize("n, deltas", [(1, (0.7,)), (2, (0.9, 1.3)), (3, (1.4, 1.6, 2.1))])
def test_flat_rows_match_the_flat_builder(n, deltas):
    # the factored grid's rows and CSV are bit for bit those of the builder
    # that stored every rotation
    grid = build_rotation_grid(n, deltas)
    angles, weights = flat_rotation_rows(n, deltas)
    assert grid.angles.tobytes() == angles.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()
    assert grid.total_weight == float(weights.sum())
    rows = [",".join(f"{v:.17g}" for v in a) + f",{w:.17g}" for a, w in zip(angles, weights)]
    assert grid.to_csv().splitlines()[2:] == rows


@pytest.mark.parametrize("n, deltas", [(2, (0.01, 3.0)), (3, (0.01, 0.01, 0.01))])
def test_grid_cap_raises_before_building_partitions(n, deltas):
    # full partitions would hold 607 743 S^2 cells for n=2, and far more
    # for n=3; even building up to the default cap of 200 000 cells would
    # take about 44 MB, while counting them holds none
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 200000 elements, the cap"):
            build_rotation_grid(n, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("J, delta", [(2, 0.003), (3, 0.05)])
def test_partition_cap_raises_before_building_cells(J, delta):
    # 6 749 385 cells (about 1.5 GB) for S^2 and 12 825 223 for S^3
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 200000 cells, the cap"):
            partition_sphere(J, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rotation_grid_cap_governs_its_own_partitions(monkeypatch):
    # build_rotation_grid counts against max_elements, not the partition cap
    monkeypatch.setattr(rotation_grid, "_MAX_CELLS", 100)
    with pytest.raises(ValueError, match="more than 100 cells"):
        partition_sphere(1, 0.05)
    assert len(build_rotation_grid(1, (0.05,), max_elements=200)) == 126


def test_grid_row_composition():
    # row ordering is the mixed-radix product: outer level varies slowest
    grid = build_rotation_grid(2, (1.5, 1.5))
    parts = [partition_sphere(2, 1.5), partition_sphere(1, 1.5)]
    k = len(parts[1])
    row = 3 * k + 1  # cell 3 of the outer partition, cell 1 of the inner
    expect = np.concatenate([parts[0].centres[3], parts[1].centres[1]])
    np.testing.assert_allclose(grid.angles[row], expect, rtol=1e-15)
    w = parts[0].measures[3] * parts[1].measures[1]
    assert grid.weights[row] == pytest.approx(w, rel=1e-15)


def test_csv_header_and_rows():
    grid = build_rotation_grid(2, (2.0, 2.0))
    lines = grid.to_csv().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "theta2_1,phi2,phi1,weight"
    assert len(lines) == 2 + len(grid)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    data=st.lists(st.floats(0, 2 * math.pi), min_size=6, max_size=6),
)
def test_rotation_matrix_is_special_orthogonal(n, data):
    euler = np.array(data[: n * (n + 1) // 2])
    R = rotation_matrix(n, euler)
    np.testing.assert_allclose(R.T @ R, np.eye(n + 1), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_rotation_matrix_entries_s2():
    # closed-form entries of P2(phi2) P1(theta) P2(phi1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        th = rng.uniform(0, math.pi)
        p2, p1 = rng.uniform(0, 2 * math.pi, size=2)
        R = rotation_matrix(2, [th, p2, p1])
        assert R[0, 0] == pytest.approx(math.cos(th), abs=1e-14)
        expect_12 = -math.cos(p2) * math.cos(th) * math.sin(p1) - math.sin(
            p2
        ) * math.cos(p1)
        assert R[1, 2] == pytest.approx(expect_12, abs=1e-14)


def test_block_moves_pole_to_its_angles():
    # the outer block applied to e_1 lands on the sphere point of those angles
    for n in (2, 3):
        rng = np.random.default_rng(n)
        angles = np.concatenate(
            [rng.uniform(0.1, math.pi - 0.1, size=n - 1), [rng.uniform(0, 2 * math.pi)]]
        )
        euler = np.concatenate([angles, np.zeros(n * (n + 1) // 2 - n)])
        R = rotation_matrix(n, euler)
        e1 = np.zeros(n + 1)
        e1[0] = 1.0
        np.testing.assert_allclose(R @ e1, angles_to_vector(n, angles), atol=1e-13)


@pytest.mark.parametrize("n, deltas", [(2, (0.45, 0.45)), (3, (2.5, 2.5, 2.5))])
def test_batched_rotation_matrix_matches_rows(n, deltas):
    grid = build_rotation_grid(n, deltas)
    batch = rotation_matrix(n, grid.angles)
    rows = np.stack([rotation_matrix(n, e) for e in grid.angles])
    assert batch.shape == (len(grid), n + 1, n + 1)
    assert np.max(np.abs(batch - rows)) <= 1e-15
    # any leading batch shape
    cube = rotation_matrix(n, grid.angles[:6].reshape(2, 3, -1))
    np.testing.assert_array_equal(cube.reshape(6, n + 1, n + 1), batch[:6])
    with pytest.raises(ValueError):
        rotation_matrix(n, grid.angles[:, :-1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rotation_matrix_is_its_planar_factor_product(n):
    # the docstring's convention as explicit matrices: block J (outer first)
    # is P_n(phi) ... P_{n-J+1}(theta_1), P_i rotating coordinates (x_i, x_i+1)
    def planar(i, a):
        P = np.eye(n + 1)
        P[i - 1 : i + 1, i - 1 : i + 1] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
        return P

    for euler in np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, size=(5, n * (n + 1) // 2)):
        want = np.eye(n + 1)
        offset = 0
        for J in range(n, 0, -1):
            T = np.eye(n + 1)
            for i in range(J):
                T = planar(n - J + 1 + i, euler[offset + i]) @ T
            want = want @ T
            offset += J
        assert np.max(np.abs(rotation_matrix(n, euler) - want)) <= 1e-14


def test_apply_rotation_round_trip():
    euler = np.array([0.7, 1.1, 2.3])
    point = np.array([1.2, 0.4])
    image = apply_rotation(2, euler, point)
    R = rotation_matrix(2, euler)
    np.testing.assert_allclose(
        angles_to_vector(2, image), R @ angles_to_vector(2, point), atol=1e-13
    )
    # inverse rotation restores the point
    back = angles_to_vector(2, point)
    np.testing.assert_allclose(R.T @ (R @ back), back, atol=1e-14)


def test_haar_mean_converges():
    errors = []
    for delta in (0.8, 0.4):
        grid = build_rotation_grid(2, (delta, delta))
        vals = np.array(
            [
                math.exp(R[0, 0] + 0.3 * R[1, 2])
                for R in (rotation_matrix(2, e) for e in grid.angles)
            ]
        )
        mean = float(np.dot(vals, grid.weights) / grid.total_weight)
        errors.append(abs(mean - HAAR_REFERENCE))
    assert errors[1] <= errors[0] / 2.0  # halving the cap at least halves the error
    assert errors[1] < 2e-3


def test_manual_grid_validation():
    centres, measures = (np.zeros((4, 2)), np.zeros((2, 1))), (np.ones(4), np.ones(2))
    grid = RotationGrid((1.0, 1.0), centres, measures)
    assert (grid.n, len(grid)) == (2, 8)
    with pytest.raises(ValueError):
        RotationGrid((1.0, 1.0), centres[:1], measures)  # one centre block for two factors
    with pytest.raises(ValueError):
        RotationGrid((1.0, 1.0), (np.zeros((4, 3)), centres[1]), measures)  # S^2 rows of 3
    with pytest.raises(ValueError):
        RotationGrid((1.0, 1.0), centres, (np.ones(3), measures[1]))  # 4 centres, 3 measures
    with pytest.raises(ValueError):
        RotationGrid((1.0, 1.0), centres, measures, weights=np.ones(7))
    for caps in ((1.0,), (1.0, 1.0, 1.0)):  # the factor count fixes n
        with pytest.raises(ValueError, match="a cap and a measure array for each of the 2 factors"):
            RotationGrid(caps, centres, measures)
