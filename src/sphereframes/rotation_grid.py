"""Discrete rotation grids on SO(n+1) built from nested sphere partitions.

A rotation is parametrized through the coset chain SO(n+1) ⊃ SO(n) ⊃ ... as a
product R = T_n(x^n) T_{n-1}(x^(n-1)) ... T_1(x^1) with x^J a point on the
J-sphere.  T_J lifts sphere angles to planar rotations acting on the last
J + 1 ambient coordinates, so the invariant measure on SO(n+1) factors into
the product of the sphere measures.  Partitioning each S^J into cells of
bounded geodesic diameter and taking one rotation per cell tuple, weighted by
the product of cell measures, yields the grids used for frame verification.

Partitions use latitude bands split in azimuth (recursively for J >= 2).  The
per-cell diameter certificate is band height plus the widest extent of the
sub-cell at the band edge nearest the equator, a cheap upper bound for the
true diameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .special_functions import surface_area

__all__ = [
    "SpherePartition",
    "partition_sphere",
    "RotationGrid",
    "build_rotation_grid",
    "rotation_matrix",
]

# Most cells partition_sphere builds, and build_rotation_grid's default cap
# on each factor's cells and on its flat rows; larger requests raise before
# any cell or row is built.
_MAX_CELLS = 200_000


def sin_power_integral(m: int, a: float, b: float) -> float:
    """Exact integral of sin^m over [a, b] by the standard reduction."""
    if m < 0:
        raise ValueError(f"power must be >= 0, got {m}")
    if m == 0:
        return b - a
    if m == 1:
        return math.cos(a) - math.cos(b)
    boundary = (
        math.cos(a) * math.sin(a) ** (m - 1) - math.cos(b) * math.sin(b) ** (m - 1)
    ) / m
    return boundary + (m - 1) / m * sin_power_integral(m - 2, a, b)


@dataclass(frozen=True)
class SpherePartition:
    """Cells covering S^J: row i of centres holds cell i's J centre angles,
    and measures and diameters its exact measure and diameter bound.  The
    arrays are read-only."""

    centres: np.ndarray
    measures: np.ndarray
    diameters: np.ndarray

    def __post_init__(self):
        for a in (self.centres, self.measures, self.diameters):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.measures.size

    @property
    def total_measure(self) -> float:
        return float(self.measures.sum())


def partition_sphere(J: int, delta: float) -> SpherePartition:
    """Partition S^J into simply connected cells of geodesic diameter <= delta.

    delta >= pi returns the whole sphere as one cell (its diameter is pi).
    For the circle the cells are arcs; higher spheres use latitude bands of
    height <= delta / sqrt(2), each crossed with a partition of the equatorial
    subsphere at a target shrunk by the band's largest sine.  Raises, before
    building a cell, if the partition would hold more than _MAX_CELLS cells.
    """
    if J < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {J}")
    if delta <= 0:
        raise ValueError(f"diameter cap must be positive, got {delta}")
    if _cell_count(J, delta, _MAX_CELLS) > _MAX_CELLS:
        raise ValueError(
            f"partition of S^{J} at diameter cap {delta} would hold more than "
            f"{_MAX_CELLS} cells, the cap; increase delta"
        )
    return _partition(J, delta)


def _partition(J: int, delta: float) -> SpherePartition:
    """partition_sphere without its checks, for callers that counted the cells."""
    if delta >= math.pi:
        centre = np.array([(math.pi / 2,) * (J - 1) + (math.pi,)])
        return SpherePartition(centre, np.array([surface_area(J)]), np.array([math.pi]))

    if J == 1:
        count = _arc_count(delta)
        arc = 2.0 * math.pi / count
        arcs = np.full(count, arc)
        return SpherePartition((np.arange(count) + 0.5)[:, None] * arc, arcs, arcs)

    centres, measures, diameters = [], [], []
    for a, b, h, sin_max in _bands(delta):
        sub = _partition(J - 1, (delta - h) / sin_max)
        theta_mid = np.full((len(sub), 1), 0.5 * (a + b))
        centres.append(np.hstack([theta_mid, sub.centres]))
        measures.append(sin_power_integral(J - 1, a, b) * sub.measures)
        diameters.append(h + sin_max * sub.diameters)
    return SpherePartition(*map(np.concatenate, (centres, measures, diameters)))


def _arc_count(delta: float) -> int:
    return math.ceil(2.0 * math.pi / delta)


def _bands(delta: float):
    """Latitude bands (a, b, height, largest sine) of height <= delta / sqrt(2)."""
    bands = math.ceil(math.pi * math.sqrt(2.0) / delta)
    h = math.pi / bands
    for i in range(bands):
        a, b = i * h, (i + 1) * h
        sin_max = 1.0 if a <= math.pi / 2 <= b else max(math.sin(a), math.sin(b))
        yield a, b, h, sin_max


def _cell_count(J: int, delta: float, limit: int) -> int:
    """len(partition_sphere(J, delta)) without building a cell, for delta > 0.

    Stops at the first band that takes the count past limit and returns the
    count so far, so the work is bounded by limit rather than by the cells.
    """
    if delta >= math.pi:
        return 1
    if J == 1:
        return _arc_count(delta)
    count = 0
    for _, _, h, sin_max in _bands(delta):
        count += _cell_count(J - 1, (delta - h) / sin_max, limit - count)
        if count > limit:
            break
    return count


class _FlatWeights:
    """RotationGrid.weights: the product of each rotation's cell measures,
    built on first read.  As a data descriptor it is also a dataclass field,
    so weights can be given, e.g. by dataclasses.replace; the flat-row
    readers (total_weight, to_csv, frame_energy) then use those."""

    def __get__(self, grid, owner=None):
        if grid is None:
            return self
        if grid.__dict__.get("weights") is None:
            grid.__dict__["weights"] = np.prod(grid._flat(grid.measures), axis=0)
        return grid.__dict__["weights"]

    def __set__(self, grid, value):
        # the dataclass passes the descriptor itself as the field's default
        grid.__dict__["weights"] = None if value is self else value


@dataclass(frozen=True)
class RotationGrid:
    """Product grid on SO(n+1): one rotation per tuple of partition cells.

    The grid holds its factor partitions, outer sphere first: centres[k] are
    the cell centre angles of S^(n-k), shape (cells, n - k), and measures[k]
    their measures.  The rotations are the tuples of cells in mixed-radix
    order, outer factor slowest, each weighted by the product of its cell
    measures.  The flat rows, angles (outer factor's angles first, n(n+1)/2
    per rotation) and weights, are built only on request, and refused for a
    grid of more than max_elements rotations.
    """

    delta_list: tuple
    centres: tuple
    measures: tuple
    max_elements: int = _MAX_CELLS
    weights: np.ndarray = field(default=_FlatWeights(), repr=False, compare=False)

    def __post_init__(self):
        if len(self.delta_list) != self.n or len(self.measures) != self.n:
            raise ValueError(f"need a cap and a measure array for each of the {self.n} factors")
        for J, c, m in zip(range(self.n, 0, -1), self.centres, self.measures):
            if c.shape != (m.size, J) or m.shape != (m.size,):
                raise ValueError(f"centres of S^{J} must be rows of {J} angles, one per measure")
        w = self.__dict__["weights"]
        if w is not None and np.shape(w) != (len(self),):
            raise ValueError("weights must align with rotations")

    @property
    def n(self) -> int:
        """The sphere dimension: SO(n+1) has n factor partitions."""
        return len(self.centres)

    @property
    def sizes(self) -> tuple:
        return tuple(m.size for m in self.measures)

    def __len__(self) -> int:
        return math.prod(self.sizes)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def angles(self) -> np.ndarray:
        return np.concatenate(self._flat(self.centres), axis=1)

    def check_flat(self) -> None:
        """Raise if the grid has more rotations than max_elements, the cap on
        anything built with one row or column per rotation."""
        if len(self) > self.max_elements:
            raise ValueError(
                f"flat rows of {len(self)} rotations: more than {self.max_elements} "
                "elements, the cap; increase the caps in delta_list or raise max_elements"
            )

    def _flat(self, blocks) -> list:
        """Each factor's rows repeated out to one per rotation, outer factor slowest."""
        self.check_flat()
        index = np.indices(self.sizes).reshape(self.n, -1)
        return [b[i] for b, i in zip(blocks, index)]

    def header(self) -> dict:
        return {
            "dimension": self.n,
            "delta": list(self.delta_list),
            "sizes": list(self.sizes),
        }

    def to_csv(self) -> str:
        from ._csvtext import csv_text  # on first use: its tables take 1.7 ms and 1.2 MB

        names = []
        for J in range(self.n, 0, -1):
            names.extend(f"theta{J}_{i}" for i in range(1, J))
            names.append(f"phi{J}")
        header = "# " + json.dumps(self.header()) + "\n" + ",".join(names) + ",weight\n"
        angles, weights = self.angles, self.weights

        def columns(lo, hi):
            return [*angles[lo:hi].T, weights[lo:hi]]

        return csv_text(header, len(self), columns)


def build_rotation_grid(
    n: int, delta_list, max_elements: int = _MAX_CELLS
) -> RotationGrid:
    """Product of partitions of S^n, ..., S^1 with product weights.

    delta_list is ordered (delta_n, ..., delta_1), outermost sphere first.
    Raises, before any partition is built, if one partition would hold more
    than max_elements cells: only the factors are built, so the rotations,
    their product, may number more.  The grid keeps max_elements as the cap
    on its flat rows.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    deltas = tuple(float(d) for d in delta_list)
    if len(deltas) != n:
        raise ValueError(f"need {n} diameter caps, got {len(deltas)}")
    if min(deltas) <= 0:
        raise ValueError(f"diameter caps must be positive, got {deltas}")
    for J in range(1, n + 1):
        if _cell_count(J, deltas[n - J], max_elements) > max_elements:
            raise ValueError(
                f"S^{J} factor of the rotation grid would hold more than {max_elements} "
                "elements, the cap; increase the caps in delta_list or raise max_elements"
            )
    parts = [_partition(J, deltas[n - J]) for J in range(n, 0, -1)]
    return RotationGrid(
        deltas, tuple(p.centres for p in parts), tuple(p.measures for p in parts), max_elements
    )


def _rotate(n: int, euler, v: np.ndarray) -> np.ndarray:
    """R v for a batch of angle rows, shape (..., n(n+1)/2), and v of shape
    (..., n+1, k), overwriting v.

    The planar factors of rotation_matrix act on the rows of v, innermost
    first, so each costs two rows of v instead of a matrix product.
    """
    euler = np.asarray(euler, dtype=float)
    m = n * (n + 1) // 2
    if euler.ndim == 0 or euler.shape[-1] != m:
        raise ValueError(f"need {m} angles, got {euler.shape}")
    # block J starts at m - J(J+1)/2, the outer block J = n at 0; T_1 acts first
    for J in range(1, n + 1):
        offset = m - J * (J + 1) // 2
        for i in range(J):
            a = euler[..., offset + i, None]
            c, s = np.cos(a), np.sin(a)
            lo, hi = n - J + i, n - J + i + 1
            lo_new = c * v[..., lo, :] - s * v[..., hi, :]
            v[..., hi, :] = s * v[..., lo, :] + c * v[..., hi, :]
            v[..., lo, :] = lo_new
    return v


def rotation_matrix(n: int, euler) -> np.ndarray:
    """Assemble the (n+1) x (n+1) matrix from the nested Euler angles.

    The x^J block (theta_1 .. theta_{J-1}, phi) contributes the factor
    T_J = P_n(phi) P_{n-1}(theta_{J-1}) ... P_{n-J+1}(theta_1) with P_i the
    planar rotation in coordinates (x_i, x_i+1); blocks multiply outer first.
    T_n applied to e_1 reproduces the sphere point with those angles.  A
    batch of angle rows, shape (..., n(n+1)/2), gives shape (..., n+1, n+1).
    """
    batch = np.shape(euler)[:-1]
    return _rotate(n, euler, np.broadcast_to(np.eye(n + 1), batch + (n + 1, n + 1)).copy())
