"""Measurement grid: combinations, rescaled distances, and designs.

The search domain is a rectangular lattice of (m, k) input combinations.
The two axes live on very different numeric scales, so every distance in
the package is Euclidean on (m, k * k_scale); with the default k_scale of
0.1 one k-axis step of 10 weighs the same as one m-axis step of 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DuplicateLocationError

# Absolute tolerance for deciding that a coordinate sits on a lattice node.
SNAP_TOL = 1e-9

# Largest grid the planner accepts (18x the 5,600-cell benchmark grid).
# Grid solves, indicators and the point list all grow with the point count.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class Combination:
    """One (m, k) input combination.

    Instances compare equal iff both coordinates are exactly equal, so all
    construction paths snap coordinates through the same lattice arithmetic
    (see :meth:`GridSpec.snap`) before building one.
    """

    m: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.k)):
            raise ConfigurationError(f"combination coordinates must be finite, got ({self.m}, {self.k})")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of measurable combinations.

    Each axis is min..max inclusive with a fixed stride; the span must be an
    integer number of strides.  ``k_scale`` multiplies the k axis in every
    distance computation.
    """

    m_min: float
    m_max: float
    m_stride: float
    k_min: float
    k_max: float
    k_stride: float
    k_scale: float = 0.1

    def __post_init__(self):
        for axis, lo, hi, stride in (
            ("m", self.m_min, self.m_max, self.m_stride),
            ("k", self.k_min, self.k_max, self.k_stride),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(stride)):
                raise ConfigurationError(f"grid {axis}-axis bounds and stride must be finite")
            if stride <= 0:
                raise ConfigurationError(f"grid {axis}_stride must be positive, got {stride}")
            if hi < lo:
                raise ConfigurationError(f"grid {axis}_max {hi} is below {axis}_min {lo}")
            steps = (hi - lo) / stride
            if not steps < MAX_GRID_POINTS:
                raise ConfigurationError(
                    f"grid {axis}-axis has {steps + 1:.3g} points, more than the limit of {MAX_GRID_POINTS}"
                )
            if abs(steps - round(steps)) > SNAP_TOL:
                raise ConfigurationError(
                    f"grid {axis}-axis span {hi - lo} is not an integer multiple of stride {stride}"
                )
        if self.point_count > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"grid has {self.point_count} points, more than the limit of {MAX_GRID_POINTS}"
            )
        if not math.isfinite(self.k_scale) or self.k_scale <= 0:
            raise ConfigurationError(f"k_scale must be positive and finite, got {self.k_scale}")

    @property
    def m_count(self) -> int:
        return int(round((self.m_max - self.m_min) / self.m_stride)) + 1

    @property
    def k_count(self) -> int:
        return int(round((self.k_max - self.k_min) / self.k_stride)) + 1

    @property
    def point_count(self) -> int:
        return self.m_count * self.k_count

    def m_value(self, i: int) -> float:
        return float(self.m_min + i * self.m_stride)

    def k_value(self, j: int) -> float:
        return float(self.k_min + j * self.k_stride)

    def scaled_diameter(self) -> float:
        """Largest possible scaled distance between two domain points."""
        return math.hypot(self.m_max - self.m_min, (self.k_max - self.k_min) * self.k_scale)

    def nearest_neighbor_spacing(self) -> float:
        """Smallest scaled distance between two adjacent grid points."""
        return min(self.m_stride, self.k_stride * self.k_scale)

    def m_values(self) -> np.ndarray:
        """The m axis: m_value(i) for every i, ascending."""
        return np.array([self.m_value(i) for i in range(self.m_count)], dtype=float)

    def k_values(self) -> np.ndarray:
        """The k axis: k_value(j) for every j, ascending."""
        return np.array([self.k_value(j) for j in range(self.k_count)], dtype=float)

    def snap(self, m: float, k: float) -> Combination:
        """Map raw coordinates onto the lattice node they designate.

        Raises ConfigurationError when the point is off-grid by more than
        SNAP_TOL or outside the domain.  The returned Combination carries the
        exact node coordinates, so equality checks against other snapped
        combinations are reliable.
        """
        i = (m - self.m_min) / self.m_stride
        j = (k - self.k_min) / self.k_stride
        if not (math.isfinite(i) and math.isfinite(j)
                and 0 <= round(i) < self.m_count and 0 <= round(j) < self.k_count):
            raise ConfigurationError(f"point ({m}, {k}) lies outside the grid domain")
        sm, sk = self.m_value(round(i)), self.k_value(round(j))
        if abs(m - sm) > SNAP_TOL or abs(k - sk) > SNAP_TOL:
            raise ConfigurationError(f"point ({m}, {k}) is not on the measurement grid")
        return Combination(sm, sk)

    def flat_indices(self, locations) -> np.ndarray:
        """Row-major index (see point) of each location, an int64 array
        aligned with locations: -1 where a location is not exactly a grid point."""
        m = np.fromiter((c.m for c in locations), float, len(locations))
        k = np.fromiter((c.k for c in locations), float, len(locations))
        flat = np.full(len(locations), -1, dtype=np.int64)
        with np.errstate(over="ignore"):
            i = np.rint((m - self.m_min) / self.m_stride)
            j = np.rint((k - self.k_min) / self.k_stride)
            on = ((0 <= i) & (i < self.m_count) & (self.m_min + i * self.m_stride == m)
                  & (0 <= j) & (j < self.k_count) & (self.k_min + j * self.k_stride == k))
        flat[on] = i[on].astype(np.int64) * self.k_count + j[on].astype(np.int64)
        return flat

    def flat_index(self, c: Combination) -> int | None:
        """Row-major index of the grid point equal to c, or None when c is
        not exactly a grid point."""
        index = int(self.flat_indices([c])[0])
        return index if index >= 0 else None

    def point(self, index: int) -> Combination:
        """The grid point at row-major position index, the inverse of flat_index."""
        i, j = divmod(index, self.k_count)
        return Combination(self.m_value(i), self.k_value(j))

    def contains(self, c: Combination) -> bool:
        return bool(self.flat_indices([c])[0] >= 0)


@dataclass(frozen=True)
class Measurement:
    """A measured response at one grid combination."""

    location: Combination
    response: float

    def __post_init__(self):
        if not math.isfinite(self.response) or self.response < 0:
            raise ConfigurationError(
                f"response at ({self.location.m}, {self.location.k}) must be finite and >= 0, "
                f"got {self.response}"
            )


def build_grid(spec: GridSpec) -> list[Combination]:
    """All grid combinations in row-major order: m ascending, k inner."""
    k_axis = spec.k_values().tolist()
    return [Combination(m, k) for m in spec.m_values().tolist() for k in k_axis]


def distance(a: Combination, b: Combination, spec: GridSpec) -> float:
    """Euclidean distance after rescaling the k axis by spec.k_scale."""
    return math.hypot(a.m - b.m, (a.k - b.k) * spec.k_scale)


def offset_distances(spec: GridSpec) -> np.ndarray:
    """Scaled distance between two grid points by their index offset.

    Entry [m_count - 1 + di, k_count - 1 + dj] is the distance between points
    di rows and dj columns apart, for every offset the grid holds: a
    (2 * m_count - 1, 2 * k_count - 1) array, symmetric under reversal of
    both axes.  It agrees with the distance of the two points' scaled
    coordinates (m, k * k_scale) to within a few ulps of the largest
    coordinate: the coordinates round, the offsets do not.  Where every
    scaled coordinate is an integer the two are equal.  Each
    kriging.KrigingSystem evaluates its variogram over this table once and
    gathers every semivariance it needs from it; pair_distances gives the
    entries at chosen offsets alone, for variogram.empirical_variogram's
    pair lags.
    """
    return _offset_length(spec, np.arange(1 - spec.m_count, spec.m_count)[:, None],
                          np.arange(1 - spec.k_count, spec.k_count))


def _offset_length(spec: GridSpec, di: np.ndarray, dj: np.ndarray) -> np.ndarray:
    """Scaled length of the index offsets di rows and dj columns, which broadcast."""
    return np.sqrt((di * spec.m_stride) ** 2 + (dj * spec.k_stride * spec.k_scale) ** 2)


def grid_indices(spec: GridSpec, locations, what: str) -> np.ndarray:
    """Row-major indices of locations on spec's grid; ConfigurationError,
    naming the first, when any location is not a grid point."""
    flat = spec.flat_indices(locations)
    off = np.flatnonzero(flat < 0)
    if off.size:
        c = locations[int(off[0])]
        raise ConfigurationError(f"{what} ({c.m}, {c.k}) is not a point of the grid")
    return flat


def pair_distances(spec: GridSpec, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Scaled distances between the grid points at row-major indices src and
    dst, which broadcast: offset_distances at each pair's index offset, bit
    for bit, computed for those offsets alone rather than read from the
    whole table."""
    (i, j), (ii, jj) = np.divmod(src, spec.k_count), np.divmod(dst, spec.k_count)
    return _offset_length(spec, ii - i, jj - j)


def ensure_unique_locations(measurements) -> None:
    # Combinations are equal exactly when their (m, k) tuples are, and the
    # tuples hash without a Python-level __hash__ call.
    seen = set()
    for meas in measurements:
        loc = meas.location
        key = (loc.m, loc.k)
        if key in seen:
            raise DuplicateLocationError(f"duplicate measurement at ({loc.m}, {loc.k})")
        seen.add(key)


def evenly_spaced_design(spec: GridSpec, n_m: int, n_k: int) -> list[Combination]:
    """Space-filling sub-lattice of n_m x n_k grid points, row-major.

    Indices are spread as evenly as the lattice allows; useful as a default
    initial design when no prior measurements exist.
    """
    if n_m < 1 or n_k < 1:
        raise ConfigurationError("design dimensions must be at least 1x1")
    if n_m > spec.m_count or n_k > spec.k_count:
        raise ConfigurationError(
            f"design {n_m}x{n_k} does not fit a {spec.m_count}x{spec.k_count} grid"
        )
    i_idx = np.unique(np.round(np.linspace(0, spec.m_count - 1, n_m)).astype(int))
    j_idx = np.unique(np.round(np.linspace(0, spec.k_count - 1, n_k)).astype(int))
    return [Combination(spec.m_value(int(i)), spec.k_value(int(j))) for i in i_idx for j in j_idx]
