import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from krigplan import (
    Combination,
    ConfigurationError,
    DuplicateLocationError,
    GridSpec,
    Measurement,
    build_grid,
    distance,
    evenly_spaced_design,
)
from krigplan.grid import (
    MAX_GRID_POINTS,
    ensure_unique_locations,
    offset_distances,
    pair_distances,
)
from krigplan.variogram import FAMILIES, VariogramModel, eval_model


def test_grid_counts(study_grid):
    assert study_grid.m_count == 12
    assert study_grid.k_count == 60
    assert study_grid.point_count == 720


def test_build_grid_row_major(study_grid):
    grid = build_grid(study_grid)
    assert len(grid) == 720
    assert grid[0] == Combination(0.5, 1.0)
    assert grid[1] == Combination(0.5, 2.0)
    assert grid[60] == Combination(1.0, 1.0)
    assert grid[-1] == Combination(6.0, 60.0)


@pytest.mark.parametrize("m, k", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, math.nan)])
def test_combination_rejects_non_finite_coordinates(m, k):
    with pytest.raises(ConfigurationError, match="combination coordinates must be finite"):
        Combination(m, k)


def test_distance_mixes_axes_by_k_scale(study_grid):
    # one m-step and ten k-steps contribute equally after scaling
    d = distance(Combination(0.0, 0.0), Combination(1.0, 10.0), study_grid)
    assert d == pytest.approx(math.sqrt(2.0))


def test_distance_symmetry(study_grid):
    a, b = Combination(2.0, 7.0), Combination(4.5, 31.0)
    assert distance(a, b, study_grid) == distance(b, a, study_grid)


def test_scaled_diameter(study_grid):
    # corners are (0.5, 1) and (6.0, 60): sqrt(5.5^2 + 5.9^2)
    assert study_grid.scaled_diameter() == pytest.approx(math.hypot(5.5, 5.9))


def test_nearest_neighbor_spacing(study_grid):
    # k-stride of 1 scaled by 0.1 is tighter than the 0.5 m-stride
    assert study_grid.nearest_neighbor_spacing() == pytest.approx(0.1)


def test_snap_returns_exact_node_values(study_grid):
    c = study_grid.snap(2.4999999999, 13.0000000001)
    assert c == Combination(2.5, 13.0)
    assert isinstance(c.m, float) and isinstance(c.k, float)


def test_snap_rejects_off_grid(study_grid):
    with pytest.raises(ConfigurationError):
        study_grid.snap(2.75, 13.0)
    with pytest.raises(ConfigurationError):
        study_grid.snap(2.5, 13.4)


def test_snap_rejects_out_of_range(study_grid):
    with pytest.raises(ConfigurationError):
        study_grid.snap(6.5, 13.0)
    with pytest.raises(ConfigurationError):
        study_grid.snap(2.5, 0.0)
    for m in (float("nan"), float("inf"), -1.7e308):
        with pytest.raises(ConfigurationError):
            study_grid.snap(m, 13.0)


def test_contains(study_grid):
    assert study_grid.contains(Combination(0.5, 1.0))
    assert study_grid.contains(Combination(6.0, 60.0))
    assert not study_grid.contains(Combination(0.25, 1.0))
    assert not study_grid.contains(Combination(0.5, 61.0))


def test_grid_spec_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(5.0, 1.0, 1.0, 1.0, 5.0, 1.0)  # max below min
    with pytest.raises(ConfigurationError):
        GridSpec(1.0, 5.0, 0.0, 1.0, 5.0, 1.0)  # zero stride
    with pytest.raises(ConfigurationError):
        GridSpec(1.0, 5.0, 1.0, 1.0, 5.0, 1.0, k_scale=-0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(1.0, 5.0, 1.5, 1.0, 5.0, 1.0)  # span not a stride multiple


def test_grid_spec_point_limit():
    assert GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0).point_count == 5600  # benchmark grid
    assert GridSpec(1.0, 100.0, 1.0, 1.0, 1000.0, 1.0).point_count == MAX_GRID_POINTS
    for args in ((0.5, 3.0, 1e-300, 1.0, 30.0, 1.0),   # about 2.5e300 m-levels
                 (0.5, 1e300, 0.5, 1.0, 30.0, 1.0),
                 (1.0, 2.0, 1.0, 1.0, 1e300, 1.0),
                 (-1e308, 1e308, 1.0, 1.0, 30.0, 1.0),  # span overflows to inf
                 (1.0, 11.0, 1.0, 1.0, 9091.0, 1.0)):  # 100,001 points
        with pytest.raises(ConfigurationError, match="limit"):
            GridSpec(*args)


def test_measurement_validation(study_grid):
    Measurement(Combination(1.0, 3.0), 0.0)  # zero response is allowed
    with pytest.raises(ConfigurationError):
        Measurement(Combination(1.0, 3.0), -0.5)
    with pytest.raises(ConfigurationError):
        Measurement(Combination(1.0, 3.0), float("nan"))


def test_ensure_unique_locations(study_grid):
    a = Measurement(Combination(1.0, 3.0), 2.0)
    b = Measurement(Combination(1.0, 4.0), 2.0)
    ensure_unique_locations([a, b])
    with pytest.raises(DuplicateLocationError):
        ensure_unique_locations([a, b, Measurement(Combination(1.0, 3.0), 5.0)])


def test_evenly_spaced_design(study_grid):
    design = evenly_spaced_design(study_grid, 3, 4)
    assert len(design) == 12
    ms = sorted({c.m for c in design})
    ks = sorted({c.k for c in design})
    assert ms[0] == 0.5 and ms[-1] == 6.0  # endpoints included
    assert len(ms) == 3
    assert ks[0] == 1.0 and ks[-1] == 60.0
    for c in design:
        assert study_grid.contains(c)


def test_evenly_spaced_design_degenerate_axis(study_grid):
    design = evenly_spaced_design(study_grid, 1, 2)
    assert len(design) == 2
    assert all(c.m == 0.5 for c in design)


def scaled_coords(locations, spec: GridSpec) -> np.ndarray:
    """(n, 2) array of (m, k * k_scale) coordinates of Combinations."""
    out = np.array([(c.m, c.k * spec.k_scale) for c in locations], dtype=float)
    return out.reshape(len(locations), 2)


def lattice_coords(spec: GridSpec) -> np.ndarray:
    """(P, 2) scaled coordinates of every grid point in row-major order,
    equal to scaled_coords(build_grid(spec), spec) without the Combinations."""
    return np.column_stack([
        np.repeat(spec.m_values(), spec.k_count),
        np.tile(spec.k_values() * spec.k_scale, spec.m_count),
    ])


def test_scaled_coords_matches_distance(study_grid):
    grid = build_grid(study_grid)[:40]
    pts = scaled_coords(grid, study_grid)
    for i in (0, 7, 25):
        for j in (3, 18, 39):
            expect = distance(grid[i], grid[j], study_grid)
            assert np.hypot(*(pts[i] - pts[j])) == pytest.approx(expect)


@pytest.mark.parametrize("spec", [
    GridSpec(0.5, 6.0, 0.5, 1.0, 60.0, 1.0, k_scale=0.1),
    GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1),
    GridSpec(-1.0, 1.4, 0.3, 0.0, 2.1, 0.7, k_scale=0.37),
    GridSpec(2.0, 2.0, 1.0, -5.0, 5.0, 2.5, k_scale=3.0),   # one m level
    GridSpec(0.1, 0.7, 0.1, 7.0, 7.0, 1.0),                 # one k level
])
def test_lattice_arithmetic_matches_build_grid(spec):
    """Axes, scaled coordinates and flat indices from the lattice arithmetic
    equal those of the Combination list, bit for bit."""
    grid = build_grid(spec)
    assert np.array_equal(lattice_coords(spec), scaled_coords(grid, spec))
    assert spec.m_values().tolist() == sorted({c.m for c in grid})
    assert spec.k_values().tolist() == sorted({c.k for c in grid})
    assert [spec.point(p) for p in range(len(grid))] == grid
    assert [spec.flat_index(c) for c in grid] == list(range(len(grid)))
    step = Combination(grid[-1].m, grid[-1].k + spec.k_stride)
    off = [Combination(grid[0].m + spec.m_stride / 3, grid[0].k), step,
           Combination(grid[0].m - spec.m_stride, grid[0].k), Combination(grid[0].m + 1e-12, grid[0].k),
           Combination(1e300, 1e300), Combination(-1e308, 1e308)]
    for c in off:
        assert spec.flat_index(c) is None and not spec.contains(c)
    mixed = off + grid[::-1] + off
    lookup = {c: p for p, c in enumerate(grid)}
    flat = spec.flat_indices(mixed)
    assert flat.dtype == np.int64
    assert flat.tolist() == [lookup.get(c, -1) for c in mixed]


OFFSET_GRIDS = [
    GridSpec(0.5, 6.0, 0.5, 1.0, 60.0, 1.0, k_scale=0.1),    # the study grid
    GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1),   # 5,600 cells
    GridSpec(2.0, 2.0, 1.0, 0.5, 30.0, 0.5, k_scale=0.3),    # 1 x k
    GridSpec(0.1, 9.9, 0.1, 4.0, 4.0, 1.0),                  # m x 1
]

# Coordinates carry a rounding error of up to half an ulp each, the index
# offsets none, so the two distances of a pair differ by a few ulps of the
# largest coordinate; relative to a short distance that is up to about 64
# ulps, so the bound is absolute.
OFFSET_ULPS = 4


def offset_pairs(spec):
    """(table gather, cdist) distances from up to 400 sampled nodes to every node."""
    coords = lattice_coords(spec)
    rows = np.random.default_rng(0).choice(len(coords), size=min(len(coords), 400), replace=False)
    i, j = np.divmod(np.arange(len(coords)), spec.k_count)
    gathered = offset_distances(spec)[spec.m_count - 1 + i - i[rows, None],
                                      spec.k_count - 1 + j - j[rows, None]]
    return gathered, cdist(coords[rows], coords), np.finfo(float).eps * np.abs(coords).max()


@pytest.mark.parametrize("spec", OFFSET_GRIDS)
def test_offset_distances_match_coordinate_distances(spec):
    table = offset_distances(spec)
    assert table.shape == (2 * spec.m_count - 1, 2 * spec.k_count - 1)
    assert table[spec.m_count - 1, spec.k_count - 1] == 0.0
    assert np.array_equal(table, table[::-1, ::-1])
    gathered, direct, ulp = offset_pairs(spec)
    assert np.array_equal(gathered == 0.0, direct == 0.0)
    np.testing.assert_allclose(gathered, direct, rtol=0, atol=OFFSET_ULPS * ulp)


@pytest.mark.parametrize("spec", OFFSET_GRIDS)
def test_pair_distances_are_the_table_entries(spec):
    """pair_distances computes each pair's offset length alone, bit for bit
    the offset_distances entry at that offset, whichever point comes first."""
    rows = np.random.default_rng(1).choice(spec.point_count, size=min(spec.point_count, 60), replace=False)
    i, j = np.divmod(rows, spec.k_count)
    gathered = offset_distances(spec)[spec.m_count - 1 + i - i[:, None], spec.k_count - 1 + j - j[:, None]]
    assert np.array_equal(pair_distances(spec, rows[:, None], rows), gathered)
    assert np.array_equal(pair_distances(spec, rows, rows[:, None]), gathered.T)


@pytest.mark.parametrize("spec", OFFSET_GRIDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_offset_semivariances_match_coordinate_semivariances(spec, family):
    """Every family's gamma over the table: 0 exactly at zero offset, and off
    by no more than its steepest slope (1.5 sill / range) times the distance
    error, plus a few ulps of nugget + sill for its own rounding."""
    model = VariogramModel(family, 0.05, 1.5, 0.8)
    table = eval_model(model, offset_distances(spec))
    assert table[spec.m_count - 1, spec.k_count - 1] == 0.0
    assert np.array_equal(table, table[::-1, ::-1])
    gathered, direct, ulp = offset_pairs(spec)
    g, d = eval_model(model, gathered), eval_model(model, direct)
    assert np.array_equal(g == 0.0, direct == 0.0)
    atol = 1.5 * model.sill / model.range * OFFSET_ULPS * ulp \
        + OFFSET_ULPS * np.finfo(float).eps * (model.nugget + model.sill)
    np.testing.assert_allclose(g, d, rtol=0, atol=atol)
