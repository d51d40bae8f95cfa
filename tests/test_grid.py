import math

import numpy as np
import pytest

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
from krigplan.grid import MAX_GRID_POINTS, ensure_unique_locations, lattice_coords, scaled_coords


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
    rows, flat = spec.flat_indices(mixed)
    assert rows.tolist() == [r for r, c in enumerate(mixed) if c in lookup]
    assert flat.tolist() == [lookup[mixed[r]] for r in rows.tolist()]
