import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.spatial.distance import cdist

from krigplan import (
    Combination,
    ConfigurationError,
    DuplicateLocationError,
    GridSpec,
    InsufficientDataError,
    Measurement,
    NumericalFailureError,
    VariogramModel,
    assemble_system,
    build_grid,
    evenly_spaced_design,
    predict,
    predict_grid,
    predict_lattice,
    solve,
    solve_grid,
)
from krigplan import kriging
from krigplan.kriging import (
    CONDITION_LIMIT,
    Z_QUANTILES,
    KrigingSystem,
    solve_lattice,
    z_quantile,
)
from krigplan.variogram import FAMILIES, eval_model

from conftest import (
    brute_force_weights,
    mspe,
    random_measurements,
    semivariance_matrices,
)
from test_grid import OFFSET_ULPS, lattice_coords

SPH = VariogramModel("spherical", 0.025, 2.0, 0.5)
EPS = np.finfo(float).eps


def unit_grid(n=8):
    return GridSpec(1.0, float(n), 1.0, 1.0, float(n), 1.0, k_scale=1.0)


# --- quantile table ----------------------------------------------------------

def test_z_quantile_table():
    assert z_quantile(0.5) == 0.674
    assert z_quantile(0.25) == 1.150
    assert z_quantile(0.1) == 1.645
    assert z_quantile(0.05) == 1.960
    assert z_quantile(0.01) == 2.576


def test_z_quantile_rejects_unknown_alpha():
    with pytest.raises(ConfigurationError):
        z_quantile(0.2)


# --- system assembly ---------------------------------------------------------

def test_single_point_system_matrix():
    spec = unit_grid()
    system = assemble_system([Measurement(Combination(1.0, 1.0), 2.0)], SPH, spec)
    np.testing.assert_array_equal(system.matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_single_point_solution():
    spec = unit_grid()
    system = assemble_system([Measurement(Combination(1.0, 1.0), 2.0)], SPH, spec)
    target = Combination(1.0, 3.0)
    weights, sigma2 = solve(system, target)
    np.testing.assert_allclose(weights.weights, [1.0])
    gamma = float(eval_model(SPH, 2.0))
    assert sigma2 == pytest.approx(2.0 * gamma)
    assert weights.lagrange == pytest.approx(-gamma)


def test_initial_design_system_structure(study_grid):
    """12 evenly spaced points give a symmetric 13x13 bordered matrix."""
    design = evenly_spaced_design(study_grid, 3, 4)
    ms = [Measurement(c, 2.0 + 0.1 * i) for i, c in enumerate(design)]
    system = assemble_system(ms, SPH, study_grid)
    mat = system.matrix
    assert mat.shape == (13, 13)
    np.testing.assert_array_equal(mat, mat.T)
    np.testing.assert_array_equal(np.diag(mat)[:12], np.zeros(12))
    np.testing.assert_array_equal(mat[12, :12], np.ones(12))
    assert mat[12, 12] == 0.0


def test_system_rejects_empty_and_duplicates(study_grid):
    with pytest.raises(InsufficientDataError):
        assemble_system([], SPH, study_grid)
    dup = [
        Measurement(Combination(1.0, 3.0), 2.0),
        Measurement(Combination(1.0, 3.0), 2.5),
    ]
    with pytest.raises(DuplicateLocationError):
        assemble_system(dup, SPH, study_grid)


def test_ill_conditioned_system_raises():
    spec = GridSpec(0.5, 6.0, 0.5, 1.0, 60.0, 1.0, k_scale=0.1)
    # adjacent grid points under a near-flat long-range model are numerically
    # indistinguishable
    flat = VariogramModel("gaussian", 0.0, 1e6, 1.0)
    ms = [Measurement(Combination(1.0, 3.0), 2.0), Measurement(Combination(1.0, 4.0), 2.1)]
    system = assemble_system(ms, flat, spec)
    with pytest.raises(NumericalFailureError) as exc:
        solve(system, Combination(2.0, 10.0))
    assert "ill-conditioned" in str(exc.value)
    assert "nearest locations are (1.0, 3.0) and (1.0, 4.0)" in str(exc.value)


def test_failed_factorization_names_the_nearest_pair():
    spec = GridSpec(0.5, 6.0, 0.5, 1.0, 60.0, 1.0, k_scale=0.1)
    ms = [Measurement(Combination(1.0, 3.0), 2.0), Measurement(Combination(4.0, 50.0), 2.4),
          Measurement(Combination(1.5, 5.0), 2.1)]
    system = assemble_system(ms, SPH, spec)
    with mock.patch.object(np.linalg, "inv", side_effect=np.linalg.LinAlgError("singular matrix")), \
            pytest.raises(NumericalFailureError) as exc:
        solve_lattice(system)
    assert str(exc.value) == ("kriging system factorization failed (singular matrix); "
                              "nearest locations are (1.0, 3.0) and (1.5, 5.0)")
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


OFF_GRID = [Combination(1.25, 3.0), Combination(7.0, 3.0), Combination(2.0, 2.5)]


@pytest.mark.parametrize("point", OFF_GRID, ids=["between-nodes", "outside", "off-k"])
def test_off_grid_measurement_is_rejected(study_grid, point):
    """Kriging reads semivariances by grid index offset, so a measurement off
    the grid is a configuration error, named, through every entry point."""
    ms = [Measurement(Combination(1.0, 3.0), 2.0), Measurement(point, 2.5),
          Measurement(Combination(9.0, 3.0), 3.0)]
    message = f"location ({point.m}, {point.k}) is not a point of the grid"
    calls = (lambda: assemble_system(ms, SPH, study_grid),
             lambda: predict(ms, SPH, study_grid, Combination(2.0, 10.0)),
             lambda: predict_lattice(ms, SPH, study_grid))
    for call in calls:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("point", OFF_GRID, ids=["between-nodes", "outside", "off-k"])
def test_off_grid_target_is_rejected(study_grid, point):
    """The same for a target, named, even under a degenerate model, whose
    solve would be refused."""
    ms = [Measurement(Combination(1.0, 3.0), 2.0), Measurement(Combination(3.0, 20.0), 5.0)]
    system = assemble_system(ms, SPH, study_grid)
    targets = [Combination(2.0, 10.0), point, Combination(0.0, 10.0)]
    message = f"kriging target ({point.m}, {point.k}) is not a point of the grid"
    calls = (lambda: solve_grid(system, targets),
             lambda: solve(system, point),
             lambda: predict(ms, SPH, study_grid, point),
             lambda: predict_grid(ms, VariogramModel("spherical", 0.0, 1.0, 0.0), study_grid, targets))
    for call in calls:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            call()


# --- the semivariance table --------------------------------------------------

def table_layout(data, integer_coords):
    """(spec, measurements, model) on a drawn lattice layout; with
    integer_coords every scaled coordinate is an integer."""
    n_m, n_k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 12))
    if integer_coords:
        m_stride, k_stride = data.draw(st.sampled_from([1.0, 2.0])), data.draw(st.sampled_from([1.0, 3.0]))
        k_scale = data.draw(st.sampled_from([1.0, 2.0]))
        m_min, k_min = 1.0, 1.0
    else:
        m_stride, k_stride = data.draw(st.sampled_from([0.1, 0.5, 0.3])), data.draw(st.sampled_from([1.0, 0.2, 3.0]))
        k_scale = data.draw(st.sampled_from([0.1, 1.0, 0.37]))
        m_min, k_min = 0.5, 1.0
    spec = GridSpec(m_min, m_min + (n_m - 1) * m_stride, m_stride,
                    k_min, k_min + (n_k - 1) * k_stride, k_stride, k_scale=k_scale)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ms = random_measurements(rng, spec, data.draw(st.integers(1, min(15, spec.point_count))))
    model = VariogramModel(data.draw(st.sampled_from(FAMILIES)), data.draw(st.floats(0.0, 0.5)),
                           data.draw(st.floats(0.1, 8.0)), data.draw(st.floats(0.0, 3.0)))
    return spec, ms, model


def coordinate_semivariances(system):
    """(Gamma, lattice right-hand sides) from eval_model over cdist of the
    scaled coordinates, the assembly the table replaces."""
    coords = lattice_coords(system.spec)
    points = coords[system.flat]
    return eval_model(system.model, cdist(points, points)), eval_model(system.model, cdist(points, coords))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_table_gathers_are_symmetric_and_consistent(data):
    """The lattice holds each measurement's table entry at its index offset
    to every grid point, with the border of ones; the matrix is exactly
    symmetric and equals the lattice columns of the measurements bit for bit;
    and solve_grid solves, at any flat indices (repeats and measured points
    among them), against those lattice columns."""
    spec, ms, model = table_layout(data, integer_coords=data.draw(st.booleans()))
    system = assemble_system(ms, model, spec)
    n, mat, lattice = system.n, system.matrix, system.lattice
    assert lattice.shape == (n + 1, spec.point_count)
    i, j = np.divmod(system.flat[:, None], spec.k_count)
    ip, jp = np.divmod(np.arange(spec.point_count), spec.k_count)
    expected = system.table[spec.m_count - 1 + ip - i, spec.k_count - 1 + jp - j]
    assert np.array_equal(lattice[:n], expected)
    assert np.array_equal(lattice[n], np.ones(spec.point_count))
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(np.diag(mat), np.zeros(n + 1))
    assert np.array_equal(mat[:, :n], lattice[:, system.flat])
    assert mat[n, n] == 0.0

    rng = np.random.default_rng(0)
    flat = np.concatenate([rng.integers(0, spec.point_count, size=7), system.flat, system.flat[:1]])
    with mock.patch("krigplan.kriging._solve", wraps=kriging._solve) as solve_spy:
        try:
            solution = solve_grid(system, [spec.point(int(f)) for f in flat])
        except NumericalFailureError:  # ill-conditioned, or a bounded-linear fit in 2-D
            solution = None
    _, solved_flat, rhs = solve_spy.call_args.args
    assert np.array_equal(solved_flat, flat)
    assert np.array_equal(rhs, lattice[:, flat])
    assert solution is None or solution.rhs is rhs


def test_lattice_is_read_only(study_grid):
    """The system's lattice is the planner's right-hand sides: a write to
    it raises instead of corrupting a later solve on the same system."""
    ms = [Measurement(Combination(1.0, 3.0), 2.0), Measurement(Combination(3.0, 20.0), 5.0)]
    system = assemble_system(ms, SPH, study_grid)
    before = solve_lattice(system)
    with pytest.raises(ValueError, match="read-only"):
        system.lattice[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        system.lattice[:, system.flat] *= 2.0
    for first, again in zip(before, solve_lattice(system)):
        assert np.array_equal(first, again)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_solve_grid_on_the_whole_grid_equals_solve_lattice(data):
    """solve_grid on build_grid(spec), the call the benchmark set-up makes,
    equals solve_lattice bit for bit in means, variances and solution, or
    both raise the same NumericalFailureError."""
    spec, ms, model = table_layout(data, integer_coords=data.draw(st.booleans()))
    check_whole_grid_solve(assemble_system(ms, model, spec))


def test_solve_grid_on_the_large_grid_equals_solve_lattice():
    """The same on the 5,600-cell grid with the 8x10 design."""
    spec = GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1)
    ms = [Measurement(c, float(i % 7)) for i, c in enumerate(evenly_spaced_design(spec, 8, 10))]
    check_whole_grid_solve(assemble_system(ms, SPH, spec))


def check_whole_grid_solve(system):
    results = []
    for call in (lambda: solve_lattice(system), lambda: solve_grid(system, build_grid(system.spec))):
        try:
            results.append(call())
        except NumericalFailureError as exc:
            results.append(str(exc))
    lattice, grid = results
    if isinstance(lattice, str):
        assert grid == lattice
        return
    means, variances, solution = lattice
    assert np.array_equal(grid.means, means)
    assert np.array_equal(grid.variances, variances)
    assert np.array_equal(grid.solution, solution)
    assert np.array_equal(grid.rhs, system.lattice)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_table_equals_coordinate_semivariances_on_integer_coordinates(data):
    """With integer scaled coordinates both distances are exact, so the
    gathered Gamma and right-hand sides equal eval_model over cdist exactly
    (criterion 5's grids are of this kind)."""
    spec, ms, model = table_layout(data, integer_coords=True)
    system = assemble_system(ms, model, spec)
    gamma, rhs = coordinate_semivariances(system)
    assert np.array_equal(system.matrix[: system.n, : system.n], gamma)
    assert np.array_equal(system.lattice[: system.n], rhs)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_table_matches_coordinate_semivariances_within_the_slope_bound(data):
    """Elsewhere the table's distances are a few ulps from the coordinates'
    (test_grid's OFFSET_ULPS), so each semivariance moves by at most the
    steepest slope (1.5 sill / range) times that, plus its own rounding."""
    spec, ms, model = table_layout(data, integer_coords=False)
    system = assemble_system(ms, model, spec)
    gamma, rhs = coordinate_semivariances(system)
    ulp = EPS * np.abs(lattice_coords(spec)).max()
    atol = 1.5 * model.sill / model.range * OFFSET_ULPS * ulp + OFFSET_ULPS * EPS * (model.nugget + model.sill)
    np.testing.assert_allclose(system.matrix[: system.n, : system.n], gamma, rtol=0, atol=atol)
    np.testing.assert_allclose(system.lattice[: system.n], rhs, rtol=0, atol=atol)


# --- optimality against independent references -------------------------------

def test_weights_match_null_space_solver():
    spec = unit_grid()
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        ms = random_measurements(rng, spec, n)
        family = FAMILIES[trial % 4]
        model = VariogramModel(family, float(rng.uniform(0, 0.3)),
                               float(rng.uniform(1.5, 8.0)), float(rng.uniform(0.2, 2.0)))
        target = Combination(float(rng.integers(1, 9)), float(rng.integers(1, 9)))
        if target in {m.location for m in ms}:
            continue
        system = assemble_system(ms, model, spec)
        weights, sigma2 = solve(system, target)
        gamma_nn, gamma_t = semivariance_matrices(ms, target, model, spec)
        expected = brute_force_weights(gamma_nn, gamma_t)
        np.testing.assert_allclose(weights.weights, expected, atol=1e-8)
        assert weights.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert sigma2 == pytest.approx(mspe(weights.weights, gamma_nn, gamma_t), abs=1e-9)


def test_no_random_weight_vector_beats_solver():
    """Sampled unit-sum weight vectors never achieve a lower MSPE."""
    spec = unit_grid()
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5, 6):
        ms = random_measurements(rng, spec, n)
        measured = {m.location for m in ms}
        target = next(c for c in build_grid(spec) if c not in measured)
        system = assemble_system(ms, SPH, spec)
        weights, _ = solve(system, target)
        gamma_nn, gamma_t = semivariance_matrices(ms, target, SPH, spec)
        best = mspe(weights.weights, gamma_nn, gamma_t)

        samples = rng.standard_normal((10_000, n))
        samples += (1.0 - samples.sum(axis=1, keepdims=True)) / n
        values = (-np.einsum("ij,jk,ik->i", samples, gamma_nn, samples)
                  + 2.0 * samples @ gamma_t)
        assert values.min() >= best - 1e-10


# --- prediction behavior ------------------------------------------------------

def test_exact_interpolation_all_families(study_grid):
    rng = np.random.default_rng(4)
    ms = random_measurements(rng, study_grid, 8)
    for family in FAMILIES:
        model = VariogramModel(family, 0.2, 2.0, 1.0)  # nonzero nugget
        preds = predict_grid(ms, model, study_grid, [m.location for m in ms])
        for p, m in zip(preds, ms):
            assert p.mean == pytest.approx(m.response, abs=1e-9)
            assert p.variance < 1e-9


def test_prediction_interval_arithmetic(study_grid):
    ms = [Measurement(Combination(1.0, 3.0), 2.0), Measurement(Combination(3.0, 20.0), 5.0)]
    for alpha, z in Z_QUANTILES.items():
        p = predict(ms, SPH, study_grid, Combination(2.0, 10.0), alpha=alpha)
        half = z * math.sqrt(p.variance)
        assert p.ci_lower == pytest.approx(p.mean - half)
        assert p.ci_upper == pytest.approx(p.mean + half)


def test_prediction_permutation_invariant(study_grid):
    rng = np.random.default_rng(14)
    ms = random_measurements(rng, study_grid, 10)
    target = Combination(3.5, 33.0)
    p1 = predict(ms, SPH, study_grid, target)
    p2 = predict(list(reversed(ms)), SPH, study_grid, target)
    assert p1.mean == pytest.approx(p2.mean, abs=1e-10)
    assert p1.variance == pytest.approx(p2.variance, abs=1e-10)


def test_mean_scales_with_responses(study_grid):
    rng = np.random.default_rng(15)
    ms = random_measurements(rng, study_grid, 6)
    target = Combination(2.5, 17.0)
    base = predict(ms, SPH, study_grid, target)
    scaled = [Measurement(m.location, 3.0 * m.response) for m in ms]
    p = predict(scaled, SPH, study_grid, target)
    assert p.mean == pytest.approx(3.0 * base.mean, rel=1e-10)
    assert p.variance == pytest.approx(base.variance, rel=1e-10)


def test_mean_shifts_with_responses(study_grid):
    # weights sum to one, so a constant offset passes straight through
    rng = np.random.default_rng(16)
    ms = random_measurements(rng, study_grid, 6)
    target = Combination(2.5, 17.0)
    base = predict(ms, SPH, study_grid, target)
    shifted = [Measurement(m.location, m.response + 2.0) for m in ms]
    p = predict(shifted, SPH, study_grid, target)
    assert p.mean == pytest.approx(base.mean + 2.0, abs=1e-9)


def test_monotone_information(study_grid):
    """Adding a measurement never increases variance at any fixed target."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        ms = random_measurements(rng, study_grid, 7)
        held_out, extra = ms[:6], ms[6]
        system_small = assemble_system(held_out, SPH, study_grid)
        system_big = assemble_system(ms, SPH, study_grid)
        measured = {m.location for m in ms}
        targets = [c for c in build_grid(study_grid)[::37] if c not in measured]
        small = solve_grid(system_small, targets)
        big = solve_grid(system_big, targets)
        assert np.all(big.variances <= small.variances + 1e-9)


def test_solve_grid_matches_solve(study_grid):
    rng = np.random.default_rng(18)
    ms = random_measurements(rng, study_grid, 5)
    system = assemble_system(ms, SPH, study_grid)
    targets = [Combination(1.5, 7.0), Combination(4.0, 40.0), Combination(6.0, 60.0)]
    sol = solve_grid(system, targets)
    for i, t in enumerate(targets):
        weights, sigma2 = solve(system, t)
        assert sol.means[i] == pytest.approx(float(weights.weights @ system.values), abs=1e-12)
        assert sol.variances[i] == pytest.approx(sigma2, abs=1e-12)


def test_variance_zero_at_measured_targets(study_grid):
    rng = np.random.default_rng(19)
    ms = random_measurements(rng, study_grid, 5)
    system = assemble_system(ms, SPH, study_grid)
    sol = solve_grid(system, [ms[2].location])
    assert sol.means[0] == ms[2].response
    assert sol.variances[0] == 0.0


DEGENERATE = VariogramModel("spherical", 0.0, 1.0, 0.0)
DEGENERATE_MESSAGE = r"degenerate \(nugget and sill 0\)"


def test_degenerate_model_refused_at_measured_targets(study_grid):
    """A degenerate model predicts nothing, not even at a measured target,
    whose response it would otherwise reproduce at zero variance."""
    ms = [Measurement(Combination(1.0, 3.0), 4.0), Measurement(Combination(2.0, 9.0), 4.0)]
    for targets in ([ms[0].location], [m.location for m in ms]):
        with pytest.raises(NumericalFailureError, match=DEGENERATE_MESSAGE):
            predict_grid(ms, DEGENERATE, study_grid, targets)


def test_solve_names_a_degenerate_model(study_grid):
    """Every solve and prediction has no weights to use under a degenerate
    model and says why, rather than reporting its singular system as merely
    ill-conditioned."""
    ms = [Measurement(Combination(0.5, 1.0), 4.0), Measurement(Combination(3.0, 1.0), 4.0)]
    system = assemble_system(ms, DEGENERATE, study_grid)
    target = Combination(5.0, 50.0)
    calls = (lambda: solve(system, target),
             lambda: solve_grid(system, [target]),
             lambda: predict(ms, DEGENERATE, study_grid, target),
             lambda: predict_grid(ms, DEGENERATE, study_grid, [target, ms[1].location]),
             lambda: predict_lattice(ms, DEGENERATE, study_grid))
    for call in calls:
        with pytest.raises(NumericalFailureError, match=DEGENERATE_MESSAGE) as exc:
            call()
        assert "ill-conditioned" not in str(exc.value)


def test_degenerate_grid_solve_refused_even_without_targets(study_grid):
    """solve_grid and solve_lattice refuse a degenerate system whatever the
    targets, none included; under a usable model a solve at no targets
    returns empty arrays, the solution distinct from the right-hand sides."""
    ms = [Measurement(Combination(1.0, 3.0), 4.0), Measurement(Combination(2.0, 9.0), 4.0)]
    system = assemble_system(ms, DEGENERATE, study_grid)
    for call in (lambda: solve_grid(system, [Combination(5.0, 50.0), Combination(1.5, 7.0)]),
                 lambda: solve_grid(system, []),
                 lambda: solve_lattice(system)):
        with pytest.raises(NumericalFailureError, match=DEGENERATE_MESSAGE):
            call()
    sol = solve_grid(assemble_system(ms, SPH, study_grid), [])
    assert sol.means.shape == sol.variances.shape == (0,)
    assert sol.rhs.shape == sol.solution.shape == (3, 0)
    assert sol.rhs is not sol.solution
    assert not np.shares_memory(sol.rhs, sol.solution)


def test_predict_requires_measurements(study_grid):
    with pytest.raises(InsufficientDataError):
        predict([], SPH, study_grid, Combination(1.0, 3.0))


# --- the lattice prediction --------------------------------------------------

LATTICE_MODELS = [SPH, VariogramModel("gaussian", 0.1, 3.0, 0.6),
                  VariogramModel("exponential", 0.0, 2.0, 1.0),
                  DEGENERATE]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_predict_lattice_equals_predict_grid(data):
    """Every mean, variance and bound of predict_lattice equals predict_grid's
    on build_grid exactly, measured cells included; under a degenerate model
    both raise the same error."""
    n_m, n_k = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 9))
    m_stride = data.draw(st.sampled_from([1.0, 0.5, 0.1]))
    k_stride = data.draw(st.sampled_from([1.0, 3.0, 0.2]))
    spec = GridSpec(0.5, 0.5 + (n_m - 1) * m_stride, m_stride, 1.0, 1.0 + (n_k - 1) * k_stride, k_stride,
                    k_scale=data.draw(st.sampled_from([0.1, 1.0, 0.37])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ms = random_measurements(rng, spec, data.draw(st.integers(1, min(6, spec.point_count))))
    model = data.draw(st.sampled_from(LATTICE_MODELS))
    alpha = data.draw(st.sampled_from(sorted(Z_QUANTILES)))

    if model.is_degenerate:
        messages = []
        for call in (lambda: predict_lattice(ms, model, spec, alpha=alpha),
                     lambda: predict_grid(ms, model, spec, build_grid(spec), alpha=alpha)):
            with pytest.raises(NumericalFailureError, match=DEGENERATE_MESSAGE) as exc:
                call()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        return
    lattice = predict_lattice(ms, model, spec, alpha=alpha)
    preds = predict_grid(ms, model, spec, build_grid(spec), alpha=alpha)
    for field in ("mean", "variance", "ci_lower", "ci_upper"):
        values = getattr(lattice, field)
        assert values.shape == (spec.m_count, spec.k_count)
        assert values.reshape(-1).tolist() == [getattr(p, field) for p in preds]


def test_negative_variance_names_its_cell_on_both_paths(study_grid):
    """A variance below roundoff raises, naming the first offending grid cell,
    from the lattice prediction and from predict_grid alike."""
    ms = [Measurement(Combination(1.0, 3.0), 2.0), Measurement(Combination(3.0, 20.0), 5.0)]
    original = KrigingSystem.lu
    negated = mock.patch.object(KrigingSystem, "lu", lambda self: -original(self))
    messages = []
    with negated:
        for call in (lambda: predict_lattice(ms, SPH, study_grid),
                     lambda: predict_grid(ms, SPH, study_grid, build_grid(study_grid))):
            with pytest.raises(NumericalFailureError) as exc:
                call()
            messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "at (0.5, 1.0) is negative beyond roundoff" in messages[0]


# --- the solve through the inverse ---------------------------------------------


def refined_lu_lattice(system):
    """(means, variances, condition) of the lattice solved by LU plus one
    step of iterative refinement, measured cells set as solve_lattice does."""
    mat, rhs = system.matrix, system.lattice
    lu = lu_factor(mat)
    x = lu_solve(lu, rhs)
    x += lu_solve(lu, rhs - mat @ x)
    means, variances = system.values @ x[: system.n], np.einsum("ip,ip->p", rhs, x)
    means[system.flat], variances[system.flat] = system.values, 0.0
    return means, np.maximum(variances, 0.0), np.linalg.cond(mat)


def lattice_tolerance(condition):
    """The stated accuracy, as a fraction of the largest variance (or of the
    largest response, for means): 1e-6, plus 16 * EPS * cond for the
    roundoff of the reference itself.  LU plus one refinement step is
    backward stable, so it is only accurate to a few EPS * cond of the
    largest variance (measured: at most 3.5), which passes 1e-6 at
    cond ~ 3e8 and is at most 3.6e-3 below CONDITION_LIMIT."""
    return 1e-6 + 16 * EPS * condition


# Any family, half the time a zero-nugget Gaussian: those fits are the
# near-singular systems that the product with the inverse must refine.
LATTICE_SOLVE_MODELS = st.one_of(
    st.builds(VariogramModel, st.sampled_from(FAMILIES),
              st.one_of(st.just(0.0), st.floats(0.0, 0.5)), st.floats(0.1, 8.0), st.floats(0.1, 3.0)),
    st.builds(VariogramModel, st.just("gaussian"), st.just(0.0), st.floats(0.1, 8.0),
              st.floats(0.1, 3.0)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(data=st.data())
def test_lattice_solve_matches_refined_lu(data):
    """solve_lattice's means and variances agree with an LU solve plus one
    step of iterative refinement to within lattice_tolerance, and each system
    is inverted once per solve."""
    n_m, n_k = data.draw(st.integers(1, 10)), data.draw(st.integers(2, 12))
    spec = GridSpec(0.5, 0.5 + (n_m - 1) * 0.5, 0.5, 1.0, float(n_k), 1.0,
                    k_scale=data.draw(st.sampled_from([0.1, 1.0, 0.37])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ms = random_measurements(rng, spec, data.draw(st.integers(1, min(20, spec.point_count))))
    model = data.draw(LATTICE_SOLVE_MODELS)
    system = assemble_system(ms, model, spec)
    if system.condition_estimate() > CONDITION_LIMIT:
        with pytest.raises(NumericalFailureError, match="ill-conditioned"):
            solve_lattice(system)
        return

    ref_means, ref_variances, condition = refined_lu_lattice(system)
    tol = lattice_tolerance(condition)
    with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inverse:
        means, variances, _ = solve_lattice(system)
    assert np.all(np.abs(means - ref_means) <= tol * np.abs(system.values).max())
    assert np.all(np.abs(variances - ref_variances) <= tol * ref_variances.max())
    assert inverse.call_count == 1


def test_a_solve_leaves_the_system_as_it_was(study_grid):
    """A system is a plain value: solve_lattice and solve_grid, refined or
    not, write no attribute on it and leave every array it holds unchanged."""
    ms = random_measurements(np.random.default_rng(3), study_grid, 12)
    refined = []
    for model in (SPH, VariogramModel("gaussian", 0.0, 4.0, 1.4)):
        system = assemble_system(ms, model, study_grid)
        before = {name: np.copy(value) if isinstance(value, np.ndarray) else value
                  for name, value in vars(system).items()}
        solve_lattice(system)
        solve_grid(system, build_grid(study_grid)[:7])
        assert vars(system).keys() == before.keys()
        for name, value in vars(system).items():
            assert np.array_equal(value, before[name]) if isinstance(value, np.ndarray) else value is before[name]
        refined.append(kriging.EPS * system.condition_estimate() ** 2 > kriging.INVERSE_VARIANCE_RTOL)
    assert refined == [False, True]


def test_near_singular_gaussian_lattice_matches_refined_lu():
    """A zero-nugget Gaussian fit with condition 1.6e11, below CONDITION_LIMIT:
    an unrefined product with the inverse computes a small positive variance
    as -3.9e-9, below VARIANCE_FLOOR; the refined solve matches LU."""
    spec = GridSpec(0.5, 4.5, 0.5, 1.0, 5.0, 1.0, k_scale=0.1)
    ms = random_measurements(np.random.default_rng(58861), spec, 20)
    system = assemble_system(ms, VariogramModel("gaussian", 0.0, 4.051, 1.402), spec)
    ref_means, ref_variances, condition = refined_lu_lattice(system)
    assert 1e11 < condition < CONDITION_LIMIT
    means, variances, _ = solve_lattice(system)
    tol = lattice_tolerance(condition)
    assert np.all(np.abs(means - ref_means) <= tol * np.abs(system.values).max())
    assert np.all(np.abs(variances - ref_variances) <= tol * ref_variances.max())


def test_measured_targets_solve_exactly_at_large_semivariance(study_grid):
    """A measured target's solution column is its unit vector exactly, on
    the lattice and through solve alike, so the roundoff of the product with
    the inverse, which grows with the semivariance scale, cannot trip
    VARIANCE_FLOOR at its zero variance."""
    rng = np.random.default_rng(5)
    ms = random_measurements(rng, study_grid, 22)
    system = assemble_system(ms, VariogramModel("spherical", 0.0, 8.0, 2.0**17), study_grid)
    _, variances, solution = solve_lattice(system)
    measured = system.flat
    np.testing.assert_array_equal(solution[:, measured], np.eye(system.n + 1)[:, :system.n])
    assert np.all(variances[measured] == 0.0)
    for row, m in enumerate(ms):
        weights, sigma2 = solve(system, m.location)
        np.testing.assert_array_equal(weights.weights, np.eye(system.n)[row])
        assert weights.lagrange == 0.0 and sigma2 == 0.0
