import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from krigplan.kriging import Z_QUANTILES, KrigingSystem, z_quantile
from krigplan.variogram import FAMILIES, eval_model

from conftest import (
    brute_force_weights,
    mspe,
    random_measurements,
    semivariance_matrices,
)

SPH = VariogramModel("spherical", 0.025, 2.0, 0.5)


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


def test_degenerate_model_predicts_constant(study_grid):
    ms = [Measurement(Combination(1.0, 3.0), 4.0), Measurement(Combination(2.0, 9.0), 4.0)]
    degenerate = VariogramModel("spherical", 0.0, 1.0, 0.0)
    targets = [Combination(5.0, 50.0), ms[0].location]
    preds = predict_grid(ms, degenerate, study_grid, targets)
    assert preds[0].mean == 4.0 and preds[0].variance == 0.0
    assert preds[1].mean == 4.0 and preds[1].variance == 0.0


def test_predict_requires_measurements(study_grid):
    with pytest.raises(InsufficientDataError):
        predict([], SPH, study_grid, Combination(1.0, 3.0))


# --- the lattice prediction --------------------------------------------------

LATTICE_MODELS = [SPH, VariogramModel("gaussian", 0.1, 3.0, 0.6),
                  VariogramModel("exponential", 0.0, 2.0, 1.0),
                  VariogramModel("spherical", 0.0, 1.0, 0.0)]  # degenerate


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_predict_lattice_equals_predict_grid(data):
    """Every mean, variance and bound of predict_lattice equals predict_grid's
    on build_grid exactly, measured cells included."""
    n_m, n_k = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 9))
    m_stride = data.draw(st.sampled_from([1.0, 0.5, 0.1]))
    k_stride = data.draw(st.sampled_from([1.0, 3.0, 0.2]))
    spec = GridSpec(0.5, 0.5 + (n_m - 1) * m_stride, m_stride, 1.0, 1.0 + (n_k - 1) * k_stride, k_stride,
                    k_scale=data.draw(st.sampled_from([0.1, 1.0, 0.37])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ms = random_measurements(rng, spec, data.draw(st.integers(1, min(6, spec.point_count))))
    model = data.draw(st.sampled_from(LATTICE_MODELS))
    alpha = data.draw(st.sampled_from(sorted(Z_QUANTILES)))

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
    original = KrigingSystem.solve_rhs
    negated = mock.patch.object(KrigingSystem, "solve_rhs", lambda self, rhs: -original(self, rhs))
    messages = []
    with negated:
        for call in (lambda: predict_lattice(ms, SPH, study_grid),
                     lambda: predict_grid(ms, SPH, study_grid, build_grid(study_grid))):
            with pytest.raises(NumericalFailureError) as exc:
                call()
            messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "at (0.5, 1.0) is negative beyond roundoff" in messages[0]
