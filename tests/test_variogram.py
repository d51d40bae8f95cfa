import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from krigplan import (
    Combination,
    ConfigurationError,
    ExperimentConfig,
    GridSpec,
    InsufficientDataError,
    Measurement,
    SyntheticLogisticOracle,
    VariogramModel,
    empirical_variogram,
    eval_model,
    evenly_spaced_design,
    fit_model,
    run_experiment,
    select_model,
)
from krigplan import adaptive, variogram
from krigplan.grid import offset_distances
from krigplan.variogram import (
    _REFINE_POINTS,
    FAMILIES,
    FIT_TOL,
    FLAG_DEGENERATE,
    FLAG_LOW_INFORMATION,
    EmpiricalVariogram,
    VariogramBin,
    _fit_families,
)

from conftest import random_measurements, scaled_points
from test_acceptance import NOISE_STD, study_config


def line_grid(m_max=6.0):
    """1-D layout: k collapsed to a single level so distance == |delta m|."""
    return GridSpec(0.0, m_max, 1.0, 1.0, 1.0, 1.0, k_scale=1.0)


def make_empirical(model, hs, count=5):
    bins = tuple(VariogramBin(h, float(eval_model(model, h)), count) for h in hs)
    return EmpiricalVariogram(bins=bins, response_variance=1.0,
                              max_distance=float(max(hs)))


# --- model evaluation -------------------------------------------------------

def test_eval_spherical_at_range():
    model = VariogramModel("spherical", 0.1, 2.0, 1.0)
    assert eval_model(model, 2.0) == pytest.approx(1.1)
    assert eval_model(model, 5.0) == pytest.approx(1.1)  # clamped past the range


def test_eval_exponential_at_range():
    model = VariogramModel("exponential", 0.0, 1.0, 1.0)
    assert eval_model(model, 1.0) == pytest.approx(1.0 - math.exp(-1.0))


def test_eval_gaussian_far_field():
    model = VariogramModel("gaussian", 0.2, 1.0, 0.5)
    assert eval_model(model, 100.0) == pytest.approx(0.7, abs=1e-12)


def test_eval_zero_distance_is_zero_despite_nugget():
    for family in FAMILIES:
        model = VariogramModel(family, 0.3, 2.0, 1.0)
        assert eval_model(model, 0.0) == 0.0
        # the nugget appears immediately off zero
        assert eval_model(model, 1e-12) >= 0.3


def test_eval_array_input():
    model = VariogramModel("bounded_linear", 0.1, 2.0, 1.0)
    h = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(eval_model(model, h), [0.0, 0.6, 1.1, 1.1])


def test_eval_monotone_and_bounded():
    hs = np.linspace(0.0, 10.0, 400)
    for family in FAMILIES:
        model = VariogramModel(family, 0.15, 2.5, 0.8)
        g = eval_model(model, hs)
        assert np.all(np.diff(g) >= -1e-12)
        assert np.all(g >= 0.0)
        assert np.all(g <= 0.15 + 0.8 + 1e-12)


def test_eval_matches_plain_expression_and_keeps_input():
    rng = np.random.default_rng(4)
    h = rng.uniform(0.0, 6.0, size=(7, 9))
    h[0, :3] = 0.0
    original = h.copy()
    for family in FAMILIES:
        model = VariogramModel(family, 0.2, 2.5, 0.9)
        for x in (h, h.T, h[:, 0], [0.0, 1.5, 4.0, np.inf, np.nan]):
            x = np.asarray(x)
            expected = np.where(x > 0, 0.2 + 0.9 * reference_shape(family, x, 2.5), 0.0)
            assert eval_model(model, x).tobytes() == expected.tobytes()
        # A scalar distance takes the same arithmetic as an array: the cube
        # is two products, not numpy's power, whose scalar and array loops
        # round differently (at 1.6 they did).
        for x in (0.0, 1.6, 1.7, 9.0):
            got = eval_model(model, x)
            assert type(got) is float
            assert got == float(np.where(x > 0, 0.2 + 0.9 * reference_shape(family, x, 2.5), 0.0))
        with pytest.raises(ConfigurationError):
            eval_model(model, np.array([0.5, -1e-12]))
        with pytest.raises(ConfigurationError):
            eval_model(model, -1.0)
    assert h.tobytes() == original.tobytes()


def test_model_validation():
    with pytest.raises(ConfigurationError):
        VariogramModel("spherical", -0.1, 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        VariogramModel("spherical", 0.1, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        VariogramModel("spherical", 0.1, 2.0, -1.0)
    with pytest.raises(ConfigurationError):
        VariogramModel("parabolic", 0.1, 2.0, 1.0)


def test_model_call_is_eval_model():
    model = VariogramModel("exponential", 0.1, 2.0, 1.0)
    h = np.array([0.0, 0.5, 2.0, 7.0])
    np.testing.assert_array_equal(model(h), eval_model(model, h))
    assert model(1.5) == eval_model(model, 1.5)


# --- empirical estimator ----------------------------------------------------

def test_empirical_single_pair():
    spec = line_grid()
    ms = [Measurement(Combination(0.0, 1.0), 3.0), Measurement(Combination(1.0, 1.0), 5.0)]
    emp = empirical_variogram(ms, spec)
    assert emp.n_bins == 1
    bin0 = emp.bins[0]
    assert bin0.gamma_hat == pytest.approx(2.0)  # (3-5)^2 / 2
    assert bin0.pair_count == 1
    assert bin0.h_center == pytest.approx(1.0)


def test_empirical_constant_responses():
    spec = line_grid()
    ms = [Measurement(Combination(float(i), 1.0), 4.0) for i in range(4)]
    emp = empirical_variogram(ms, spec)
    assert emp.n_bins >= 1
    assert np.all(emp.gamma == 0.0)


def test_empirical_three_collinear_points():
    # responses (0, 1, 0) at unit spacing: two pairs at h=1, one at h=2
    spec = line_grid()
    ms = [
        Measurement(Combination(0.0, 1.0), 0.0),
        Measurement(Combination(1.0, 1.0), 1.0),
        Measurement(Combination(2.0, 1.0), 0.0),
    ]
    emp = empirical_variogram(ms, spec, bin_width=1.0)
    assert emp.n_bins == 2
    by_h = {round(b.h_center, 6): b for b in emp.bins}
    assert by_h[1.0].gamma_hat == pytest.approx(0.5)
    assert by_h[1.0].pair_count == 2
    assert by_h[2.0].gamma_hat == pytest.approx(0.0)
    assert by_h[2.0].pair_count == 1


def test_empirical_drops_empty_bins():
    spec = line_grid(8.0)
    ms = [Measurement(Combination(m, 1.0), r)
          for m, r in [(0.0, 1.0), (1.0, 2.0), (4.0, 1.5)]]
    emp = empirical_variogram(ms, spec, bin_width=1.0)
    # pair distances are 1, 3, 4; nothing lands in the h=2 bin
    assert [round(b.h_center) for b in emp.bins] == [1, 3, 4]
    assert all(b.pair_count == 1 for b in emp.bins)


def test_empirical_max_lag_cutoff():
    spec = line_grid(8.0)
    ms = [Measurement(Combination(m, 1.0), r)
          for m, r in [(0.0, 1.0), (1.0, 2.0), (4.0, 1.5)]]
    emp = empirical_variogram(ms, spec, bin_width=1.0, max_lag=2.0)
    assert [round(b.h_center) for b in emp.bins] == [1]


@pytest.mark.parametrize("option, value", [
    ("bin_width", 0.0), ("bin_width", -1.0), ("bin_width", math.inf), ("bin_width", math.nan),
    ("max_lag", -1.0), ("max_lag", math.inf), ("max_lag", math.nan),
])
def test_empirical_rejects_bad_bin_width_and_max_lag(option, value):
    ms = [Measurement(Combination(m, 1.0), r) for m, r in [(0.0, 1.0), (1.0, 2.0), (4.0, 1.5)]]
    with pytest.raises(ConfigurationError, match=f"^{option} must be"):
        empirical_variogram(ms, line_grid(8.0), **{option: value})


def table_lags(ms, spec):
    """Each pair's scaled distance, in pdist's pair order, read one by one
    from grid.offset_distances at the pair's index offset."""
    table = offset_distances(spec)
    ij = [divmod(spec.flat_index(m.location), spec.k_count) for m in ms]
    return np.array([table[spec.m_count - 1 + i2 - i1, spec.k_count - 1 + j2 - j1]
                     for a, (i1, j1) in enumerate(ij) for i2, j2 in ij[a + 1:]])


@pytest.mark.filterwarnings("error")
def test_empirical_rejects_bin_width_that_overflows_the_bin_index(study_grid):
    """A bin index past 2**53 is no longer an exact integer, so neighbouring
    bins would merge; such a width is refused before binning, with a
    ConfigurationError and no RuntimeWarning."""
    ms = random_measurements(np.random.default_rng(20), study_grid, 40)
    max_distance = float(table_lags(ms, study_grid).max())
    for bin_width in (1e-300, max_distance / 2.0 ** 53):
        with pytest.raises(ConfigurationError, match="bin_width"):
            empirical_variogram(ms, study_grid, bin_width=bin_width)
    # the largest pair distance 2**52 widths away still bins exactly
    emp = empirical_variogram(ms, study_grid, bin_width=max_distance / 2.0 ** 52,
                              max_lag=max_distance)
    assert sum(b.pair_count for b in emp.bins) == 40 * 39 // 2


def test_empirical_rejects_an_off_grid_measurement(study_grid):
    ms = [Measurement(Combination(0.5, 1.0), 1.0), Measurement(Combination(0.75, 2.0), 2.0),
          Measurement(Combination(1.0, 3.0), 3.0)]
    with pytest.raises(ConfigurationError, match=r"^location \(0\.75, 2\.0\) is not a point of the grid$"):
        empirical_variogram(ms, study_grid)


def test_empirical_h_centers_increasing(study_grid):
    rng = np.random.default_rng(5)
    ms = random_measurements(rng, study_grid, 30)
    emp = empirical_variogram(ms, study_grid)
    assert np.all(np.diff(emp.h) > 0)
    assert np.all(emp.gamma >= 0)
    assert np.all(emp.count >= 1)


def test_empirical_permutation_invariant(study_grid):
    rng = np.random.default_rng(6)
    ms = random_measurements(rng, study_grid, 20)
    emp1 = empirical_variogram(ms, study_grid)
    emp2 = empirical_variogram(list(reversed(ms)), study_grid)
    assert emp1.n_bins == emp2.n_bins
    for b1, b2 in zip(emp1.bins, emp2.bins):
        assert b1.h_center == pytest.approx(b2.h_center, rel=1e-12)
        assert b1.gamma_hat == pytest.approx(b2.gamma_hat, rel=1e-12)
        assert b1.pair_count == b2.pair_count


def assert_matches_per_bin_masks(study_grid, seed, max_lag, bin_width):
    """Every bin, computed from its own mask of the table lags with its sums
    taken in pair order, is kept when its mean distance is within max_lag;
    max_distance covers every pair."""
    rng = np.random.default_rng(seed)
    ms = random_measurements(rng, study_grid, 40)
    emp = empirical_variogram(ms, study_grid, max_lag=max_lag, bin_width=bin_width)
    d = table_lags(ms, study_grid)
    y = np.array([m.response for m in ms])
    iu, ju = np.triu_indices(len(ms), k=1)
    sq = (y[iu] - y[ju]) ** 2
    idx = np.round(d / (bin_width or study_grid.nearest_neighbor_spacing())).astype(int)
    expected = []
    for b in np.unique(idx):
        mask = idx == b
        count = int(mask.sum())
        h_center = sum(d[mask].tolist()) / count
        if h_center <= (0.5 * study_grid.scaled_diameter() if max_lag is None else max_lag):
            expected.append(VariogramBin(h_center, sum(sq[mask].tolist()) / (2.0 * count), count))
    assert emp.bins == tuple(expected)
    assert emp.max_distance == d.max()


def test_empirical_matches_per_bin_masks(study_grid):
    assert_matches_per_bin_masks(study_grid, 8, 4.0, None)


@pytest.mark.parametrize("seed, max_lag, bin_width", [
    (9, None, None), (10, 0.0, None), (11, 1.03, 0.5), (12, 0.2, 0.3), (13, 1e12, None), (14, 0.0, 1e-3),
])
def test_empirical_far_pairs_dropped_before_the_bin_loop(study_grid, seed, max_lag, bin_width):
    """Pairs beyond max_lag leave with their bins: the bins and max_distance
    are still those of the per-bin masks, also when max_lag is 0 or keeps
    every pair."""
    assert_matches_per_bin_masks(study_grid, seed, max_lag, bin_width)


@pytest.mark.parametrize("seed, bin_width", [(8, None), (9, None), (11, 0.5), (12, 0.3), (14, 1e-3)])
def test_table_lags_bin_like_pdist(study_grid, seed, bin_width):
    """The table's lags agree with pdist on the scaled coordinates to a few
    ulps of the largest coordinate, and no pair changes bin."""
    ms = random_measurements(np.random.default_rng(seed), study_grid, 40)
    table = table_lags(ms, study_grid)
    direct = pdist(scaled_points([m.location for m in ms], study_grid))
    assert np.abs(table - direct).max() <= 4 * np.spacing(study_grid.m_max)
    width = bin_width or study_grid.nearest_neighbor_spacing()
    assert np.array_equal(np.round(table / width), np.round(direct / width))


def test_empirical_needs_two_measurements(study_grid):
    with pytest.raises(InsufficientDataError):
        empirical_variogram([Measurement(Combination(1.0, 3.0), 2.0)], study_grid)


def test_empirical_metadata(study_grid):
    ms = [
        Measurement(Combination(0.5, 1.0), 1.0),
        Measurement(Combination(0.5, 11.0), 3.0),
        Measurement(Combination(0.5, 21.0), 5.0),
    ]
    emp = empirical_variogram(ms, study_grid)
    assert emp.response_variance == pytest.approx(np.var([1.0, 3.0, 5.0], ddof=1))
    assert emp.max_distance == pytest.approx(2.0)


# --- fitting ----------------------------------------------------------------

def test_fit_recovers_exact_spherical():
    true = VariogramModel("spherical", 0.025, 2.0, 0.5)
    emp = make_empirical(true, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    fit = fit_model(emp, "spherical")
    assert fit.nugget == pytest.approx(0.025, abs=1e-6)
    assert fit.range == pytest.approx(2.0, abs=1e-6)
    assert fit.sill == pytest.approx(0.5, abs=1e-6)
    assert fit.fit_mse < 1e-12


def test_fit_parameter_constraints():
    # noisy bins must still produce a feasible model
    rng = np.random.default_rng(2)
    true = VariogramModel("gaussian", 0.1, 1.5, 0.6)
    hs = np.linspace(0.3, 3.0, 10)
    bins = tuple(
        VariogramBin(float(h), float(eval_model(true, h) * (1 + 0.05 * rng.standard_normal())), 8)
        for h in hs
    )
    emp = EmpiricalVariogram(bins=bins, response_variance=1.0, max_distance=3.0)
    for family in FAMILIES:
        fit = fit_model(emp, family)
        assert fit.nugget >= 0 and fit.sill >= 0 and fit.range > 0
        assert emp.bins[0].h_center <= fit.range <= 2 * emp.bins[-1].h_center


def test_fit_all_zero_gamma_is_degenerate():
    bins = tuple(VariogramBin(float(h), 0.0, 4) for h in (1.0, 2.0, 3.0))
    emp = EmpiricalVariogram(bins=bins, response_variance=0.0, max_distance=3.0)
    fit = fit_model(emp, "spherical")
    assert fit.flag == FLAG_DEGENERATE
    assert fit.nugget == 0.0 and fit.sill == 0.0
    assert fit.is_degenerate


def test_fit_single_bin_falls_back():
    bins = (VariogramBin(1.0, 0.8, 3),)
    emp = EmpiricalVariogram(bins=bins, response_variance=1.6, max_distance=4.0)
    fit = fit_model(emp, "spherical")
    assert fit.flag == FLAG_LOW_INFORMATION
    assert fit.family == "spherical"
    assert fit.sill == pytest.approx(1.6)   # sample variance of the responses
    assert fit.range == pytest.approx(2.0)  # half the largest pair distance


def test_fit_with_no_bins_falls_back_with_zero_mse():
    """max_lag below every pair leaves no bin: the fallback has nothing to
    score its MSE on, so it keeps 0 rather than the mean of nothing."""
    ms = [Measurement(Combination(m, 1.0), r) for m, r in [(0.0, 1.0), (1.0, 2.0), (4.0, 1.5)]]
    emp = empirical_variogram(ms, line_grid(8.0), bin_width=1.0, max_lag=0.4)
    assert emp.n_bins == 0
    fit = fit_model(emp, "gaussian")
    assert fit.flag == FLAG_LOW_INFORMATION and fit.fit_mse == 0.0
    assert fit.range == pytest.approx(2.0)  # half the largest pair distance, 4


def test_fit_rejects_an_unknown_family():
    emp = make_empirical(VariogramModel("spherical", 0.1, 2.0, 1.0), [0.5, 1.0, 1.5])
    with pytest.raises(ConfigurationError, match="unknown variogram family 'parabolic'"):
        fit_model(emp, "parabolic")


def test_fit_weighted_by_pair_counts():
    # an outlier bin with tiny weight should barely move the fit
    true = VariogramModel("exponential", 0.05, 1.0, 0.9)
    hs = [0.25, 0.5, 1.0, 1.5, 2.0]
    bins = [VariogramBin(h, float(eval_model(true, h)), 1000) for h in hs]
    bins.append(VariogramBin(2.5, 10.0, 1))
    emp = EmpiricalVariogram(bins=tuple(bins), response_variance=1.0, max_distance=2.5)
    fit = fit_model(emp, "exponential")
    assert fit.nugget == pytest.approx(0.05, abs=0.02)
    assert fit.sill == pytest.approx(0.9, abs=0.1)


# --- selection --------------------------------------------------------------

def test_select_exact_exponential():
    true = VariogramModel("exponential", 0.0, 1.0, 1.0)
    emp = make_empirical(true, [0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
    sel = select_model(emp)
    assert sel.family == "exponential"
    assert sel.fit_mse < 1e-10


def test_select_noisy_spherical_over_seeds():
    true = VariogramModel("spherical", 0.025, 2.0, 0.5)
    hs = np.linspace(0.5, 3.5, 8)
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        bins = tuple(
            VariogramBin(float(h), float(eval_model(true, h) + 0.001 * rng.standard_normal()), 20)
            for h in hs
        )
        emp = EmpiricalVariogram(bins=bins, response_variance=1.0, max_distance=3.5)
        if select_model(emp).family == "spherical":
            wins += 1
    assert wins >= 9


def test_select_tie_breaks_to_bounded_linear():
    # constant gamma: every family fits nugget=c, sill=0 exactly
    bins = tuple(VariogramBin(h, 0.4, 10) for h in (1.0, 2.0, 4.0, 8.0, 16.0))
    emp = EmpiricalVariogram(bins=bins, response_variance=0.4, max_distance=16.0)
    sel = select_model(emp)
    assert sel.family == "bounded_linear"
    assert sel.nugget == pytest.approx(0.4)
    assert sel.sill == 0.0


def test_select_mse_is_minimum_over_families():
    rng = np.random.default_rng(9)
    true = VariogramModel("gaussian", 0.05, 1.2, 0.7)
    hs = np.linspace(0.3, 2.5, 9)
    bins = tuple(
        VariogramBin(float(h), float(eval_model(true, h) * (1 + 0.02 * rng.standard_normal())), 15)
        for h in hs
    )
    emp = EmpiricalVariogram(bins=bins, response_variance=1.0, max_distance=2.5)
    sel = select_model(emp)
    for family in FAMILIES:
        assert sel.fit_mse <= fit_model(emp, family).fit_mse + 1e-15


# --- lockstep fit against a scalar reference ---------------------------------

def reference_shape(family, h, a):
    """The four unit curves as plain expressions."""
    if family == "bounded_linear":
        return np.minimum(h / a, 1.0)
    if family == "spherical":
        t = np.minimum(h / a, 1.0)
        return 1.5 * t - 0.5 * (t * t * t)
    if family == "exponential":
        return 1.0 - np.exp(-h / a)
    return 1.0 - np.exp(-((h / a) ** 2))


def reference_profile(family, a, h, gam, wts):
    """(C0, b, objective, branch) at one range: the closed-form optimum when
    it is feasible, else the better of the nugget-free and flat fits."""
    phi = reference_shape(family, h, a)
    s1, sp, spp = wts.sum(), (wts * phi).sum(), (wts * phi * phi).sum()
    sy, spy = (wts * gam).sum(), (wts * phi * gam).sum()

    def objective(c0, b):
        r = c0 + b * phi - gam
        return float((wts * r * r).sum())

    det = s1 * spp - sp * sp
    if det > 1e-12 * max(s1 * spp, 1e-300):
        c0 = (spp * sy - sp * spy) / det
        b = (s1 * spy - sp * sy) / det
        if c0 >= 0 and b >= 0:
            return c0, b, objective(c0, b), "free"
    cands = []
    if spp > 0:
        b_only = max(spy / spp, 0.0)
        cands.append((0.0, b_only, objective(0.0, b_only), "nugget_free"))
    c0_only = max(sy / s1, 0.0)
    cands.append((c0_only, 0.0, objective(c0_only, 0.0), "flat"))
    return min(cands, key=lambda t: t[2])


def textbook_golden(lo, hi, f):
    """Golden-section search of [lo, hi] down to FIT_TOL, one probe at a
    time.  Returns the final bracket's midpoint and the number of steps."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    steps = 0
    while hi - lo > FIT_TOL * max(1.0, hi):
        steps += 1
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return (lo + hi) / 2.0, steps


def reference_fit(emp, family):
    """One family's fit, one range at a time: the 40-point coarse grid, then
    levels of _REFINE_POINTS evenly spaced ranges across the two steps
    around the last level's best point, until that bracket is within
    FIT_TOL; the best range seen wins, ties to the earlier.  Returns the
    model and the profile branch of the chosen range."""
    h, gam = emp.h, emp.gamma
    wts = emp.count / emp.count.sum()

    def with_mse(nugget, a, sill, flag=None):
        fitted = np.where(h > 0, nugget + sill * reference_shape(family, h, a), 0.0)
        return VariogramModel(family, nugget, a, sill, float(np.mean((fitted - gam) ** 2)), flag)

    if np.all(gam == 0.0):
        return with_mse(0.0, emp.max_distance, 0.0, FLAG_DEGENERATE), None

    grid = np.geomspace(float(h.min()), 2.0 * float(h.max()), 40)
    best = None
    while True:
        profiles = [reference_profile(family, a, h, gam, wts) for a in grid]
        k = int(np.argmin([p[2] for p in profiles]))
        if best is None or profiles[k][2] < best[1][2]:
            best = grid[k], profiles[k]
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        if not hi - lo > FIT_TOL * max(1.0, hi):
            break
        grid = np.linspace(lo, hi, _REFINE_POINTS)
    a, (c0, b, _, branch) = best
    return with_mse(float(c0), float(a), float(b)), branch


def assert_fits_match_reference(emp):
    reference = [reference_fit(emp, family)[0] for family in FAMILIES]
    joint = _fit_families(emp, FAMILIES)
    assert joint == reference
    assert [repr(m) for m in joint] == [repr(m) for m in reference]
    for family, fit in zip(FAMILIES, joint):
        assert fit_model(emp, family) == fit
    assert select_model(emp) == min(reference, key=lambda m: (m.fit_mse, FAMILIES.index(m.family)))


# Bin shapes the strategy draws: a family curve with a nugget; a constant; all
# zeros; a curve shifted down so its unconstrained nugget is negative; a
# falling curve, whose unconstrained sill is negative.
BIN_SHAPES = ("curve", "constant", "zero", "shifted_down", "falling")


@st.composite
def empirical_variograms(draw):
    n = draw(st.integers(3, 45))
    h = draw(st.floats(0.0, 1.0)) + np.cumsum(
        draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    counts = draw(st.lists(st.integers(1, 400), min_size=n, max_size=n))
    kind = draw(st.sampled_from(BIN_SHAPES))
    if kind == "zero":
        gam = np.zeros(n)
    elif kind == "constant":
        gam = np.full(n, draw(st.floats(0.01, 5.0)))
    else:
        sill = draw(st.floats(0.01, 5.0))
        nugget = sill * draw(st.floats(0.0, 1.0))
        curve = sill * reference_shape(draw(st.sampled_from(FAMILIES)), h,
                                       h[-1] * draw(st.floats(0.1, 1.5)))
        gam = {"curve": nugget + curve, "shifted_down": curve - 0.3 * sill,
               "falling": nugget + sill - curve}[kind]
        noise = draw(st.floats(0.0, 0.5)) * np.array(
            draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        gam = np.maximum(gam * (1.0 + noise), 0.0)
    bins = tuple(VariogramBin(float(x), float(g), c) for x, g, c in zip(h, gam, counts))
    return EmpiricalVariogram(bins=bins, response_variance=1.0, max_distance=float(h[-1]))


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@PROPERTY
@given(emp=empirical_variograms())
def test_lockstep_fit_equals_scalar_reference(emp):
    """Every field of every family's fit, the one-family fit_model and the
    selection equal a one-range-at-a-time golden-section search exactly."""
    assert_fits_match_reference(emp)


@pytest.mark.parametrize("gammas, branch", [
    ([0.3, 0.5, 0.7, 0.9, 1.1, 1.3], "free"),
    ([0.0, 0.0, 0.2, 0.6, 1.0, 1.4], "nugget_free"),
    ([1.0, 0.8, 0.6, 0.5, 0.45, 0.4], "flat"),
])
def test_lockstep_fit_covers_every_profile_branch(gammas, branch):
    """The chosen exponential fit comes from the named profile branch."""
    bins = tuple(VariogramBin(h, g, 10) for h, g in zip([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], gammas))
    emp = EmpiricalVariogram(bins=bins, response_variance=1.0, max_distance=3.0)
    assert reference_fit(emp, "exponential")[1] == branch
    assert_fits_match_reference(emp)


# --- the nested grids against golden-section search --------------------------

def golden_fit_objectives(emp):
    """Each family's weighted objective, and the index of the family
    selected by unweighted MSE, for golden-section search on the bracket
    around the best coarse point, one range at a time."""
    h, gam = emp.h, emp.gamma
    wts = emp.count / emp.count.sum()
    objectives, mses = [], []
    for family in FAMILIES:
        def obj(a, family=family):
            return reference_profile(family, a, h, gam, wts)[2]
        grid = np.geomspace(float(h.min()), 2.0 * float(h.max()), 40)
        best = int(np.argmin([obj(a) for a in grid]))
        mid, _ = textbook_golden(grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)], obj)
        a = min([grid[best], mid], key=obj)
        c0, b, objective, _ = reference_profile(family, a, h, gam, wts)
        objectives.append(objective)
        mses.append(float(np.mean((c0 + b * reference_shape(family, h, a) - gam) ** 2)))
    return objectives, min(range(len(FAMILIES)), key=lambda i: (mses[i], i))


def test_nested_grids_fit_as_well_as_golden_section(monkeypatch):
    """The fit-quality gate, on every variogram a criterion 6 campaign
    (seed 7) and a large_grid-config campaign fit: no family's weighted
    objective is worse than golden-section search's by more than 1e-10
    relative, and no selection flips."""
    recorded = []
    estimate = adaptive.empirical_variogram
    monkeypatch.setattr(adaptive, "empirical_variogram",
                        lambda ms, spec: recorded.append(estimate(ms, spec)) or recorded[-1])
    run_experiment(study_config(), SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7))
    large = GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1)
    config = ExperimentConfig(grid=large, threshold=4.0, alpha=0.1, max_iterations=8, seed=7,
                              initial_design=tuple(evenly_spaced_design(large, 3, 4)))
    run_experiment(config, SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7))
    assert len(recorded) == 60 and all(emp.n_bins >= 3 for emp in recorded)
    for emp in recorded:
        golden, golden_pick = golden_fit_objectives(emp)
        fits = _fit_families(emp, FAMILIES)
        wts = emp.count / emp.count.sum()
        for family, fit, reference in zip(FAMILIES, fits, golden):
            assert reference_profile(family, fit.range, emp.h, emp.gamma, wts)[2] <= reference * (1 + 1e-10)
        assert select_model(emp).family == FAMILIES[golden_pick]


def test_select_model_profile_calls_are_bounded(monkeypatch):
    """A guard on the nested grids: selection on criterion 6's initial
    design (seed 7) profiles exactly 7 times, the coarse grids and 6 levels;
    golden-section search took 13 calls at three steps per call, 37 at one.
    Counts, not timings, so it is deterministic."""
    spec = GridSpec(0.5, 6.0, 0.5, 1.0, 60.0, 1.0, k_scale=0.1)
    oracle = SyntheticLogisticOracle(noise_std=math.sqrt(0.025), seed=7)
    emp = empirical_variogram([Measurement(p, oracle.evaluate(p)) for p in evenly_spaced_design(spec, 3, 4)],
                              spec)
    calls = []
    profiled_linear = variogram._profiled_linear
    monkeypatch.setattr(variogram, "_profiled_linear", lambda *args: calls.append(1) or profiled_linear(*args))
    model = select_model(emp)
    assert model.flag is None and emp.n_bins >= 3
    assert len(calls) == 7


def test_study_campaign_profile_calls_are_pinned(monkeypatch):
    """A whole criterion 6 campaign (seed 7, 51 selections) makes exactly
    405 array calls: 48 selections take the coarse grids and 7 levels, and
    3 close every bracket after 6.  A change to the search that costs or
    saves calls shows here.  Counts, not timings, so it is deterministic."""
    calls = []
    profiled_linear = variogram._profiled_linear
    monkeypatch.setattr(variogram, "_profiled_linear", lambda *args: calls.append(1) or profiled_linear(*args))
    state = run_experiment(study_config(), SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7))
    assert state.iteration == 50
    assert len(calls) == 51 * 8 - 3
