"""Semi-variogram estimation, parametric families, fitting, and selection.

Four bounded families are supported, each parametrized by a nugget C0, a
range a, and a partial sill b, with the sill C0 + b reached (or approached)
as distance grows.  gamma(0) is 0 by convention for every family, including
models with a nonzero nugget: the metamodel honors measured values exactly
and the nugget only widens predictions away from data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .grid import GridSpec, distinct_indices, pair_distances

BOUNDED_LINEAR = "bounded_linear"
SPHERICAL = "spherical"
EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"

# Also the tie-break order for model selection.
FAMILIES = (BOUNDED_LINEAR, SPHERICAL, EXPONENTIAL, GAUSSIAN)

FLAG_DEGENERATE = "degenerate"
FLAG_LOW_INFORMATION = "low_information"

# Parameter-space tolerance for the range refinement.
FIT_TOL = 1e-8

# Ranges per family at each level of the range refinement.  A level
# profiles this many evenly spaced ranges across the bracket and keeps the
# two steps around the best, so the bracket shrinks (K - 1) / 2 fold; from
# the coarse bracket to FIT_TOL takes 6 or 7 levels on criterion 6's
# campaign.  Chosen by the comparison with golden-section search in
# tests/test_variogram.py: on its 60 recorded variograms no fit at 32 is
# worse on the weighted objective by more than 3.9e-12 relative, while 24,
# 40 and 48 each leave one fit 3.2e-6 worse and 64 one 1.0e-10 worse.
_REFINE_POINTS = 32
_REFINE_STEPS = np.arange(_REFINE_POINTS)


def _shape(family: str, h: np.ndarray, a, out: np.ndarray | None = None) -> np.ndarray:
    """Unit shape in [0, 1]: the family curve with nugget 0 and partial sill 1.

    h and a broadcast (a column of ranges gives one row per range); the curve
    is built in place in `out`, or in a fresh array, from h / a.
    """
    t = np.divide(h, a, out=out)
    if family == BOUNDED_LINEAR:
        return np.minimum(t, 1.0, out=t)
    if family == SPHERICAL:
        np.minimum(t, 1.0, out=t)
        cube = 0.5 * (t * t * t)
        return np.subtract(np.multiply(t, 1.5, out=t), cube, out=t)
    if family == EXPONENTIAL:
        return np.subtract(1.0, np.exp(np.negative(t, out=t), out=t), out=t)
    if family == GAUSSIAN:
        return np.subtract(1.0, np.exp(np.negative(np.square(t, out=t), out=t), out=t), out=t)
    raise ConfigurationError(f"unknown variogram family {family!r}")


@dataclass(frozen=True)
class VariogramModel:
    """A fitted (or hand-built) semi-variogram.

    nugget, range, sill (the partial sill) are the usual geostatistics
    parameters.  fit_mse is the unweighted mean squared error against the
    empirical bins the model was fitted to (0.0 when hand-built).  flag marks
    fallback fits: FLAG_DEGENERATE for an all-zero empirical variogram,
    FLAG_LOW_INFORMATION for fits from fewer than 3 bins.
    """

    family: str
    nugget: float
    range: float
    sill: float
    fit_mse: float = 0.0
    flag: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown variogram family {self.family!r}")
        if not all(math.isfinite(v) for v in (self.nugget, self.range, self.sill)):
            raise ConfigurationError("variogram parameters must be finite")
        if self.nugget < 0 or self.sill < 0 or self.range <= 0:
            raise ConfigurationError(
                f"invalid variogram parameters: nugget={self.nugget}, range={self.range}, sill={self.sill}"
            )
        if not (math.isfinite(self.fit_mse) and self.fit_mse >= 0):
            raise ConfigurationError(f"fit_mse must be finite and nonnegative, got {self.fit_mse}")
        if self.flag not in (None, FLAG_DEGENERATE, FLAG_LOW_INFORMATION):
            raise ConfigurationError(f"unknown variogram flag {self.flag!r}")

    @property
    def is_degenerate(self) -> bool:
        return self.nugget == 0.0 and self.sill == 0.0

    def __call__(self, h):
        return eval_model(self, h)


def eval_model(model: VariogramModel, h):
    """Semi-variance at scaled distance h (scalar or array).

    Exactly 0 at h = 0; at any h > 0 the value is in [nugget, nugget + sill].
    The result is built in one fresh buffer; h itself is never written.
    """
    arr = np.asarray(h, dtype=float)
    if np.any(arr < 0):
        raise ConfigurationError("distances must be nonnegative")
    out = _shape(model.family, arr, model.range, out=np.empty_like(arr))
    out *= model.sill
    out += model.nugget
    out[~(arr > 0)] = 0.0
    if np.isscalar(h) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class VariogramBin:
    h_center: float
    gamma_hat: float
    pair_count: int


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Binned method-of-moments estimate plus the summary statistics the
    low-information fallback fit needs (see fit_model).  h, gamma and count
    are the bins' h_center, gamma_hat and pair_count as read-only float
    arrays, built once from bins."""

    bins: tuple[VariogramBin, ...]
    response_variance: float
    max_distance: float
    h: np.ndarray = field(init=False, repr=False, compare=False)
    gamma: np.ndarray = field(init=False, repr=False, compare=False)
    count: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = np.array([(b.h_center, b.gamma_hat, b.pair_count) for b in self.bins], dtype=float)
        for name, column in zip(("h", "gamma", "count"), columns.reshape(-1, 3).T.copy()):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n_bins(self) -> int:
        return len(self.bins)


def empirical_variogram(
    measurements,
    spec: GridSpec,
    bin_width: float | None = None,
    max_lag: float | None = None,
) -> EmpiricalVariogram:
    """Method-of-moments estimate over fixed-width distance bins.

    The measurements must be distinct grid points of spec
    (grid.distinct_indices names the first that is not); a pair's scaled
    distance is the grid.offset_distances entry at its index offset
    (grid.pair_distances).
    Each pair lands in the bin whose center (an integer multiple of
    bin_width) is nearest to its distance; a bin's reported h_center is the
    mean of its pair distances, and its sums run in pair order.  Bins with
    no pairs are dropped, as are bins whose h_center lies beyond max_lag,
    where the estimator has too few pairs to be trusted.  Defaults:
    bin_width is the grid's nearest-neighbor spacing, max_lag is half the
    scaled domain diameter.
    """
    measurements = list(measurements)
    if len(measurements) < 2:
        raise InsufficientDataError("empirical variogram needs at least 2 measurements")
    flat = distinct_indices(spec, [m.location for m in measurements])
    if bin_width is None:
        bin_width = spec.nearest_neighbor_spacing()
    if bin_width <= 0 or not math.isfinite(bin_width):
        raise ConfigurationError(f"bin_width must be positive, got {bin_width}")
    if max_lag is None:
        max_lag = 0.5 * spec.scaled_diameter()
    if max_lag < 0 or not math.isfinite(max_lag):
        raise ConfigurationError(f"max_lag must be nonnegative and finite, got {max_lag}")

    iu, ju = np.triu_indices(len(measurements), k=1)
    d = pair_distances(spec, flat[iu], flat[ju])
    y = np.array([m.response for m in measurements], dtype=float)
    sq = (y[iu] - y[ju]) ** 2

    max_distance = float(d.max())
    # Bin indices must be exact integers, so that neighbouring bins stay apart.
    if not max_distance / bin_width < 2.0 ** 53:
        raise ConfigurationError(
            f"bin_width {bin_width} is too small for the largest pair distance {max_distance}"
        )

    # np.unique numbers the occupied bins 0, 1, ... in increasing distance,
    # so bincount's output stays as short as the bin count.
    _, label = np.unique(np.round(d / bin_width), return_inverse=True)
    count = np.bincount(label)
    h = np.bincount(label, weights=d) / count
    gamma = np.bincount(label, weights=sq) / (2.0 * count)
    keep = h <= max_lag
    bins = tuple(map(VariogramBin, h[keep].tolist(), gamma[keep].tolist(), count[keep].tolist()))
    return EmpiricalVariogram(
        bins=bins,
        response_variance=float(np.var(y, ddof=1)),
        max_distance=max_distance,
    )


def _profiled_linear(phi, gam, wts, s1, sy, flat):
    """Weighted least squares for (nugget, sill) at each row's fixed range.

    phi is (R, bins), one row of unit shapes per trial range; gam and wts
    are the bins' gammas and weights, each broadcasting with phi or tiled to
    its shape (the same arithmetic, and cheaper).  s1 and sy are the weights'
    sum and the weighted gammas' sum, and flat is the flat (pure-nugget) fit's
    (C0, objective); none depends on the range.  The model is linear in
    (C0, b) then, so each row has a closed form.  Where it is infeasible,
    the nugget-free fit wins unless the flat fit has a strictly smaller
    objective.  Returns (C0, b, objective) arrays.
    """
    wphi = wts * phi
    sp = wphi.sum(axis=-1)
    spp = (wphi * phi).sum(axis=-1)
    spy = (wphi * gam).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = s1 * spp - sp * sp
        c0 = (spp * sy - sp * spy) / det
        b = (s1 * spy - sp * sy) / det
        free = (det > 1e-12 * np.maximum(s1 * spp, 1e-300)) & (c0 >= 0) & (b >= 0)
        # One residual: the free fit where feasible, else the nugget-free one.
        c0[~free] = 0.0
        b[~free] = np.maximum(spy[~free] / spp[~free], 0.0)
        r = b[:, None] * phi
        r += c0[:, None]
        r -= gam
        wr = wts * r
        wr *= r
        obj = wr.sum(axis=-1)
    to_flat = ~free & ~((spp > 0) & (obj <= flat[1]))
    c0[to_flat], b[to_flat], obj[to_flat] = flat[0], 0.0, flat[1]
    return c0, b, obj


def _fallback_model(empirical: EmpiricalVariogram) -> VariogramModel:
    """Low-information fit used when fewer than 3 bins are available.  Its
    family is spherical whatever family was asked for."""
    model = VariogramModel(
        family=SPHERICAL,
        nugget=0.0,
        range=max(empirical.max_distance / 2.0, float(np.finfo(float).tiny)),
        sill=float(max(empirical.response_variance, 0.0)),
        flag=FLAG_LOW_INFORMATION,
    )
    if empirical.n_bins == 0:
        return model
    return replace(model, fit_mse=float(np.mean((eval_model(model, empirical.h) - empirical.gamma) ** 2)))


def _fit_families(empirical: EmpiricalVariogram, families) -> list[VariogramModel]:
    """fit_model for each of `families`, the range searches in lockstep: one
    array call of _profiled_linear per level profiles every family still
    refining, the 40-point coarse grids first.  Each row is reduced on its
    own and each family refines until its own bracket closes, so a family's
    fit is bit for bit the same whichever families are fitted with it."""
    for family in families:
        if family not in FAMILIES:
            raise ConfigurationError(f"unknown variogram family {family!r}")
    if empirical.n_bins < 3:
        return [_fallback_model(empirical)] * len(families)

    h, gam = empirical.h, empirical.gamma
    if np.all(gam == 0.0):
        return [VariogramModel(family=family, nugget=0.0, range=empirical.max_distance,
                               sill=0.0, flag=FLAG_DEGENERATE) for family in families]

    wts = empirical.count / empirical.count.sum()
    s1, sy = wts.sum(), (wts * gam).sum()
    flat_c0 = max(sy / s1, 0.0)
    r = flat_c0 - gam
    flat = (flat_c0, (wts * r * r).sum())

    # best: (range, C0, b, objective) rows, one per family, of the best range
    # profiled so far; rows: the families still refining, with their ranges.
    best = None
    rows = np.arange(len(families))
    ranges = np.tile(np.geomspace(float(h.min()), 2.0 * float(h.max()), 40), (len(families), 1))
    # Row-broadcast products cost about twice same-shape ones, so the
    # weights and gammas are tiled once, to the largest level, and each
    # level's shapes are written into one buffer.
    rows_max = ranges.size
    wts_rows, gam_rows = np.tile(wts, (rows_max, 1)), np.tile(gam, (rows_max, 1))
    phi_rows = np.empty((rows_max, h.size))
    while rows.size:
        n, width = ranges.size, ranges.shape[1]
        for slot, (i, a) in enumerate(zip(rows.tolist(), ranges)):
            _shape(families[i], h, a[:, None], out=phi_rows[slot * width:(slot + 1) * width])
        c0, b, obj = _profiled_linear(phi_rows[:n], gam_rows[:n], wts_rows[:n], s1, sy, flat)
        i, k = np.arange(rows.size), obj.reshape(ranges.shape).argmin(axis=1)
        k_flat = i * width + k
        level = np.array([ranges[i, k], c0[k_flat], b[k_flat], obj[k_flat]])
        if best is None:
            best = level
        else:
            # Only a strictly better range replaces the best: ties keep the earlier.
            better = level[3] < best[3, rows]
            best[:, rows[better]] = level[:, better]
        lo = ranges[i, np.maximum(k - 1, 0)]
        hi = ranges[i, np.minimum(k + 1, width - 1)]
        open_ = hi - lo > FIT_TOL * np.maximum(1.0, hi)
        rows, lo, hi = rows[open_], lo[open_], hi[open_]
        # np.linspace(lo, hi, _REFINE_POINTS, axis=1), bit for bit, at a third of its cost.
        ranges = lo[:, None] + _REFINE_STEPS * ((hi - lo) / (_REFINE_POINTS - 1))[:, None]
        ranges[:, -1] = hi

    a, c0, b = best[:3]
    phi = np.stack([_shape(f, h, a_f) for f, a_f in zip(families, a)])
    fit_mse = np.mean((np.where(h > 0, b[:, None] * phi + c0[:, None], 0.0) - gam) ** 2, axis=1)
    return [VariogramModel(*fit) for fit in zip(families, c0.tolist(), a.tolist(), b.tolist(), fit_mse.tolist())]


def fit_model(empirical: EmpiricalVariogram, family: str) -> VariogramModel:
    """Fit one family to the empirical variogram.

    Minimizes the pair-count-weighted MSE over (C0, a, b) with C0 >= 0,
    b >= 0, and a within [smallest bin distance, 2 x largest bin distance].
    (C0, b) are profiled exactly at each trial range.  The range comes from
    nested grids, which keep the fit robust on the ragged empirical
    variograms sparse designs give: a 40-point geometric grid, then levels
    of _REFINE_POINTS evenly spaced ranges, each level spanning the two
    steps around the previous level's best range, until that bracket is
    within FIT_TOL.  The best range profiled at any level wins, exact ties
    to the earlier.  fit_mse on the result is the unweighted MSE used for
    model selection.  With fewer than 3 bins the fit is the spherical
    low-information fallback whatever the family.
    """
    return _fit_families(empirical, (family,))[0]


def _ranked_fits(empirical: EmpiricalVariogram) -> list[VariogramModel]:
    """The distinct fits of the four families, best first: lowest
    unweighted MSE, exact ties broken by family order (FAMILIES).  One
    model, the fallback, when there are fewer than 3 bins."""
    fits = sorted(_fit_families(empirical, FAMILIES), key=lambda m: (m.fit_mse, FAMILIES.index(m.family)))
    return list(dict.fromkeys(fits))


def select_model(empirical: EmpiricalVariogram) -> VariogramModel:
    """Fit all four families and keep the lowest unweighted-MSE model.

    The four range searches of fit_model run in lockstep, one array
    evaluation per level of the nested grids.  Exact MSE ties break by
    family order (FAMILIES); with fewer than 3 bins every family degrades
    to the same fallback.
    """
    return _ranked_fits(empirical)[0]
