"""Semi-variogram estimation, parametric families, fitting, and selection.

Four bounded families are supported, each parametrized by a nugget C0, a
range a, and a partial sill b, with the sill C0 + b reached (or approached)
as distance grows.  gamma(0) is 0 by convention for every family, including
models with a nonzero nugget: the metamodel honors measured values exactly
and the nugget only widens predictions away from data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist

from .errors import ConfigurationError, InsufficientDataError
from .grid import GridSpec, ensure_unique_locations, scaled_coords

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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Golden-section steps per array call of the range refinement.  A call
# profiles every range those steps could read, at most 2**_LOOKAHEAD per
# family, so each further step doubles it; three was the fastest per
# selection on a 2-core x86-64 host, with two and four about 15% slower.
_LOOKAHEAD = 3


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
        # t[()] is a numpy scalar when t is 0-d: scalar ** rounds unlike the
        # array loop, and a scalar h has always taken the scalar path.
        cube = 0.5 * t[()] ** 3
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
    low-information fallback fit needs (see fit_model)."""

    bins: tuple[VariogramBin, ...]
    response_variance: float
    max_distance: float

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    def h_centers(self) -> np.ndarray:
        return np.array([b.h_center for b in self.bins], dtype=float)

    def gammas(self) -> np.ndarray:
        return np.array([b.gamma_hat for b in self.bins], dtype=float)

    def counts(self) -> np.ndarray:
        return np.array([b.pair_count for b in self.bins], dtype=float)


def empirical_variogram(
    measurements,
    spec: GridSpec,
    bin_width: float | None = None,
    max_lag: float | None = None,
) -> EmpiricalVariogram:
    """Method-of-moments estimate over fixed-width distance bins.

    Each pair lands in the bin whose center (an integer multiple of
    bin_width) is nearest to its scaled distance; a bin's reported h_center
    is the mean of its pair distances.  Bins with no pairs are dropped, as
    are bins centered beyond max_lag, where the estimator has too few pairs
    to be trusted.  Defaults: bin_width is the grid's nearest-neighbor
    spacing, max_lag is half the scaled domain diameter.
    """
    measurements = list(measurements)
    if len(measurements) < 2:
        raise InsufficientDataError("empirical variogram needs at least 2 measurements")
    ensure_unique_locations(measurements)
    if bin_width is None:
        bin_width = spec.nearest_neighbor_spacing()
    if bin_width <= 0 or not math.isfinite(bin_width):
        raise ConfigurationError(f"bin_width must be positive, got {bin_width}")
    if max_lag is None:
        max_lag = 0.5 * spec.scaled_diameter()
    if max_lag < 0 or not math.isfinite(max_lag):
        raise ConfigurationError(f"max_lag must be nonnegative and finite, got {max_lag}")

    pts = scaled_coords([m.location for m in measurements], spec)
    y = np.array([m.response for m in measurements], dtype=float)
    d = pdist(pts)
    n = len(measurements)
    iu, ju = np.triu_indices(n, k=1)
    sq = (y[iu] - y[ju]) ** 2

    max_distance = float(d.max())
    # Bin indices must be exact integers, well inside the int64 range.
    if not max_distance / bin_width < 2.0 ** 53:
        raise ConfigurationError(
            f"bin_width {bin_width} is too small for the largest pair distance {max_distance}"
        )

    # A stable sort keeps each bin's pairs in their original order for its sums.
    idx = np.round(d / bin_width).astype(int)
    order = np.argsort(idx, kind="stable")
    idx, d, sq = idx[order], d[order], sq[order]
    # Pairs from bin floor(max_lag / bin_width) + 2 on lie more than half a bin
    # width beyond max_lag, so no bin of theirs can be kept; the boundary bins
    # are still judged by their mean distance below.
    n_near = int(np.searchsorted(idx, np.floor(max_lag / bin_width) + 2.0))
    idx, d, sq = idx[:n_near], d[:n_near], sq[:n_near]
    edges = np.flatnonzero(np.diff(idx)) + 1
    bins = []
    for start, stop in zip(np.r_[0, edges], np.r_[edges, n_near]) if n_near else ():
        h_c = float(d[start:stop].mean())
        if h_c > max_lag:
            continue
        count = int(stop - start)
        gamma = float(sq[start:stop].sum() / (2.0 * count))
        bins.append(VariogramBin(h_c, gamma, count))

    return EmpiricalVariogram(
        bins=tuple(bins),
        response_variance=float(np.var(y, ddof=1)),
        max_distance=max_distance,
    )


def _profiled_linear(phi, gam, wts, s1, sy):
    """Weighted least squares for (nugget, sill) at each row's fixed range.

    phi is (R, bins), one row of unit shapes per trial range; s1 and sy are
    wts.sum() and (wts * gam).sum(), which do not depend on the range.  The
    model is linear in (C0, b) then, so each row has a closed form.  Where it
    is infeasible, the nugget-free fit wins unless the flat (pure-nugget) fit
    has a strictly smaller objective.  Returns (C0, b, objective) arrays.
    """
    wphi = wts * phi
    sp = wphi.sum(axis=-1)
    spp = (wphi * phi).sum(axis=-1)
    spy = (wphi * gam).sum(axis=-1)
    zeros = np.zeros_like(sp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = s1 * spp - sp * sp
        # Rows of c0s and bs: unconstrained, nugget-free and flat candidates.
        c0s = np.array([(spp * sy - sp * spy) / det, zeros, zeros + max(sy / s1, 0.0)])
        bs = np.array([(s1 * spy - sp * sy) / det, np.maximum(spy / spp, 0.0), zeros])
        r = c0s[..., None] + bs[..., None] * phi - gam
        objs = (wts * r * r).sum(axis=-1)
        free = (det > 1e-12 * np.maximum(s1 * spp, 1e-300)) & (c0s[0] >= 0) & (bs[0] >= 0)
    pick = np.where(free, 0, np.where((spp > 0) & (objs[1] <= objs[2]), 1, 2))
    return np.choose(pick, c0s), np.choose(pick, bs), np.choose(pick, objs)


def _fallback_model(empirical: EmpiricalVariogram) -> VariogramModel:
    """Low-information fit used when fewer than 3 bins are available."""
    a = max(empirical.max_distance / 2.0, float(np.finfo(float).tiny))
    model = VariogramModel(
        family=SPHERICAL,
        nugget=0.0,
        range=float(a),
        sill=float(max(empirical.response_variance, 0.0)),
        fit_mse=0.0,
        flag=FLAG_LOW_INFORMATION,
    )
    return _with_mse(model, empirical)


def _with_mse(model: VariogramModel, empirical: EmpiricalVariogram) -> VariogramModel:
    if empirical.n_bins == 0:
        return model
    resid = eval_model(model, empirical.h_centers()) - empirical.gammas()
    return replace(model, fit_mse=float(np.mean(resid**2)))


def _fit_families(empirical: EmpiricalVariogram, families) -> list[VariogramModel]:
    """fit_model for each of `families`, the range searches in lockstep: all
    coarse grids are profiled as one array, then one array per _LOOKAHEAD
    golden-section steps of every family still refining (_golden_search).
    Each row is reduced on its own, so the fits are bit for bit those of one
    family searched one range at a time."""
    for family in families:
        if family not in FAMILIES:
            raise ConfigurationError(f"unknown variogram family {family!r}")
    if empirical.n_bins < 3:
        return [_fallback_model(empirical)] * len(families)

    h = empirical.h_centers()
    gam = empirical.gammas()
    wts = empirical.counts() / empirical.counts().sum()

    if np.all(gam == 0.0):
        return [_with_mse(VariogramModel(family=family, nugget=0.0, range=empirical.max_distance,
                                         sill=0.0, fit_mse=0.0, flag=FLAG_DEGENERATE), empirical)
                for family in families]

    s1, sy = wts.sum(), (wts * gam).sum()

    def profile(fams, ranges):
        """Flat (C0, b, objective) arrays of fams[i] at every range in ranges[i]."""
        phi = np.concatenate([_shape(f, h, np.array(a, dtype=float)[:, None]) for f, a in zip(fams, ranges)])
        return _profiled_linear(phi, gam, wts, s1, sy)

    def objective(probes):
        return profile([families[i] for i in probes], list(probes.values()))[2].tolist()

    a_grid = np.geomspace(float(h.min()), 2.0 * float(h.max()), 40)
    coarse = profile(families, [a_grid] * len(families))[2].reshape(len(families), len(a_grid))
    best = np.argmin(coarse, axis=1)

    # Golden-section on the bracket around each family's best coarse point.
    brackets = [(float(a_grid[max(k - 1, 0)]), float(a_grid[min(k + 1, len(a_grid) - 1)]))
                for k in best.tolist()]
    mids = _golden_search(brackets, objective, _LOOKAHEAD)

    # The best coarse point, column 0, wins ties against the bracket midpoint.
    final = np.column_stack([a_grid[best], mids])
    c0, b, obj = (v.reshape(final.shape) for v in profile(families, final))
    pick = (obj[:, 1] < obj[:, 0]).astype(int)
    return [_with_mse(VariogramModel(family=family, nugget=float(max(c0[i, j], 0.0)),
                                     range=float(final[i, j]), sill=float(max(b[i, j], 0.0))), empirical)
            for i, (family, j) in enumerate(zip(families, pick))]


def _is_open(lo, hi) -> bool:
    return hi - lo > FIT_TOL * max(1.0, hi)


def _golden_search(brackets, objective, depth):
    """Golden-section search of each (lo, hi) bracket down to FIT_TOL;
    returns the midpoint of each final bracket, bit for bit that of the
    textbook loop:

        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        while hi - lo > FIT_TOL * max(1.0, hi):
            if f(x1) <= f(x2):
                hi, x2 = x2, x1
                x1 = hi - invphi * (hi - lo)
            else:
                lo, x1 = x1, x2
                x2 = lo + invphi * (hi - lo)
        return (lo + hi) / 2

    Each search is that loop reading f from its own table of profiled
    ranges.  A round takes up to `depth` steps of every open search, then
    one call objective({search index: [ranges]}), which returns the flat
    list of objectives in that order, profiles all the next `depth` steps
    can read: the bracket's interior points not in the table, then the new
    point of every open bracket depth - 1 steps can reach, level by level.
    """
    mids = [(lo + hi) / 2.0 for lo, hi in brackets]
    # Open searches: index -> (lo, hi, x1, x2, table of range -> objective).
    searches = {i: (lo, hi, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo), {})
                for i, (lo, hi) in enumerate(brackets) if _is_open(lo, hi)}
    while searches:
        still_open, probes = {}, {}
        for i, (lo, hi, x1, x2, f) in searches.items():
            # The last call profiled all these steps read; the first has no values yet.
            for _ in range(depth if f else 0):
                if f[x1] <= f[x2]:
                    hi, x2 = x2, x1
                    x1 = hi - _INVPHI * (hi - lo)
                else:
                    lo, x1 = x1, x2
                    x2 = lo + _INVPHI * (hi - lo)
                if not _is_open(lo, hi):
                    break
            if not _is_open(lo, hi):
                mids[i] = (lo + hi) / 2.0
                continue
            still_open[i] = (lo, hi, x1, x2, f)
            new = probes[i] = [x for x in (x1, x2) if x not in f]
            level = [(lo, hi, x1, x2)]
            for _ in range(depth - 1):
                below = []
                for lo, hi, x1, x2 in level:
                    if _is_open(lo, x2):  # where f(x1) <= f(x2) leads
                        x = x2 - _INVPHI * (x2 - lo)
                        below.append((lo, x2, x, x1))
                        new.append(x)
                    if _is_open(x1, hi):
                        x = x1 + _INVPHI * (hi - x1)
                        below.append((x1, hi, x2, x))
                        new.append(x)
                level = below
        searches = still_open
        if probes:
            objs = iter(objective(probes))
            for i, xs in probes.items():
                searches[i][4].update(zip(xs, objs))
    return mids


def fit_model(empirical: EmpiricalVariogram, family: str) -> VariogramModel:
    """Fit one family to the empirical variogram.

    Minimizes the pair-count-weighted MSE over (C0, a, b) with C0 >= 0,
    b >= 0, and a within [smallest bin distance, 2 x largest bin distance]:
    a coarse 40-point grid over a with exact profiling of (C0, b) at each
    trial range, refined by golden-section down to FIT_TOL, which keeps the
    fit robust on the ragged empirical variograms sparse designs give.  The
    refinement reads each range's objective from a table that one array call
    fills per _LOOKAHEAD steps (_golden_search).  fit_mse on the result is
    the unweighted MSE used for model selection.
    """
    return _fit_families(empirical, (family,))[0]


def select_model(empirical: EmpiricalVariogram) -> VariogramModel:
    """Fit all four families and keep the lowest unweighted-MSE model.

    The four searches of fit_model run in lockstep, one array evaluation per
    _LOOKAHEAD golden-section steps.  Exact MSE ties break by family order
    (FAMILIES); with fewer than 3 bins every family degrades to the same
    fallback.
    """
    fits = _fit_families(empirical, FAMILIES)
    return min(fits, key=lambda m: (m.fit_mse, FAMILIES.index(m.family)))
