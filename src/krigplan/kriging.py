"""Ordinary kriging on the measurement grid.

The estimator is the weighted sum of observed responses whose weights
minimize prediction variance subject to summing to one.  Weights come from
the bordered semivariance system

    [ Gamma  1 ] [ w        ]   [ gamma_0 ]
    [ 1^T    0 ] [ -lambda  ] = [ 1       ]

with zero diagonal in Gamma (gamma(0) = 0), so prediction at a measured
location reproduces its response exactly and has zero variance, nugget or
not.  The prediction variance is the dot product of the right-hand side
with the solution vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.spatial.distance import cdist

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalFailureError,
)
from .grid import Combination, GridSpec, ensure_unique_locations, scaled_coords
from .variogram import VariogramModel, eval_model

# Two-sided normal quantiles for the supported confidence levels
# (alpha -> z with P(|N(0,1)| <= z) = 1 - alpha).
Z_QUANTILES = {
    0.5: 0.674,
    0.25: 1.150,
    0.1: 1.645,
    0.05: 1.960,
    0.01: 2.576,
}

CONDITION_LIMIT = 1e12
# Variances this far below zero are roundoff and clamp to 0; anything lower
# means the system (or the model) is unsound and must not be masked.
VARIANCE_FLOOR = -1e-9


def z_quantile(alpha: float) -> float:
    try:
        return Z_QUANTILES[alpha]
    except KeyError:
        supported = ", ".join(str(a) for a in sorted(Z_QUANTILES))
        raise ConfigurationError(
            f"alpha {alpha} is not supported; choose one of {supported}"
        ) from None


@dataclass(frozen=True)
class SolvedWeights:
    """Kriging weights plus the Lagrange multiplier of the sum-to-one constraint."""

    weights: np.ndarray
    lagrange: float


@dataclass(frozen=True)
class Prediction:
    location: Combination
    mean: float
    variance: float
    ci_lower: float
    ci_upper: float


class KrigingSystem:
    """Bordered semivariance system for a fixed measurement set and model.

    The LU factorization and the condition estimate are computed once and
    reused across every target solved against this system.
    """

    def __init__(self, measurements, model: VariogramModel, spec: GridSpec):
        measurements = list(measurements)
        if not measurements:
            raise InsufficientDataError("kriging needs at least one measurement")
        ensure_unique_locations(measurements)
        self.measurements = measurements
        self.model = model
        self.spec = spec
        self.locations = [m.location for m in measurements]
        self.values = np.array([m.response for m in measurements], dtype=float)
        self.points = scaled_coords(self.locations, spec)

        n = len(measurements)
        gam = eval_model(model, cdist(self.points, self.points))
        np.fill_diagonal(gam, 0.0)
        mat = np.zeros((n + 1, n + 1), dtype=float)
        mat[:n, :n] = gam
        mat[n, :n] = 1.0
        mat[:n, n] = 1.0
        self.matrix = mat
        self._lu = None
        self._cond = None

    @property
    def n(self) -> int:
        return len(self.locations)

    def condition_estimate(self) -> float:
        if self._cond is None:
            self._cond = float(np.linalg.cond(self.matrix))
        return self._cond

    def _closest_pair(self) -> tuple[Combination, Combination]:
        d = cdist(self.points, self.points)
        np.fill_diagonal(d, np.inf)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        return self.locations[i], self.locations[j]

    def check_conditioning(self) -> None:
        cond = self.condition_estimate()
        if not math.isfinite(cond) or cond > CONDITION_LIMIT:
            a, b = self._closest_pair()
            raise NumericalFailureError(
                f"kriging system is ill-conditioned (estimate {cond:.3e}); "
                f"nearest locations are ({a.m}, {a.k}) and ({b.m}, {b.k})"
            )

    def lu(self):
        if self._lu is None:
            try:
                self._lu = lu_factor(self.matrix)
            except Exception as exc:  # singular factorization
                a, b = self._closest_pair()
                raise NumericalFailureError(
                    f"kriging system factorization failed ({exc}); "
                    f"nearest locations are ({a.m}, {a.k}) and ({b.m}, {b.k})"
                ) from exc
        return self._lu

    def rhs(self, targets) -> np.ndarray:
        """(n+1, P) right-hand sides for a batch of target locations."""
        tp = scaled_coords(targets, self.spec)
        gam = eval_model(self.model, cdist(self.points, tp))
        out = np.ones((self.n + 1, len(targets)), dtype=float)
        out[: self.n, :] = gam
        return out

    def solve_rhs(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self.lu(), rhs)


def assemble_system(measurements, model: VariogramModel, spec: GridSpec) -> KrigingSystem:
    return KrigingSystem(measurements, model, spec)


def _checked_variances(variances: np.ndarray, targets) -> np.ndarray:
    """Clamp roundoff below zero to 0; raise, naming the first offending
    target, for any variance below VARIANCE_FLOOR."""
    bad = np.flatnonzero(variances < VARIANCE_FLOOR)
    if bad.size:
        target = targets[bad[0]]
        raise NumericalFailureError(
            f"kriging variance {float(variances[bad[0]])} at ({target.m}, {target.k}) is negative "
            "beyond roundoff; the fitted model is not usable on this layout"
        )
    return np.maximum(variances, 0.0)


def solve(system: KrigingSystem, target: Combination):
    """Weights and prediction variance for one target."""
    system.check_conditioning()
    rhs = system.rhs([target])[:, 0]
    sol = system.solve_rhs(rhs)
    sigma2 = float(_checked_variances(np.array([rhs @ sol]), [target])[0])
    return SolvedWeights(weights=sol[: system.n].copy(), lagrange=float(-sol[-1])), sigma2


@dataclass(frozen=True)
class GridSolution:
    """Batch solve over many targets against one system.

    Kept around by the adaptive planner, which reuses the solved columns for
    its refinement-score updates.
    """

    targets: tuple[Combination, ...]
    means: np.ndarray
    variances: np.ndarray
    rhs: np.ndarray        # (n+1, P)
    solution: np.ndarray   # (n+1, P), system solved against rhs


def solve_grid(system: KrigingSystem, targets) -> GridSolution:
    """Means and variances at every target; measured targets reproduce their
    observations exactly with zero variance.

    A degenerate model (zero nugget and sill, i.e. no observed variability)
    predicts the common response everywhere with zero variance rather than
    failing on its singular system; its rhs and solution are zero.
    """
    targets = list(targets)
    if system.model.is_degenerate or not targets:
        rhs = sol = np.zeros((system.n + 1, len(targets)))
        means = np.full(len(targets), system.values.mean())
        variances = np.zeros(len(targets))
    else:
        system.check_conditioning()
        rhs = system.rhs(targets)
        sol = system.solve_rhs(rhs)
        means = system.values @ sol[: system.n, :]
        variances = _checked_variances(np.einsum("ip,ip->p", rhs, sol), targets)

    observed = {loc: val for loc, val in zip(system.locations, system.values)}
    for idx, t in enumerate(targets):
        if t in observed:
            means[idx] = observed[t]
            variances[idx] = 0.0
    return GridSolution(tuple(targets), means, variances, rhs, sol)


def _interval(mean: float, variance: float, z: float):
    half = z * math.sqrt(variance)
    return mean - half, mean + half


def predict(measurements, model: VariogramModel, spec: GridSpec, target: Combination,
            alpha: float = 0.1) -> Prediction:
    """Point prediction with a symmetric (1 - alpha) confidence interval."""
    return predict_grid(measurements, model, spec, [target], alpha=alpha)[0]


def predict_grid(measurements, model: VariogramModel, spec: GridSpec, targets,
                 alpha: float = 0.1) -> list[Prediction]:
    """Batch prediction; the system is factorized once and reused."""
    z = z_quantile(alpha)
    targets = list(targets)
    system = assemble_system(measurements, model, spec)
    solution = solve_grid(system, targets)
    out = []
    for t, mean, var in zip(targets, solution.means, solution.variances):
        lo, hi = _interval(float(mean), float(var), z)
        out.append(Prediction(t, float(mean), float(var), lo, hi))
    return out
