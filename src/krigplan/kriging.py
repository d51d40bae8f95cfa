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

Measurements and targets are grid points.  Under a stationary variogram the
semivariance of two grid points depends only on their index offset, so each
system evaluates the model once over grid.offset_distances.  A measurement's
right-hand sides over the whole lattice are one contiguous window of that
table; the system copies each window once, and Gamma and every target's
right-hand side are columns of the copy.

Each solve inverts its system once, by np.linalg.inv (LAPACK gesv: one LU
factorization with partial pivoting, solved against the identity), makes
the inverse exactly symmetric like the matrix, and solves every target by
one matrix product (GEMM) with it; the system keeps nothing of the solve.
A product with a computed inverse is not backward stable: its variances are
accurate to about EPS * cond**2 of the largest variance, where a triangular
(LU) solve reaches about EPS * cond.  Where the first could exceed
INVERSE_VARIANCE_RTOL (near-singular systems, such as zero-nugget Gaussian
fits), the product is refined twice against the matrix, which brings it to
the LU solve's accuracy.  Measured targets are solved exactly (see _solve).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalFailureError,
)
from .grid import Combination, GridSpec, distinct_indices, grid_indices, offset_distances, pair_distances
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
EPS = float(np.finfo(float).eps)
# Largest variance error, relative to the largest variance, accepted from the
# unrefined product with the inverse (about EPS * cond**2 of it): systems
# with EPS * cond**2 above this, cond above about 6.7e4, are refined.
INVERSE_VARIANCE_RTOL = 1e-6


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

    The measurements must be distinct grid points of spec
    (grid.distinct_indices names the first that is not).  The model is
    evaluated once, over offset_distances(spec), into table: the
    semivariance of any two grid points is its entry at their index
    offset.  lattice holds the (n+1, P)
    right-hand sides of every grid point in row-major order, each
    measurement's row one window of table and the last row the border of
    ones.  It is copied once, here, and is read-only; the matrix and every
    target's right-hand side are columns of it.  Nothing is written after
    construction: _solve reads the condition estimate and the inverse once
    each and keeps neither.
    """

    def __init__(self, measurements, model: VariogramModel, spec: GridSpec):
        measurements = list(measurements)
        if not measurements:
            raise InsufficientDataError("kriging needs at least one measurement")
        self.model = model
        self.spec = spec
        self.values = np.array([m.response for m in measurements], dtype=float)
        self.flat = distinct_indices(spec, [m.location for m in measurements])
        self.table = eval_model(model, offset_distances(spec))

        n, m_count, k_count = len(measurements), spec.m_count, spec.k_count
        # np.empty: every entry is written, and a fill would cost as much as the copy.
        self.lattice = np.empty((n + 1, spec.point_count))
        for row, node in zip(self.lattice, self.flat.tolist()):
            i, j = divmod(node, k_count)
            row.reshape(m_count, k_count)[...] = self.table[m_count - 1 - i:2 * m_count - 1 - i,
                                                            k_count - 1 - j:2 * k_count - 1 - j]
        self.lattice[n] = 1.0
        self.lattice.flags.writeable = False
        mat = np.ones((n + 1, n + 1), dtype=float)
        # Each measurement's column is its right-hand side; the zero offset's
        # entry, gamma(0) = 0 exactly, is the diagonal.
        mat[:, :n] = self.lattice[:, self.flat]
        mat[n, n] = 0.0
        self.matrix = mat

    @property
    def n(self) -> int:
        return len(self.values)

    def condition_estimate(self) -> float:
        return float(np.linalg.cond(self.matrix))

    def _nearest_pair(self) -> str:
        """"nearest locations are (m, k) and (m, k)": the closest two
        measurements, which a numerical failure names."""
        d = pair_distances(self.spec, self.flat[:, None], self.flat)
        np.fill_diagonal(d, np.inf)
        a, b = (self.spec.point(int(self.flat[i])) for i in np.unravel_index(np.argmin(d), d.shape))
        return f"nearest locations are ({a.m}, {a.k}) and ({b.m}, {b.k})"

    def lu(self) -> np.ndarray:
        """The matrix's inverse from its LU factors (np.linalg.inv, LAPACK
        gesv against the identity), averaged with its transpose, the nearest
        symmetric matrix to it.  _solve calls it once per solve; the name is
        the one the benchmark's tracer times it under."""
        try:
            inverse = np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:  # singular factorization
            raise NumericalFailureError(
                f"kriging system factorization failed ({exc}); {self._nearest_pair()}"
            ) from exc
        return (inverse + inverse.T) / 2


def assemble_system(measurements, model: VariogramModel, spec: GridSpec) -> KrigingSystem:
    return KrigingSystem(measurements, model, spec)


def solve(system: KrigingSystem, target: Combination):
    """Weights and prediction variance for one target."""
    solution = solve_grid(system, [target])
    sol = solution.solution[:, 0]
    weights = SolvedWeights(weights=sol[: system.n].copy(), lagrange=float(-sol[-1]))
    return weights, float(solution.variances[0])


@dataclass(frozen=True)
class GridSolution:
    """Batch solve over many targets against one system: solve_lattice's
    arrays for a list of Combination targets instead of the whole lattice."""

    targets: tuple[Combination, ...]
    means: np.ndarray
    variances: np.ndarray
    rhs: np.ndarray        # (n+1, P)
    solution: np.ndarray   # (n+1, P), system solved against rhs


def _solve(system: KrigingSystem, flat: np.ndarray, rhs: np.ndarray):
    """(means, variances, solution) at the grid points at row-major indices
    flat, whose right-hand sides rhs are system.lattice[:, flat]: the solve
    behind solve_grid, solve_lattice and the planner's re-assembly scoring.
    A degenerate model (nugget and sill 0: a singular system) raises
    NumericalFailureError saying so, whatever the targets; so does a
    condition estimate past CONDITION_LIMIT, naming the nearest two
    measurements, and a variance below VARIANCE_FLOOR, naming the first
    such point.  Roundoff below zero clamps to 0.

    A measured target's right-hand side is its measurement's column of the
    matrix, so its solution column is set to that unit vector exactly: the
    product with the inverse leaves roundoff there that grows with the
    semivariance scale and could trip VARIANCE_FLOOR at a zero variance."""
    if system.model.is_degenerate:
        raise NumericalFailureError("the variogram model is degenerate (nugget and sill 0): its kriging "
                                    "system is singular and has no weights")
    row_at = np.full(system.spec.point_count, -1)
    row_at[system.flat] = np.arange(system.n)
    rows = row_at[flat]
    pos = np.flatnonzero(rows >= 0)
    rows = rows[pos]
    cond = system.condition_estimate()
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericalFailureError(
            f"kriging system is ill-conditioned (estimate {cond:.3e}); {system._nearest_pair()}"
        )
    inverse = system.lu()
    sol = inverse @ rhs
    if EPS * cond**2 > INVERSE_VARIANCE_RTOL:
        for _ in range(2):  # one step falls short of LU above cond ~1e10
            sol += inverse @ (rhs - system.matrix @ sol)
    sol[:, pos] = 0.0
    sol[rows, pos] = 1.0
    means = system.values @ sol[: system.n, :]
    variances = np.einsum("ip,ip->p", rhs, sol)
    bad = np.flatnonzero(variances < VARIANCE_FLOOR)
    if bad.size:
        target = system.spec.point(int(flat[bad[0]]))
        raise NumericalFailureError(
            f"kriging variance {float(variances[bad[0]])} at ({target.m}, {target.k}) is negative "
            "beyond roundoff; the fitted model is not usable on this layout"
        )
    variances = np.maximum(variances, 0.0)
    means[pos] = system.values[rows]
    variances[pos] = 0.0
    return means, variances, sol


def solve_grid(system: KrigingSystem, targets) -> GridSolution:
    """Means and variances at every target, each a point of the system's
    grid (ConfigurationError names the first that is not); measured targets
    reproduce their observations exactly with zero variance.  rhs is a copy
    of the targets' columns of system.lattice.
    """
    targets = list(targets)
    flat = grid_indices(system.spec, targets, "kriging target")
    rhs = np.take(system.lattice, flat, axis=1)  # C-ordered, like the lattice; [:, flat] is not
    means, variances, sol = _solve(system, flat, rhs)
    return GridSolution(tuple(targets), means, variances, rhs, sol)


def solve_lattice(system: KrigingSystem):
    """(means, variances, solution): the system solved against
    system.lattice, on every grid point of system.spec in row-major order.
    Measured points take their observations with zero variance, as in
    solve_grid."""
    return _solve(system, np.arange(system.spec.point_count), system.lattice)


def confidence_bounds(means, variances, z: float):
    """(lower, upper) of the symmetric interval mean -/+ z * sqrt(variance)."""
    half = z * np.sqrt(variances)
    return means - half, means + half


@dataclass(frozen=True, eq=False)
class LatticePrediction:
    """Kriged mean, variance and (1 - alpha) interval at every grid point,
    each an (m_count, k_count) array indexed like the lattice."""

    spec: GridSpec
    mean: np.ndarray
    variance: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray

    @classmethod
    def from_flat(cls, spec: GridSpec, means, variances, z: float) -> "LatticePrediction":
        """From solve_lattice's flat means and variances, intervals mean -/+ z * sqrt(variance)."""
        lower, upper = confidence_bounds(means, variances, z)
        shape = (spec.m_count, spec.k_count)
        return cls(spec, *(v.reshape(shape) for v in (means, variances, lower, upper)))


def predict_lattice(measurements, model: VariogramModel, spec: GridSpec,
                    alpha: float = 0.1) -> LatticePrediction:
    """predict_grid over the whole grid, as arrays, from one solve_lattice."""
    z = z_quantile(alpha)
    means, variances, _ = solve_lattice(assemble_system(measurements, model, spec))
    return LatticePrediction.from_flat(spec, means, variances, z)


def predict(measurements, model: VariogramModel, spec: GridSpec, target: Combination,
            alpha: float = 0.1) -> Prediction:
    """Point prediction with a symmetric (1 - alpha) confidence interval."""
    return predict_grid(measurements, model, spec, [target], alpha=alpha)[0]


def predict_grid(measurements, model: VariogramModel, spec: GridSpec, targets,
                 alpha: float = 0.1) -> list[Prediction]:
    """Batch prediction; the system is inverted once and every target is
    solved by one product with the inverse."""
    z = z_quantile(alpha)
    targets = list(targets)
    solution = solve_grid(assemble_system(measurements, model, spec), targets)
    lower, upper = confidence_bounds(solution.means, solution.variances, z)
    columns = (v.tolist() for v in (solution.means, solution.variances, lower, upper))
    return [Prediction(t, *values) for t, values in zip(targets, zip(*columns))]
