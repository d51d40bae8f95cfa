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

Each system is LU-factorized once, and the factors give its inverse once,
made exactly symmetric like the matrix.  Every batch of targets is then
solved by one matrix product (GEMM) with that inverse.  A product with a
computed inverse is not backward stable: its variances are accurate to
about EPS * cond**2 of the largest variance, where a triangular (LU) solve
reaches about EPS * cond.  Where the first could exceed
INVERSE_VARIANCE_RTOL (near-singular systems, such as zero-nugget Gaussian
fits), the product is refined twice against the matrix, which brings it to
the LU solve's accuracy.  Measured targets are solved exactly (see
_solve_coords).
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
from .grid import Combination, GridSpec, ensure_unique_locations, lattice_coords, scaled_coords
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

    The condition estimate and the inverse, built from one LU factorization,
    are each computed once, on first use; every target solved against this
    system is then one product with the cached inverse, refined on
    near-singular systems (solve_rhs).
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
        self._inverse = None
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
        """LU factors of the matrix; solve_rhs calls this once per system."""
        try:
            return lu_factor(self.matrix)
        except Exception as exc:  # singular factorization
            a, b = self._closest_pair()
            raise NumericalFailureError(
                f"kriging system factorization failed ({exc}); "
                f"nearest locations are ({a.m}, {a.k}) and ({b.m}, {b.k})"
            ) from exc

    def rhs(self, coords: np.ndarray) -> np.ndarray:
        """(n+1, P) right-hand sides for a (P, 2) array of scaled target coordinates."""
        gam = eval_model(self.model, cdist(self.points, coords))
        out = np.ones((self.n + 1, len(coords)), dtype=float)
        out[: self.n, :] = gam
        return out

    def solve_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """The system solved against rhs ((n+1,) or (n+1, P)) by one product
        with the inverse.

        The inverse is built on first use from the LU factors.  The matrix
        is symmetric, so its inverse is too: the computed one is averaged
        with its transpose, the nearest symmetric matrix to it, whose error
        is no larger.  If EPS * cond**2 exceeds INVERSE_VARIANCE_RTOL, each
        solve is refined twice by the product of the inverse with the
        residual."""
        if self._inverse is None:
            b = lu_solve(self.lu(), np.eye(self.n + 1))
            self._inverse = (b + b.T) / 2
        sol = self._inverse @ rhs
        if EPS * self.condition_estimate() ** 2 > INVERSE_VARIANCE_RTOL:
            for _ in range(2):  # one step falls short of LU above cond ~1e10
                sol += self._inverse @ (rhs - self.matrix @ sol)
        return sol


def assemble_system(measurements, model: VariogramModel, spec: GridSpec) -> KrigingSystem:
    return KrigingSystem(measurements, model, spec)


def _checked_variances(variances: np.ndarray, point_at) -> np.ndarray:
    """Clamp roundoff below zero to 0; raise, naming the first offending
    target (point_at maps a target's position to its Combination), for any
    variance below VARIANCE_FLOOR."""
    bad = np.flatnonzero(variances < VARIANCE_FLOOR)
    if bad.size:
        target = point_at(int(bad[0]))
        raise NumericalFailureError(
            f"kriging variance {float(variances[bad[0]])} at ({target.m}, {target.k}) is negative "
            "beyond roundoff; the fitted model is not usable on this layout"
        )
    return np.maximum(variances, 0.0)


def solve(system: KrigingSystem, target: Combination):
    """Weights and prediction variance for one target.

    A degenerate model has a singular system and so no weights; it raises
    NumericalFailureError saying so (solve_grid and solve_lattice instead
    predict the common response with zero variance)."""
    if system.model.is_degenerate:
        raise NumericalFailureError(
            "the variogram model is degenerate (nugget and sill 0): its kriging "
            "system is singular and has no weights"
        )
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


def _solve_coords(system: KrigingSystem, coords: np.ndarray, measured_pos, measured_rows, point_at):
    """(means, variances, rhs, solution) at the (P, 2) target coordinates,
    the solve behind solve_grid and solve_lattice.  Target measured_pos[i]
    sits on measurement measured_rows[i]; point_at names a target by its
    position in error messages.

    A measured target's right-hand side is its measurement's column of the
    matrix, so its solution column is set to that unit vector exactly: the
    product with the inverse leaves roundoff there that grows with the
    semivariance scale and could trip VARIANCE_FLOOR at a zero variance."""
    if system.model.is_degenerate or not len(coords):
        shape = (system.n + 1, len(coords))
        rhs, sol = np.zeros(shape), np.zeros(shape)
        means = np.full(len(coords), system.values.mean())
        variances = np.zeros(len(coords))
    else:
        system.check_conditioning()
        rhs = system.rhs(coords)
        sol = system.solve_rhs(rhs)
        sol[:, measured_pos] = 0.0
        sol[measured_rows, measured_pos] = 1.0
        means = system.values @ sol[: system.n, :]
        variances = _checked_variances(np.einsum("ip,ip->p", rhs, sol), point_at)
    means[measured_pos] = system.values[measured_rows]
    variances[measured_pos] = 0.0
    return means, variances, rhs, sol


def solve_grid(system: KrigingSystem, targets) -> GridSolution:
    """Means and variances at every target; measured targets reproduce their
    observations exactly with zero variance.

    A degenerate model (zero nugget and sill, i.e. no observed variability)
    predicts the common response everywhere with zero variance rather than
    failing on its singular system; its rhs and solution are zero.
    """
    targets = list(targets)
    row_of = {loc: row for row, loc in enumerate(system.locations)}
    pos = [p for p, t in enumerate(targets) if t in row_of]
    means, variances, rhs, sol = _solve_coords(system, scaled_coords(targets, system.spec), pos,
                                               [row_of[targets[p]] for p in pos], targets.__getitem__)
    return GridSolution(tuple(targets), means, variances, rhs, sol)


def solve_lattice(system: KrigingSystem):
    """(means, variances, rhs, solution, measured): the system solved on
    every grid point of system.spec in row-major order (lattice_coords), and
    the flat indices of the measurements that are grid points.  Measured
    points take their observations with zero variance, as in solve_grid."""
    spec = system.spec
    rows, flat = spec.flat_indices(system.locations)
    return (*_solve_coords(system, lattice_coords(spec), flat, rows, spec.point), flat)


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
    means, variances, _, _, _ = solve_lattice(assemble_system(measurements, model, spec))
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
