"""Threshold classification and contiguous-region extraction.

Grid cells are labeled against the response threshold using both the
kriged mean and the confidence interval: a cell only counts as reliable
when its prediction is below threshold AND the interval upper bound is
too.  The deliverable region is the largest 4-connected component of
reliable and measured-passing cells, reported with its bounding box.

classify_cells is the one rule for which cells are uncertain: the planner
targets the unmeasured cells it labels UNCERTAIN, and labels.csv holds its codes.

The work is done on the (m, k) lattice as arrays: classify_cells gives each
cell a code indexing LABELS, largest_region labels the components of an
(m_count, k_count) code array, and contour_lines traces the level set of a
2-D mean array.  classify_grid, largest_reliable_region and
threshold_contour are the Combination views of the same functions; the
last two take the lattice to be the distinct m and k values of the cells
they are given.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Combination

RELIABLE_CANDIDATE = "reliable_candidate"
UNCERTAIN = "uncertain"
CONFIDENTLY_ABOVE = "confidently_above"
MEASURED_PASS = "measured_pass"
MEASURED_FAIL = "measured_fail"

LABELS = (RELIABLE_CANDIDATE, UNCERTAIN, CONFIDENTLY_ABOVE, MEASURED_PASS, MEASURED_FAIL)

# Each label's code in the arrays classify_cells returns: its index in LABELS.
_CODE = {label: code for code, label in enumerate(LABELS)}

# Codes eligible for the reliable region.
_REGION_CODES = (_CODE[RELIABLE_CANDIDATE], _CODE[MEASURED_PASS])


def classify_cells(mean, lower, upper, threshold: float, measured_pos, measured_response) -> np.ndarray:
    """The label code (an index into LABELS) of every cell.

    mean, lower and upper are the prediction and its interval bounds, arrays
    of one shape; measured_pos are flat indices into them of the measured
    cells, whose observed responses are measured_response.  Measured cells
    are judged by their response alone (boundary inclusive: response ==
    threshold passes).  Other cells are reliable only when mean and upper
    bound are both at or below threshold, confidently above when the lower
    bound exceeds it, and uncertain otherwise.
    """
    codes = np.full(np.shape(mean), _CODE[UNCERTAIN], dtype=np.int8)
    codes[lower > threshold] = _CODE[CONFIDENTLY_ABOVE]
    codes[(mean <= threshold) & (upper <= threshold)] = _CODE[RELIABLE_CANDIDATE]
    codes.reshape(-1)[measured_pos] = np.where(
        np.asarray(measured_response, dtype=float) <= threshold, _CODE[MEASURED_PASS], _CODE[MEASURED_FAIL])
    return codes


def classify_grid(predictions, measurements, threshold: float, grid=None) -> dict[Combination, str]:
    """Label every predicted cell against the threshold (see classify_cells).

    When ``grid`` is given, a prediction must exist for each of its points,
    and every measured location needs one in any case.
    """
    preds = list(predictions)
    measured = {m.location: m.response for m in measurements}
    locs = [p.location for p in preds]
    pos = [i for i, loc in enumerate(locs) if loc in measured]
    mean = np.array([p.mean for p in preds], dtype=float)
    lower = np.array([p.ci_lower for p in preds], dtype=float)
    upper = np.array([p.ci_upper for p in preds], dtype=float)
    codes = classify_cells(mean, lower, upper, threshold, pos, [measured[locs[i]] for i in pos])
    labels = {loc: LABELS[code] for loc, code in zip(locs, codes.tolist())}
    for loc in measured:
        if loc not in labels:
            raise ConfigurationError(f"no prediction covers measured location ({loc.m}, {loc.k})")
    if grid is not None:
        for loc in grid:
            if loc not in labels:
                raise ConfigurationError(f"no prediction covers grid point ({loc.m}, {loc.k})")
    return labels


@dataclass(frozen=True)
class RegionReport:
    """Largest reliable region: member cells (row-major) and bounding box."""

    cells: tuple[Combination, ...]
    cell_count: int
    m_min: float | None
    m_max: float | None
    k_min: float | None
    k_max: float | None

    @classmethod
    def empty(cls) -> "RegionReport":
        return cls((), 0, None, None, None, None)


@dataclass(frozen=True, eq=False)
class LatticeRegion:
    """Largest reliable region on an (m, k) lattice: the m and k indices of
    its cells in row-major order, and the ascending axis values they index."""

    m_axis: np.ndarray
    k_axis: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @property
    def cell_count(self) -> int:
        return len(self.rows)

    def bbox(self) -> tuple:
        """(m_min, m_max, k_min, k_max), each None when the region is empty."""
        if not self.cell_count:
            return (None,) * 4
        return (float(self.m_axis[self.rows[0]]), float(self.m_axis[self.rows[-1]]),
                float(self.k_axis[self.cols.min()]), float(self.k_axis[self.cols.max()]))

    def report(self) -> RegionReport:
        """The same region with Combination cells."""
        ms, ks = self.m_axis.tolist(), self.k_axis.tolist()
        cells = tuple(Combination(ms[i], ks[j]) for i, j in zip(self.rows.tolist(), self.cols.tolist()))
        return RegionReport(cells, self.cell_count, *self.bbox())


def largest_region(codes: np.ndarray, m_axis, k_axis) -> LatticeRegion:
    """Largest 4-connected component of region-eligible cells (reliable or
    measured pass) of an (m_count, k_count) code array.

    Adjacency is one step along either axis.  The components are labelled by
    run-length union-find (Rosenfeld & Pfaltz 1966): each row's runs of
    eligible cells, numbered in row-major order, are joined to the runs they
    overlap in the row above, and every component is rooted at its lowest
    run.  Size ties break toward the lowest root, the component whose first
    cell in row-major order comes first.
    """
    eligible = np.isin(codes, _REGION_CODES)
    k_count = eligible.shape[1]
    edges = np.diff(np.pad(eligible.view(np.int8), ((0, 0), (1, 1))), axis=1)
    run_row, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[1]  # one past each run's last cell
    # The runs of the row above that overlap a run [start, end) are
    # consecutive: from the first that ends after its start to the last that
    # starts before its end.  Sort keys row * (k_count + 1) + column keep
    # each search inside the row above.
    above = (run_row - 1) * (k_count + 1)
    first = np.searchsorted(run_row * (k_count + 1) + end, above + start, side="right")
    last = np.searchsorted(run_row * (k_count + 1) + start, above + end)
    counts = np.maximum(last - first, 0)
    lower = np.repeat(np.arange(len(start)), counts)
    upper = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())

    parent = list(range(len(start)))

    def root(run):
        while parent[run] != run:
            parent[run] = parent[parent[run]]  # path halving
            run = parent[run]
        return run

    for a, b in zip(upper.tolist(), lower.tolist()):
        a, b = root(a), root(b)
        parent[max(a, b)] = min(a, b)
    roots = np.array([root(run) for run in range(len(parent))], dtype=np.intp)
    cell_roots = np.repeat(roots, end - start)  # the eligible cells, row-major
    cells = np.flatnonzero(eligible)
    if len(cells):
        cells = cells[cell_roots == np.argmax(np.bincount(cell_roots))]
    rows, cols = np.divmod(cells, k_count)
    return LatticeRegion(np.asarray(m_axis, dtype=float), np.asarray(k_axis, dtype=float), rows, cols)


def _lattice_of(locations):
    """(m axis, k axis, m index, k index) of cells given as Combinations."""
    m_axis, mi = np.unique(np.array([c.m for c in locations], dtype=float), return_inverse=True)
    k_axis, ki = np.unique(np.array([c.k for c in locations], dtype=float), return_inverse=True)
    return m_axis, k_axis, mi, ki


def largest_reliable_region(labels: dict[Combination, str], measurements=None,
                            threshold: float | None = None) -> RegionReport:
    """largest_region on a label dict, whose lattice is the distinct m and
    k values of its cells; cells it does not label are not eligible.
    measurements/threshold are accepted for interface symmetry with
    classify_grid and cross-checked when given.
    """
    if measurements is not None and threshold is not None:
        for meas in measurements:
            got = labels.get(meas.location)
            want = MEASURED_PASS if meas.response <= threshold else MEASURED_FAIL
            if got != want:
                raise ConfigurationError(
                    f"label {got!r} at ({meas.location.m}, {meas.location.k}) does not match "
                    f"its measured response {meas.response}"
                )

    m_axis, k_axis, mi, ki = _lattice_of(list(labels))
    codes = np.full((len(m_axis), len(k_axis)), -1, dtype=np.int8)
    codes[mi, ki] = [_CODE.get(label, -1) for label in labels.values()]
    return largest_region(codes, m_axis, k_axis).report()


def threshold_contour(predictions, threshold: float) -> list[list[tuple[float, float]]]:
    """contour_lines of the predicted means, which must cover a complete
    rectangular grid: its axes are the distinct m and k values."""
    preds = list(predictions)
    m_axis, k_axis, mi, ki = _lattice_of([p.location for p in preds])
    values = np.full((len(m_axis), len(k_axis)), np.nan)
    values[mi, ki] = [p.mean for p in preds]
    if np.isnan(values).any():
        raise ConfigurationError("predictions do not cover a complete rectangular grid")
    return contour_lines(m_axis, k_axis, values, threshold)


def contour_lines(m_axis, k_axis, values: np.ndarray, threshold: float) -> list[list[tuple[float, float]]]:
    """Mean-surface level set at the threshold, as polylines in (m, k).

    values is the (len(m_axis), len(k_axis)) mean array over ascending axes.
    Classic marching squares with linear interpolation along cell edges;
    saddle cells are disambiguated by the cell-center mean.  A corner exactly
    at the threshold counts as the at-or-below side.  Only the cells whose
    corners fall on both sides are visited, in row-major order.  Returns []
    when the surface never crosses.
    """
    ms = np.asarray(m_axis, dtype=float).tolist()
    ks = np.asarray(k_axis, dtype=float).tolist()
    above = values > threshold
    # A cell is crossed unless all four corners lie on the side of its first.
    first = above[:-1, :-1]
    mixed = (above[1:, :-1] != first) | (above[1:, 1:] != first) | (above[:-1, 1:] != first)

    # A crossing vertex is the grid edge it lies on: ("m", i, j) joins corners
    # (i, j) and (i+1, j), ("k", i, j) joins (i, j) and (i, j+1), so both cells
    # sharing an edge name the same vertex.
    neighbours: dict[tuple, list[tuple]] = {}
    side = above.tolist()
    for i, j in zip(*(v.tolist() for v in np.nonzero(mixed))):
        a = side[i][j]         # corner (i, j)
        b = side[i + 1][j]     # corner (i+1, j)
        c = side[i + 1][j + 1]
        d = side[i][j + 1]
        ab, bc, dc, ad = ("m", i, j), ("k", i + 1, j), ("m", i, j + 1), ("k", i, j)
        if a == c and b == d:
            # Saddle: pair the crossings around whichever diagonal the
            # cell-center mean groups with.
            center_above = (values[i, j] + values[i + 1, j] + values[i + 1, j + 1] + values[i, j + 1]) / 4.0 > threshold
            pairs = ((ab, bc), (ad, dc)) if center_above == a else ((ab, ad), (bc, dc))
        else:
            crossed = [edge for edge, cut in ((ab, a != b), (bc, b != c), (dc, d != c), (ad, a != d)) if cut]
            pairs = (crossed,)
        for u, v in pairs:
            neighbours.setdefault(u, []).append(v)
            neighbours.setdefault(v, []).append(u)

    # Open chains first (from endpoints of degree 1), then any leftover loops.
    # Each step takes the smallest neighbour not yet walked to and unlinks
    # the pair, so a start with no neighbours left has nothing to walk.
    endpoints = sorted(node for node, nbrs in neighbours.items() if len(nbrs) == 1)
    polylines = []
    for start in endpoints + sorted(neighbours):
        if not neighbours[start]:
            continue
        line = [start]
        node = start
        while neighbours[node]:
            nxt = min(neighbours[node])
            neighbours[node].remove(nxt)
            neighbours[nxt].remove(node)
            line.append(nxt)
            node = nxt
        polylines.append(line)

    def point(key):
        axis, i, j = key
        if axis == "m":
            v0, v1 = values[i, j], values[i + 1, j]
            t = (threshold - v0) / (v1 - v0)
            return (float(ms[i] + t * (ms[i + 1] - ms[i])), float(ks[j]))
        v0, v1 = values[i, j], values[i, j + 1]
        t = (threshold - v0) / (v1 - v0)
        return (float(ms[i]), float(ks[j] + t * (ks[j + 1] - ks[j])))

    return [[point(key) for key in line] for line in polylines]
