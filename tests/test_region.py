import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from krigplan import (
    Combination,
    ConfigurationError,
    GridSpec,
    Measurement,
    Prediction,
    RegionReport,
    classify_cells,
    classify_grid,
    contour_lines,
    largest_region,
    largest_reliable_region,
    threshold_contour,
)
from krigplan.region import (
    CONFIDENTLY_ABOVE,
    LABELS,
    MEASURED_FAIL,
    MEASURED_PASS,
    RELIABLE_CANDIDATE,
    UNCERTAIN,
)

D = 4.0


def pred(m, k, mean, half=0.5):
    return Prediction(Combination(m, k), mean, half**2, mean - half, mean + half)


def test_label_assignment():
    preds = [
        pred(1.0, 1.0, 3.0, half=0.5),   # mean and upper below: reliable
        pred(1.0, 2.0, 3.8, half=0.5),   # upper 4.3 straddles: uncertain
        pred(1.0, 3.0, 5.0, half=0.5),   # lower 4.5 above: confidently above
        pred(1.0, 4.0, 3.5, half=0.5),   # measured below
        pred(1.0, 5.0, 3.5, half=0.5),   # measured above
    ]
    ms = [
        Measurement(Combination(1.0, 4.0), 3.9),
        Measurement(Combination(1.0, 5.0), 4.1),
    ]
    labels = classify_grid(preds, ms, D)
    assert labels[Combination(1.0, 1.0)] == RELIABLE_CANDIDATE
    assert labels[Combination(1.0, 2.0)] == UNCERTAIN
    assert labels[Combination(1.0, 3.0)] == CONFIDENTLY_ABOVE
    assert labels[Combination(1.0, 4.0)] == MEASURED_PASS
    assert labels[Combination(1.0, 5.0)] == MEASURED_FAIL


def test_boundary_cases():
    preds = [
        pred(1.0, 1.0, 4.0, half=0.0),   # mean == d, upper == d: reliable
        pred(1.0, 2.0, 3.9, half=0.1),   # upper exactly d: reliable
        pred(1.0, 3.0, 4.1, half=0.1),   # lower exactly d: not confidently above
    ]
    labels = classify_grid(preds, [], D)
    assert labels[Combination(1.0, 1.0)] == RELIABLE_CANDIDATE
    assert labels[Combination(1.0, 2.0)] == RELIABLE_CANDIDATE
    assert labels[Combination(1.0, 3.0)] == UNCERTAIN


def test_measured_at_threshold_passes():
    preds = [pred(1.0, 1.0, 9.0)]
    ms = [Measurement(Combination(1.0, 1.0), 4.0)]
    labels = classify_grid(preds, ms, D)
    assert labels[Combination(1.0, 1.0)] == MEASURED_PASS


def test_measured_judged_by_response_not_prediction():
    # prediction says fine, observation says otherwise: observation wins
    preds = [pred(1.0, 1.0, 2.0, half=0.1)]
    ms = [Measurement(Combination(1.0, 1.0), 7.0)]
    labels = classify_grid(preds, ms, D)
    assert labels[Combination(1.0, 1.0)] == MEASURED_FAIL


def test_every_cell_gets_exactly_one_label():
    rng = np.random.default_rng(8)
    preds = []
    for i in range(6):
        for j in range(6):
            mean = float(rng.uniform(1.0, 8.0))
            half = float(rng.uniform(0.0, 2.0))
            preds.append(pred(float(i + 1), float(j + 1), mean, half=half))
    ms = [Measurement(preds[3].location, 3.0), Measurement(preds[20].location, 6.0)]
    labels = classify_grid(preds, ms, D)
    assert len(labels) == 36
    assert all(lab in LABELS for lab in labels.values())


def test_classify_requires_coverage():
    preds = [pred(1.0, 1.0, 3.0)]
    ms = [Measurement(Combination(2.0, 2.0), 3.0)]
    with pytest.raises(ConfigurationError):
        classify_grid(preds, ms, D)
    with pytest.raises(ConfigurationError):
        classify_grid(preds, [], D, grid=[Combination(1.0, 1.0), Combination(1.0, 2.0)])


# --- connected components ----------------------------------------------------

def grid_labels(rows):
    """rows: strings over {R, U, P, F, A}; row index -> m, column -> k."""
    mapping = {"R": RELIABLE_CANDIDATE, "U": UNCERTAIN, "A": CONFIDENTLY_ABOVE,
               "P": MEASURED_PASS, "F": MEASURED_FAIL}
    labels = {}
    for i, row in enumerate(rows):
        for j, ch in enumerate(row):
            labels[Combination(float(i + 1), float(j + 1))] = mapping[ch]
    return labels


def test_largest_component_wins():
    labels = grid_labels([
        "RRU",
        "URU",
        "UUR",
    ])
    report = largest_reliable_region(labels)
    assert report.cell_count == 3
    assert report.cells == (
        Combination(1.0, 1.0), Combination(1.0, 2.0), Combination(2.0, 2.0),
    )
    assert (report.m_min, report.m_max) == (1.0, 2.0)
    assert (report.k_min, report.k_max) == (1.0, 2.0)


def test_measured_pass_joins_region():
    labels = grid_labels([
        "RPR",
        "UUU",
    ])
    report = largest_reliable_region(labels)
    assert report.cell_count == 3  # the pass cell bridges the two candidates


def test_diagonal_does_not_connect():
    labels = grid_labels([
        "RU",
        "UR",
    ])
    report = largest_reliable_region(labels)
    assert report.cell_count == 1


def test_component_tie_breaks_to_lexicographic_anchor():
    labels = grid_labels([
        "RUR",
        "UUU",
    ])
    report = largest_reliable_region(labels)
    assert report.cells == (Combination(1.0, 1.0),)


def test_component_tie_breaks_to_first_cell_not_last():
    """Two 3-cell components: the column starts first but ends last."""
    labels = grid_labels([
        "RUUUU",
        "RURRR",
        "RUUUU",
    ])
    report = largest_reliable_region(labels)
    assert report.cells == (Combination(1.0, 1.0), Combination(2.0, 1.0), Combination(3.0, 1.0))


def test_empty_region():
    labels = grid_labels(["UA", "FU"])
    report = largest_reliable_region(labels)
    assert report == RegionReport.empty()
    assert report.cell_count == 0


ELIGIBLE = (LABELS.index(RELIABLE_CANDIDATE), LABELS.index(MEASURED_PASS))
# Every other code, and -1 for a cell largest_reliable_region has no label for.
INELIGIBLE = tuple(code for code in range(-1, len(LABELS)) if code not in ELIGIBLE)


def ndimage_region(codes):
    """(rows, cols) of the largest eligible component by scipy.ndimage.label,
    which numbers components by their first cell in row-major order; size
    ties go to the lowest number."""
    components, count = ndimage.label(np.isin(codes, ELIGIBLE))
    flat = components.reshape(-1)
    cells = np.empty(0, dtype=np.intp)
    if count:
        sizes = np.bincount(flat)
        sizes[0] = 0  # background
        cells = np.flatnonzero(flat == np.argmax(sizes))
    return np.divmod(cells, codes.shape[1])


@st.composite
def region_codes(draw):
    """Code arrays up to 9x11, 1xk and mx1 among them, in one of five
    layouts: random cells, no eligible cell, a checkerboard (no two
    eligible cells adjacent, every component one cell), and stripes of
    equal length along either axis (equal-size components)."""
    shape = draw(st.sampled_from(["1xk", "mx1", "mxk"]))
    m = 1 if shape == "1xk" else draw(st.integers(1, 9))
    k = 1 if shape == "mx1" else draw(st.integers(1, 11))
    i, j = np.indices((m, k))
    layout = draw(st.sampled_from(["random", "empty", "checkerboard", "row-stripes", "column-stripes"]))
    if layout == "random":
        eligible = np.array(draw(st.lists(st.booleans(), min_size=m * k, max_size=m * k)), dtype=bool)
        eligible = eligible.reshape(m, k)
    elif layout == "empty":
        eligible = np.zeros((m, k), dtype=bool)
    elif layout == "checkerboard":
        eligible = (i + j) % 2 == draw(st.integers(0, 1))
    else:
        along, across = (j, i) if layout == "row-stripes" else (i, j)
        length, gap = draw(st.integers(1, 4)), draw(st.integers(1, 2))
        eligible = (across % (gap + 1) == 0) & (along < length)
    codes = np.array([draw(st.sampled_from(ELIGIBLE if e else INELIGIBLE)) for e in eligible.reshape(-1)])
    return codes.reshape(m, k).astype(np.int8)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(codes=region_codes())
def test_largest_region_equals_ndimage_reference(codes):
    """largest_region's cells, in the row-major order LatticeRegion holds
    them, are those of the scipy.ndimage.label reference, ties included."""
    m_axis, k_axis = np.arange(codes.shape[0]) * 0.5, np.arange(codes.shape[1]) + 1.0
    region = largest_region(codes, m_axis, k_axis)
    rows, cols = ndimage_region(codes)
    assert region.rows.tolist() == rows.tolist()
    assert region.cols.tolist() == cols.tolist()
    assert np.array_equal(region.m_axis, m_axis) and np.array_equal(region.k_axis, k_axis)


def test_region_cross_check_detects_mismatch():
    labels = grid_labels(["RU"])
    ms = [Measurement(Combination(1.0, 1.0), 2.0)]  # measured but labeled R
    with pytest.raises(ConfigurationError):
        largest_reliable_region(labels, ms, D)


def test_region_cross_check_accepts_consistent_labels():
    labels = grid_labels(["PU"])
    ms = [Measurement(Combination(1.0, 1.0), 2.0)]
    report = largest_reliable_region(labels, ms, D)
    assert report.cell_count == 1


# --- contour extraction ------------------------------------------------------

def test_contour_vertical_midline():
    preds = [pred(1.0, 1.0, 3.0), pred(1.0, 2.0, 3.0),
             pred(2.0, 1.0, 5.0), pred(2.0, 2.0, 5.0)]
    lines = threshold_contour(preds, 4.0)
    assert lines == [[(1.5, 1.0), (1.5, 2.0)]]


def test_contour_interpolates_linearly():
    preds = [pred(1.0, 1.0, 3.0), pred(1.0, 2.0, 3.0),
             pred(2.0, 1.0, 5.0), pred(2.0, 2.0, 5.0)]
    lines = threshold_contour(preds, 3.5)
    assert lines == [[(1.25, 1.0), (1.25, 2.0)]]


def test_contour_closed_loop():
    preds = []
    for m in (1.0, 2.0, 3.0):
        for k in (1.0, 2.0, 3.0):
            mean = 2.0 if (m, k) == (2.0, 2.0) else 6.0
            preds.append(pred(m, k, mean))
    lines = threshold_contour(preds, 4.0)
    assert len(lines) == 1
    loop = lines[0]
    assert loop[0] == loop[-1]
    assert len(loop) == 5  # diamond around the center cell
    for m, k in loop:
        assert isinstance(m, float) and isinstance(k, float)


def test_contour_no_crossing():
    preds = [pred(1.0, 1.0, 3.0), pred(1.0, 2.0, 3.0),
             pred(2.0, 1.0, 3.5), pred(2.0, 2.0, 3.5)]
    assert threshold_contour(preds, 4.0) == []
    assert threshold_contour(preds, 1.0) == []


def test_contour_requires_full_grid():
    preds = [pred(1.0, 1.0, 3.0), pred(1.0, 2.0, 3.0), pred(2.0, 1.0, 5.0)]
    with pytest.raises(ConfigurationError):
        threshold_contour(preds, 4.0)


def test_contour_value_at_threshold_counts_as_below():
    preds = [pred(1.0, 1.0, 4.0), pred(1.0, 2.0, 4.0),
             pred(2.0, 1.0, 5.0), pred(2.0, 2.0, 5.0)]
    lines = threshold_contour(preds, 4.0)
    # corners at exactly 4.0 sit on the at-or-below side, so a crossing exists
    assert len(lines) == 1


def test_contour_saddle_cells_pair_by_center_mean():
    # a checkerboard cell: the center mean decides which corners connect
    corners = {(1.0, 1.0): 5.0, (1.0, 2.0): 3.0, (2.0, 1.0): 3.0, (2.0, 2.0): 5.0}
    for center_high in (True, False):
        bump = 0.5 if center_high else -0.5
        preds = [pred(m, k, mean + bump * (mean > D)) for (m, k), mean in corners.items()]
        lines = threshold_contour(preds, D)
        assert lines == reference_threshold_contour(preds, D)
        assert len(lines) == 2 and all(len(line) == 2 for line in lines)


# --- the lattice functions against the dict-based reference -----------------
#
# reference_classify_grid, reference_largest_reliable_region and
# reference_threshold_contour are the dict-based implementations that the
# lattice functions replaced, kept verbatim as the oracle.

def reference_classify_grid(predictions, measurements, threshold, grid=None):
    labels = {}
    measured = {m.location: m.response for m in measurements}
    for p in predictions:
        loc = p.location
        if loc in measured:
            labels[loc] = MEASURED_PASS if measured[loc] <= threshold else MEASURED_FAIL
        elif p.mean <= threshold and p.ci_upper <= threshold:
            labels[loc] = RELIABLE_CANDIDATE
        elif p.ci_lower > threshold:
            labels[loc] = CONFIDENTLY_ABOVE
        else:
            labels[loc] = UNCERTAIN
    for loc in measured:
        if loc not in labels:
            raise ConfigurationError(f"no prediction covers measured location ({loc.m}, {loc.k})")
    if grid is not None:
        for loc in grid:
            if loc not in labels:
                raise ConfigurationError(f"no prediction covers grid point ({loc.m}, {loc.k})")
    return labels


def _reference_index_maps(labels):
    ms = sorted({c.m for c in labels})
    ks = sorted({c.k for c in labels})
    mi = {v: i for i, v in enumerate(ms)}
    ki = {v: j for j, v in enumerate(ks)}
    return ms, ks, mi, ki


def reference_largest_reliable_region(labels, measurements=None, threshold=None):
    if measurements is not None and threshold is not None:
        for meas in measurements:
            got = labels.get(meas.location)
            want = MEASURED_PASS if meas.response <= threshold else MEASURED_FAIL
            if got != want:
                raise ConfigurationError(
                    f"label {got!r} at ({meas.location.m}, {meas.location.k}) does not match "
                    f"its measured response {meas.response}"
                )

    eligible = {c for c, lab in labels.items() if lab in (RELIABLE_CANDIDATE, MEASURED_PASS)}
    if not eligible:
        return RegionReport.empty()

    _, _, mi, ki = _reference_index_maps(labels)
    by_index = {(mi[c.m], ki[c.k]): c for c in eligible}

    components = []
    todo = set(by_index)
    while todo:
        start = todo.pop()
        stack = [start]
        comp = []
        while stack:
            i, j = stack.pop()
            comp.append(by_index[(i, j)])
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in todo:
                    todo.remove(nb)
                    stack.append(nb)
        components.append(comp)

    def anchor(comp):
        return min((c.m, c.k) for c in comp)

    best = min(components, key=lambda comp: (-len(comp), anchor(comp)))
    cells = tuple(sorted(best, key=lambda c: (c.m, c.k)))
    return RegionReport(
        cells=cells,
        cell_count=len(cells),
        m_min=min(c.m for c in cells),
        m_max=max(c.m for c in cells),
        k_min=min(c.k for c in cells),
        k_max=max(c.k for c in cells),
    )


def reference_threshold_contour(predictions, threshold):
    preds = list(predictions)
    if not preds:
        return []
    ms = sorted({p.location.m for p in preds})
    ks = sorted({p.location.k for p in preds})
    mi = {v: i for i, v in enumerate(ms)}
    ki = {v: j for j, v in enumerate(ks)}
    values = np.full((len(ms), len(ks)), np.nan)
    for p in preds:
        values[mi[p.location.m], ki[p.location.k]] = p.mean
    if np.isnan(values).any():
        raise ConfigurationError("predictions do not cover a complete rectangular grid")
    if len(ms) < 2 and len(ks) < 2:
        return []

    above = values > threshold
    vertices = {}

    def edge_vertex(axis, i, j):
        key = (axis, i, j)
        if key in vertices:
            return key
        if axis == "m":
            v0, v1 = values[i, j], values[i + 1, j]
            t = (threshold - v0) / (v1 - v0)
            vertices[key] = (float(ms[i] + t * (ms[i + 1] - ms[i])), float(ks[j]))
        else:
            v0, v1 = values[i, j], values[i, j + 1]
            t = (threshold - v0) / (v1 - v0)
            vertices[key] = (float(ms[i]), float(ks[j] + t * (ks[j + 1] - ks[j])))
        return key

    segments = []
    for i in range(len(ms) - 1):
        for j in range(len(ks) - 1):
            a = above[i, j]
            b = above[i + 1, j]
            c = above[i + 1, j + 1]
            d = above[i, j + 1]
            crossed = []
            if a != b:
                crossed.append(("m", i, j))
            if b != c:
                crossed.append(("k", i + 1, j))
            if d != c:
                crossed.append(("m", i, j + 1))
            if a != d:
                crossed.append(("k", i, j))
            if len(crossed) == 0:
                continue
            if len(crossed) == 2:
                segments.append((edge_vertex(*crossed[0]), edge_vertex(*crossed[1])))
            else:
                center_above = (values[i, j] + values[i + 1, j] + values[i + 1, j + 1] + values[i, j + 1]) / 4.0 > threshold
                e_ab = edge_vertex("m", i, j)
                e_bc = edge_vertex("k", i + 1, j)
                e_dc = edge_vertex("m", i, j + 1)
                e_ad = edge_vertex("k", i, j)
                if center_above == a:
                    segments.append((e_ab, e_bc))
                    segments.append((e_ad, e_dc))
                else:
                    segments.append((e_ab, e_ad))
                    segments.append((e_bc, e_dc))

    if not segments:
        return []

    adjacency = {}
    for u, v in segments:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)

    visited_edges = set()
    polylines = []

    def walk(start):
        line = [start]
        node = start
        while True:
            nxt = None
            for cand in sorted(adjacency[node]):
                e = tuple(sorted((node, cand)))
                if e not in visited_edges:
                    visited_edges.add(e)
                    nxt = cand
                    break
            if nxt is None:
                break
            line.append(nxt)
            node = nxt
        return line

    endpoints = sorted(n for n, nbrs in adjacency.items() if len(nbrs) == 1)
    for start in endpoints:
        if all(tuple(sorted((start, nb))) in visited_edges for nb in adjacency[start]):
            continue
        polylines.append(walk(start))
    for start in sorted(adjacency):
        if all(tuple(sorted((start, nb))) in visited_edges for nb in adjacency[start]):
            continue
        polylines.append(walk(start))

    return [[vertices[node] for node in line] for line in polylines]


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# Means and half-widths drawn mostly from a few levels around the threshold,
# so corners exactly at the threshold, saddle cells and equal-size components
# are common; arbitrary floats fill in the rest.
LEVELS = st.one_of(st.sampled_from([2.0, 3.5, 3.9, D, 4.1, 4.5, 6.0]), st.floats(0.0, 8.0))
HALVES = st.sampled_from([0.0, 0.1, 0.5, 1.5])


@st.composite
def lattice_specs(draw):
    """Small grids from 1x1 up to 6x7, with non-unit strides and k_scale."""
    n_m, n_k = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    m_min = draw(st.sampled_from([0.5, -1.0, 3.0]))
    m_stride = draw(st.sampled_from([1.0, 0.5, 0.1, 2.5]))
    k_min = draw(st.sampled_from([1.0, 0.0, -7.0]))
    k_stride = draw(st.sampled_from([1.0, 10.0, 0.3]))
    k_scale = draw(st.sampled_from([0.1, 1.0, 0.37]))
    return GridSpec(m_min, m_min + (n_m - 1) * m_stride, m_stride,
                    k_min, k_min + (n_k - 1) * k_stride, k_stride, k_scale)


@PROPERTY
@given(spec=lattice_specs(), data=st.data())
def test_lattice_functions_equal_dict_reference(spec, data):
    """Labels, region cells and bounding box, and contour polylines of the
    Combination functions and of the lattice functions equal the dict-based
    reference exactly, whatever the order of the predictions."""
    size = spec.point_count
    means = np.array(data.draw(st.lists(LEVELS, min_size=size, max_size=size)))
    halves = np.array(data.draw(st.lists(HALVES, min_size=size, max_size=size)))
    measured = data.draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    responses = data.draw(st.lists(LEVELS, min_size=len(measured), max_size=len(measured)))
    order = data.draw(st.permutations(range(size)))

    preds = [Prediction(spec.point(p), means[p], halves[p] ** 2,
                        means[p] - halves[p], means[p] + halves[p]) for p in order]
    ms = [Measurement(spec.point(p), r) for p, r in zip(measured, responses)]
    grid = [spec.point(p) for p in range(size)]

    labels = classify_grid(preds, ms, D, grid=grid)
    assert labels == reference_classify_grid(preds, ms, D, grid=grid)
    region = largest_reliable_region(labels, ms, D)
    assert region == reference_largest_reliable_region(labels, ms, D)
    contour = threshold_contour(preds, D)
    assert contour == reference_threshold_contour(preds, D)

    # the lattice functions on the same cells, as (m_count, k_count) arrays
    shape = (spec.m_count, spec.k_count)
    codes = classify_cells((means).reshape(shape), (means - halves).reshape(shape),
                           (means + halves).reshape(shape), D, measured, responses)
    assert {spec.point(p): LABELS[c] for p, c in enumerate(codes.reshape(-1))} == labels
    assert largest_region(codes, spec.m_values(), spec.k_values()).report() == region
    assert contour_lines(spec.m_values(), spec.k_values(), means.reshape(shape), D) == contour

    # a label dict with holes: missing cells are not eligible, and the
    # lattice is the distinct m and k values of the cells that remain
    dropped = set(data.draw(st.lists(st.sampled_from(grid), max_size=size)))
    partial = {c: lab for c, lab in labels.items() if c not in dropped}
    assert largest_reliable_region(partial) == reference_largest_reliable_region(partial)
