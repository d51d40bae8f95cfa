import math

import pytest

from krigplan import (
    Combination,
    ConfigurationError,
    GridSpec,
    OracleMissError,
    ResponseRecord,
    SchemaError,
    SyntheticLogisticOracle,
    TableReplayOracle,
    build_oracle,
    load_response_table,
    reduce_event_maxima,
)


@pytest.fixture
def grid():
    return GridSpec(0.5, 6.0, 0.5, 1.0, 60.0, 1.0, k_scale=0.1)


# --- event reduction ---------------------------------------------------------

def test_reduce_takes_fourth_largest():
    assert reduce_event_maxima(list(range(1, 16))) == 12.0
    assert reduce_event_maxima([7.0] * 15) == 7.0


def test_reduce_order_independent():
    values = [float(v) for v in (5, 1, 9, 2, 8, 3, 7, 4, 6, 10, 11, 0, 12, 13, 14)]
    assert reduce_event_maxima(values) == reduce_event_maxima(sorted(values))


def test_reduce_validates_input():
    with pytest.raises(SchemaError):
        reduce_event_maxima([1.0] * 14)
    with pytest.raises(SchemaError):
        reduce_event_maxima([1.0] * 16)
    with pytest.raises(SchemaError):
        reduce_event_maxima([1.0] * 14 + [-0.1])
    with pytest.raises(SchemaError):
        reduce_event_maxima([1.0] * 14 + [float("nan")])


def test_response_record_checks_consistency():
    maxima = tuple(float(v) for v in range(1, 16))
    ResponseRecord(Combination(1.0, 3.0), 12.0, maxima)
    with pytest.raises(SchemaError):
        ResponseRecord(Combination(1.0, 3.0), 11.0, maxima)


# --- synthetic surface -------------------------------------------------------

def test_logistic_midpoint_on_boundary_line():
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    for m in (0.5, 1.0, 3.0, 6.0):
        assert oracle.mean(m, 10.0 * m) == pytest.approx(5.5)  # floor + amplitude/2


def test_logistic_tails():
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    assert oracle.mean(0.5, 60.0) == pytest.approx(1.0, abs=1e-6)
    assert oracle.mean(6.0, 1.0) == pytest.approx(10.0, abs=1e-6)


def test_logistic_survives_huge_exponent():
    oracle = SyntheticLogisticOracle(steepness=1e16, noise_std=0.0)
    assert oracle.mean(0.5, 30.0) == 1.0   # exponent 2.5e17, clamped
    assert oracle.mean(3.0, 1.0) == 10.0   # exponent -2.9e17
    noisy = SyntheticLogisticOracle(steepness=1e16)
    for c in (Combination(0.5, 30.0), Combination(3.0, 1.0)):
        assert math.isfinite(noisy.evaluate(c))


def test_logistic_unchanged_below_the_exponent_clamp():
    def unclamped(o, m, k):
        return o.floor + o.amplitude / (1.0 + math.exp(o.steepness * (k - o.boundary_ratio * m)))

    default = SyntheticLogisticOracle(noise_std=0.0)
    steep = SyntheticLogisticOracle(steepness=1.0, noise_std=0.0)
    for o, m, k in ((default, 0.5, 60.0), (default, 6.0, 1.0), (default, 2.5, 25.0),
                    (steep, 0.5, 705.0),    # exponent exactly 700
                    (steep, 0.5, 600.0), (steep, 6.0, 1.0)):
        assert o.mean(m, k) == unclamped(o, m, k)


def test_logistic_monotone():
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    ks = [1.0 + i for i in range(60)]
    means = [oracle.mean(2.0, k) for k in ks]
    assert all(a > b for a, b in zip(means, means[1:]))  # decreasing in k
    ms = [0.5 * i for i in range(1, 13)]
    means_m = [oracle.mean(m, 30.0) for m in ms]
    assert all(a < b for a, b in zip(means_m, means_m[1:]))  # increasing in m


def test_boundary_k_closed_form():
    oracle = SyntheticLogisticOracle()
    expected = 10.0 + math.log(9.0 / 3.0 - 1.0) / 0.35
    assert oracle.boundary_k(1.0, 4.0) == pytest.approx(expected)
    for m in (0.5, 2.0, 4.5):
        for d in (2.0, 4.0, 8.0):
            k = oracle.boundary_k(m, d)
            assert oracle.mean(m, k) == pytest.approx(d, abs=1e-12)
            assert oracle.mean(m, k + 1.0) < d < oracle.mean(m, k - 1.0)


def test_boundary_k_rejects_unreachable_threshold():
    oracle = SyntheticLogisticOracle()
    with pytest.raises(ConfigurationError):
        oracle.boundary_k(1.0, 0.5)   # below the floor
    with pytest.raises(ConfigurationError):
        oracle.boundary_k(1.0, 10.0)  # at floor + amplitude


def test_synthetic_evaluation_deterministic():
    oracle = SyntheticLogisticOracle(seed=7)
    loc = Combination(2.0, 17.0)
    assert oracle.evaluate(loc) == oracle.evaluate(loc)


def test_synthetic_noise_keyed_by_location_not_order():
    a, b = Combination(1.0, 5.0), Combination(3.0, 40.0)
    first = SyntheticLogisticOracle(seed=3)
    va1, vb1 = first.evaluate(a), first.evaluate(b)
    second = SyntheticLogisticOracle(seed=3)
    vb2, va2 = second.evaluate(b), second.evaluate(a)
    assert va1 == va2 and vb1 == vb2


def test_synthetic_seed_changes_noise():
    loc = Combination(2.0, 17.0)
    v0 = SyntheticLogisticOracle(seed=0).evaluate(loc)
    v1 = SyntheticLogisticOracle(seed=1).evaluate(loc)
    assert v0 != v1
    noiseless = SyntheticLogisticOracle(noise_std=0.0).evaluate(loc)
    assert abs(v0 - noiseless) < 1.0  # noise std is sqrt(0.025)


def test_synthetic_clips_at_zero():
    # push the mean to ~0 and crank the noise so negative draws occur
    oracle = SyntheticLogisticOracle(floor=0.0, amplitude=1.0, noise_std=10.0, seed=0)
    values = [oracle.evaluate(Combination(1.0, float(k))) for k in range(30, 45)]
    assert all(v >= 0.0 for v in values)
    assert any(v == 0.0 for v in values)


def test_synthetic_validation():
    with pytest.raises(ConfigurationError):
        SyntheticLogisticOracle(amplitude=0.0)
    with pytest.raises(ConfigurationError):
        SyntheticLogisticOracle(steepness=-1.0)
    with pytest.raises(ConfigurationError):
        SyntheticLogisticOracle(noise_std=-0.1)


# --- replay oracle -----------------------------------------------------------

def test_replay_round_trip(grid):
    records = [
        ResponseRecord(Combination(1.0, 3.0), 2.5),
        ResponseRecord(Combination(2.0, 9.0), 4.25),
    ]
    oracle = TableReplayOracle(records)
    assert oracle.evaluate(Combination(1.0, 3.0)) == 2.5
    assert oracle.evaluate(Combination(2.0, 9.0)) == 4.25
    assert len(oracle) == 2


def test_replay_miss_carries_location(grid):
    oracle = TableReplayOracle([ResponseRecord(Combination(1.0, 3.0), 2.5)])
    with pytest.raises(OracleMissError) as exc:
        oracle.evaluate(Combination(5.0, 50.0))
    assert exc.value.location == Combination(5.0, 50.0)


def test_replay_rejects_duplicate_rows(grid):
    records = [
        ResponseRecord(Combination(1.0, 3.0), 2.5),
        ResponseRecord(Combination(1.0, 3.0), 2.6),
    ]
    with pytest.raises(SchemaError):
        TableReplayOracle(records)


# --- table loading -----------------------------------------------------------

def test_load_reduced_table(tmp_path, grid):
    path = tmp_path / "table.csv"
    path.write_text("m,k,response\n1.0,3,2.5\n2.0,9,4.25\n")
    records = load_response_table(path, grid)
    assert [(r.location.m, r.location.k, r.response) for r in records] == [
        (1.0, 3.0, 2.5),
        (2.0, 9.0, 4.25),
    ]


def test_load_skips_blank_lines(tmp_path, grid):
    path = tmp_path / "table.csv"
    path.write_text("m,k,response\n\n1.0,3,2.5\n\n2.0,9,4.25\n\n")
    records = load_response_table(path, grid)
    assert [(r.location.m, r.location.k, r.response) for r in records] == [
        (1.0, 3.0, 2.5),
        (2.0, 9.0, 4.25),
    ]


@pytest.mark.parametrize("table", [
    "m,k,response\r\n1.0,3,2.5\r\n2.0,9,4.25\r\n",
    "m,k," + ",".join(f"e{i}" for i in range(1, 16)) + "\r\n1.0,3," + ",".join(map(str, range(15))) + "\r\n",
], ids=["response", "events"])
def test_load_skips_a_byte_order_mark(tmp_path, grid, table):
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark (and
    ends its lines with CRLF): it loads equal to the same table without one."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(table.encode())
    marked.write_bytes(table.encode("utf-8-sig"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfm,k,")
    assert load_response_table(marked, grid) == load_response_table(plain, grid)


def test_load_event_table(tmp_path, grid):
    events = ",".join(str(v) for v in range(1, 16))
    path = tmp_path / "events.csv"
    header = "m,k," + ",".join(f"e{i}" for i in range(1, 16))
    path.write_text(f"{header}\n1.0,3,{events}\n")
    records = load_response_table(path, grid)
    assert records[0].response == 12.0
    assert records[0].per_event_maxima == tuple(float(v) for v in range(1, 16))


def test_load_rejects_bad_header(tmp_path, grid):
    path = tmp_path / "bad.csv"
    path.write_text("m,k,value\n1.0,3,2.5\n")
    with pytest.raises(SchemaError):
        load_response_table(path, grid)


def test_load_rejects_non_numeric_with_line_number(tmp_path, grid):
    path = tmp_path / "bad.csv"
    path.write_text("m,k,response\n1.0,3,2.5\n2.0,nine,4.0\n")
    with pytest.raises(SchemaError) as exc:
        load_response_table(path, grid)
    assert ":3:" in str(exc.value)


def test_load_rejects_off_grid_location(tmp_path, grid):
    path = tmp_path / "bad.csv"
    path.write_text("m,k,response\n1.25,3,2.5\n")
    with pytest.raises(SchemaError):
        load_response_table(path, grid)
    for row in ("nan,3,2.5", "1e999,3,2.5"):
        path.write_text(f"m,k,response\n{row}\n")
        with pytest.raises(SchemaError):
            load_response_table(path, grid)


def test_load_rejects_bad_response_with_line_number(tmp_path, grid):
    """A replay table's response must be finite and >= 0, like a measurement's;
    the loader names the file and line instead of the run failing later."""
    path = tmp_path / "bad.csv"
    for value in ("nan", "inf", "-inf", "-1.0"):
        path.write_text(f"m,k,response\n1.0,3,2.5\n2.0,9,{value}\n")
        with pytest.raises(SchemaError, match="must be finite and >= 0") as exc:
            load_response_table(path, grid)
        assert f"{path}:3:" in str(exc.value)
    with pytest.raises(SchemaError, match="must be finite and >= 0"):
        ResponseRecord(Combination(1.0, 3.0), -1.0)


def test_load_rejects_missing_file(tmp_path, grid):
    path = tmp_path / "absent.csv"
    with pytest.raises(SchemaError) as exc:
        load_response_table(path, grid)
    assert str(path) in str(exc.value)


def test_load_rejects_non_utf8_file(tmp_path, grid):
    path = tmp_path / "latin1.csv"
    path.write_bytes("m,k,response\n1.0,3,2.5 \u00b5\n".encode("latin-1"))
    with pytest.raises(SchemaError) as exc:
        load_response_table(path, grid)
    assert str(path) in str(exc.value)


# --- oracle factory ----------------------------------------------------------

def test_build_synthetic_oracle(grid):
    oracle = build_oracle({"kind": "synthetic_logistic", "seed": 5}, grid)
    assert isinstance(oracle, SyntheticLogisticOracle)
    assert oracle.seed == 5


def test_build_synthetic_default_seed(grid):
    oracle = build_oracle({"kind": "synthetic_logistic"}, grid, default_seed=3)
    assert oracle.seed == 3


def test_build_synthetic_types_its_fields(grid):
    oracle = build_oracle({"kind": "synthetic_logistic", "floor": 2, "seed": 4.0}, grid)
    assert oracle.floor == 2.0 and isinstance(oracle.floor, float)
    assert oracle.seed == 4 and isinstance(oracle.seed, int)


@pytest.mark.parametrize("field, value", [
    ("noise_std", "x"), ("amplitude", "x"), ("noise_std", 10**400), ("floor", "x"),
    ("floor", float("nan")), ("seed", "x"), ("seed", 1.5), ("seed", 2**63),
], ids=["noise_std-str", "amplitude-str", "noise_std-overflow", "floor-str",
        "floor-nan", "seed-str", "seed-fraction", "seed-out-of-range"])
def test_build_synthetic_rejects_malformed_field(grid, field, value):
    with pytest.raises(ConfigurationError):
        build_oracle({"kind": "synthetic_logistic", field: value}, grid)


def test_build_synthetic_rejects_unknown_field(grid):
    with pytest.raises(ConfigurationError):
        build_oracle({"kind": "synthetic_logistic", "slope": 2.0}, grid)


def test_build_replay_oracle(tmp_path, grid):
    path = tmp_path / "table.csv"
    path.write_text("m,k,response\n1.0,3,2.5\n")
    oracle = build_oracle({"kind": "table_replay", "path": str(path)}, grid)
    assert isinstance(oracle, TableReplayOracle)
    assert oracle.evaluate(Combination(1.0, 3.0)) == 2.5


def test_build_replay_needs_path(grid):
    with pytest.raises(ConfigurationError):
        build_oracle({"kind": "table_replay"}, grid)
    with pytest.raises(ConfigurationError):
        build_oracle({"kind": "table_replay", "path": 0}, grid)


def test_build_rejects_unknown_kind(grid):
    with pytest.raises(ConfigurationError):
        build_oracle({"kind": "lookup"}, grid)
    with pytest.raises(ConfigurationError):
        build_oracle({}, grid)
