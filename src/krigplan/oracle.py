"""Response sources standing in for the expensive simulator.

A response at one grid combination is the fourth-largest of that run's 15
per-event maxima, so a "measurement" here is one scalar per location.  Two
backends are provided: a synthetic logistic surface with reproducible noise
for self-contained experiments, and a replay table that serves previously
computed simulator results from a CSV file and refuses to fabricate values
it does not have.
"""
from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OracleMissError, SchemaError
from .experiment_io import PARSE_ERRORS, as_float, as_int
from .grid import Combination, GridSpec

EVENT_COUNT = 15
# Rank (1-based) of the per-event maximum that defines the response.
RESPONSE_RANK = 4

# Largest exponent the synthetic oracle's logistic passes to math.exp, which
# overflows past about 709.  At 700 the logistic term is already below 1e-304
# of the amplitude, so the clamp moves the mean by less than that.
_MAX_EXPONENT = 700.0


def reduce_event_maxima(maxima) -> float:
    """Fourth-largest of exactly 15 per-event maxima."""
    values = [float(v) for v in maxima]
    if len(values) != EVENT_COUNT:
        raise SchemaError(f"expected exactly {EVENT_COUNT} per-event maxima, got {len(values)}")
    for v in values:
        if not math.isfinite(v) or v < 0:
            raise SchemaError(f"per-event maxima must be finite and >= 0, got {v}")
    return sorted(values, reverse=True)[RESPONSE_RANK - 1]


@dataclass(frozen=True)
class ResponseRecord:
    """One location's response, optionally with the raw per-event maxima."""

    location: Combination
    response: float
    per_event_maxima: tuple[float, ...] | None = None

    def __post_init__(self):
        if not math.isfinite(self.response) or self.response < 0:
            raise SchemaError(f"response at ({self.location.m}, {self.location.k}) must be finite and >= 0, "
                              f"got {self.response}")
        if self.per_event_maxima is not None:
            reduced = reduce_event_maxima(self.per_event_maxima)
            if reduced != self.response:
                raise SchemaError(
                    f"response {self.response} at ({self.location.m}, {self.location.k}) "
                    f"does not equal the fourth-largest per-event maximum {reduced}"
                )


def _unit_normal(seed: int, m: float, k: float) -> float:
    """Deterministic standard-normal draw keyed by (seed, location).

    The key is hashed into a counter-based generator, so re-evaluating the
    same location always reproduces the same noise regardless of evaluation
    order or interleaved queries.
    """
    digest = hashlib.blake2b(struct.pack("<qdd", seed, m, k), digest_size=16).digest()
    key = int.from_bytes(digest, "little")
    gen = np.random.Generator(np.random.Philox(key=key))
    return float(gen.standard_normal())


@dataclass(frozen=True)
class SyntheticLogisticOracle:
    """Logistic response surface with location-keyed Gaussian noise.

    The noiseless mean is floor + amplitude / (1 + exp(steepness * (k -
    boundary_ratio * m))): strictly decreasing in k, strictly increasing in
    m, with the half-amplitude crossing on the line k = boundary_ratio * m.
    Noise is clipped at zero so responses stay physical.
    """

    floor: float = 1.0
    amplitude: float = 9.0
    steepness: float = 0.35
    boundary_ratio: float = 10.0
    noise_std: float = field(default_factory=lambda: math.sqrt(0.025))
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.floor, self.amplitude, self.steepness,
                                               self.boundary_ratio, self.noise_std)):
            raise ConfigurationError("synthetic oracle parameters must be finite")
        if self.amplitude <= 0 or self.steepness <= 0:
            raise ConfigurationError("amplitude and steepness must be positive")
        if self.noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {self.noise_std}")

    def mean(self, m: float, k: float) -> float:
        exponent = min(self.steepness * (k - self.boundary_ratio * m), _MAX_EXPONENT)
        return self.floor + self.amplitude / (1.0 + math.exp(exponent))

    def boundary_k(self, m: float, threshold: float) -> float:
        """k where the noiseless mean equals threshold, for the given m.

        Solving mean(m, k) = threshold gives
        k = boundary_ratio * m + ln(amplitude / (threshold - floor) - 1) / steepness;
        the mean is below threshold for all larger k.
        """
        if not (self.floor < threshold < self.floor + self.amplitude):
            raise ConfigurationError(
                f"threshold {threshold} is outside the response range "
                f"({self.floor}, {self.floor + self.amplitude})"
            )
        return self.boundary_ratio * m + math.log(self.amplitude / (threshold - self.floor) - 1.0) / self.steepness

    def evaluate(self, location: Combination) -> float:
        value = self.mean(location.m, location.k)
        if self.noise_std > 0:
            value += self.noise_std * _unit_normal(self.seed, location.m, location.k)
        return max(value, 0.0)


class TableReplayOracle:
    """Serves stored responses; a missing location is a hard stop.

    This is the hand-off point to the real simulator: the planner asks for a
    combination, and if the table has no row for it the run halts with the
    location named so the value can be produced offline and appended.
    """

    def __init__(self, records, source: str = "table"):
        self.source = source
        self._table: dict[Combination, float] = {}
        for rec in records:
            if rec.location in self._table:
                raise SchemaError(
                    f"{source}: duplicate row for location ({rec.location.m}, {rec.location.k})"
                )
            self._table[rec.location] = rec.response

    def __len__(self) -> int:
        return len(self._table)

    def evaluate(self, location: Combination) -> float:
        try:
            return self._table[location]
        except KeyError:
            raise OracleMissError(
                f"{self.source} has no response for location ({location.m}, {location.k})",
                location=location,
            ) from None

    @classmethod
    def from_csv(cls, path, spec: GridSpec) -> "TableReplayOracle":
        return cls(load_response_table(path, spec), source=str(path))


_EVENT_COLUMNS = tuple(f"e{i}" for i in range(1, EVENT_COUNT + 1))


def load_response_table(path, spec: GridSpec) -> list[ResponseRecord]:
    """Parse a measurement CSV: columns m,k,response or m,k,e1..e15."""
    try:
        # utf-8-sig: a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise SchemaError(f"response table {path} does not exist") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: cannot read response table: {exc}") from None
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header == ["m", "k", "response"]:
        reduced = False
    elif header == ["m", "k", *_EVENT_COLUMNS]:
        reduced = True
    else:
        raise SchemaError(
            f"{path}: header must be m,k,response or m,k,e1..e{EVENT_COUNT}, got {header}"
        )
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            numbers = [float(v) for v in row]
            location = spec.snap(numbers[0], numbers[1])
            if reduced:
                maxima = tuple(numbers[2:])
                records.append(ResponseRecord(location, reduce_event_maxima(maxima), maxima))
            else:
                records.append(ResponseRecord(location, numbers[2]))
        except (ValueError, ConfigurationError, SchemaError) as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return records


SYNTHETIC_KIND = "synthetic_logistic"
REPLAY_KIND = "table_replay"


def build_oracle(spec_dict: dict, grid: GridSpec, default_seed: int = 0):
    """Construct a response source from its JSON description."""
    oracle = check_oracle_spec(spec_dict, default_seed)
    return TableReplayOracle.from_csv(spec_dict["path"], grid) if oracle is None else oracle


def check_oracle_spec(spec_dict, default_seed: int = 0) -> SyntheticLogisticOracle | None:
    """build_oracle's checks, short of reading a replay table: the synthetic
    oracle spec_dict describes, None for a table replay, or
    ConfigurationError for a spec build_oracle would refuse."""
    if not isinstance(spec_dict, dict) or "kind" not in spec_dict:
        raise ConfigurationError("config needs an 'oracle' object with a 'kind'")
    kind = spec_dict["kind"]
    if kind == SYNTHETIC_KIND:
        float_fields = ("floor", "amplitude", "steepness", "boundary_ratio", "noise_std")
        extra = set(spec_dict) - set(float_fields) - {"kind", "seed"}
        if extra:
            raise ConfigurationError(f"unknown synthetic oracle fields: {sorted(extra)}")
        try:
            kwargs = {k: as_float(spec_dict[k]) for k in float_fields if k in spec_dict}
            kwargs["seed"] = as_int(spec_dict.get("seed", default_seed))
        except PARSE_ERRORS as exc:
            raise ConfigurationError(f"malformed synthetic oracle field: {exc!r}") from None
        return SyntheticLogisticOracle(**kwargs)
    if kind == REPLAY_KIND:
        if not isinstance(spec_dict.get("path"), str):
            raise ConfigurationError("table_replay oracle needs a 'path' string")
        return None
    raise ConfigurationError(f"unknown oracle kind {kind!r}")
