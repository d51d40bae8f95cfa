"""The byte-identity gate: CLI init -> run -> report on the criterion 6 and
criterion 8 configs, with the artifacts that do not depend on the last bits
of a float (the 6-digit audit log, the discrete labels and region) pinned by
SHA-256.

A refactor or a performance change leaves these bytes alone.  A change meant
to move them updates the hashes here and says in CHANGES.md which values
moved and why.
"""
import hashlib
import json

import pytest

from krigplan.cli import main

STUDY_GRID = {"m_min": 0.5, "m_max": 6.0, "m_stride": 0.5,
              "k_min": 1.0, "k_max": 60.0, "k_stride": 1.0, "k_scale": 0.1}

EXPECTED = {
    # criterion 6: seed 7, 50 iterations
    (7, 50): {
        "audit.ndjson": "dc03174a984526ea180c35cfd08c162a540e7457f1f68c69273fac464ab5afbb",
        "labels.csv": "a180fbd48b5fbee724b7c710cc898fb5541077e9ed2a44d4bae6bb5cfc502f8a",
        "region.json": "5c34c01d0136cd48c80c5ca8801adbb30d53282b500e45136f5dfc6576265431",
    },
    # criterion 8: seed 9, 12 iterations
    (9, 12): {
        "audit.ndjson": "0a4673ef15d493d1b46712cc504790fb0236270af32ef5add162707de249392d",
        "labels.csv": "d8bbeba14b75248513d29b5ef3f3ab7348cdb76adc31b948109bc1429c8fb761",
        "region.json": "696a91e0319bca1e0fbd2d7c5808daadb8f7a3ae5ae5029b5a668e524b57be33",
    },
}


@pytest.mark.parametrize("seed, iterations", sorted(EXPECTED))
def test_cli_artifacts_match_recorded_hashes(tmp_path, capsys, seed, iterations):
    config = {
        "name": "gate",
        "grid": STUDY_GRID,
        "threshold": 4.0,
        "alpha": 0.1,
        "max_iterations": iterations,
        "seed": seed,
        "initial_design": {"lattice": [3, 4]},
        "oracle": {"kind": "synthetic_logistic"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 0
    assert main(["report", exp_path]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in EXPECTED[seed, iterations]}
    assert digests == EXPECTED[seed, iterations]
