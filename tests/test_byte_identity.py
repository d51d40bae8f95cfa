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
        "audit.ndjson": "d473898a896c40e645e36de7b241529291b3036fbd0eafcd31ce38177c819eb1",
        "labels.csv": "39893dbb7883aaefef2c25e52552117e4f324fc47f1dc0eaa82b033ce19b43f9",
        "region.json": "fb45077180721ae74543f45ca61442c74e50a2191d465be4dc45f9c20778555f",
    },
    # criterion 8: seed 9, 12 iterations
    (9, 12): {
        "audit.ndjson": "b5ce9d44db25a0740c53122392c08d40b5a4126f2ee9304b41c4a110a404ad4f",
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
