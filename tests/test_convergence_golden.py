"""Report rows of convergence runs with a diameter section, pinned run by run.

`tests/golden/convergence_diameter.json` holds, for the README 12x12
config with a `diameter` section of each monotone class and two diameter
seeds, every report row (timing left out) and the report fingerprint, as
recorded while `run_convergence` still rebuilt a revealed relation from the
data prefix at every checkpoint. A run now builds one relation per class
and takes each checkpoint's diameter on a prefix of it; the rows must not
move.

Regenerate the file only on purpose:
    PYTHONPATH=src python tests/test_convergence_golden.py > tests/golden/convergence_diameter.json
"""

import json
import pathlib
from dataclasses import asdict

import pytest

from prefid.harness import ExperimentConfig, report_fingerprint, run_convergence

GOLDEN = pathlib.Path(__file__).parent / "golden" / "convergence_diameter.json"
README_CONFIG = {
    "space": {"kind": "euclidean_grid", "dims": 2, "resolution": 12, "bounds": [0.0, 1.0]},
    "generator": {"formula": "cobb_douglas_mix", "params": {"mix": 0.1}},
    "mode": "strong",
    "policy": {"tag": "canonical", "monotone": "weak"},
    "schedule": {"order": "diagonal", "seed": 0},
    "utility_distance": True,
}
CASES = [f"{policy_class}/{seed}" for policy_class in ("weak_monotone", "strict_monotone") for seed in (0, 1)]


def _run(case: str) -> dict:
    policy_class, seed = case.split("/")
    config = dict(README_CONFIG, diameter={"policy_class": policy_class, "seed": int(seed)})
    report = run_convergence(ExperimentConfig.from_dict(config))
    rows = [{key: value for key, value in asdict(row).items() if key != "wall_time_ms"} for row in report.rows]
    return {"fingerprint": report_fingerprint(report), "rows": rows}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_rows_match_golden(golden, case):
    assert _run(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: _run(case) for case in CASES}, indent=1))
