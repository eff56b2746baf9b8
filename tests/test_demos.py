"""Each demo prints exactly its recorded output.

The golden files in tests/golden/ hold the demos' stdout. A change that
keeps the library's behaviour keeps every byte of it; a change that means
to alter a printed number records the new output in the same change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt"))
    assert golden == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
