"""The benchmark's own self-check passes, so a change that moves a pinned
report fingerprint or a pinned diameter fails here as well as in the bench;
and a traced bench run still completes with every op correct."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_bench_run_passes():
    # the tracer patches OrderedSpace's cached properties, wraps two SciPy calls
    # rationalize makes and reads RevealedRelation.edges, so a library change
    # that moves one of these breaks the traced run and only it
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_spaces", "--seed", "0",
                           "--seconds", "7", "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
