"""Fast self-check of the benchmark (about ten seconds).

    python3 perfbench/selfcheck.py

For every workload it runs one small op through the output gate, which
must pass, then perturbs one reference value the gate compares against and
runs the op again, which must now fail, raising the error rate. It also
checks that BENCHMARK.json names exactly the metrics the runs print.
Exits 0 when everything holds.
"""

import copy
import json
import sys

from run import END_TO_END_UNITS, ROOT, attempt, import_library
from tracer import metric_units


def perturb_convergence(state, op):
    state.fingerprint = "0" * len(state.fingerprint)


def perturb_rationalization_set(state, op):
    key = f"{op[0]}:{op[1]}"
    value, method, candidates = state.pinned[key]
    state.pinned[key] = [value + 0.5, method, candidates]


def perturb_small_spaces(state, op):
    state.datasets[op][2]["diameter"] += 1.0


def perturb_parametric_fits(state, op):
    kind, j, _ = op
    pairs, choices = state.reference[(kind, j)]
    x, y = pairs[0]
    choices[0] = (y,) if choices[0] == (x,) else (x,)


def main() -> int:
    workloads = import_library()
    cases = (
        (workloads.Convergence(resolution=12), perturb_convergence),
        (workloads.WORKLOADS["rationalization_set_grid12"], perturb_rationalization_set),
        (workloads.WORKLOADS["small_spaces"], perturb_small_spaces),
        (workloads.WORKLOADS["parametric_fits"], perturb_parametric_fits),
    )
    failures = []
    pinned = workloads.load_pinned()
    for workload, perturb in cases:
        state = workload.build(0, copy.deepcopy(pinned))
        op = workload.probe_op(state)
        before = attempt(workload, state, op)
        perturb(state, op)
        after = attempt(workload, state, op)
        print(f"{workload.name} op {op!r}: error rate {int(not before.passed)}/1 -> {int(not after.passed)}/1"
              f" ({after.problem})")
        if not before.passed:
            failures.append(f"{workload.name}: the probe op failed its gate: {before.problem}")
        if after.passed:
            failures.append(f"{workload.name}: a perturbed reference did not fail the gate")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END_UNITS:
        failures.append(f"BENCHMARK.json end_to_end {declared} != printed {END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != metric_units():
        failures.append("BENCHMARK.json per_layer differs from the traced run's metrics")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for failure in failures:
        print("FAIL", failure)
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
