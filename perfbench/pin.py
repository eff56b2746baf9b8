"""Recompute pinned.json, the reference values of the grid workloads' gate.

    python3 perfbench/pin.py

Run it only when a change to the library is meant to change these
outputs, and say so in that change. The small-space references are not
pinned here: the naive oracles in oracles.py compute them at set-up.
"""

import json

from run import import_library


def main() -> None:
    workloads = import_library()
    pinned = {"convergence": {}, "rationalization_set": {}}
    for resolution in (24, 12):
        conv = workloads.Convergence(resolution)
        for schedule_seed in conv.SCHEDULE_SEEDS if resolution == 24 else (0,):
            config = workloads.hn.ExperimentConfig.from_dict(conv.config(schedule_seed))
            report = workloads.hn.run_convergence(config)
            pinned["convergence"][conv.pin_key(schedule_seed)] = workloads.hn.report_fingerprint(report)
    rs = workloads.RationalizationSet()
    state = rs.build(0, {"rationalization_set": {}})
    for k in rs.KS:
        for sample_seed in rs.SAMPLE_SEEDS:
            diameter = rs.run(state, (k, sample_seed))[0]
            pinned["rationalization_set"][f"{k}:{sample_seed}"] = [
                diameter.value, diameter.method, diameter.num_candidates]
    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
