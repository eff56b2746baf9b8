"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root:

    python3 perfbench/run.py --workload convergence_grid24 --seed 0 --seconds 7 --trace 0

The library is imported from `src/` next to this directory, never from an
installed copy. Every run checks every operation's output (see
`workloads.py`) and ends with one line
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a separate traced run. The line before it is a JSON object that
describes the run: workload, why it was chosen, seed, environment, and for
every metric its unit and sample count. NOTES.md defines each metric.
"""

import os

# One BLAS thread for the whole process and its set-up children, fixed
# before NumPy loads: the runs are steadier and no thread contends.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("convergence_grid24", "rationalization_set_grid12", "small_spaces", "parametric_fits")
SETUP_CHILDREN = 2  # extra cold set-ups in fresh processes; setup_s is the median with this run's own
END_TO_END_UNITS = {"setup_s": "s", "ok_ops_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s", "peak_mem_mb": "MB"}

# Calibration: the host's speed drifts by 10-40% within a minute and by up
# to 2x between regimes that last minutes, in the library's code and in any
# fixed code alike. Every timing is therefore reported in reference
# seconds: the measured seconds times the speed factor of a fixed kernel,
# timed by a thread while they were measured, raised to the workload's
# exponent for it (how strongly its ops follow that kernel's speed).
CAL_INTERVAL_S = 0.1  # between two kernel calls of the sampling thread
CAL_WINDOW_S = 1.0  # an op is scaled by the samples this close to it
REFERENCE_KERNEL_S = {"python": 1.0e-3, "numpy": 1.0e-3}  # the kernels' times at reference speed


# one attempted op: latency, whether it passed, what went wrong, whether it
# raised, and when it started and ended (for calibration)
Record = namedtuple("Record", "latency passed problem raised op start end")


class BenchError(Exception):
    """The benchmark cannot run here; it exits without a result."""


def import_library():
    """Import prefid from this checkout's src/ and the workloads that drive it."""
    if not (SRC / "prefid" / "__init__.py").is_file():
        raise BenchError(f"no library sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import prefid
    if Path(prefid.__file__).resolve().parent != (SRC / "prefid").resolve():
        raise BenchError(f"prefid was imported from {prefid.__file__}, not from {SRC}")
    import workloads
    return workloads


def python_kernel() -> int:
    """About 1 ms of dict, str and int operations, like the library's per-call overhead."""
    table = {}
    for i in range(3000):
        key = i % 61
        table[key] = table.get(key, 0) + len(str(i))
    return len(table)


@functools.cache
def _numpy_kernel_input():
    import numpy  # here, not at the top: set-up times the first NumPy import
    return numpy, numpy.sin(numpy.arange(64.0)) ** 2


def numpy_kernel() -> int:
    """About 1 ms of NumPy calls on small arrays, like the library's array code."""
    np, values = _numpy_kernel_input()
    size = 0
    for _ in range(40):
        order = np.argsort(values)
        size += np.unique(order[values[order] > 0.5]).size
    return size


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


class Calibrator:
    """A thread that times the kernels in turn every CAL_INTERVAL_S while it is entered.

    It holds the GIL for about 1% of the time, so ops run about 1% slower
    while it samples, on every commit alike. `exponents` maps the names of
    the kernels that scale an op to their exponents; every kernel is
    sampled, and reported, whatever its exponent.
    """

    def __init__(self, exponents: dict):
        self.exponents = exponents
        self.samples = {name: ([], []) for name in KERNELS}  # kernel -> (midpoints, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="calibration", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        for name, (mids, _) in self.samples.items():
            if not mids:  # a loop shorter than the sampling period
                self._time_kernel(name)

    def _time_kernel(self, name: str) -> None:
        t0 = time.perf_counter()
        KERNELS[name]()
        t1 = time.perf_counter()
        mids, seconds = self.samples[name]
        mids.append((t0 + t1) / 2)
        seconds.append(t1 - t0)

    def _sample(self) -> None:
        names = list(KERNELS)
        count = 0
        while not self._stop.wait(CAL_INTERVAL_S):
            self._time_kernel(names[count % len(names)])
            count += 1

    def scale(self, start: float, end: float) -> float:
        """The product of the kernels' speed factors raised to their
        exponents, each factor from the median of the kernel's samples within
        CAL_WINDOW_S of [start, end], and at least the last one before it and
        the first one after it."""
        factor = 1.0
        for name, exponent in self.exponents.items():
            mids, seconds = self.samples[name]
            lo = max(bisect.bisect_right(mids, start - CAL_WINDOW_S) - 1, 0)
            hi = bisect.bisect_left(mids, end + CAL_WINDOW_S) + 1
            factor *= (REFERENCE_KERNEL_S[name] / statistics.median(seconds[lo:hi])) ** exponent
        return factor

    def run_scale(self) -> float:
        """The same factor from every sample of the loop."""
        return self.scale(float("-inf"), float("inf"))

    def summary(self) -> dict:
        return {name: {"exponent": self.exponents.get(name, 0.0), "reference_s": REFERENCE_KERNEL_S[name],
                       "samples": len(seconds), "min_s": min(seconds),
                       "median_s": statistics.median(seconds), "max_s": max(seconds)}
                for name, (_, seconds) in self.samples.items()}


def cold_setup(workload_name: str, seed: int, tracer_factory=None):
    """Import the library and build the workload's inputs; returns (seconds, ...)."""
    t0 = time.perf_counter()
    workloads = import_library()
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    workload = workloads.WORKLOADS[workload_name]
    state = workload.build(seed, workloads.load_pinned())
    return time.perf_counter() - t0, workloads, workload, state, tracer


def child_setup_seconds(workload_name: str, seed: int) -> float:
    """One cold set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def attempt(workload, state, op) -> Record:
    """Run one op and its output gate.

    Only the library call is timed; the gate runs after it.
    """
    t0 = time.perf_counter()
    try:
        out = workload.run(state, op)
    except Exception as err:  # an op that raises is a failed op; the run goes on
        t1 = time.perf_counter()
        problem, raised = f"{type(err).__name__}: {err}", True
    else:
        t1 = time.perf_counter()
        problem, raised = "; ".join(workload.check(state, op, out)) or None, False
    return Record(t1 - t0, problem is None, problem, raised, repr(op), t0, t1)


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds that last at least `seconds` at reference speed."""
    return max(1, math.ceil(seconds / workload.round_seconds))


def run_rounds(workload, state, seed: int, rounds: int, tracer=None):
    """Closed loop, one client: `rounds` whole rounds of the workload's mix.

    A run does a fixed amount of work, so runs with any seed attempt the
    same ops and hit the same failures; the seed orders each round.
    Returns the `attempt` record of every op and the loop's wall time.
    """
    records = []
    start = time.perf_counter()
    for index in range(rounds):
        for op in workload.round_ops(state, seed, index):
            span = tracer.begin_op(len(records)) if tracer is not None else None
            records.append(attempt(workload, state, op))
            if span is not None:
                tracer.end_op(span)
    return records, time.perf_counter() - start


def latency_quantiles(latencies, passed, failed_latency: float):
    """Median and 90th percentile; a failed op counts as lasting `failed_latency`.

    The percentile interpolates between the samples as NumPy's default does
    ("inclusive"): on the 12 ops of a grid run it lies between the 10th and
    11th slowest, where the exclusive method leans on the single slowest.
    """
    lat = sorted(x if ok else failed_latency for x, ok in zip(latencies, passed))
    if len(lat) == 1:
        return lat[0], lat[0]
    return statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[8]


def peak_memory_mb(workload, state) -> float:
    """tracemalloc peak over the workload's memory op, in its own untimed pass."""
    op = workload.memory_op(state)
    tracemalloc.start()
    try:
        try:
            workload.run(state, op)
        except Exception:  # the peak up to the failure is still the op's peak
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file is not None and ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "platform": platform.platform(),
    }


def summarize_failures(records) -> dict:
    seen = {}
    for r in records:
        if not r.passed:
            key = ("raised " if r.raised else "wrong output: ") + r.problem[:160]
            seen.setdefault(key, []).append(r.op)
    return {key: {"count": len(ops), "ops": sorted(set(ops))[:8]} for key, ops in seen.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=7.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_only:
        print(json.dumps({"setup_s": cold_setup(args.workload, args.seed)[0]}))
        return 0

    tracer_factory = None
    if args.trace:
        from tracer import Tracer, metric_units
        tracer_factory = Tracer
    started = time.perf_counter()
    setup_wall, _, workload, state, tracer = cold_setup(args.workload, args.seed, tracer_factory)
    rounds = rounds_for(workload, args.seconds)
    if args.trace:
        records, wall = run_rounds(workload, state, args.seed, rounds, tracer)
    else:
        if hasattr(os, "sched_setaffinity"):  # the sampling thread must time the CPU that runs the ops
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        with Calibrator(workload.calibration) as cal:
            records, wall = run_rounds(workload, state, args.seed, rounds)
    attempted = len(records)
    failed = sum(1 for r in records if not r.passed)
    wrong = sum(1 for r in records if not r.passed and not r.raised)
    passed = [r.passed for r in records]
    wall_lat = [r.latency for r in records]
    wall_p50, wall_p90 = latency_quantiles(wall_lat, passed, wall)
    detail, extra = {}, {}
    phases = {"setup": setup_wall, "timed_loop": wall}

    if args.trace:
        tracer.uninstall()
        untraced, phases["untraced_round"] = run_rounds(workload, state, args.seed, 1)
        metrics = tracer.layer_metrics(attempted)
        metrics["bench.error_rate"] = failed / attempted
        metrics["trace.op_s_p50"] = wall_p50
        metrics["trace.untraced_op_s_p50"] = latency_quantiles(
            [r.latency for r in untraced], [r.passed for r in untraced], sum(r.latency for r in untraced))[0]
        metrics["trace.overhead_s"] = metrics["trace.op_s_p50"] - metrics["trace.untraced_op_s_p50"]
        units = metric_units()
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for name in metrics:
            detail[name] = {"unit": units[name], "samples": attempted}
    else:
        ref_lat = [r.latency * cal.scale(r.start, r.end) for r in records]
        # a failed op counts as lasting the run's whole op time
        p50, p90 = latency_quantiles(ref_lat, passed, sum(ref_lat))
        t0 = time.perf_counter()
        peak_mb = peak_memory_mb(workload, state)
        phases["memory_pass"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        setups = [setup_wall] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
        phases["setup_children"] = time.perf_counter() - t0
        metrics = {
            # a set-up is too short and too early in its process to sample
            # around; the host's speed over this run scales it instead
            "setup_s": statistics.median(setups) * cal.run_scale(),
            "ok_ops_per_s": (attempted - failed) / sum(ref_lat),
            "op_s_p50": p50,
            "op_s_p90": p90,
            "peak_mem_mb": peak_mb,
        }
        for name, unit in END_TO_END_UNITS.items():
            detail[name] = {"unit": unit, "samples": attempted}
        detail["setup_s"]["samples"] = len(setups)
        detail["setup_s"]["wall_s"] = setups
        detail["op_s_p90"]["beyond"] = sum(1 for x, ok in zip(ref_lat, passed) if not ok or x > p90)
        detail["peak_mem_mb"]["samples"] = 1
        detail["peak_mem_mb"]["op"] = repr(workload.memory_op(state))
        extra["wall_clock"] = {
            "op_s_p50": wall_p50,
            "op_s_p90": wall_p90,
            "ok_ops_per_s": (attempted - failed) / sum(wall_lat),
        }
        extra["calibration"] = cal.summary()

    description = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "wrong_outputs": wrong,
        "failures": summarize_failures(records),
        "phases_s": dict(phases, total=time.perf_counter() - started),
        "metrics": detail,
        **extra,
        "environment": environment(),
    }
    print(json.dumps(description))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": detail[name]["unit"]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        sys.exit(2)
