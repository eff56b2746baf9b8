"""Spans and counters for the traced run, installed from outside the library.

`Tracer.install` replaces the library's public functions (and the two
SciPy calls `rationalize` makes) with wrappers on every module attribute
that holds them, so calls the package makes internally are recorded too.
Each span keeps its name, start, end, parent span and op id in memory;
`layer_metrics` turns them into per-op self times, call counts and
counters when the run ends. Observers recover facts the library computes
and then discards; their own time is recorded as `trace.bookkeeping`
spans so it is not charged to the layer that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from functools import cached_property

NAME, START, END, PARENT, OP = range(5)
SETUP = "setup"

LAYER_MODULES = ("spaces", "experiments", "rationalize", "preferences", "utility", "harness")
SPACE_BUILDERS = ("make_grid_euclidean", "make_lottery_simplex", "make_dated_rewards", "make_aa_acts",
                  "from_points", "space_from_descriptor")
SPACE_BUILD = "spaces.build"
BOOKKEEPING = "trace.bookkeeping"

# functions whose per-op self time and call count are reported
REPORTED = (
    SPACE_BUILD,
    "experiments.enumerate_pairs", "experiments.generate_choices", "experiments.restrict",
    "rationalize.revealed_relation", "rationalize.check_consistency", "rationalize.connected_components",
    "rationalize.extend_preference", "rationalize.rationalizes", "rationalize.sample_extension",
    "rationalize.adversarial_far_extension", "rationalize.diameter_estimate",
    "rationalize.brute_force_rationalizations", "rationalize.all_total_preorders",
    "rationalize.lipschitz_rationalize", "rationalize.linprog",
    "preferences.closed_convergence_distance", "preferences.from_utility",
    "utility.certainty_equivalent_utility", "utility.max_norm_distance",
    "harness.run_convergence", "harness.emit_report",
)
SETUP_REPORTED = (SPACE_BUILD, "experiments.enumerate_pairs", "experiments.generate_choices")
COUNTERS = (
    "rationalize.edges_data", "rationalize.edges_monotone", "rationalize.components",
    "rationalize.adversarial.budget_exhausted", "rationalize.diameter.candidates",
    "rationalize.diameter.method_exact", "rationalize.diameter.method_sampled",
    "rationalize.lp.fits", "rationalize.lp.infeasible", "rationalize.lp.degenerate",
    "spaces.points", "spaces.dist_bytes", "experiments.pairs",
)
SETUP_COUNTERS = ("spaces.points", "spaces.dist_bytes", "experiments.pairs")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for fn in REPORTED:
        units[f"{fn}.self_s"] = "s"
        units[f"{fn}.calls"] = "count"
    for fn in SETUP_REPORTED:
        units[f"setup.{fn}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "B" if name.endswith("bytes") else "count"
    for name in SETUP_COUNTERS:
        units[f"setup.{name}"] = "B" if name.endswith("bytes") else "count"
    units.update({
        "rationalize.adversarial.trials_per_call": "count",
        "rationalize.preorders.kept_ratio": "ratio",
        "rationalize.lp.margin_min": "1",
        "bench.op.self_s": "s",
        "bench.ops": "count",
        "bench.error_rate": "ratio",
        "trace.bookkeeping.self_s": "s",
        "trace.spans_per_op": "count",
        "trace.op_s_p50": "s",
        "trace.untraced_op_s_p50": "s",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.margins: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.op, name)] += value

    def begin_op(self, op_id) -> int:
        self.op = op_id
        return self.open("bench.op")

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op = SETUP

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str | None, fn, observe=None):
        """A span named `name` around each call (none when name is None),
        then `observe(args, kwargs, result, enclosing span name)`."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.parent_name()
            idx = self.open(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.close(idx)
            if observe is not None:
                book = self.open(BOOKKEEPING)
                try:
                    observe(args, kwargs, result, outer)
                finally:
                    self.close(book)
            return result
        return traced

    def _replace(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the library's functions wherever a module holds them."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "prefid" or n.startswith("prefid.")]
        observers = self._observers()
        for short in LAYER_MODULES:
            module = sys.modules[f"prefid.{short}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = SPACE_BUILD if short == "spaces" and attr in SPACE_BUILDERS else f"{short}.{attr}"
                self._replace(fn, self.wrap(name, fn, observers.get(name)), modules)
        rationalize = sys.modules["prefid.rationalize"]
        for attr in ("linprog", "connected_components"):
            fn = getattr(rationalize, attr)
            self._replace(fn, self.wrap(f"rationalize.{attr}", fn), modules)
        # the linear-index fit result that extend_preference drops; no span of its
        # own, so its time stays with extend_preference
        fit = getattr(rationalize, "_eu_from_edges", None)
        if fit is not None:
            self._replace(fit, self.wrap(None, fit, observers["_eu_from_edges"]), modules)
        # first access of a space's distance matrix or distance values is build work
        space_cls = sys.modules["prefid.spaces"].OrderedSpace
        for attr in ("distance_matrix", "distance_values"):
            prop = space_cls.__dict__.get(attr)
            if isinstance(prop, cached_property):
                traced = cached_property(self.wrap(SPACE_BUILD, prop.func))
                traced.__set_name__(space_cls, attr)
                self._undo.append((space_cls, attr, prop))
                setattr(space_cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- observers: facts the library computes and then drops ----------------

    def _observers(self) -> dict:
        def space_built(args, kwargs, space, outer):
            if outer != SPACE_BUILD:
                n, d = space.points.shape
                self.count("spaces.points", n)
                self.count("spaces.dist_bytes", n * n * d * 8)

        def relation(args, kwargs, r, outer):
            data = sum(1 for e in r.edges if e.source == "data")
            self.count("rationalize.edges_data", data)
            self.count("rationalize.edges_monotone", len(r.edges) - data)

        def consistency(args, kwargs, result, outer):
            r = args[0] if args else kwargs["r"]
            self.count("rationalize.components", r.condensation.num_comps)

        def adversarial(args, kwargs, result, outer):
            self.count("rationalize.adversarial.calls")
            self.count("rationalize.adversarial.budget_exhausted", bool(result[1]))

        def diameter(args, kwargs, result, outer):
            self.count("rationalize.diameter.candidates", result.num_candidates)
            self.count(f"rationalize.diameter.method_{result.method}")

        def enumerated(args, kwargs, rows, outer):
            self.count("rationalize.preorders.enumerated", len(rows))

        def kept(args, kwargs, rows, outer):
            self.count("rationalize.preorders.kept", len(rows))

        def fit(args, kwargs, result, outer):
            self.count("rationalize.lp.fits")
            self.count(f"rationalize.lp.{result.status}")
            if result.status != "infeasible":
                self.margins.append(result.margin)

        def pairs(args, kwargs, e, outer):
            self.count("experiments.pairs", len(e.pairs))

        return {
            SPACE_BUILD: space_built,
            "rationalize.revealed_relation": relation,
            "rationalize.check_consistency": consistency,
            "rationalize.adversarial_far_extension": adversarial,
            "rationalize.diameter_estimate": diameter,
            "rationalize.all_total_preorders": enumerated,
            "rationalize.brute_force_rationalizations": kept,
            "rationalize.lipschitz_rationalize": fit,
            "_eu_from_edges": fit,
            "experiments.enumerate_pairs": pairs,
        }

    # -- results -------------------------------------------------------------

    def layer_metrics(self, num_ops: int) -> dict[str, float]:
        """Per-op self times, calls and counters over the timed ops, plus set-up totals."""
        covered = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for idx, span in enumerate(self.spans):
            phase = SETUP if span[OP] == SETUP else "ops"
            self_s[(phase, span[NAME])] += span[END] - span[START] - covered[idx]
            nested = span[NAME] == SPACE_BUILD and span[PARENT] is not None \
                and self.spans[span[PARENT]][NAME] == SPACE_BUILD
            if not nested:
                calls[(phase, span[NAME])] += 1
        ops_counts = defaultdict(float)
        for (op, name), value in self.counts.items():
            ops_counts[(SETUP if op == SETUP else "ops", name)] += value

        per_op = max(num_ops, 1)
        out = {}
        for fn in REPORTED:
            out[f"{fn}.self_s"] = self_s[("ops", fn)] / per_op
            out[f"{fn}.calls"] = calls[("ops", fn)] / per_op
        for fn in SETUP_REPORTED:
            out[f"setup.{fn}.self_s"] = self_s[(SETUP, fn)]
        for name in COUNTERS:
            out[name] = ops_counts[("ops", name)] / per_op
        for name in SETUP_COUNTERS:
            out[f"setup.{name}"] = ops_counts[(SETUP, name)]
        adversarial_calls = ops_counts[("ops", "rationalize.adversarial.calls")]
        trials = sum(1 for span in self.spans
                     if span[NAME] == "rationalize.sample_extension" and span[OP] != SETUP
                     and span[PARENT] is not None
                     and self.spans[span[PARENT]][NAME] == "rationalize.adversarial_far_extension")
        out["rationalize.adversarial.trials_per_call"] = trials / adversarial_calls if adversarial_calls else 0.0
        enumerated = ops_counts[("ops", "rationalize.preorders.enumerated")]
        kept = ops_counts[("ops", "rationalize.preorders.kept")]
        out["rationalize.preorders.kept_ratio"] = kept / enumerated if enumerated else 0.0
        out["rationalize.lp.margin_min"] = min(self.margins) if self.margins else 0.0
        out["bench.op.self_s"] = self_s[("ops", "bench.op")] / per_op
        out["bench.ops"] = float(num_ops)
        out["trace.bookkeeping.self_s"] = self_s[("ops", BOOKKEEPING)] / per_op
        out["trace.spans_per_op"] = sum(1 for span in self.spans if span[OP] != SETUP) / per_op
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span[NAME], "start": span[START], "end": span[END],
                                     "parent": span[PARENT], "op": span[OP]}) + "\n")
