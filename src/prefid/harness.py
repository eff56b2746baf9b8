"""Seeded end-to-end experiments, the counterexample gallery, and reports.

Everything here is deterministic given the config and seeds: reports from
two identical runs differ at most in wall-clock columns.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._version import __version__
from .errors import ConfigurationError, DomainError, PreconditionError
from .experiments import (
    STRONG,
    WEAK,
    ChoiceSequence,
    ExperimentSequence,
    enumerate_pairs,
    generate_choices,
    restrict,
)
from .preferences import (
    BinaryRelation,
    Preference,
    _distance_to,
    closed_convergence_distance,
    from_utility,
    is_locally_strict,
    is_quasitransitive,
    is_strictly_monotone,
    is_weakly_monotone,
    li_ls_limit,
    total_indifference,
)
from .rationalize import (
    _POLICY_CLASSES,
    RationalizationPolicy,
    _diameter_monotone,
    _relation_diameter,
    _replay_mask,
    check_consistency,
    diameter_estimate,
    extend_preference,
    indifference_construction,
    rationalizes,
    revealed_relation,
)
from .spaces import _int_field, dense_subset, from_points, make_grid_euclidean, space_from_descriptor
from .utility import UtilityFunction, certainty_equivalent_utility, max_norm_distance

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ConvergenceReport",
    "generator_values",
    "run_convergence",
    "run_gallery",
    "GALLERY_ITEMS",
    "emit_report",
    "parse_report_csv",
    "report_fingerprint",
    "report_to_csv",
    "report_to_json",
    "default_checkpoints",
]


# ---------------------------------------------------------------------------
# configuration


def _real_field(where: str, value) -> float:
    """A finite-number field of a config, else ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _formula_coordinate(points: np.ndarray, params: dict) -> np.ndarray:
    if params["dim"] >= points.shape[1]:
        raise ConfigurationError(f"coordinate dim {params['dim']} out of range")
    return points[:, params["dim"]]


def _formula_cobb_douglas_mix(points: np.ndarray, params: dict) -> np.ndarray:
    mix = _real_field("generator param 'mix'", params["mix"])
    return points.prod(axis=1) + mix * points.sum(axis=1)


def _formula_linear_index(points: np.ndarray, params: dict) -> np.ndarray:
    index = params["index"]
    if not isinstance(index, (list, tuple)):
        raise ConfigurationError(f"generator param 'index' must be a list of numbers, got {index!r}")
    index = np.array([_real_field("generator param 'index' entry", v) for v in index])
    if index.shape != (points.shape[1],):
        raise ConfigurationError("linear_index needs one weight per coordinate")
    return points @ index


# each generator formula: its function, every param it takes with its default, and the least value of each int param
FORMULAS = {
    "coordinate": (_formula_coordinate, {"dim": 0}, {"dim": 0}),
    "sum": (lambda points, params: points.sum(axis=1), {}, {}),
    "product": (lambda points, params: points.prod(axis=1), {}, {}),
    "cobb_douglas_mix": (_formula_cobb_douglas_mix, {"mix": 0.1}, {}),
    "linear_index": (_formula_linear_index, {"index": ()}, {}),
}


def _defaults(fn) -> dict:
    """The keyword defaults of a function or dataclass."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items() if p.default is not p.empty}


# The run-config schema. A section's row: every key it accepts with its default, the least value of each integer
# key, and the keys an absent or empty section is hashed with (`config_hash`), None for the diameter: it alone may be
# absent or null, and is then not run, while an empty one runs. An absent diameter.policy_class is the class of
# policy.monotone's edges.
_SECTIONS = {
    "schedule": ({"order": _defaults(enumerate_pairs)["schedule"], "seed": 0}, {"seed": 0}, ("order", "seed")),
    "policy": (dict(_defaults(RationalizationPolicy), monotone=_defaults(revealed_relation)["monotone"],
                    target="generator"), {"seed": 0, "budget": 0}, ("tag", "monotone")),
    "subset": (_defaults(dense_subset), {"stride": 1}, ()),
    "diameter": (dict(_defaults(diameter_estimate), policy_class=None), {"num_samples": 0, "seed": 0}, None),
}


def _filled(where: str, section, defaults: dict, ints: dict) -> dict:
    """`section` over its defaults, integer keys made int; ConfigurationError for bad types or an unknown key."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"config {where!r} must be an object, got {section!r}")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    filled = {**defaults, **section}
    for name, minimum in ints.items():
        filled[name] = _int_field(f"{where}.{name}", filled[name], minimum)
    return filled


def _generator_spec(spec) -> dict:
    """A generator spec with its formula's params filled from `FORMULAS`."""
    spec = _filled("generator", spec, {"formula": None, "params": {}}, {})
    name = spec["formula"]
    if not isinstance(name, str) or name not in FORMULAS:
        raise ConfigurationError(f"unknown generator formula {name!r}")
    return {"formula": name, "params": _filled("generator params", spec["params"], *FORMULAS[name][1:])}


def generator_values(space, spec: dict) -> np.ndarray:
    """Evaluate a generator spec {"formula": name, "params": {...}} on a space."""
    spec = _generator_spec(spec)
    formula = FORMULAS[spec["formula"]][0]
    return np.asarray(formula(space.points, spec["params"]), dtype=float)


def _int_list(where: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{where} must be a list of integers")
    return tuple(_int_field(f"{where} entry", v) for v in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete description of one convergence experiment, built by `from_dict` (or `from_json`) only.

    The generator and sections are filled from their schema rows; `written` keeps them as written, for `to_dict`.
    """

    space: dict
    generator: dict
    schedule: dict
    mode: str
    tie_policy: str | None
    policy: dict
    subset: dict
    k_grid: tuple[int, ...] | None
    diameter: dict | None
    utility_distance: bool
    output_dir: str | None
    written: dict = field(repr=False)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key in ("space", "generator"):
            if key not in doc or not isinstance(doc[key], dict):
                raise ConfigurationError(f"config needs a {key!r} object")
        mode = doc.get("mode", STRONG)
        if mode not in (STRONG, WEAK):
            raise ConfigurationError(f"unknown mode {mode!r}")
        sections = {"generator": _generator_spec(doc["generator"])}
        written = {"generator": dict(doc["generator"])}
        for key, (defaults, ints, hashed) in _SECTIONS.items():
            section = doc.get(key, None if hashed is None else {})
            if hashed is not None and isinstance(section, dict) and not section:  # runs, so hashes, as a left-out one
                section = {name: defaults[name] for name in hashed}
            sections[key] = None if section is None and hashed is None else _filled(key, section, defaults, ints)
            written[key] = None if section is None else dict(section)
        policy, diameter, subset = sections["policy"], sections["diameter"], sections["subset"]
        if written["policy"].get("target") is not None and policy["tag"] != "adversarial_far":
            raise ConfigurationError(f"policy.target is read only by the adversarial_far tag, not by {policy['tag']!r}")
        if diameter is not None and "policy_class" not in written["diameter"]:
            diameter["policy_class"] = next((cls for cls, m in _POLICY_CLASSES.items() if m == policy["monotone"]), None)
        if subset["members"] is not None:
            subset["members"] = _int_list("subset.members", subset["members"])
        output_dir = doc.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigurationError(f"output_dir must be a path, got {output_dir!r}")
        k_grid = doc.get("k_grid")
        if k_grid is not None:
            k_grid = _int_list("k_grid", k_grid)
            if not k_grid or any(b <= a for a, b in zip(k_grid, k_grid[1:])) or k_grid[0] < 1:
                raise ConfigurationError("k_grid must be strictly increasing positive integers")
        utility_distance = doc.get("utility_distance", False)
        if not isinstance(utility_distance, bool):
            raise ConfigurationError(f"utility_distance must be true or false, got {utility_distance!r}")
        return ExperimentConfig(space=dict(doc["space"]), mode=mode, tie_policy=doc.get("tie_policy"), k_grid=k_grid,
                                utility_distance=utility_distance, output_dir=output_dir, written=written, **sections)

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        """The config in the JSON file at `path`; OSError if it cannot be read, ConfigurationError if it is not
        a JSON object. A caller holding JSON text passes `json.loads(text)` to `from_dict`."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"config is not valid JSON: {err}") from None
        if not isinstance(doc, dict):
            raise ConfigurationError("config must be a JSON object")
        return ExperimentConfig.from_dict(doc)

    def to_dict(self) -> dict:
        """The config as hashed: the generator and each section as written, an absent or empty section at its
        absent value."""
        doc = asdict(self)
        doc.update(doc.pop("written"))
        return {name: value for name, value in doc.items() if value is not None}

    def config_hash(self) -> str:
        """Hash of `to_dict`. It hashes the config as written, save that `"schedule": {}` or `"policy": {}` hashes
        as the left-out section it runs as."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def rationalization_policy(self, target: Preference | None = None) -> RationalizationPolicy:
        """The policy section and `target` as a policy; ConfigurationError for an unknown tag or monotone class."""
        if self.policy["monotone"] not in _POLICY_CLASSES.values():
            raise ConfigurationError(f"unknown monotone class {self.policy['monotone']!r}")
        return RationalizationPolicy(**dict({name: self.policy[name] for name in _defaults(RationalizationPolicy)},
                                            target=target))


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} - {"written"}  # the keys a run config may hold


def default_checkpoints(total: int) -> tuple[int, ...]:
    """Powers of two capped by the sequence length, always ending at full coverage."""
    if total < 1:
        raise DomainError("empty experiment")
    ks = []
    k = 1
    while k < total:
        ks.append(k)
        k *= 2
    ks.append(total)
    return tuple(ks)


# ---------------------------------------------------------------------------
# convergence runner


@dataclass(frozen=True)
class ReportRow:
    k: int
    delta_c: float | None
    diameter: float | None
    utility_dist: float | None
    consistent: bool
    wall_time_ms: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ReportRow, ...]
    metadata: dict


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Generate data from the configured preference and rationalize prefixes.

    One revealed relation is built per run and monotone class (the policy's,
    and the diameter's when it differs), over the pairs up to the last
    checkpoint, and each checkpoint takes its `prefix`. Each row records the
    distance from the extended preference to the generator, plus optional
    diameter and utility-distance columns.
    A prefix the policy cannot rationalize becomes a failure row, with
    `consistent` false and no numeric columns, and the run continues:
    either the prefix is inconsistent (possible under a mismatched policy),
    or, under eu_class, no linear prize index rationalizes it. An extension
    that fails its own replay, of the data edges of the checkpoint's
    relation, still raises DomainError.
    """
    space = space_from_descriptor(config.space)
    B = dense_subset(space, **config.subset)
    values = generator_values(space, config.generator)
    gen = from_utility(space, values)

    target = None
    if config.policy["tag"] == "adversarial_far":
        named = config.policy["target"]
        if named not in ("generator", "indifference"):
            raise ConfigurationError(f"unknown policy target {named!r}")
        target = gen if named == "generator" else total_indifference(space)
    policy = config.rationalization_policy(target)
    policy_monotone = config.policy["monotone"]

    # the generated data must fit the policy's class and the diameter's, so the generator must too
    needs = {policy_monotone}
    dcfg = config.diameter
    if dcfg is not None:
        dmonotone = _diameter_monotone(dcfg["policy_class"])
        needs.add(dmonotone)
    if needs & {"weak", "strict"} and not is_weakly_monotone(gen):
        raise ConfigurationError("generator is not weakly monotone but the policy or diameter requires it")
    if "strict" in needs and not is_strictly_monotone(gen):
        raise ConfigurationError("generator is not strictly monotone but the policy or diameter requires it")

    seed = config.schedule["seed"]
    e = enumerate_pairs(B, schedule=config.schedule["order"], seed=seed)
    tie = config.tie_policy or ("both" if config.mode == STRONG else "random")
    c = generate_choices(gen, e, config.mode, tie_policy=tie, seed=seed)

    ks = config.k_grid or default_checkpoints(len(e))
    if ks[-1] > len(e):
        raise ConfigurationError(f"k_grid exceeds the {len(e)} available pairs")

    u_star = UtilityFunction(space, values) if config.utility_distance else None
    full = {monotone: revealed_relation(*restrict(e, c, ks[-1]), config.mode, monotone=monotone) for monotone in needs}
    distance_to_gen = _distance_to(gen)
    rows = []
    for k in ks:
        t0 = time.perf_counter()
        relations = {monotone: relation.prefix(k) for monotone, relation in full.items()}
        r = relations[policy_monotone]
        try:
            pref = extend_preference(r, policy)
        except PreconditionError:
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(ReportRow(k, None, None, None, False, ms))
            continue
        if not _replay_mask(pref.rank[None, :], r)[0]:
            raise DomainError(f"extension failed its own replay at k={k}")
        delta = distance_to_gen(pref)
        diam = None
        if dcfg is not None:
            diam = _relation_diameter(relations[dmonotone], dcfg["num_samples"], dcfg["seed"]).value
        udist = None
        if u_star is not None:
            try:
                u_k = certainty_equivalent_utility(pref, u_star)
                udist = max_norm_distance(u_k, u_star)
            except (PreconditionError, ConfigurationError):
                udist = None
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(ReportRow(int(k), float(delta), diam, udist, True, ms))

    metadata = {
        "config_hash": config.config_hash(),
        "seed": seed,
        "version": __version__,
        "mode": config.mode,
        "policy_tag": policy.tag,
        "policy_monotone": policy_monotone,
        "space_kind": space.kind,
        "num_points": space.num_points,
        "total_pairs": len(e),
        "grid_step": space.step,
    }
    return ConvergenceReport(tuple(rows), metadata)


# ---------------------------------------------------------------------------
# counterexample gallery


def _record(checks: dict, name: str, passed: bool, value=None) -> None:
    checks[name] = {"passed": bool(passed)}
    if value is not None:
        checks[name]["value"] = value


def _gallery_motivating_01() -> tuple[dict, list[dict]]:
    # 21-point unit interval; data only ever compares interior alternatives,
    # so ranking the left endpoint above the right stays consistent forever
    space = make_grid_euclidean(1, 21, (0.0, 1.0))
    B = dense_subset(space, members=range(1, 20))
    gen = from_utility(space, space.points[:, 0])
    e = enumerate_pairs(B)
    c = generate_choices(gen, e, STRONG)
    lo = space.index_of([0.0])
    hi = space.index_of([1.0])
    checks: dict = {}
    rows = []
    for k in (1, 2, 4, 8, 16, 32, 50):
        e_k, c_k = restrict(e, c, k)
        e_aug = ExperimentSequence(space, B, np.vstack([e_k.pair_array, (lo, hi)]))
        c_aug = ChoiceSequence(e_aug, np.vstack([c_k.chose_mask, (True, False)]), STRONG)
        r = revealed_relation(e_aug, c_aug, STRONG)
        consistent = check_consistency(r).consistent
        pref = extend_preference(r, RationalizationPolicy()) if consistent else None
        flipped = bool(pref is not None and pref.rank[lo] > pref.rank[hi])
        replays = bool(pref is not None and rationalizes(pref, e_k, c_k) and rationalizes(pref, e_aug, c_aug))
        _record(checks, f"k={k}: zero-ranked-above-one stays consistent", consistent and flipped and replays)
        rows.append({
            "k": k,
            "consistent": consistent,
            "rank_zero_above_one": flipped,
            "replays_data": replays,
            "delta_c_to_generator": closed_convergence_distance(pref, gen) if pref is not None else None,
        })
    return checks, rows


def _gallery_prop1() -> tuple[dict, list[dict]]:
    space = make_grid_euclidean(1, 64, (0.0, 1.0))
    h = space.step
    B = dense_subset(space, stride=4)
    gen = from_utility(space, space.points[:, 0])
    e = enumerate_pairs(B)
    c = generate_choices(gen, e, STRONG)
    tind = total_indifference(space)
    ks = (1, 2, 4, 8, 16)
    checks: dict = {}
    rows, prefs, radii = [], [], []
    for k in ks:
        e_k, c_k = restrict(e, c, k)
        pref = indifference_construction(e_k, c_k)
        delta = closed_convergence_distance(pref, tind)
        bound = 1.0 / (2.0 * k) + 2.0 * h
        _record(checks, f"k={k}: distance to indifference within bound", delta <= bound + 1e-9,
                {"delta_c": delta, "bound": bound})
        _record(checks, f"k={k}: construction replays its data", rationalizes(pref, e_k, c_k))
        prefs.append(pref)
        radii.append(bound)
        rows.append({"k": k, "delta_c_to_indifference": delta, "bound": bound, "consistent": True})
    li, ls = li_ls_limit(prefs, radii)
    n = space.num_points
    full = BinaryRelation(space, np.ones((n, n), dtype=bool))
    _record(checks, "limit inferior covers all pairs", li == full)
    _record(checks, "limit superior covers all pairs", ls == full)
    return checks, rows


def _grodal_values(space, rho: float, beta: float) -> np.ndarray:
    pts = space.points
    base = pts[:, 0] + pts[:, 1]
    offset = pts - np.array([0.5, 0.5])
    inside = np.abs(offset).max(axis=1) <= rho + 1e-12
    funnel = 1.0 + (pts[:, 0] - pts[:, 1]) * beta / rho
    return np.where(inside, funnel, base)


def _gallery_grodal() -> tuple[dict, list[dict]]:
    # transitive terms whose limit keeps an intransitive indifference part:
    # indifference curves pivot inside a shrinking box around (1/2, 1/2)
    space = make_grid_euclidean(2, 13, (0.0, 1.0))
    h = space.step
    beta = 0.25
    terms = range(1, 17)
    prefs = []
    for n in terms:
        rho = max(h, 1.0 / n)
        prefs.append(from_utility(space, _grodal_values(space, rho, beta)))
    radii = (0.5, 0.25, 1.0 / 6.0, 1.0 / 8.0, h)
    # each radius takes over once the pivot box is small enough for the
    # dilation at that radius to absorb what the box still reshuffles
    tail_starts = (0, 2, 7, 11, 11)
    li, ls = li_ls_limit(prefs, radii, tail_starts)
    checks: dict = {}
    _record(checks, "limit inferior equals limit superior", li == ls)
    limit = li.matrix
    ia = space.index_of([0.25, 0.25])
    iz = space.index_of([0.5, 0.5])
    ib = space.index_of([0.75, 0.75])
    a_sim_z = bool(limit[ia, iz] and limit[iz, ia])
    z_sim_b = bool(limit[iz, ib] and limit[ib, iz])
    b_over_a = bool(limit[ib, ia] and not limit[ia, ib])
    _record(checks, "corner point indifferent to center", a_sim_z)
    _record(checks, "center indifferent to opposite corner", z_sim_b)
    _record(checks, "but the two corners are strictly ranked", b_over_a)
    _record(checks, "so indifference is intransitive in the limit", a_sim_z and z_sim_b and b_over_a)
    _record(checks, "limit relation is complete", li.is_complete())
    _record(checks, "limit relation is quasitransitive", is_quasitransitive(li))
    rows = [{"n": n, "rho": max(h, 1.0 / n), "num_classes": p.num_classes()} for n, p in zip(terms, prefs)]
    return checks, rows


def _gallery_locally_strict() -> tuple[dict, list[dict]]:
    # two intervals, a hill peaking at -2 and a valley bottoming at 2; the
    # peak/valley tie in the limit has no strictly ranked pair nearby
    pts = np.array([i / 10 for i in range(-30, -9)] + [i / 10 for i in range(10, 31)])
    space = from_points(pts)
    x = space.points[:, 0]
    left = x < 0

    def values(inv: float) -> np.ndarray:
        return np.where(left, -((x + 2.0) ** 2) + inv, (x - 2.0) ** 2 - inv)

    im2 = space.index_of([-2.0])
    ip2 = space.index_of([2.0])
    radius = 0.1 + 1e-9
    limit_vals = values(0.0)
    limit = from_utility(space, limit_vals)
    checks: dict = {}
    rows = []
    deltas = []
    # the sequence starts at n = 2: at n = 1 the branch endpoints tie at
    # height 0 and sit at their neighborhood extrema, so that one term is
    # not locally strict even before discretization
    for n in range(2, 51):
        vals = values(1.0 / n)
        pref = from_utility(space, vals)
        strict_ok, _ = is_locally_strict(pref, radius)
        _record(checks, f"n={n}: term is locally strict", strict_ok)
        delta = closed_convergence_distance(pref, limit)
        deltas.append(delta)
        rows.append({"n": n, "delta_c_to_limit": delta, "value_at_minus2": float(vals[im2]),
                     "value_at_2": float(vals[ip2])})
    vals_10 = values(0.1)
    pref_10 = from_utility(space, vals_10)
    _record(checks, "n=10: value at -2 is exactly 0.1", vals_10[im2] == 0.1, float(vals_10[im2]))
    _record(checks, "n=10: value at 2 is exactly -0.1", vals_10[ip2] == -0.1, float(vals_10[ip2]))
    _record(checks, "n=10: -2 strictly above 2", bool(pref_10.strict[im2, ip2]))
    _record(checks, "limit values at -2 and 2 are exactly 0",
            limit_vals[im2] == 0.0 and limit_vals[ip2] == 0.0)
    limit_ok, violations = is_locally_strict(limit, radius)
    _record(checks, "limit is not locally strict", not limit_ok)
    _record(checks, "the only failure is the pair (-2, 2)", violations == [(im2, ip2)],
            violations)
    _record(checks, "distances to the limit are nonincreasing",
            all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:])))
    _record(checks, "final distance within two grid steps", deltas[-1] <= 0.2 + 1e-12, deltas[-1])
    return checks, rows


GALLERY_ITEMS = {
    "motivating_01": _gallery_motivating_01,
    "prop1": _gallery_prop1,
    "grodal_nontransitive": _gallery_grodal,
    "locally_strict_not_closed": _gallery_locally_strict,
}


def run_gallery(item: str, out_dir: str | None = None) -> dict:
    """Run one named gallery item and return its checks and rows.

    The result carries an overall "ok" flag, per-assertion outcomes, and
    the numeric rows behind them. With out_dir set, rows and assertions
    are also written as JSON and CSV artifacts.
    """
    if item not in GALLERY_ITEMS:
        raise ConfigurationError(f"unknown gallery item {item!r}; choose from {sorted(GALLERY_ITEMS)}")
    checks, rows = GALLERY_ITEMS[item]()
    result = {"item": item, "ok": all(check["passed"] for check in checks.values()), "assertions": checks, "rows": rows}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        json_path = os.path.join(out_dir, f"{item}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, default=float)
        csv_path = os.path.join(out_dir, f"{item}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        result = dict(result, artifacts=[json_path, csv_path])
    return result


# ---------------------------------------------------------------------------
# report emission


_CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(report: ConvergenceReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    writer.writerows([_cell(value) for value in asdict(row).values()] for row in report.rows)
    return buf.getvalue()


def parse_report_csv(text: str) -> tuple[ReportRow, ...]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != _CSV_COLUMNS:
        raise DomainError(f"report CSV needs columns {_CSV_COLUMNS}")
    return tuple(ReportRow(
        k=int(rec["k"]),
        delta_c=float(rec["delta_c"]) if rec["delta_c"] else None,
        diameter=float(rec["diameter"]) if rec["diameter"] else None,
        utility_dist=float(rec["utility_dist"]) if rec["utility_dist"] else None,
        consistent=rec["consistent"] == "true",
        wall_time_ms=float(rec["wall_time_ms"]) if rec["wall_time_ms"] else 0.0,
    ) for rec in reader)


def report_to_json(report: ConvergenceReport) -> str:
    doc = {"metadata": report.metadata, "rows": [asdict(row) for row in report.rows]}
    return json.dumps(doc, indent=2)


def report_fingerprint(report: ConvergenceReport) -> str:
    """Hash of a report with timing zeroed; equal for identical seeded runs."""
    doc = {"metadata": report.metadata, "rows": [dict(asdict(row), wall_time_ms=0.0) for row in report.rows]}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _svg_chart(report: ConvergenceReport) -> str:
    """Line chart of the report's numeric series, one polyline per series."""
    width, height, margin = 640, 400, 50.0
    series = {}
    for label, getter in (("delta_c", lambda r: r.delta_c),
                          ("diameter", lambda r: r.diameter),
                          ("utility_dist", lambda r: r.utility_dist)):
        pts = [(row.k, getter(row)) for row in report.rows if getter(row) is not None]
        if pts:
            series[label] = pts
    ks = [row.k for row in report.rows] or [1]
    values = [v for pts in series.values() for _, v in pts] or [1.0]
    kmax = max(ks)
    vmax = max(max(values), 1e-12)
    inner_w, inner_h = width - 2 * margin, height - 2 * margin

    def sx(k):
        return margin + inner_w * (k / kmax)

    def sy(v):
        return height - margin - inner_h * (v / vmax)

    colors = {"delta_c": "#1f6fb2", "diameter": "#b2571f", "utility_dist": "#2f8f4e"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="#444"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="#444"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" font-size="13">k</text>',
        f'<text x="14" y="{margin - 16}" font-size="13">value (max {vmax:.4g})</text>',
    ]
    for i, (label, pts) in enumerate(series.items()):
        coords = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in pts)
        color = colors.get(label, "#777")
        parts.append(f'<polyline class="series-{label}" fill="none" stroke="{color}" '
                     f'stroke-width="2" points="{coords}"/>')
        parts.append(f'<text x="{width - margin - 140}" y="{margin + 18 * i}" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(report: ConvergenceReport, formats=("csv", "json"), out_dir: str = ".",
                stem: str = "report") -> dict:
    """Write the report in the requested formats; returns {format: path}.

    Formats: csv (row table), json (rows plus metadata), svg_plot (line
    chart with one polyline per numeric series).
    """
    emitters = {
        "csv": (f"{stem}.csv", report_to_csv),
        "json": (f"{stem}.json", report_to_json),
        "svg_plot": (f"{stem}.svg", _svg_chart),
    }
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    for fmt in formats:
        if fmt not in emitters:
            raise ConfigurationError(f"unknown report format {fmt!r}")
        name, render = emitters[fmt]
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render(report))
        except OSError as err:
            raise DomainError(f"cannot write {path}: {err}") from None
        written[fmt] = path
    return written
