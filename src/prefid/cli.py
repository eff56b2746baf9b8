"""Command line front end.

Exit codes: 0 success, 2 configuration or usage error, 3 inconsistent data
in check (or an unrationalizable dataset passed to diameter).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError, ConfigurationError, DomainError, PreconditionError, ResolutionError
from .experiments import STRONG, WEAK, choices_from_csv
from .harness import GALLERY_ITEMS, ExperimentConfig, _defaults, emit_report, run_convergence, run_gallery
from .rationalize import (
    _POLICY_CLASSES,
    RationalizationPolicy,
    check_consistency,
    diameter_estimate,
    extend_preference,
    result_to_json,
    revealed_relation,
)
from .spaces import space_from_descriptor

_USAGE_ERRORS = (ConfigurationError, DomainError, ResolutionError, CapacityError,
                 OSError, json.JSONDecodeError)


def _load_data(args):
    """The experiment and choices of the --data CSV over the space of the --space descriptor."""
    with open(args.space, "r", encoding="utf-8") as fh:
        space = space_from_descriptor(json.load(fh))
    with open(args.data, "r", encoding="utf-8") as fh:
        return choices_from_csv(fh.read(), space, args.mode)


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    report = run_convergence(config)
    out_dir = args.out or config.output_dir or "."
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    written = emit_report(report, formats, out_dir)
    for fmt, path in written.items():
        print(f"{fmt}: {path}")
    for row in report.rows:
        delta = "-" if row.delta_c is None else f"{row.delta_c:.6g}"
        print(f"k={row.k} delta_c={delta} consistent={str(row.consistent).lower()}")
    return 0


def _cmd_gallery(args) -> int:
    result = run_gallery(args.item, out_dir=args.out)
    for name, outcome in result["assertions"].items():
        mark = "pass" if outcome["passed"] else "FAIL"
        print(f"[{mark}] {name}")
    for path in result.get("artifacts", []):
        print(f"wrote {path}")
    return 0 if result["ok"] else 2


def _cmd_check(args) -> int:
    e, c = _load_data(args)
    r = revealed_relation(e, c, args.mode, monotone=args.monotone)
    verdict = check_consistency(r)
    if not verdict.consistent:
        print(result_to_json("canonical", consistent=False, witness=verdict.witness))
        return 3
    pref = extend_preference(r, RationalizationPolicy(tag="canonical"))
    print(result_to_json("canonical", consistent=True, preference=pref))
    return 0


def _cmd_diameter(args) -> int:
    e, c = _load_data(args)
    try:
        est = diameter_estimate(e, c, policy_class=args.policy_class,
                                num_samples=args.samples, seed=args.seed)
    except PreconditionError as err:
        print(str(err), file=sys.stderr)
        return 3
    print(result_to_json(args.policy_class, consistent=True, diameter=est))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prefid",
                                     description="Preference identification from finite choice data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded convergence experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", default=None, help="output directory (default: config output_dir or .)")
    p_run.add_argument("--formats", default="csv,json", help="comma list of csv,json,svg_plot")
    p_run.set_defaults(fn=_cmd_run)

    p_gal = sub.add_parser("gallery", help="run a named counterexample gallery item")
    p_gal.add_argument("item", choices=sorted(GALLERY_ITEMS))
    p_gal.add_argument("--out", default=None, help="directory for JSON/CSV artifacts")
    p_gal.set_defaults(fn=_cmd_gallery)

    p_chk = sub.add_parser("check", help="consistency-check a choice CSV and print a rationalization")
    p_chk.add_argument("--data", required=True, help="choice CSV path")
    p_chk.add_argument("--space", required=True, help="space descriptor JSON path")
    p_chk.add_argument("--mode", required=True, choices=[STRONG, WEAK])
    p_chk.add_argument("--monotone", default="none", choices=list(_POLICY_CLASSES.values()))
    p_chk.set_defaults(fn=_cmd_check)

    p_dia = sub.add_parser("diameter", help="estimate how far apart rationalizations can be")
    p_dia.add_argument("--data", required=True, help="choice CSV path")
    p_dia.add_argument("--space", required=True, help="space descriptor JSON path")
    p_dia.add_argument("--mode", default=STRONG, choices=[STRONG, WEAK])
    p_dia.add_argument("--samples", type=int, default=_defaults(diameter_estimate)["num_samples"])
    p_dia.add_argument("--seed", type=int, default=0)
    p_dia.add_argument("--policy-class", default="all", choices=list(_POLICY_CLASSES))
    p_dia.set_defaults(fn=_cmd_diameter)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (*_USAGE_ERRORS, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, PreconditionError) else 2


if __name__ == "__main__":
    sys.exit(main())
