"""Command-line front end: simulate, run, evaluate, compare.

Every subcommand exits 0 on success; any error prints a one-line
diagnostic to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import configio, logio
from .metrics import evaluate, format_comparison, format_report
from .pipeline import run_pipeline
from .simulate import simulate, truth_array


def _angles(estimates):
    return (np.array([e.t for e in estimates]),
            np.array([[e.euler.roll, e.euler.pitch, e.euler.yaw]
                      for e in estimates]))


def _truth(records):
    # read_log yields truth for every record or for none
    return np.array([r.t for r in records]), truth_array(records)


def _emit(report: str, path) -> int:
    """Print a report and, if `path` is given, also write it there."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    print(report, end="")
    return 0


def _cmd_sim(args) -> int:
    traj, gyro, accel, mag, rate, seed = configio.load_scenario(args.scenario)
    if args.seed is not None:
        seed = args.seed
    records = simulate(traj, gyro, accel, mag, rate, seed)
    logio.write_log(args.out, records)
    print(f"wrote {len(records)} samples ({records[-1].t:.2f} s at {rate:g} Hz) "
          f"to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = configio.load_pipeline_config(args.config) if args.config \
        else configio.pipeline_config_from_text("")
    records = logio.read_log(args.log)
    estimates = run_pipeline(records, cfg)
    logio.write_estimates(args.out, estimates)
    print(f"{cfg.algorithm}: {len(estimates)} estimates "
          f"({records[0].t:.2f}..{records[-1].t:.2f} s) to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    estimates = logio.read_estimates(args.estimates)
    t_truth, truth = _truth(logio.read_log(args.truth))
    t_est, est = _angles(estimates)
    result = evaluate(t_est, est, t_truth, truth,
                      algorithm=args.name or "run",
                      config_hash=configio.config_hash(args.config)
                      if args.config else "")
    return _emit(format_report(result), args.report)


def _cmd_compare(args) -> int:
    t_truth, truth = _truth(logio.read_log(args.truth))
    results = []
    for path, name in ((args.baseline, "baseline"), (args.candidate, "candidate")):
        t_est, est = _angles(logio.read_estimates(path))
        results.append(evaluate(t_est, est, t_truth, truth, algorithm=name))
    return _emit(format_comparison(results[0], results[1]), args.report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahrskit",
        description="attitude-heading estimation: simulate, run, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="generate a synthetic sensor log with truth")
    p.add_argument("--scenario", required=True, help="scenario key-value file")
    p.add_argument("--out", required=True, help="output log CSV")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("run", help="run an estimator over a sensor log")
    p.add_argument("--log", required=True, help="input log CSV")
    p.add_argument("--config", help="pipeline config file (defaults when omitted)")
    p.add_argument("--out", required=True, help="output estimates CSV")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="RMSE of estimates against ground truth")
    p.add_argument("--estimates", required=True, help="estimates CSV")
    p.add_argument("--truth", required=True, help="log CSV with truth columns")
    p.add_argument("--config", help="config file (hash recorded in the report)")
    p.add_argument("--name", help="algorithm label for the report")
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="side-by-side RMSE and improvement")
    p.add_argument("--baseline", required=True, help="baseline estimates CSV")
    p.add_argument("--candidate", required=True, help="candidate estimates CSV")
    p.add_argument("--truth", required=True, help="log CSV with truth columns")
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
