"""Command-line entry point.

    imlab <energy|check|reconstruct|minimize|stability-sweep|ratio-study>
          [--config path] [--out dir] [--grid NxM] [--p f] [--seed i]

Flags override the corresponding config fields.  Exit code 0 on success,
2 when the check suite reports a failure, 1 on error.  A minimization that
stops on anything but the gradient tolerance warns on stderr and exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ImlabError
from .harness import (EXPERIMENTS, ExperimentConfig, load_config, run_experiment)


def _parse_grid(text):
    return tuple(int(p) for p in text.lower().split("x"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="imlab",
                                     description="stretching/bending energy lab")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--grid", default=None, help="node counts, e.g. 33x33")
        sp.add_argument("--p", type=float, default=None, help="energy exponent")
        sp.add_argument("--seed", type=int, default=None, help="random seed")
        sp.add_argument("--preset", default=None, help="preset name")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
            if cfg.experiment != args.experiment:
                cfg = dataclasses.replace(cfg, experiment=args.experiment)
        else:
            cfg = ExperimentConfig(experiment=args.experiment)
        overrides = {k: getattr(args, k) for k in ("out", "grid", "p", "seed", "preset")
                     if getattr(args, k) is not None}
        if "grid" in overrides:
            overrides["grid"] = _parse_grid(args.grid)
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        report, passed = run_experiment(cfg)
    except (ImlabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"imlab: error: {exc}", file=sys.stderr)
        return 1
    summary = {k: report[k] for k in ("experiment", "passed", "terminal_energy",
                                      "total", "ratio_max")
               if isinstance(report, dict) and k in report}
    print(f"imlab {args.experiment}: " + json.dumps(summary, sort_keys=True))
    termination = report.get("termination", "grad_tol")
    if termination != "grad_tol":
        print(f"imlab: warning: minimization stopped on {termination} after "
              f"{report['iterations']} iterations, not on grad_tol; the terminal "
              f"state is not a converged minimizer", file=sys.stderr)
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
