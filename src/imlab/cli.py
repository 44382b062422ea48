"""Command-line entry point.

    imlab <energy|check|reconstruct|minimize|stability-sweep|ratio-study>
          [--config path] [--out dir] [--grid NxM] [--p f] [--seed i]

Flags override the corresponding config fields.  Exit code 0 on success
(and for ``--help``), 2 when the check suite reports a failure, 1 on any
error, a command-line argument error included.  A minimization that
stops on anything but the gradient tolerance warns on stderr, naming its
largest residual gradient component and its recent energy decrease, and
exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ImlabError
from .harness import CONFIG_VERSION, EXPERIMENTS, config_from_dict, run_experiment


class _Parser(argparse.ArgumentParser):
    """Exits 1 on an argument error, where argparse exits 2: exit code 2
    means a failed check suite."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_grid(text):
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected node counts such as 33x33 or 65, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imlab", description="stretching/bending energy lab")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--grid", type=_parse_grid, default=None,
                        help="node counts, e.g. 33x33")
        sp.add_argument("--p", type=float, default=None, help="energy exponent")
        sp.add_argument("--seed", type=int, default=None, help="random seed")
        sp.add_argument("--preset", default=None, help="preset name")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in ("out", "grid", "p", "seed", "preset")
                 if getattr(args, k) is not None}
    try:
        doc = {"imlab_config": CONFIG_VERSION, "experiment": args.experiment}
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        # the subcommand and the flags replace the file's fields, so the config
        # is checked once, with the values the run uses
        if isinstance(doc, dict) and "experiment" in doc:
            doc = {**doc, "experiment": args.experiment, **overrides}
        report, passed = run_experiment(config_from_dict(doc))
    except (ImlabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"imlab: error: {exc}", file=sys.stderr)
        return 1
    summary = {k: report[k] for k in ("experiment", "passed", "terminal_energy",
                                      "total", "ratio_max")
               if isinstance(report, dict) and k in report}
    print(f"imlab {args.experiment}: " + json.dumps(summary, sort_keys=True))
    termination = report.get("termination", "grad_tol")
    if termination != "grad_tol":
        big = report["residual_gradient_largest"]
        print(f"imlab: warning: minimization stopped on {termination} after "
              f"{report['iterations']} iterations, not on grad_tol; the terminal "
              f"state is not a converged minimizer (largest residual gradient "
              f"{big['field']}[{big['component']}] = {big['max']:.3e}; "
              f"energy fell by {report['recent_energy_decrease']:.3e} over the "
              f"last {report['recent_records']} trace records)", file=sys.stderr)
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
