"""imlab benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py [--workload probe|relax|survey|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``.  Each workload is a closed loop with one client making
serial calls in this process, with the BLAS/OpenMP thread count pinned to 1.
Inputs are made from ``--seed`` only (see ``workloads.py``).

``--trace 0`` times the operations untraced and reports the end-to-end
metrics: ``setup_s`` (median over fresh processes of ``import imlab`` plus
building the inputs), ``op_rel`` and ``peak_rss_mb``.  ``op_rel`` is the
mean wall time of one operation (a ``minimize`` solve on probe/relax, a full
pass on survey) divided by the mean time of a fixed numpy reference kernel
timed between the operations.  On a shared host the speed of both CPUs
drifts together by up to 2x over seconds to minutes; both means integrate
that drift over the same run, so the quotient cancels most of it.  The raw
medians with their sample counts (``solve_s``, ``survey_pass_s``, the
per-experiment times) are in the readable report.  ``--trace 1`` alternates an untraced and a traced run of
each input, compares their outputs bit for bit, and reports per-layer
metrics from the spans (see ``spans.py``) plus the tracing overhead.

Every operation's output is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The lines above it are a
readable report with sample counts and provenance.  The full report and the
spans are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("probe", "relax", "survey")
SETUP_SAMPLES = 7
MIN_OPS = 3
END_TO_END = (("setup_s", "s"), ("op_rel", "ratio"), ("peak_rss_mb", "MB"))
OPTIMIZER_METRICS = (("optimize.iterations", "count"), ("optimize.nfev", "count"),
                     ("optimize.ngev", "count"), ("optimize.backtracks", "count"),
                     ("optimize.ms_per_iter", "ms"), ("optimize.accept_ratio", "ratio"))
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
                 ("trace.spans_per_op", "count"))


def load_program():
    """Import the checkout's imlab (and the workloads built on it)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "imlab", "__init__.py")):
        sys.exit(f"perfbench: no imlab sources under {src}")
    sys.path.insert(0, src)
    import imlab
    if not os.path.abspath(imlab.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported imlab from {imlab.__file__}, not {src}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """(q, value) for the highest of the usual percentiles that has at least
    ten samples above it; None when there are fewer than 20 samples."""
    n = len(values)
    ordered = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, ordered[max(int(-(-q * n // 100)) - 1, 0)]
    return None


def describe(values, unit, scale=1.0):
    """'median unit (n=..)' plus the tail percentile when there is one."""
    if not values:
        return "n/a (0 samples)"
    text = f"median {median(values) * scale:.6g} {unit} (n={len(values)}"
    t = tail(values)
    if t is not None:
        text += f", p{t[0]:g} {t[1] * scale:.6g} {unit}"
    return text + ")"


# ---------------------------------------------------------------------------
# provenance and set-up


def provenance(seed):
    import imlab
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"imlab": getattr(imlab, "__version__", None), "numpy": numpy.__version__,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": commit, "seed": seed}


def setup_child(args):
    """--setup-only: time import imlab plus building the inputs, in this
    fresh process, and print it."""
    t0 = time.perf_counter()
    wl = load_program()
    wl.make(args.workload, args.seed, args.setup_dir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_samples(args, workdir):
    samples = []
    for i in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-dir", os.path.join(workdir, f"setup-{i}")],
            cwd=ROOT, text=True, capture_output=True, timeout=170, check=True)
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# the closed loop


class Run:
    """One workload's measured loop and everything it records."""

    def __init__(self, args, wl, spans):
        self.args = args
        self.wl = wl
        self.spans = spans
        self.workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                             f"-trace{args.trace}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.tracer = spans.Tracer() if args.trace else None
        self.plain = []         # (k, Outcome) of untraced operations
        self.reference = []     # reference-kernel times between them
        self.traced = []        # (k, Outcome, per-op span totals, counters)
        self.failed_ops = 0
        self.failures = []
        self.first_output = None  # every op repeats one input: same outputs

    def _op(self, bench, k, outdir, traced):
        """One operation with its checks; never raises."""
        if traced:
            self.tracer.op = k
            self.tracer.install()
        try:
            out = bench.run(k, outdir)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            out = self.wl.Outcome(None, None,
                                  [f"op {k} raised {type(exc).__name__}: {exc}"])
        finally:
            if traced:
                self.tracer.uninstall()
        if out.fingerprint is not None:
            if self.first_output is None:
                self.first_output = out.fingerprint
            elif out.fingerprint != self.first_output:
                out.failures.append(f"op {k} ({'traced' if traced else 'untraced'}): "
                                    "outputs differ from an earlier run of the same input")
            out.fingerprint = None  # keep only the first, so RSS does not grow
        return out

    def _cross_check(self, k, out):
        """Counters from the public trace, checked against stencil calls."""
        totals = self.tracer.op_totals(k)
        if "trace" not in out.info:
            return totals, None
        try:
            counters = self.wl.optimizer_counters(out.info["trace"])
        except ValueError as exc:
            out.failures.append(f"op {k}: {exc}")
            return totals, None
        calls = {name: totals.get(f"fields.{name}", [0])[0]
                 for name in ("jacobian_array", "jacobian_adjoint")}
        want = {"jacobian_array": 2 * (counters["nfev"] + counters["ngev"]),
                "jacobian_adjoint": 2 * counters["ngev"]}
        if calls != want:
            out.failures.append(f"op {k}: stencil calls {calls} != derived {want}")
        return totals, counters

    def loop(self, bench):
        t_start = time.perf_counter()
        if self.tracer is None:
            self.reference.append(self.wl.reference_kernel())
        rounds = []
        k = 0
        while True:
            t_round = time.perf_counter()
            name = "ref" if k == 0 else "cur"
            out = self._op(bench, k, os.path.join(self.workdir, f"pass-{name}"), False)
            self._record(out)
            self.plain.append((k, out))
            if self.tracer is None:
                self.reference.append(self.wl.reference_kernel())
            else:
                tout = self._op(bench, k, os.path.join(self.workdir, "pass-traced"), True)
                totals, counters = self._cross_check(k, tout)
                self._record(tout)
                self.traced.append((k, tout, totals, counters))
            k += 1
            rounds.append(time.perf_counter() - t_round)
            elapsed = time.perf_counter() - t_start
            if k >= MIN_OPS and elapsed + median(rounds) > self.args.seconds:
                break

    def _record(self, out):
        if out.failures:
            self.failed_ops += 1
            self.failures.extend(out.failures)

    @property
    def attempted(self):
        return len(self.plain) + len(self.traced)


def _walls(outcomes):
    return [out.wall_s for _, out in outcomes if out.wall_s is not None]


def end_to_end(run, setup):
    walls = _walls(run.plain)
    values = {"setup_s": median(setup),
              "op_rel": statistics.fmean(walls) / statistics.fmean(run.reference)
              if walls else None,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {name: (values[name], unit) for name, unit in END_TO_END}


def layer_metrics(spans, wl):
    """(name, unit) of every per-layer metric, in report order."""
    return (spans.layer_metric_names() + list(OPTIMIZER_METRICS)
            + [(f"survey.{exp}_s", "s") for exp in wl.SURVEY_EXPERIMENTS]
            + list(TRACE_METRICS))


def per_layer(run):
    """Medians over operations of every per-layer metric (0 where the
    workload does not use a layer)."""
    values = {}
    for name, _ in run.spans.layer_metric_names():
        prefix, stat = name.rsplit(".", 1)
        col = {"calls": 0, "self_s": 1}.get(stat, 2)
        values[name] = median([tot.get(prefix, [0, 0, 0])[col] * (1e-9 if col == 1 else 1)
                               for _, _, tot, _ in run.traced])
    counters = [c for _, _, _, c in run.traced if c is not None]
    for key in ("iterations", "nfev", "ngev", "backtracks"):
        values[f"optimize.{key}"] = median([c[key] for c in counters]) or 0
    values["optimize.ms_per_iter"] = median(
        [out.wall_s * 1e3 / out.info["iterations"] for _, out in run.plain
         if out.info.get("iterations") and out.wall_s is not None]) or 0.0
    values["optimize.accept_ratio"] = median(
        [c["iterations"] / c["nfev"] for c in counters]) or 0.0
    for exp in run.wl.SURVEY_EXPERIMENTS:
        values[f"survey.{exp}_s"] = median(
            [out.info["times"][exp] for _, out in run.plain if "times" in out.info]) or 0.0
    plain = {k: out.wall_s for k, out in run.plain}
    overhead = [out.wall_s - plain[k] for k, out, _, _ in run.traced
                if out.wall_s is not None and plain[k] is not None]
    base = median(_walls(run.plain))
    values["trace.overhead_s"] = median(overhead)
    values["trace.overhead_ratio"] = median(overhead) / base if overhead and base else None
    values["trace.spans_per_op"] = median(
        [sum(1 for s in run.tracer.spans if s is not None and s[4] == k)
         for k, _, _, _ in run.traced])
    return {name: (values[name], unit) for name, unit in layer_metrics(run.spans, run.wl)}


# ---------------------------------------------------------------------------
# report


def report_lines(run, setup, metrics, prov):
    args = run.args
    lines = [f"imlab benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "provenance: " + json.dumps(prov, sort_keys=True),
             f"setup_s: {describe(setup, 's')} over fresh processes"]
    walls = _walls(run.plain)
    label = "survey_pass_s" if args.workload == "survey" else "solve_s"
    lines.append(f"{label}: {describe(walls, 's')} untraced, closed loop, 1 client")
    if not args.trace:
        lines.append(f"reference kernel: {describe(run.reference, 's')} between ops")
        lines.append(f"op_rel: {metrics['op_rel'][0]!r} (mean {label} / mean reference "
                     "kernel)")
    if args.workload == "survey":
        for exp in run.wl.SURVEY_EXPERIMENTS:
            lines.append(f"  {exp}_s: " + describe(
                [out.info["times"][exp] for _, out in run.plain if "times" in out.info], "s"))
    else:
        iters = [out.info["iterations"] for _, out in run.plain if "iterations" in out.info]
        lines.append(f"  iterations to grad_tol: {describe(iters, 'iterations')}")
    if not args.trace:
        lines.append(f"peak_rss_mb: {metrics['peak_rss_mb'][0]!r} MB")
    lines.append(f"fail_ratio: {run.failed_ops / max(run.attempted, 1)!r} "
                 f"({run.failed_ops} failed / {run.attempted} attempted ops)")
    for failure in run.failures[:20]:
        lines.append(f"  FAILED {failure}")
    if args.trace:
        if run.tracer.missing:
            lines.append(f"not found, reported as 0: {', '.join(run.tracer.missing)}")
        lines.append(f"per-layer (median per traced op, n={len(run.traced)}; matrices "
                     "and bytes are computed from array shapes and file sizes):")
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name}: {value!r} {unit}")
        lines.append("per-call self time of kernel and I/O spans:")
        for prefix, _, _, kind in run.spans.LAYERS:
            if kind in ("kernel", "io"):
                lines.append(f"  {prefix}: "
                             + describe(run.tracer.self_times(prefix), "us", 1e6))
        lines.append(f"tracing overhead: {metrics['trace.overhead_s'][0]!r} s per op, "
                     f"median of traced minus untraced time over {len(run.traced)} pairs")
    return lines


def measure(args):
    wl = load_program()
    import spans
    prov = provenance(args.seed)
    run = Run(args, wl, spans)
    setup = setup_samples(args, run.workdir)
    bench = wl.make(args.workload, args.seed, os.path.join(run.workdir, "inputs"))
    run.loop(bench)

    metrics = end_to_end(run, setup) if not args.trace else per_layer(run)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    correct = run.failed_ops == 0 and not missing
    failed = max(run.failed_ops, 1 if missing else 0)
    for line in report_lines(run, setup, metrics, prov):
        print(line)
    for name in missing:
        print(f"FAILED {name}: computed from zero samples")
    result = {"correct": correct, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": 0.0 if value is None else value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(run.workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "setup_s": setup, "result": result,
                   "op_s": _walls(run.plain), "reference_s": run.reference,
                   "failures": run.failures}, fh, indent=1)
    if run.tracer is not None:
        run.tracer.write(os.path.join(run.workdir, "spans.csv"))
    for sub in ("pass-ref", "pass-cur", "pass-traced"):
        shutil.rmtree(os.path.join(run.workdir, sub), ignore_errors=True)
    print(json.dumps(result, allow_nan=False))


def measure_all(args):
    load_program()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, text=True, capture_output=True, timeout=900)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {res.returncode}")
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total, allow_nan=False))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:         # before numpy is imported, here and in children
        os.environ[var] = "1"
    if args.setup_only:
        setup_child(args)
    elif args.workload == "all":
        measure_all(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
