"""Workload inputs, operations and output checks of the imlab benchmark.

Each workload is built from the seed alone and offers ``run(k, outdir)``, one
operation of a closed loop with a single client.  Every operation of a run
repeats the same input, so each must reproduce the first one's outputs.  An
operation returns an :class:`Outcome` with the wall time of the library
calls, a fingerprint of its numerical outputs and the list of failed checks.
Checks run after the timed region.

probe   criterion-10 incompatibility probe: L-BFGS on sphere-incompatible at
        33^2 from the flat graph plus an in-plane smooth perturbation.  Time
        goes to the optimizer and the immersion kernels (3x2 SVD, cross
        product, 4-operand einsum, FD adjoints); no artifacts are written.
relax   director-field descent on sphere-incompatible at 17^2.  The optimizer
        runs through the 3x3 rotation distance (SVD + det) and the connector,
        a path closed-form 3x2 kernels leave alone.
survey  one pass over the README experiment configs plus a custom preset
        whose metric is read from a CSV table.  Exercises the library energy
        path, Gauss-Codazzi, the RK4 march, Procrustes, every artifact writer
        and the CSV reader; the optimizer is nearly idle.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from imlab import optimize
from imlab.fields import DirectorField, DiscreteImmersion, save_node_csv
from imlab.geometry import chart
from imlab.harness import ExperimentConfig, random_smooth_field, run_experiment
from imlab.immersion import normal_director
from imlab.optimize import OptimizeConfig
from imlab.presets import get_preset

# Terminal energies every start reaches on grad_tol (criterion-10 probe at
# 33^2, director relaxation at 17^2), and the relative tolerance on them.
PROBE_ENERGY = 0.0022186805
RELAX_ENERGY = 0.0022354612
ENERGY_RTOL = 1e-6
GRAD_TOL = 1e-7
MAX_ITERS = 2500

# Survey checks: second-order error bound 10 h^2 (the zero-energy bound of
# criterion 6, and the order criterion 5 asserts for reconstructed forms) and
# the criterion-5 alignment bound.
H2_FACTOR = 10.0
ALIGN_TOL = 1e-4

SURVEY_EXPERIMENTS = ("check", "reconstruct", "sweep", "ratio", "energy", "custom")


@dataclass
class Outcome:
    wall_s: Optional[float]     # None when the operation raised
    fingerprint: object
    failures: list
    info: dict = field(default_factory=dict)


def flat_graph(grid) -> np.ndarray:
    return np.concatenate([grid.nodes(), np.zeros(grid.counts + (1,))], axis=-1)


class Minimization:
    """probe / relax: one ``minimize`` call per operation."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.preset = get_preset("sphere-incompatible")
        self.config = OptimizeConfig(max_iters=MAX_ITERS, grad_tol=GRAD_TOL)
        self.energy = PROBE_ENERGY if name == "probe" else RELAX_ENERGY
        self.grid = self.preset.grid((33, 33) if name == "probe" else (17, 17))
        self.S = self.preset.shape_field(self.grid)
        base = DiscreteImmersion(self.grid, flat_graph(self.grid), chart("euclidean", 3))
        rng = np.random.default_rng(seed)
        if name == "probe":
            # in-plane only: an out-of-plane kick lands in another basin
            values = base.values.copy()
            values[..., :2] += 0.02 * random_smooth_field(self.grid, 2, rng)
            self.start = DiscreteImmersion(self.grid, values, base.target)
        else:
            director = normal_director(base)
            foot = director.foot + 0.01 * random_smooth_field(self.grid, 3, rng)
            self.start = DirectorField(self.grid, foot, 2.0 * director.vec, director.target)

    def run(self, k: int, outdir=None) -> Outcome:
        t0 = time.perf_counter()
        state, trace = optimize.minimize(self.start, self.preset.g, self.S, 2.0,
                                         self.config)
        wall = time.perf_counter() - t0
        last = trace.records[-1]
        failures = []
        if trace.reason != "grad_tol":
            failures.append(f"{self.name}: stopped on {trace.reason}, not grad_tol")
        if not abs(last["energy"] - self.energy) <= ENERGY_RTOL * self.energy:
            failures.append(f"{self.name}: terminal energy {last['energy']!r} is not "
                            f"within {ENERGY_RTOL} of {self.energy}")
        arrays = ((state.values,) if isinstance(state, DiscreteImmersion)
                  else (state.foot, state.vec)) + (trace.energies(),)
        fingerprint = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        return Outcome(wall, fingerprint, failures,
                       {"trace": trace, "iterations": last["iter"]})


def optimizer_counters(trace) -> dict:
    """Evaluation counts of one minimize call, derived from its public trace.

    Gradients: one at the start and one per accepted step.  Energies: one at
    the start, one per accepted step and one per backtrack; the backtracks of
    an iteration are read off its step t = t0 * 0.5^k, with t0 = 1 after the
    first iteration and min(1, 1/|grad_0|_max) on it.
    """
    recs = trace.records
    iterations = int(recs[-1]["iter"])
    backtracks = 0
    for rec in recs[1:]:
        t0 = min(1.0, 1.0 / max(recs[0]["grad_norm"], 1e-12)) if rec["iter"] == 1 else 1.0
        k = math.log2(t0 / rec["step"])
        if abs(k - round(k)) > 1e-9 or round(k) < 0:
            raise ValueError(f"step {rec['step']!r} is not t0 * 0.5^k")
        backtracks += round(k)
    return {"iterations": iterations, "ngev": iterations + 1,
            "nfev": 1 + iterations + backtracks, "backtracks": backtracks}


def _no_constant(text):
    raise ValueError(f"non-finite JSON constant {text}")


def read_tree(root) -> dict:
    """Relative path -> bytes of every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _h2(report) -> float:
    meta = report["grid_meta"]
    h = max(e / (c - 1) for e, c in zip(meta["extents"], meta["counts"]))
    return H2_FACTOR * h * h


def _check_report(key, report) -> list:
    """Failed checks of one experiment's report; empty when it is correct."""
    bad = []
    if key == "check":
        if report.get("passed") is not True:
            bad.append("check suite did not pass")
        for entry in report["checks"]:
            if entry.get("applicable_samples", 1) < 1:
                bad.append(f"check {entry['check']} ran on zero samples")
    elif key.endswith("reconstruct"):
        tol = _h2(report)
        for name in ("pullback_max_error", "shape_operator_max_error"):
            if not report[name] <= tol:
                bad.append(f"{key}: {name} {report[name]!r} > {tol:.3g}")
        if not report.get("aligned_max_distance", 0.0) <= ALIGN_TOL:
            bad.append(f"{key}: aligned distance {report['aligned_max_distance']!r}")
    elif key.endswith("energy"):
        if not 0.0 <= report["total"] <= _h2(report):
            bad.append(f"{key}: zero-energy state has energy {report['total']!r}")
    elif key == "sweep":
        ratios = [r["ratio"] for r in report["records"] if r["ratio"] is not None]
        if not ratios or not all(math.isfinite(e["energy"]) for e in report["records"]):
            bad.append("sweep: no finite ratio samples")
    elif key == "ratio":
        if not report["num_ratios"] >= 1 or not math.isfinite(report["ratio_max"]):
            bad.append("ratio-study: no ratio samples")
    return bad


class Survey:
    """survey: one pass of run_experiment over the README configs per operation."""

    # (output subdirectory, metric it is timed under, config fields)
    RUNS = (
        ("check", "check", dict(experiment="check", grid=(33, 33))),
        ("reconstruct", "reconstruct",
         dict(experiment="reconstruct", preset="sphere-cap", grid=(65, 65))),
        ("sweep", "sweep", dict(experiment="stability-sweep", preset="cylinder",
                                grid=(33, 33))),
        ("ratio", "ratio", dict(experiment="ratio-study", preset="cylinder",
                                grid=(65, 65))),
        ("energy", "energy", dict(experiment="energy", preset="sphere-cap",
                                  grid=(65, 65))),
        ("custom_energy", "custom", dict(experiment="energy", preset="custom",
                                         grid=(33, 33))),
        ("custom_reconstruct", "custom", dict(experiment="reconstruct",
                                              preset="custom", grid=(33, 33))),
    )

    def __init__(self, seed: int, workdir: str):
        self.name = "survey"
        os.makedirs(workdir, exist_ok=True)
        # constant SPD metric table A^T A, A = I + 0.2 N(0,1), read back by
        # the program through load_node_csv and MetricChart.from_table
        rng = np.random.default_rng(seed)
        A = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
        grid = get_preset("flat").grid((33, 33))
        table = os.path.join(os.path.abspath(workdir), "metric.csv")
        save_node_csv(table, grid, np.broadcast_to(A.T @ A, grid.counts + (2, 2)))
        custom = {"g": {"csv": table}, "s": [[0.0, 0.0], [0.0, 0.0]],
                  "box": [[0.0, 1.0], [0.0, 1.0]]}
        self.configs = []
        for sub, metric, kwargs in self.RUNS:
            if kwargs.get("preset") == "custom":
                kwargs = dict(kwargs, custom=custom)
            self.configs.append((sub, metric, ExperimentConfig(seed=seed, **kwargs)))

    def run(self, k: int, outdir: str) -> Outcome:
        if os.path.exists(outdir):
            shutil.rmtree(outdir)
        configs = [(sub, metric, replace(cfg, out=os.path.join(outdir, sub)))
                   for sub, metric, cfg in self.configs]
        times = dict.fromkeys(SURVEY_EXPERIMENTS, 0.0)
        reports = {}
        t_pass = time.perf_counter()
        for sub, metric, cfg in configs:
            t0 = time.perf_counter()
            reports[sub], _ = run_experiment(cfg)
            times[metric] += time.perf_counter() - t0
        wall = time.perf_counter() - t_pass

        failures = []
        tree = read_tree(outdir)
        for rel, data in sorted(tree.items()):
            if rel.endswith(".json"):
                try:
                    json.loads(data, parse_constant=_no_constant)
                except ValueError as exc:
                    failures.append(f"{rel}: invalid JSON ({exc})")
        for sub, _, _ in configs:
            failures.extend(_check_report(sub, reports[sub]))
        return Outcome(wall, tree, failures, {"times": times})


def reference_kernel(reps: int = 100) -> float:
    """Wall time of a fixed numpy-only workload shaped like the operations.

    The host's speed drifts by up to 2x, so each run also times this kernel
    between its operations and reports the operation time in multiples of
    it.  It calls no imlab code, so no change to the program can move it.
    """
    rng = np.random.default_rng(2306)
    Q = rng.normal(size=(33, 33, 3, 2))
    B = rng.normal(size=(17, 17, 3, 3))
    G = np.einsum("...ji,...jk->...ik", Q, Q) + np.eye(2)
    H = np.eye(3)
    t0 = time.perf_counter()
    for _ in range(reps):
        np.linalg.svd(Q, compute_uv=False)
        U, _, Vt = np.linalg.svd(B)
        np.linalg.det(U) * np.linalg.det(Vt)
        np.linalg.eigh(G)
        np.einsum("...ij,ab,...ai,...bj->...", G, H, Q, Q)
        np.cross(Q[..., 0], Q[..., 1])
        0.5 * (Q[2:] - Q[:-2])
        sum(float(v) for v in Q[0, :, 0, 0])
    return time.perf_counter() - t0


def make(name: str, seed: int, workdir: str):
    """Build the inputs of one workload from its seed."""
    if name == "survey":
        return Survey(seed, workdir)
    if name in ("probe", "relax"):
        return Minimization(name, seed)
    raise ValueError(f"unknown workload {name!r}")
