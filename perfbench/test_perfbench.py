"""Tests of the benchmark's own machinery: wrapper coverage and restore,
traced-versus-untraced identity, the derived optimizer counters, and the
agreement of BENCHMARK.json with the metrics the benchmark prints."""

import json
import os
import sys

import numpy as np

import run

run.load_program()

import imlab.energy  # noqa: E402
import imlab.fields  # noqa: E402
import imlab.harness  # noqa: E402
import imlab.immersion  # noqa: E402
import imlab.optimize  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from imlab.fields import DirectorField, DiscreteImmersion  # noqa: E402
from imlab.geometry import MetricChart, chart  # noqa: E402
from imlab.harness import random_smooth_field  # noqa: E402
from imlab.immersion import normal_director  # noqa: E402
from imlab.optimize import OptimizeConfig  # noqa: E402
from imlab.presets import get_preset  # noqa: E402


def _bindings():
    mods = (imlab.fields, imlab.optimize, imlab.energy, imlab.immersion, imlab.harness)
    return ([(m, "jacobian_array") for m in mods]
            + [(imlab.harness.RUNNERS, "check"), (imlab.harness.RUNNERS, "ratio-study"),
               (MetricChart, "eval"), (np.linalg, "svd"), (np, "einsum"),
               (np, "cross")])


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _wrappers_left():
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "imlab" or name.startswith("imlab.")):
            found += [f"{name}.{k}" for k, v in vars(mod).items()
                      if getattr(v, "perfbench_wrapper", False)]
    return found + [k for k, v in imlab.harness.RUNNERS.items()
                    if getattr(v, "perfbench_wrapper", False)]


def test_install_wraps_every_binding_and_uninstall_restores():
    before = [_get(owner, key) for owner, key in _bindings()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for owner, key in _bindings():
            assert getattr(_get(owner, key), "perfbench_wrapper", False), key
    finally:
        tracer.uninstall()
    after = [_get(owner, key) for owner, key in _bindings()]
    assert all(a is b for a, b in zip(before, after))
    assert _wrappers_left() == []


def _solve(start, traced):
    pre = get_preset("sphere-incompatible")
    grid = start.grid
    tracer = spans.Tracer() if traced else None
    if traced:
        tracer.op = 0
        tracer.install()
    try:
        state, trace = imlab.optimize.minimize(
            start, pre.g, pre.shape_field(grid), 2.0,
            OptimizeConfig(max_iters=60, grad_tol=1e-7))
    finally:
        if traced:
            tracer.uninstall()
    return state, trace, tracer


def test_traced_minimize_is_bit_identical_and_counters_match_stencils():
    pre = get_preset("sphere-incompatible")
    grid = pre.grid((9, 9))
    rng = np.random.default_rng(0)
    flat = DiscreteImmersion(grid, workloads.flat_graph(grid), chart("euclidean", 3))
    values = flat.values.copy()
    values[..., :2] += 0.02 * random_smooth_field(grid, 2, rng)
    director = normal_director(flat)
    starts = (DiscreteImmersion(grid, values, flat.target),
              DirectorField(grid, director.foot + 0.01 * random_smooth_field(grid, 3, rng),
                            2.0 * director.vec, director.target))
    for start in starts:
        plain_state, plain_trace, _ = _solve(start, traced=False)
        state, trace, tracer = _solve(start, traced=True)
        for a, b in zip(vars(plain_state).values(), vars(state).values()):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes()
        assert plain_trace.records == trace.records
        counters = workloads.optimizer_counters(trace)
        assert counters["backtracks"] > 0
        totals = tracer.op_totals(0)
        assert totals["optimize.minimize"][0] == 1
        assert totals["fields.jacobian_array"][0] == 2 * (counters["nfev"] + counters["ngev"])
        assert totals["fields.jacobian_adjoint"][0] == 2 * counters["ngev"]


def test_traced_survey_pass_writes_byte_identical_outputs(tmp_path):
    survey = workloads.Survey(seed=1, workdir=str(tmp_path / "inputs"))
    plain = survey.run(0, str(tmp_path / "plain"))
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        traced = survey.run(0, str(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    assert plain.failures == [] and traced.failures == []
    assert plain.fingerprint == traced.fingerprint
    totals = tracer.op_totals(0)
    for name in ("harness.run_check", "fields.load_node_csv", "reconstruct.save_obj",
                 "geometry.MetricChart.eval.tabulated"):
        assert totals[name][0] > 0, name
    assert totals["fields.save_node_csv"][2] == sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(tmp_path / "traced")
        for f in files if f.endswith(".csv") and not f.startswith("sweep"))


def test_kernel_work_counts_batch_elements():
    assert spans._einsum_batch("...ij,ab,...ai,...bj->...", np.zeros((5, 7, 2, 2)),
                               np.zeros((3, 3)), np.zeros((5, 7, 3, 2)),
                               np.zeros((5, 7, 3, 2))) == 35
    assert spans._einsum_batch("ab,...b->...a", np.zeros((3, 3)), np.zeros((4, 3))) == 4
    assert spans._matrix_work((np.zeros((6, 5, 3, 2)),), {}) == (30, "3x2")
    assert spans._matrix_work((np.zeros((3, 3)),), {}) == (1, "3x3")


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        run.layer_metrics(spans, workloads)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
