"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk scale throughout: grids at most 65 nodes per axis, full run in minutes.
"""

import filecmp
import os

import numpy as np

from helpers import convergence_orders, library_jacobian
from imlab.energy import (Integrands, parameter_factors, relaxed_total,
                          sasaki_bound_margin, sasaki_norm_sq, total_energy)
from imlab.fields import (DiscreteImmersion, Grid, ShapeField,
                          w1p_distance)
from imlab.geometry import (chart, chart_factors, christoffel, component_major,
                            dist_rotations, dist_stiefel, node_major)
from imlab.harness import (ExperimentConfig, _fd_vs_analytic, _sym_field,
                           random_curve_immersion, random_director,
                           random_surface_immersion, run_check,
                           run_stability_sweep, wrinkled_immersion)
from imlab.immersion import normal_director, pullback_metric, shape_operator, unit_normal
from imlab.optimize import OptimizeConfig, minimize
from imlab.presets import get_preset
from imlab.reconstruct import align_rigid, integrate_frame

E2 = chart("euclidean", 2)
E3 = chart("euclidean", 3)


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _surface_corpus(n_draws, seed, counts=(32, 32)):
    rng = np.random.default_rng(seed)
    grid = Grid(counts, (1.0, 1.0))
    for _ in range(n_draws):
        f = random_surface_immersion(grid, rng, amplitude=0.05)
        S = ShapeField(grid, 0.4 * _sym_field(grid, rng))
        yield f, S


def test_criterion_01_relaxation_identity():
    worst = 0.0
    for f, S in _surface_corpus(20, seed=101):
        xi = normal_director(f)
        for p in (2.0, 3.0):
            rep = total_energy(f, E2, S, p)
            rel = relaxed_total(xi, E2, S, p)
            viol = abs(rep.total - rel.total) / (1.0 + rep.total)
            worst = max(worst, viol)
            assert viol <= 1e-10
    _report(1, f"relaxation identity, 20 immersions x p in {{2,3}}, "
               f"max violation {worst:.2e} <= 1e-10")


def _distance_violation(f, g):
    xi = normal_director(f)
    B = node_major(Integrands(f.grid, g, f.target).director(
        component_major(xi.foot, 1), component_major(xi.vec, 1)).B, 2)
    _, _, Hs, _ = chart_factors(f.target, f.values)
    _, gsi = parameter_factors(g, f.grid)
    Q = Hs @ library_jacobian(f.values, f.grid) @ gsi
    return float(np.max(np.abs(dist_rotations(B) - dist_stiefel(Q))))


def test_criterion_02_distance_identity():
    worst = 0.0
    for f, _ in _surface_corpus(20, seed=202):
        worst = max(worst, _distance_violation(f, E2))
    rng = np.random.default_rng(203)
    grid1 = Grid((129,), (1.0,))
    e1 = chart("euclidean", 1)
    for name in ("sphere", "hyperbolic"):
        tchart = chart(name)
        for _ in range(10):
            fc = random_curve_immersion(grid1, tchart, rng)
            worst = max(worst, _distance_violation(fc, e1))
    assert worst <= 1e-10
    _report(2, f"node-wise distance identity incl. sphere/hyperbolic targets, "
               f"max deviation {worst:.2e} <= 1e-10")


def test_criterion_03_pointwise_bound_margin():
    rng = np.random.default_rng(303)
    setups = [
        ("euclidean3", E3, Grid((17, 17), (1.0, 1.0)), E2),
        ("sphere", chart("sphere"), Grid((257,), (1.0,)), chart("euclidean", 1)),
        ("hyperbolic", chart("hyperbolic"), Grid((257,), (1.0,)),
         chart("euclidean", 1)),
        ("polar-parameter", E3, Grid((17, 17), (1.0, 1.0), (1.0, 0.0)),
         chart("polar")),
    ]
    for name, tchart, pgrid, gparam in setups:
        applicable = 0
        min_margin = np.inf
        while applicable < 10000:
            amp = 10.0 ** rng.uniform(0.7, 2.0)
            xi = random_director(pgrid, tchart, rng, vec_scale=amp)
            S = ShapeField(pgrid, rng.uniform(0.0, 2.0) * _sym_field(pgrid, rng))
            m = sasaki_bound_margin([xi], gparam, [S])
            mask = np.isfinite(m)
            applicable += int(mask.sum())
            if mask.any():
                min_margin = min(min_margin, float(np.min(m[mask])))
        assert min_margin >= 0.0, name
        _report(3, f"bound margin >= 0 on {applicable} applicable samples "
                   f"({name}), min margin {min_margin:.3e}")


def test_criterion_04_sasaki_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    cases = [("euclidean", E3, Grid((17, 17), (1.0, 1.0)), E2)] \
        + [(nm, chart(nm), Grid((65,), (1.0,)), chart("euclidean", 1))
           for nm in ("sphere", "polar", "hyperbolic")]
    draws = 0
    while draws < 20:
        for name, tchart, pgrid, gparam in cases:
            if draws >= 20:
                break
            draws += 1
            xi = random_director(pgrid, tchart, rng)
            got = sasaki_norm_sq(xi, gparam)
            expect = _sasaki_direct_oracle(xi, gparam)
            scale = 1.0 + float(np.max(np.abs(expect)))
            worst = max(worst, float(np.max(np.abs(got - expect))) / scale)
    assert worst <= 1e-12
    _report(4, f"Sasaki norm identity on 20 director fields, "
               f"max relative deviation {worst:.2e} <= 1e-12")


def _sasaki_direct_oracle(xi, gparam):
    """Per-node assembly through the double-tangent coordinates."""
    Jx = library_jacobian(xi.foot, xi.grid)
    Jv = library_jacobian(xi.vec, xi.grid)
    H = xi.target.eval(xi.foot)
    Gam = christoffel(xi.target, xi.foot)
    ginv, _ = parameter_factors(gparam, xi.grid)
    out = np.zeros(xi.grid.counts)
    d = xi.grid.dim
    for i in range(d):
        hor_i = Jx[..., i]
        ver_i = Jv[..., i] + np.einsum("...abc,...b,...c->...a", Gam, hor_i, xi.vec)
        for j in range(d):
            hor_j = Jx[..., j]
            ver_j = Jv[..., j] + np.einsum("...abc,...b,...c->...a", Gam, hor_j,
                                           xi.vec)
            pair = (np.einsum("...ab,...a,...b->...", H, hor_i, hor_j)
                    + np.einsum("...ab,...a,...b->...", H, ver_i, ver_j))
            out += ginv[..., i, j] * pair
    return out


def test_criterion_05_fundamental_theorem_reconstruction():
    for name in ("cylinder", "sphere-cap"):
        pre = get_preset(name)
        pb_errs, so_errs = [], []
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            S = pre.shape_field(grid)
            f = integrate_frame(pre.g, S, grid)
            gv = pre.g.eval(grid.nodes())
            pb_errs.append(np.max(np.abs(pullback_metric(f) - gv)))
            so_errs.append(np.max(np.abs(shape_operator(f).values - S.values)))
            if n == 65:
                ref = pre.reference_immersion(grid)
                _, _, aligned = align_rigid(ref, f)
                dist = np.max(np.linalg.norm(ref.values - aligned.values, axis=-1))
                assert dist <= 1e-4
        pb_orders = convergence_orders(pb_errs)
        so_orders = convergence_orders(so_errs)
        assert np.all(pb_orders >= 1.9) and np.all(so_orders >= 1.9)
        _report(5, f"{name}: pullback orders {np.round(pb_orders, 2)}, "
                   f"shape orders {np.round(so_orders, 2)}, "
                   f"aligned distance at 65^2 {dist:.2e} <= 1e-4")


def test_criterion_06_zero_energy_states():
    for name in ("flat", "sphere-cap"):
        pre = get_preset(name)
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            f0 = pre.reference_immersion(grid)
            rep = total_energy(f0, pre.g, pre.shape_field(grid), 2.0)
            h = max(grid.spacing)
            assert rep.total <= 10.0 * h * h, (name, n)
        _report(6, f"{name}: E_2 at 65^2 is {rep.total:.2e} <= 10 h^2 = "
                   f"{10 * h * h:.2e}")


def test_criterion_07_gradient_correctness():
    worst = 0.0
    grid = Grid((9, 9), (1.0, 1.0))
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        if seed % 2 == 0:
            state = random_surface_immersion(grid, rng, amplitude=0.08)
        else:
            state = random_director(grid, E3, rng)
        S = ShapeField(grid, 0.4 * _sym_field(grid, rng))
        for p in (2.0, 4.0):
            worst = max(worst, _fd_vs_analytic(state, E2, S, p, rng, coords=25))
    assert worst <= 1e-5
    _report(7, f"analytic vs central-FD gradients, 20 seeds x 25 coords x "
               f"p in {{2,4}}, max relative error {worst:.2e} <= 1e-5")


def _cylinder_sweep(tmpdir, grid=(33, 33)):
    cfg = ExperimentConfig(experiment="stability-sweep", preset="cylinder",
                           grid=grid, p=2.0, amplitudes=(0.1, 0.05, 0.02, 0.01),
                           seed=7, out=str(tmpdir))
    return run_stability_sweep(cfg)


def test_criterion_08_stability_probe(tmp_path):
    report, _ = _cylinder_sweep(tmp_path)
    recs = report["records"]
    energies = [r["energy"] for r in recs]
    dists = [r["w1p_map"] for r in recs]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert all(a > b for a, b in zip(dists, dists[1:]))
    pre = get_preset("cylinder")
    grid = pre.grid((33, 33))
    f0 = integrate_frame(pre.g, pre.shape_field(grid), grid)
    f_last = wrinkled_immersion(f0, unit_normal(f0), 0.01, (2, 4, 8))
    wrinkle_norm = w1p_distance(f_last, f0, 2.0, pre.g)
    assert dists[-1] <= 2.0 * wrinkle_norm
    _report(8, f"energies strictly decreasing {np.round(energies, 4)}, "
               f"final aligned distance {dists[-1]:.3e} <= 2x wrinkle norm "
               f"{wrinkle_norm:.3e}")


def test_criterion_09_quantitative_bound_probe(tmp_path):
    report, _ = _cylinder_sweep(tmp_path)
    ratios = [r["ratio"] for r in report["records"]]
    assert all(r is not None and np.isfinite(r) for r in ratios)
    spread = max(ratios) / min(ratios)
    assert spread <= 10.0
    _report(9, f"stability ratios {np.round(ratios, 4)} finite, "
               f"max/min = {spread:.3f} <= 10")


def test_criterion_10_incompatibility_probe():
    pre = get_preset("sphere-incompatible")
    terminal = {}
    for n, iters in ((33, 900), (65, 2500)):
        grid = pre.grid((n, n))
        S = pre.shape_field(grid)
        start = DiscreteImmersion(grid, np.concatenate(
            [grid.nodes(), np.zeros(grid.counts + (1,))], axis=-1), E3)
        _, trace = minimize(start, pre.g, S, 2.0,
                            OptimizeConfig(max_iters=iters, grad_tol=1e-7))
        terminal[n] = trace.records[-1]["energy"]
    assert terminal[33] >= 1e-3
    assert terminal[65] >= 0.9 * terminal[33]
    _report(10, f"incompatible forms: terminal energy {terminal[33]:.4e} >= 1e-3 "
                f"at 33^2, {terminal[65]:.4e} at 65^2 (drop "
                f"{100 * (1 - terminal[65] / terminal[33]):.2f}% <= 10%)")


def test_criterion_11_determinism(tmp_path):
    for sub in ("check1", "check2"):
        cfg = ExperimentConfig(experiment="check", grid=(17, 17), seed=5,
                               num_random=2, out=str(tmp_path / sub))
        run_check(cfg)
    assert filecmp.cmp(tmp_path / "check1" / "check_report.json",
                       tmp_path / "check2" / "check_report.json", shallow=False)
    for sub in ("sweep1", "sweep2"):
        _cylinder_sweep(tmp_path / sub, grid=(17, 17))
    d1, d2 = tmp_path / "sweep1", tmp_path / "sweep2"
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name
    _report(11, f"byte-identical outputs for repeated check and sweep runs "
                f"({len(names)} sweep files compared)")
