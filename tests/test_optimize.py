"""Analytic gradients and the quasi-Newton descent loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_rotation
from imlab.energy import relaxed_total, total_energy
from imlab.errors import (BadConfig, RankDeficient, UnsupportedExponent,
                          UnsupportedTarget)
from imlab.fields import (DirectorField, DiscreteImmersion, Grid, ShapeField,
                          jacobian_adjoint, jacobian_array, quadrature_weights)
from imlab.geometry import chart, sqrt_and_inv_sqrt
from imlab.harness import (_sym_field, random_curve_immersion, random_director,
                           random_smooth_field, random_surface_immersion)
from imlab.immersion import normal_director
from imlab.optimize import (SMOOTH_BETA, SMOOTH_POWER, OptimizeConfig, _Evaluator,
                            _GridSmoother, energy_gradient, minimize, objective,
                            pack_state, unpack_like)
from imlab.presets import get_preset

E2 = chart("euclidean", 2)
E3 = chart("euclidean", 3)


def _grid(n=9):
    return Grid((n, n), (1.0, 1.0))


def _plane(grid, lam=1.0):
    x = grid.nodes()
    vals = np.concatenate([lam * x, np.zeros(grid.counts + (1,))], axis=-1)
    return DiscreteImmersion(grid, vals, E3)


def _zero_shape(grid):
    return ShapeField(grid, np.zeros(grid.counts + (2, 2)))


def _flat_grad(state, g, S, p):
    grad = energy_gradient(state, g, S, p)
    if isinstance(grad, np.ndarray):
        return grad.ravel()
    return np.concatenate([grad[0].ravel(), grad[1].ravel()])


def _fd_check(state, g, S, p, rng, coords=12):
    x = pack_state(state)
    grad = _flat_grad(state, g, S, p)
    gmax = float(np.max(np.abs(grad)))
    worst = 0.0
    for i in rng.choice(x.size, size=coords, replace=False):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fd = (objective(unpack_like(xp, state), g, S, p)[0]
              - objective(unpack_like(xm, state), g, S, p)[0]) / (2 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-6 * gmax, 1e-12)
        worst = max(worst, abs(grad[i] - fd) / denom)
    return worst


def _svd_reference(f, g, S, p):
    """Energy and gradient of a surface immersion by the SVD polar factor and
    4-operand einsum contractions: the minimizer's formulas before their
    closed forms, kept here as the reference."""
    grid = f.grid
    H = f.target.constant
    Hs, Hsi = sqrt_and_inv_sqrt(H)
    gv = g.eval(grid.nodes())
    _, gsi = sqrt_and_inv_sqrt(gv)
    ginv = gsi @ gsi
    wdet = quadrature_weights(grid) * np.sqrt(np.linalg.det(gv))
    J = jacobian_array(f.values, grid)
    Q = Hs @ J @ gsi
    U, s, Vt = np.linalg.svd(Q, full_matrices=False)
    dist2 = np.sum((s - 1.0) ** 2, axis=-1)
    B = Hs @ J
    c = np.cross(B[..., 0], B[..., 1])
    nu = np.linalg.norm(c, axis=-1)
    nhat = c / nu[..., None]
    n = np.einsum("ab,...b->...a", Hsi, nhat)
    A = jacobian_array(n, grid) + J @ S.values
    q2 = np.einsum("...ij,ab,...ai,...bj->...", ginv, H, A, A)
    energy = np.sum(wdet * dist2 ** (p / 2.0)) + np.sum(wdet * q2 ** (p / 2.0))
    Qbar = (wdet * p * dist2 ** ((p - 2.0) / 2.0))[..., None, None] * (Q - U @ Vt)
    Abar = (wdet * p * q2 ** ((p - 2.0) / 2.0))[..., None, None] * np.einsum(
        "ab,...bj,...ji->...ai", H, A, ginv)
    nhat_bar = np.einsum("ab,...a->...b", Hsi, jacobian_adjoint(Abar, grid))
    cbar = (nhat_bar - nhat * np.sum(nhat * nhat_bar, axis=-1, keepdims=True)) \
        / nu[..., None]
    Bbar = np.stack([np.cross(B[..., 1], cbar), np.cross(cbar, B[..., 0])], axis=-1)
    Jbar = (Hs.T @ Qbar @ np.swapaxes(gsi, -1, -2) + Hs.T @ Bbar
            + np.einsum("...ai,...ji->...aj", Abar, S.values))
    return energy, jacobian_adjoint(Jbar, grid)


def _director_svd_reference(xi, g, S, p):
    """Energy and gradient of a director field by the SVD nearest rotation,
    with the det < 0 flip taken from det U det V^T, and einsum contractions:
    the minimizer's formulas before the rotation kernel, kept here as the
    reference."""
    grid, d = xi.grid, xi.grid.dim
    H = xi.target.constant
    Hs, _ = sqrt_and_inv_sqrt(H)
    gv = g.eval(grid.nodes())
    _, gsi = sqrt_and_inv_sqrt(gv)
    ginv = gsi @ gsi
    wdet = quadrature_weights(grid) * np.sqrt(np.linalg.det(gv))
    Jx = jacobian_array(xi.foot, grid)
    B = Hs @ np.concatenate([Jx @ gsi, xi.vec[..., None]], axis=-1)
    U, s, Vt = np.linalg.svd(B)
    target = np.ones_like(s)
    target[..., -1] = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
    dist2 = np.sum((s - target) ** 2, axis=-1)
    C = np.einsum("...ai,...ij->...aj", Jx, S.values) + jacobian_array(xi.vec, grid)
    q2 = np.einsum("...ij,ab,...ai,...bj->...", ginv, H, C, C)
    energy = np.sum(wdet * dist2 ** (p / 2.0)) + np.sum(wdet * q2 ** (p / 2.0))
    Bbar = (wdet * p * dist2 ** ((p - 2.0) / 2.0))[..., None, None] * (
        B - (U * target[..., None, :]) @ Vt)
    T = np.einsum("ba,...bj->...aj", Hs, Bbar)
    Cbar = (wdet * p * q2 ** ((p - 2.0) / 2.0))[..., None, None] * np.einsum(
        "ab,...bj,...ji->...ai", H, C, ginv)
    Jxbar = (np.einsum("...ai,...ji->...aj", T[..., :d], gsi)
             + np.einsum("...ai,...ji->...aj", Cbar, S.values))
    grad_foot = jacobian_adjoint(Jxbar, grid)
    grad_vec = jacobian_adjoint(Cbar, grid) + T[..., d]
    return energy, np.concatenate([grad_foot.ravel(), grad_vec.ravel()])


class TestGradient:
    def test_closed_forms_match_svd_reference_at_relax_start(self):
        # d = 2: the relax start (unit normal director of the flat graph,
        # doubled, foot kicked) and a random director; d = 1: a curve
        # director in E^2.  The last two have frames with det < 0.
        pre = get_preset("sphere-incompatible")
        grid2 = pre.grid((17, 17))
        base = normal_director(_plane(grid2))
        foot = base.foot + 0.01 * random_smooth_field(grid2, 3, np.random.default_rng(7))
        grid1 = Grid((17,), (1.0,))
        rng = np.random.default_rng(8)
        curve = random_curve_immersion(grid1, E2, rng)
        cases = [(DirectorField(grid2, foot, 2.0 * base.vec, E3), pre.g,
                  pre.shape_field(grid2)),
                 (random_director(_grid(), E3, rng), E2,
                  ShapeField(_grid(), 0.3 * _sym_field(_grid(), rng))),
                 (DirectorField(grid1, curve.values, random_smooth_field(grid1, 2, rng), E2),
                  chart("euclidean", 1),
                  ShapeField(grid1, 0.4 * random_smooth_field(grid1, 1, rng)[..., None]))]
        for xi, g, S in cases:
            for p in (2.0, 3.0):
                ref_energy, ref_grad = _director_svd_reference(xi, g, S, p)
                ev = _Evaluator(xi, g, S, p)
                x = pack_state(xi)
                assert ev.energy(x)[0] == pytest.approx(ref_energy, rel=1e-13)
                grad = ev.gradient(x)
                assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_closed_forms_match_svd_reference_at_probe_start(self):
        # the criterion-10 probe start: flat graph plus an in-plane smooth kick
        pre = get_preset("sphere-incompatible")
        grid = pre.grid((33, 33))
        values = _plane(grid).values
        values[..., :2] += 0.02 * random_smooth_field(grid, 2, np.random.default_rng(0))
        start = DiscreteImmersion(grid, values, E3)
        S = ShapeField(grid, 0.3 * _sym_field(grid, np.random.default_rng(1)))
        for shape in (pre.shape_field(grid), S):
            for p in (2.0, 3.0):
                ref_energy, ref_grad = _svd_reference(start, pre.g, shape, p)
                ev = _Evaluator(start, pre.g, shape, p)
                x = pack_state(start)
                assert ev.energy(x)[0] == pytest.approx(ref_energy, rel=1e-13)
                grad = ev.gradient(x).reshape(ref_grad.shape)
                assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_curve_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        grid = Grid((17,), (1.0,))
        E1 = chart("euclidean", 1)
        worst = 0.0
        for p in (2.0, 4.0):
            S = ShapeField(grid, 0.4 * random_smooth_field(grid, 1, rng)[..., None])
            curve = random_curve_immersion(grid, E2, rng)
            director = DirectorField(grid, curve.values,
                                     random_smooth_field(grid, 2, rng), E2)
            for state in (curve, director):
                worst = max(worst, _fd_check(state, E1, S, p, rng, coords=20))
        assert worst <= 1e-5

    def test_zero_at_exact_minimizer(self):
        grid = _grid()
        for p in (2.0, 4.0):
            grad = energy_gradient(_plane(grid), E2, _zero_shape(grid), p)
            assert np.max(np.abs(grad)) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        grid = _grid()
        for p in (2.0, 3.0, 4.0):
            f = random_surface_immersion(grid, rng, amplitude=0.08)
            S = ShapeField(grid, 0.4 * _sym_field(grid, rng))
            assert _fd_check(f, E2, S, p, rng) <= 1e-5
            xi = random_director(grid, E3, rng)
            assert _fd_check(xi, E2, S, p, rng) <= 1e-5

    def test_shrink_direction_descends(self):
        grid = _grid()
        state = _plane(grid, lam=1.1)
        grad = energy_gradient(state, E2, _zero_shape(grid), 2.0)
        base = _plane(grid).values
        # moving toward lam = 1 means stepping along -base
        assert np.sum(grad * (-base)) < 0.0

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(23)
        grid = _grid()
        f = random_surface_immersion(grid, rng, amplitude=0.06)
        S = ShapeField(grid, 0.3 * _sym_field(grid, rng))
        R = random_rotation(rng, 3)
        b = rng.normal(size=3)
        g0 = energy_gradient(f, E2, S, 2.0)
        moved = DiscreteImmersion(grid, f.values @ R.T + b, E3)
        g1 = energy_gradient(moved, E2, S, 2.0)
        assert np.max(np.abs(g1 - g0 @ R.T)) < 1e-10

    def test_unsupported_exponent(self):
        grid = _grid(5)
        with pytest.raises(UnsupportedExponent):
            energy_gradient(_plane(grid), E2, _zero_shape(grid), 1.5)

    def test_unsupported_target(self):
        rng = np.random.default_rng(1)
        grid = Grid((9,), (1.0,))
        xi = random_director(grid, chart("sphere"), rng)
        S = ShapeField(grid, np.zeros(grid.counts + (1, 1)))
        with pytest.raises(UnsupportedTarget):
            energy_gradient(xi, chart("euclidean", 1), S, 2.0)

    def test_rank_deficient_guard(self):
        grid = _grid(5)
        x = grid.nodes()
        vals = np.stack([x[..., 0], 0 * x[..., 1], 0 * x[..., 0]], axis=-1)
        state = DiscreteImmersion(grid, vals, E3)
        # the guard fires before any division by the vanishing cross product
        with np.errstate(all="raise"), pytest.raises(RankDeficient):
            energy_gradient(state, E2, _zero_shape(grid), 2.0)
        with np.errstate(all="raise"):
            ev = _Evaluator(state, E2, _zero_shape(grid), 2.0)
            assert ev.energy(pack_state(state)) == (np.inf, np.inf, np.inf)


class TestOneIntegrandCore:
    def test_evaluator_energy_equals_library_energy(self):
        # the minimizer and the library evaluate the same forward: equal bits
        rng = np.random.default_rng(37)
        pre = get_preset("sphere-incompatible")
        cases = []
        for grid, g in ((_grid(9), E2), (pre.grid((9, 9)), pre.g)):
            S = ShapeField(grid, 0.4 * _sym_field(grid, rng))
            f = random_surface_immersion(grid, rng, amplitude=0.08)
            cases += [(f, g, S), (normal_director(f), g, S),
                      (random_director(grid, E3, rng), g, S)]
        grid1 = Grid((17,), (1.0,))
        S1 = ShapeField(grid1, 0.4 * random_smooth_field(grid1, 1, rng)[..., None])
        cases.append((random_curve_immersion(grid1, E2, rng), chart("euclidean", 1), S1))
        for state, g, S in cases:
            for p in (2.0, 3.0):
                got = _Evaluator(state, g, S, p).energy(pack_state(state))
                lib = (total_energy if isinstance(state, DiscreteImmersion)
                       else relaxed_total)(state, g, S, p)
                assert got == (lib.total, lib.stretch, lib.bend)
                assert objective(state, g, S, p) == got


class TestMinimize:
    def test_bad_config(self):
        with pytest.raises(BadConfig):
            OptimizeConfig(max_iters=0)
        with pytest.raises(BadConfig):
            OptimizeConfig(grad_tol=0.0)

    def test_flat_perturbation_returns_to_zero(self):
        grid = _grid(9)
        pre = get_preset("flat")
        f0 = _plane(grid)
        bump = np.sin(np.pi * grid.nodes()[..., 0]) * np.sin(np.pi * grid.nodes()[..., 1])
        start = DiscreteImmersion(grid, f0.values + 0.02 * bump[..., None], E3)
        state, trace = minimize(start, pre.g, _zero_shape(grid), 2.0,
                                OptimizeConfig(max_iters=5000, grad_tol=1e-13,
                                               memory=30))
        assert trace.records[-1]["energy"] <= 1e-10

    def test_energy_nonincreasing_along_trace(self):
        rng = np.random.default_rng(4)
        grid = _grid(9)
        f = random_surface_immersion(grid, rng, amplitude=0.05)
        S = ShapeField(grid, 0.3 * _sym_field(grid, rng))
        _, trace = minimize(f, E2, S, 2.0, OptimizeConfig(max_iters=60))
        E = trace.energies()
        assert np.all(np.diff(E) <= 0.0)

    def test_basin_of_zero_energy_state(self):
        rng = np.random.default_rng(11)
        grid = _grid(9)
        f0 = _plane(grid)
        start = DiscreteImmersion(
            grid, f0.values + 0.01 * rng.uniform(-1, 1, size=f0.values.shape), E3)
        state, trace = minimize(start, E2, _zero_shape(grid), 2.0,
                                OptimizeConfig(max_iters=4000, grad_tol=1e-13,
                                               memory=30))
        assert trace.records[-1]["energy"] <= 1e-8

    def test_director_descent_recovers_unit_normal(self):
        grid = _grid(9)
        f0 = _plane(grid)
        base = normal_director(f0)
        start = DirectorField(grid, base.foot, 2.0 * base.vec, base.target)
        state, trace = minimize(start, E2, _zero_shape(grid), 2.0,
                                OptimizeConfig(max_iters=400, grad_tol=1e-12))
        assert trace.records[-1]["energy"] <= 1e-12
        vnorm = np.linalg.norm(state.vec, axis=-1)
        assert np.max(np.abs(vnorm - 1.0)) <= 1e-4

    def test_distorted_sphere_cap_recovery(self):
        rng = np.random.default_rng(5)
        pre = get_preset("sphere-cap")
        grid = pre.grid((9, 9))
        S = pre.shape_field(grid)
        f0 = pre.reference_immersion(grid)
        start = DiscreteImmersion(
            grid, f0.values + 0.005 * rng.uniform(-1, 1, size=f0.values.shape), E3)
        state, trace = minimize(start, pre.g, S, 2.0,
                                OptimizeConfig(max_iters=3000, grad_tol=1e-12,
                                               memory=30))
        # the discretization floor comes from the frame-integration route
        from imlab.immersion import pullback_metric, shape_operator
        from imlab.reconstruct import integrate_frame
        frec = integrate_frame(pre.g, S, grid)
        gv = pre.g.eval(grid.nodes())
        floor_pb = np.max(np.abs(pullback_metric(frec) - gv))
        floor_so = np.max(np.abs(shape_operator(frec).values - S.values))
        pb = np.max(np.abs(pullback_metric(state) - gv))
        so = np.max(np.abs(shape_operator(state).values - S.values))
        assert pb <= 10.0 * floor_pb
        assert so <= 10.0 * floor_so

    def test_max_iters_termination_reason(self):
        rng = np.random.default_rng(2)
        grid = _grid(9)
        f = random_surface_immersion(grid, rng, amplitude=0.05)
        _, trace = minimize(f, E2, _zero_shape(grid), 2.0,
                            OptimizeConfig(max_iters=3))
        assert trace.reason == "max_iters"
        assert trace.records[-1]["iter"] == 3

    def test_evaluation_counters(self):
        rng = np.random.default_rng(4)
        grid = _grid(9)
        f = random_surface_immersion(grid, rng, amplitude=0.05)
        S = ShapeField(grid, 0.3 * _sym_field(grid, rng))
        _, trace = minimize(f, E2, S, 2.0, OptimizeConfig(max_iters=60))
        iterations = trace.records[-1]["iter"]
        assert trace.backtracks > 0
        assert trace.ngev == iterations + 1
        assert trace.nfev == iterations + 1 + trace.backtracks

    def test_stalled_probe_start_reaches_grad_tol(self):
        # this criterion-10 start drove a node onto the rank guard and
        # stopped on step_tol at E = 0.0954 under the scalar H0
        pre = get_preset("sphere-incompatible")
        grid = pre.grid((33, 33))
        values = _plane(grid).values
        values[..., :2] += 0.02 * random_smooth_field(grid, 2, np.random.default_rng([4, 2]))
        start = DiscreteImmersion(grid, values, E3)
        _, trace = minimize(start, pre.g, pre.shape_field(grid), 2.0,
                            OptimizeConfig(max_iters=2500, grad_tol=1e-7))
        assert trace.reason == "grad_tol"
        assert trace.records[-1]["energy"] == pytest.approx(0.0022186805, rel=1e-6)

    def test_trace_csv(self, tmp_path):
        grid = _grid(9)
        f = _plane(grid, 1.2)
        _, trace = minimize(f, E2, _zero_shape(grid), 2.0,
                            OptimizeConfig(max_iters=5))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,energy,stretch,bend,grad_norm,step"
        assert len(lines) == len(trace.records) + 1


def _neumann_laplacian(n, h):
    L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, 0] = L[-1, -1] = 1.0
    return L / h ** 2


_grids = st.one_of(
    st.builds(lambda n, e: Grid((n,), (e,)), st.integers(4, 40), st.floats(0.05, 20.0)),
    st.builds(lambda n1, n2, e1, e2: Grid((n1, n2), (e1, e2)),
              st.integers(4, 24), st.integers(4, 24),
              st.floats(0.05, 20.0), st.floats(0.05, 20.0)))


class TestGridSmoother:
    """The two-loop's H0 metric M = (I + beta (h^2 L)^k)^{-1}."""

    def test_matches_dense_inverse_on_anisotropic_grid(self):
        grid = Grid((7, 11), (2.0, 0.5))
        n1, n2 = grid.counts
        L = (np.kron(_neumann_laplacian(n1, grid.spacing[0]), np.eye(n2))
             + np.kron(np.eye(n1), _neumann_laplacian(n2, grid.spacing[1])))
        hL = min(grid.spacing) ** 2 * np.kron(L, np.eye(3))
        ref = np.linalg.inv(np.eye(hL.shape[0])
                            + SMOOTH_BETA * np.linalg.matrix_power(hL, SMOOTH_POWER))
        M = _GridSmoother(grid)
        x = np.random.default_rng(3).normal(size=(2, ref.shape[0]))
        # a director state stacks foot and vec: M acts on each
        assert np.allclose(M(x.ravel()).reshape(2, -1), x @ ref.T, rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(_grids, st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
    def test_symmetric_positive_and_constant_preserving(self, grid, arrays, seed):
        M = _GridSmoother(grid)
        rng = np.random.default_rng(seed)
        shape = (arrays,) + grid.counts + (grid.dim + 1,)
        x, y = rng.normal(size=(2,) + shape).reshape(2, -1)
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(x @ M(y) - y @ M(x)) <= 1e-13 * scale
        assert x @ M(x) > 0.0
        const = np.broadcast_to(rng.normal(size=(arrays,) + (1,) * grid.dim
                                           + (grid.dim + 1,)), shape).ravel()
        assert np.allclose(M(const), const, rtol=0, atol=1e-13 * np.max(np.abs(const)))
