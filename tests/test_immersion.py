"""Unit normals, pullback metrics, covariant derivatives, shape operators."""

import re

import numpy as np
import pytest

import helpers
from helpers import convergence_orders, library_jacobian, random_rotation
from imlab.energy import total_energy
from imlab.errors import RankDeficient
from imlab.fields import DiscreteImmersion, Grid, ShapeField, lp_norm
from imlab.harness import random_smooth_field, random_surface_immersion
from imlab.geometry import (RANK_RTOL, MetricChart, chart, component_major,
                            cross_columns_cm)
from imlab.immersion import (_frame_and_rank_check, covariant_normal_derivative,
                             pullback_metric, shape_operator, unit_normal)
from imlab.presets import get_preset

E2 = chart("euclidean", 2)
E3 = chart("euclidean", 3)


def _plane(grid, slope=0.0):
    x = grid.nodes()
    z = slope * x[..., 0]
    vals = np.stack([x[..., 0], x[..., 1], z], axis=-1)
    return DiscreteImmersion(grid, vals, E3)


def _grid(n=17, box=((0.0, 1.0), (0.0, 1.0))):
    return Grid((n, n), tuple(hi - lo for lo, hi in box), tuple(lo for lo, _ in box))


def _rank_corpus(m=400):
    """m frames (3x2) with sigma_max 10^U(-2,2) and sigma_min / sigma_max =
    RANK_RTOL (1 +- 0.1), and those ratios; the first three full rank."""
    rng = np.random.default_rng(17)
    U, _, Vt = np.linalg.svd(rng.normal(size=(m, 3, 2)), full_matrices=False)
    smax = 10.0 ** rng.uniform(-2.0, 2.0, size=m)
    ratio = RANK_RTOL * np.where(rng.uniform(size=m) < 0.5, 0.9, 1.1)
    ratio[:3] = 1.1 * RANK_RTOL
    return (U * np.stack([smax, ratio * smax], axis=-1)[:, None, :]) @ Vt, ratio


def _rank_check(frame):
    """The rank check on node-major frames."""
    b = component_major(frame, 2)
    return _frame_and_rank_check(b, cross_columns_cm(b))


class TestUnitNormal:
    def test_flat_plane_orientation(self):
        n = unit_normal(_plane(_grid()))
        assert type(n) is np.ndarray and n.shape == _grid().counts + (3,)
        assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-14)

    def test_tilted_graph(self):
        n = unit_normal(_plane(_grid(), slope=1.0))
        expect = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(n, expect, atol=1e-12)

    def test_scaled_target_metric(self):
        h4 = MetricChart(dim=3, domain=[[-np.inf, np.inf]] * 3,
                         constant=4.0 * np.eye(3))
        grid = _grid()
        x = grid.nodes()
        f = DiscreteImmersion(grid, np.concatenate(
            [x, np.zeros(grid.counts + (1,))], axis=-1), h4)
        n = unit_normal(f)
        assert np.allclose(n, [0.0, 0.0, 0.5], atol=1e-13)

    def test_normalization_orthogonality_orientation(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((17, 17))
        f = pre.reference_immersion(grid)
        n = unit_normal(f)
        H = f.target.eval(f.values)
        norms = np.einsum("...ab,...a,...b->...", H, n, n)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        J = library_jacobian(f.values, grid)
        ip = np.einsum("...ab,...ai,...b->...i", H, J, n)
        colnorm = np.sqrt(np.einsum("...ab,...ai,...bi->...i", H, J, J))
        assert np.max(np.abs(ip) / colnorm) < 1e-8
        frame = np.concatenate([J, n[..., None]], axis=-1)
        assert np.all(np.linalg.det(frame) > 0)

    def test_rank_deficient_raises(self):
        grid = _grid(5)
        x = grid.nodes()
        vals = np.stack([x[..., 0], 0.0 * x[..., 1], 0.0 * x[..., 0]], axis=-1)
        with pytest.raises(RankDeficient):
            unit_normal(DiscreteImmersion(grid, vals, E3))

    def test_rank_check_matches_svd_decision(self):
        # sigma_min / sigma_max = 1e-12 (1 +- 0.1): the closed-form check
        # raises on the same frames as the SVD rule, at the same first node
        B, ratio = _rank_corpus()
        s = np.linalg.svd(B, compute_uv=False)
        ref_bad = s[:, -1] <= RANK_RTOL * s[:, 0]
        assert np.array_equal(ref_bad, ratio < RANK_RTOL)
        for frame, bad in zip(B, ref_bad):
            if bad:
                with pytest.raises(RankDeficient):
                    _rank_check(frame)
            else:
                _rank_check(frame)
        grid_B = B.reshape(20, 20, 3, 2)
        first = tuple(int(i) for i in np.argwhere(ref_bad.reshape(20, 20))[0])
        with pytest.raises(RankDeficient, match=re.escape(f"node {first}")):
            _rank_check(grid_B)

    def test_total_energy_raises_where_unit_normal_does(self):
        # the same frames as differentials of linear immersions: the library
        # energy keeps the rank rule of the normal
        B, ratio = _rank_corpus()
        grid = _grid(4)
        zero = ShapeField(grid, np.zeros(grid.counts + (2, 2)))
        raised = []
        for frame in B:
            f = DiscreteImmersion(grid, grid.nodes() @ frame.T, E3)
            outcome = []
            for fn in (unit_normal, lambda f: total_energy(f, E2, zero, 2.0)):
                try:
                    fn(f)
                    outcome.append(False)
                except RankDeficient:
                    outcome.append(True)
            assert outcome[0] == outcome[1]
            raised.append(outcome[0])
        assert np.array_equal(raised, ratio < RANK_RTOL)

    def test_curved_target_normal(self):
        # curve in the round-sphere chart: h-unit, h-orthogonal, oriented
        from imlab.geometry import chart, sqrt_and_inv_sqrt
        grid = Grid((33,), (1.0,))
        t = grid.nodes()[..., 0]
        vals = np.stack([0.8 + 0.3 * np.sin(2 * t), t], axis=-1)
        f = DiscreteImmersion(grid, vals, chart("sphere"))
        n = unit_normal(f)
        H = f.target.eval(f.values)
        norms = np.einsum("...ab,...a,...b->...", H, n, n)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        J = library_jacobian(f.values, grid)
        ip = np.einsum("...ab,...a,...b->...", H, J[..., 0], n)
        assert np.max(np.abs(ip)) < 1e-8 * np.max(np.abs(J))
        Hs, _ = sqrt_and_inv_sqrt(H)
        frame = np.concatenate([Hs @ J, (Hs @ n[..., None])], axis=-1)
        assert np.all(np.linalg.det(frame) > 0)


class TestPullbackMetric:
    def test_identity_chart(self):
        pb = pullback_metric(_plane(_grid()))
        assert np.allclose(pb, np.eye(2), atol=1e-13)

    def test_scaling(self):
        grid = _grid()
        lam = 1.7
        f = DiscreteImmersion(grid, lam * _plane(grid).values, E3)
        assert np.allclose(pullback_metric(f), lam ** 2 * np.eye(2), atol=1e-12)

    def test_sphere_first_fundamental_form(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((33, 33))
        f = pre.reference_immersion(grid)
        th = grid.nodes()[..., 0]
        expect = np.zeros(grid.counts + (2, 2))
        expect[..., 0, 0] = 1.0
        expect[..., 1, 1] = np.sin(th) ** 2
        assert np.max(np.abs(pullback_metric(f) - expect)) < 1e-3

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        grid = _grid(9)
        f = _plane(grid, slope=0.4)
        R = random_rotation(rng, 3)
        b = rng.normal(size=3)
        moved = DiscreteImmersion(grid, f.values @ R.T + b, E3)
        assert np.max(np.abs(pullback_metric(moved) - pullback_metric(f))) < 1e-12


class TestCovariantNormalDerivative:
    def test_flat_plane_zero(self):
        f = _plane(_grid())
        W = covariant_normal_derivative(f, unit_normal(f))
        assert np.max(np.abs(W)) < 1e-13

    def test_unit_sphere_inward_normal(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((33, 33))
        f = pre.reference_immersion(grid)
        n = unit_normal(f)
        # oriented normal of this parametrization is inward: n = -f (FD accuracy)
        assert np.max(np.abs(n + f.values)) < 1e-4
        W = covariant_normal_derivative(f, n)
        J = library_jacobian(f.values, grid)
        assert np.max(np.abs(W + J)) < 1e-3

    def test_cylinder_weingarten(self):
        pre = get_preset("cylinder")
        grid = pre.grid((33, 33))
        f = pre.reference_immersion(grid)
        W = covariant_normal_derivative(f, unit_normal(f))
        J = library_jacobian(f.values, grid)
        r = 1.0
        assert np.max(np.abs(W[..., 0] + J[..., 0] / r)) < 1e-3
        assert np.max(np.abs(W[..., 1])) < 1e-10


class TestShapeOperator:
    def test_flat_plane_zero(self):
        S = shape_operator(_plane(_grid()))
        assert np.max(np.abs(S.values)) < 1e-12

    def test_unit_sphere_identity(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((33, 33))
        S = shape_operator(pre.reference_immersion(grid))
        assert np.max(np.abs(S.values - np.eye(2))) < 1e-3

    def test_cylinder_principal_curvatures(self):
        pre = get_preset("cylinder")
        grid = pre.grid((33, 33))
        S = shape_operator(pre.reference_immersion(grid))
        eig = np.linalg.eigvals(S.values)
        eig = np.sort(eig.real, axis=-1)
        assert np.max(np.abs(eig[..., 0])) < 1e-3
        assert np.max(np.abs(eig[..., 1] - 1.0)) < 1e-3

    def test_second_form_symmetry_order(self):
        pre = get_preset("sphere-cap")
        errs = []
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            f = pre.reference_immersion(grid)
            S = shape_operator(f)
            II = pullback_metric(f) @ S.values
            errs.append(np.max(np.abs(II - np.swapaxes(II, -1, -2))))
        assert errs[-1] < 1e-4
        assert np.all(convergence_orders(errs) >= 1.5)

    def test_weingarten_consistency_order(self):
        pre = get_preset("sphere-cap")
        errs = []
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            f = pre.reference_immersion(grid)
            n_field = unit_normal(f)
            W = covariant_normal_derivative(f, n_field)
            S = shape_operator(f)
            resid = W + library_jacobian(f.values, grid) @ S.values
            rnorm = np.sqrt(np.sum(resid ** 2, axis=(-2, -1)))
            errs.append(lp_norm(rnorm, 2.0, pre.g, grid))
        assert np.all(convergence_orders(errs) >= 1.9)


def _form_cases():
    """Immersions on which the closed-form fundamental forms are compared
    with the einsum and np.linalg.solve reference: the presets, random
    graph-like surfaces and curves, a constant non-identity target metric
    and a curve in the round-sphere chart."""
    rng = np.random.default_rng(23)
    cases = [get_preset(name).reference_immersion(get_preset(name).grid((n, n)))
             for name in ("flat", "cylinder", "sphere-cap") for n in (9, 33)]
    for counts in ((17, 17), (9, 24), (33,)):
        grid = Grid(counts, (1.0,) * len(counts))
        cases.append(random_surface_immersion(grid, rng, amplitude=0.3))
    A = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    skew = MetricChart(dim=3, domain=[[-np.inf, np.inf]] * 3, constant=A.T @ A)
    cases.append(DiscreteImmersion(cases[-3].grid, cases[-3].values, skew))
    grid = Grid((33,), (1.0,))
    t = grid.nodes()[..., 0]
    curve = np.stack([1.0 + 0.3 * t + 0.05 * random_smooth_field(grid, 1, rng)[..., 0],
                      2.0 * t], axis=-1)
    cases.append(DiscreteImmersion(grid, curve, chart("sphere")))
    return cases


class TestFormsAgainstReference:
    def test_within_1e12_relative(self):
        for f in _form_cases():
            for got, want in ((pullback_metric(f), helpers.pullback_metric(f)),
                              (shape_operator(f).values,
                               helpers.shape_operator(f).values)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
