"""Gauss-Codazzi residuals, frame integration, rigid alignment, OBJ export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import convergence_orders, random_rotation
from imlab import reconstruct
from imlab.errors import (AsymmetricShape, DegenerateCovariance, GridMismatch,
                          IncompatibleForms, NonSPDAnchor, SingularMetric)
from imlab.fields import DiscreteImmersion, Grid, ShapeField, lp_norm, quadrature_weights
from imlab.geometry import MetricChart, chart
from imlab.harness import random_smooth_field
from imlab.immersion import pullback_metric, shape_operator
from imlab.presets import get_preset
from imlab.reconstruct import align_rigid, gauss_codazzi_residual, integrate_frame, save_obj

E3 = chart("euclidean", 3)


def _l2_gap(f, aligned):
    """Weighted L2 norm of the pointwise distance of two maps."""
    return lp_norm(np.linalg.norm(f.values - aligned.values, axis=-1), 2.0, None, f.grid)


class TestGaussCodazzi:
    def test_flat_zero(self):
        pre = get_preset("flat")
        grid = pre.grid((17, 17))
        rep = gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid)
        assert rep.max_gauss == 0.0 and rep.max_codazzi == 0.0
        assert rep.passed

    def test_round_sphere_discretization_level(self):
        pre = get_preset("sphere-cap")
        errs = []
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            rep = gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid)
            assert rep.passed
            errs.append(rep.max_gauss)
        assert np.all(convergence_orders(errs) >= 1.9)

    def test_incompatible_forms_detected(self):
        pre = get_preset("sphere-incompatible")
        grid = pre.grid((33, 33))
        rep = gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid)
        assert not rep.passed
        th = grid.nodes()[..., 0]
        # Gauss defect is the full curvature sin^2(theta) of the round metric
        assert np.max(np.abs(rep.gauss_residual - np.sin(th) ** 2)) < 1e-2

    def test_asymmetric_shape_raises(self):
        pre = get_preset("flat")
        grid = pre.grid((9, 9))
        Sv = np.broadcast_to(np.array([[0.0, 1.0], [0.0, 0.0]]),
                             grid.counts + (2, 2)).copy()
        with pytest.raises(AsymmetricShape):
            gauss_codazzi_residual(pre.g, ShapeField(grid, Sv), grid)

    def test_pullback_forms_converge(self):
        # forms extracted from an analytic immersion satisfy the identities
        pre = get_preset("sphere-cap")
        errs = []
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            f = pre.reference_immersion(grid)
            rep = gauss_codazzi_residual(pullback_metric(f), shape_operator(f), grid)
            errs.append(max(rep.max_gauss, rep.max_codazzi))
        assert np.all(convergence_orders(errs) >= 1.9)


def _random_forms(counts, extents, seed):
    """A varying non-diagonal SPD metric table A^T A + I and a shape field
    S = g^{-1} B with B random symmetric, so that II = g S passes the
    symmetry gate."""
    grid = Grid(counts, extents)
    rng = np.random.default_rng(seed)
    A = random_smooth_field(grid, 4, rng).reshape(counts + (2, 2))
    gv = np.swapaxes(A, -1, -2) @ A + np.eye(2)
    B = random_smooth_field(grid, 3, rng)[..., [0, 1, 1, 2]].reshape(counts + (2, 2))
    return gv, ShapeField(grid, np.linalg.solve(gv, B)), grid


class TestComponentMajorResidual:
    """The component-major residual against the einsum reference."""

    @settings(max_examples=30, deadline=None)
    @given(counts=st.tuples(st.integers(5, 65), st.integers(5, 65)),
           extents=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_einsum_reference(self, counts, extents, seed):
        gv, S, grid = _random_forms(counts, extents, seed)
        got = gauss_codazzi_residual(gv, S, grid)
        want = helpers.gauss_codazzi_residual(gv, S, grid)
        scale = 1e-8 * np.max(want.tolerance)
        for a, b in ((got.gauss_residual, want.gauss_residual),
                     (got.codazzi_residual, want.codazzi_residual),
                     (got.tolerance, want.tolerance)):
            assert a.shape == b.shape == grid.counts
            assert np.max(np.abs(a - b)) <= scale
        assert got.passed == want.passed

    @pytest.mark.parametrize("name", ["flat", "cylinder", "sphere-cap",
                                      "sphere-incompatible"])
    def test_presets_match_einsum_reference(self, name):
        pre = get_preset(name)
        for n in (9, 33):
            grid = pre.grid((n, n))
            got = gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid)
            want = helpers.gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid)
            scale = 1e-8 * np.max(want.tolerance)
            assert np.max(np.abs(got.gauss_residual - want.gauss_residual)) <= scale
            assert np.max(np.abs(got.codazzi_residual - want.codazzi_residual)) <= scale
            assert np.max(np.abs(got.tolerance - want.tolerance)) <= scale
            assert got.passed == want.passed

    def test_no_einsum_and_no_lapack_inverse(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
        monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
        pre = get_preset("sphere-cap")
        grid = pre.grid((17, 17))
        rep = gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid)
        assert rep.passed and calls == []

    def test_non_spd_tabulated_metric_raises(self):
        gv, S, grid = _random_forms((9, 9), (1.0, 1.0), 4)
        gv[4, 4] = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularMetric):
            gauss_codazzi_residual(gv, ShapeField(grid, np.zeros(grid.counts + (2, 2))),
                                   grid)


class TestShapeFieldGrid:
    """A shape field on another grid is rejected where it enters."""

    def test_other_counts(self):
        pre = get_preset("sphere-cap")
        with pytest.raises(GridMismatch):
            gauss_codazzi_residual(pre.g, pre.shape_field(pre.grid((9, 9))),
                                   pre.grid((9, 11)))

    def test_same_counts_other_extents(self, monkeypatch):
        pre = get_preset("cylinder")
        grid = pre.grid((9, 9))
        other = Grid(grid.counts, (2.0 * grid.extents[0], grid.extents[1]), grid.origin)

        def no_work(*args):
            raise AssertionError("the metric was evaluated before the grid check")

        monkeypatch.setattr(reconstruct, "_metric_node_values", no_work)
        with pytest.raises(GridMismatch):
            gauss_codazzi_residual(pre.g, pre.shape_field(other), grid)

    def test_through_integrate_frame(self):
        pre = get_preset("cylinder")
        grid = pre.grid((9, 9))
        other = Grid(grid.counts, grid.extents, (0.5, 0.0))
        with pytest.raises(GridMismatch):
            integrate_frame(pre.g, pre.shape_field(other), grid)


class TestIntegrateFrame:
    def test_flat_affine_embedding(self):
        pre = get_preset("flat")
        grid = pre.grid((17, 17))
        f = integrate_frame(pre.g, pre.shape_field(grid), grid)
        x = grid.nodes()
        expect = np.concatenate([x, np.zeros(grid.counts + (1,))], axis=-1)
        assert np.max(np.abs(f.values - expect)) < 1e-12
        assert np.max(np.abs(pullback_metric(f) - np.eye(2))) < 1e-12

    def test_cylinder_matches_closed_form(self):
        pre = get_preset("cylinder")
        dists = []
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            f = integrate_frame(pre.g, pre.shape_field(grid), grid)
            ref = pre.reference_immersion(grid)
            _, _, aligned = align_rigid(ref, f)
            dists.append(np.max(np.linalg.norm(ref.values - aligned.values, axis=-1)))
        assert dists[-1] < 1e-6
        assert np.all(convergence_orders(dists) >= 3.5)  # RK4 with cubic midpoints

    def test_sphere_cap_pullback_order(self):
        pre = get_preset("sphere-cap")
        errs = []
        for n in (17, 33, 65):
            grid = pre.grid((n, n))
            f = integrate_frame(pre.g, pre.shape_field(grid), grid)
            gv = pre.g.eval(grid.nodes())
            errs.append(np.max(np.abs(pullback_metric(f) - gv)))
        assert np.all(convergence_orders(errs) >= 1.9)

    def test_incompatible_forms_rejected(self):
        pre = get_preset("sphere-incompatible")
        grid = pre.grid((17, 17))
        with pytest.raises(IncompatibleForms):
            integrate_frame(pre.g, pre.shape_field(grid), grid)

    def test_anchor_frame_validation(self):
        pre = get_preset("cylinder")
        grid = pre.grid((9, 9))
        E0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])  # not g-orthonormal
        n0 = np.array([0.0, 0.0, 1.0])
        with pytest.raises(NonSPDAnchor):
            integrate_frame(pre.g, pre.shape_field(grid), grid, frame=(E0, n0))

    def test_uniqueness_modulo_rigid_motion(self):
        rng = np.random.default_rng(6)
        pre = get_preset("sphere-cap")
        grid = pre.grid((17, 17))
        S = pre.shape_field(grid)
        f1 = integrate_frame(pre.g, S, grid)
        R = random_rotation(rng, 3)
        E0 = np.zeros((3, 2))
        ga = pre.g.eval(np.array(grid.origin))
        L = np.linalg.cholesky(ga)
        E0[:2, :] = L.T
        n0 = np.array([0.0, 0.0, 1.0])
        f2 = integrate_frame(pre.g, S, grid, frame=(R @ E0, R @ n0))
        _, _, aligned = align_rigid(f1, f2)
        assert _l2_gap(f1, aligned) < 1e-8

    def test_frame_gram_matches_metric(self):
        pre = get_preset("sphere-cap")
        errs = []
        for n in (9, 17, 33):
            grid = pre.grid((n, n))
            _, E, _ = integrate_frame(pre.g, pre.shape_field(grid), grid,
                                      return_frame=True)
            gram = np.einsum("...ai,...aj->...ij", E, E)
            gv = pre.g.eval(grid.nodes())
            errs.append(np.max(np.abs(gram - gv)))
        # fourth-order accumulated error of the frame integration
        assert errs[-1] < 1e-6
        assert np.all(convergence_orders(errs) >= 3.5)

    def test_curve_reconstruction(self):
        # d = 1: constant geodesic curvature 1/r closes into a circular arc
        grid = Grid((65,), (1.0,))
        g1 = chart("euclidean", 1)
        r = 0.5
        S = ShapeField(grid, np.full(grid.counts + (1, 1), 1.0 / r))
        f = integrate_frame(g1, S, grid)
        t = grid.nodes()[..., 0]
        expect = np.stack([r * np.sin(t / r), r * (1.0 - np.cos(t / r))], axis=-1)
        assert np.max(np.linalg.norm(f.values - expect, axis=-1)) < 1e-8


def _march_case(kind, n=9):
    """(g, S, grid) of a sphere (analytic derivatives), a Euclidean (constant)
    or a tabulated sphere metric (finite-difference derivatives); "swapped" is
    the sphere with its coordinates exchanged, so the metric varies along the
    second grid axis."""
    pre = get_preset("cylinder" if kind == "euclidean" else "sphere-cap")
    grid = pre.grid((n, n))
    g = pre.g
    if kind == "tabulated":
        g = MetricChart.from_table(grid, pre.g.eval(grid.nodes()))
    if kind == "swapped":
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        grid = Grid(grid.counts, grid.extents[::-1], grid.origin[::-1])
        g = MetricChart(2, pre.g.domain[::-1],
                        matrix=lambda x: P @ pre.g.eval(x[..., ::-1]) @ P,
                        matrix_deriv=lambda x: (P @ pre.g.eval_deriv(x[..., ::-1])
                                                @ P)[..., ::-1, :, :])
    return g, pre.shape_field(grid), grid


class TestPerSweepMarch:
    """The per-sweep coefficient tables against the per-stage reference march."""

    @staticmethod
    def _assert_same_bits(g, S, grid, anchor_index=None, frame=None):
        f, E, N = integrate_frame(g, S, grid, anchor_index=anchor_index,
                                  frame=frame, return_frame=True)
        ref = helpers.integrate_frame(g, S, grid, anchor_index, frame)
        for got, want in zip((f.values, E, N), ref):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["sphere", "swapped", "euclidean", "tabulated"])
    @pytest.mark.parametrize("anchor", [None, (4, 5), (8, 8), (0, 8)])
    def test_bytes_match_per_stage_reference(self, kind, anchor):
        self._assert_same_bits(*_march_case(kind), anchor_index=anchor)

    @pytest.mark.parametrize("kind", ["sphere", "euclidean", "tabulated"])
    def test_bytes_match_with_custom_frame(self, kind):
        g, S, grid = _march_case(kind)
        anchor = (3, 6)
        x = np.array([grid.axes()[a][anchor[a]] for a in range(2)])
        E0 = np.zeros((3, 2))
        E0[:2, :] = np.linalg.cholesky(g.eval(x)).T
        R = random_rotation(np.random.default_rng(11), 3)
        self._assert_same_bits(g, S, grid, anchor, (R @ E0, R @ np.array([0.0, 0.0, 1.0])))

    @pytest.mark.parametrize("anchor", [None, (7,), (16,)])
    def test_bytes_match_on_a_curve(self, anchor):
        grid = Grid((17,), (1.0,))
        g1 = MetricChart(dim=1, domain=[[0.0, 1.0]],
                         matrix=lambda p: (1.0 + 0.3 * p ** 2)[..., None])
        x = grid.nodes()[..., 0]
        S = ShapeField(grid, (np.sin(3.0 * x) + 1.5)[:, None, None])
        self._assert_same_bits(g1, S, grid, anchor)

    @pytest.mark.parametrize("kind", ["sphere", "tabulated"])
    def test_christoffel_calls_per_sweep(self, kind, monkeypatch):
        calls = []

        def counting(m, x):
            calls.append(np.shape(x))
            return helpers.christoffel(m, x)

        monkeypatch.setattr(reconstruct, "christoffel", counting)
        counts = []
        for n in (9, 33):
            calls.clear()
            integrate_frame(*_march_case(kind, n))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2


class TestAnchorValidation:
    @pytest.mark.parametrize("anchor", [(-1, 0), (0, -1), (1.7, 0), (1.0, 0), (9, 0),
                                        (0, 9), (0,), (0, 0, 0), (True, 0), 3, "00"])
    def test_bad_anchor_rejected_before_any_work(self, anchor, monkeypatch):
        pre = get_preset("sphere-cap")
        grid = pre.grid((9, 9))

        def no_work(*args):
            raise AssertionError("the anchor was not checked first")

        monkeypatch.setattr(reconstruct, "gauss_codazzi_residual", no_work)
        with pytest.raises(ValueError, match="anchor_index"):
            integrate_frame(pre.g, pre.shape_field(grid), grid, anchor_index=anchor)

    def test_node_array_metric_rejected_before_any_work(self, monkeypatch):
        # gauss_codazzi_residual accepts node arrays, the march needs a chart
        pre = get_preset("cylinder")
        grid = pre.grid((9, 9))
        calls = []
        real = reconstruct.gauss_codazzi_residual
        monkeypatch.setattr(reconstruct, "gauss_codazzi_residual",
                            lambda *a: calls.append(1) or real(*a))
        with pytest.raises(TypeError, match="MetricChart"):
            integrate_frame(pre.g.eval(grid.nodes()), pre.shape_field(grid), grid)
        assert calls == []
        integrate_frame(pre.g, pre.shape_field(grid), grid)
        assert calls == [1]

    def test_curve_anchor_bounds(self):
        grid = Grid((9,), (1.0,))
        S = ShapeField(grid, np.ones(grid.counts + (1, 1)))
        for bad in [(-1,), (9,), (0, 0)]:
            with pytest.raises(ValueError, match="anchor_index"):
                integrate_frame(chart("euclidean", 1), S, grid, anchor_index=bad)
        f = integrate_frame(chart("euclidean", 1), S, grid, anchor_index=[np.int64(8)])
        assert np.all(f.values[8] == 0.0)

    def test_integer_anchors_accepted(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((9, 9))
        S = pre.shape_field(grid)
        gv = pre.g.eval(grid.nodes())
        for anchor in [(8, 8), [0, 8], np.array([4, 3])]:
            f = integrate_frame(pre.g, S, grid, anchor_index=anchor)
            assert np.all(f.values[tuple(anchor)] == 0.0)
            assert np.max(np.abs(pullback_metric(f) - gv)) < 2e-2


class TestAlignRigid:
    def _cap(self, n=17):
        pre = get_preset("sphere-cap")
        grid = pre.grid((n, n))
        return grid, pre.reference_immersion(grid)

    def test_recovers_known_motion(self):
        rng = np.random.default_rng(2)
        grid, f0 = self._cap()
        Q = random_rotation(rng, 3)
        b = rng.normal(size=3)
        f = DiscreteImmersion(grid, f0.values @ Q.T + b, E3)
        R, t, aligned = align_rigid(f, f0)
        assert np.max(np.abs(R - Q)) < 1e-10
        assert np.max(np.abs(t - b)) < 1e-10
        assert _l2_gap(f, aligned) < 1e-10

    def test_identity(self):
        _, f0 = self._cap()
        R, t, aligned = align_rigid(f0, f0)
        assert np.allclose(R, np.eye(3), atol=1e-12)
        assert np.allclose(t, 0.0, atol=1e-12)

    def test_noise_residual_bound(self):
        rng = np.random.default_rng(3)
        grid, f0 = self._cap()
        eps = 1e-3
        noise = eps * rng.uniform(-1.0, 1.0, size=f0.values.shape)
        f = DiscreteImmersion(grid, f0.values + noise, E3)
        _, _, aligned = align_rigid(f, f0)
        vol = float(np.sum(quadrature_weights(grid)))
        assert _l2_gap(f, aligned) <= np.sqrt(3.0) * eps * np.sqrt(vol) * (1 + 1e-6)

    def test_degenerate_covariance(self):
        grid = Grid((9, 9), (1.0, 1.0))
        t = grid.nodes()[..., 0]
        line = np.stack([t, 2 * t, -t], axis=-1)  # rank-1 spread
        f0 = DiscreteImmersion(grid, line, E3)
        f = DiscreteImmersion(grid, line + 0.1, E3)
        with pytest.raises(DegenerateCovariance):
            align_rigid(f, f0)


class TestObjExport:
    def test_mesh_counts_and_roundtrip(self, tmp_path):
        pre = get_preset("cylinder")
        grid = pre.grid((5, 7))
        f = pre.reference_immersion(grid)
        path = tmp_path / "mesh.obj"
        save_obj(path, f)
        lines = path.read_text().strip().split("\n")
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == 35
        assert len(faces) == 2 * 4 * 6
        first = np.array([float(c) for c in verts[0].split()[1:]])
        assert np.allclose(first, f.values[0, 0], atol=0)
