"""Gauss-Codazzi residuals, frame integration, rigid alignment, OBJ export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import convergence_orders, random_rotation
from imlab import geometry, reconstruct
from imlab.errors import (AsymmetricShape, DegenerateCovariance, GridMismatch,
                          IncompatibleForms, NonSPDAnchor, SingularMetric)
from imlab.fields import DiscreteImmersion, Grid, ShapeField, lp_norm, quadrature_weights
from imlab.geometry import MetricChart, chart, component_major, node_major, spd_factors
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


    @pytest.mark.parametrize("bad, what", [(np.nan, "must be finite"), (-np.inf, "must be finite"),
                                           (None, "have shape")])
    def test_array_metric_is_a_checked_node_array(self, bad, what):
        # a NaN metric entry used to run through every stencil and report
        # NaN residuals
        pre = get_preset("flat")
        grid = pre.grid((9, 9))
        gv = np.broadcast_to(np.eye(2), grid.counts + (2, 2)).copy()
        if bad is None:
            gv = gv[:-1]
        else:
            gv[3, 5, 0, 0] = bad
        with pytest.raises(ValueError, match=f"metric values {what}"):
            gauss_codazzi_residual(gv, pre.shape_field(grid), grid)


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

    @pytest.mark.parametrize("counts", [(9,), (9, 9)])
    def test_one_spd_gate_per_metric(self, counts, monkeypatch):
        """The residual runs the SPD gate once, before its curve branch, and
        the Christoffel formula squares the gate's G^{-1/2}: it factors
        nothing itself (it used to run a second gate on surfaces)."""
        calls = []

        def gate(G):
            calls.append(G.shape)
            return spd_factors(G)

        monkeypatch.setattr(reconstruct, "spd_factors", gate)
        monkeypatch.setattr(geometry, "spd_factors", lambda G: pytest.fail("a second gate"))
        pre, d = get_preset("sphere-cap"), len(counts)
        grid = pre.grid(counts) if d == 2 else Grid(counts, (1.0,))
        g = pre.g if d == 2 else chart("euclidean", 1)
        assert gauss_codazzi_residual(g, ShapeField(grid, pre.shape_values(grid)[..., :d, :d]),
                                      grid).passed
        assert calls == [counts + (d, d)]

    def test_non_spd_tabulated_metric_raises(self):
        """As a node array, through the one gate of the residual, and as a
        table, which the same gate rejects when the chart is built."""
        gv, S, grid = _random_forms((9, 9), (1.0, 1.0), 4)
        gv[4, 4] = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularMetric, match=r"at index \(4, 4\)"):
            MetricChart.from_table(grid, gv)
        with pytest.raises(SingularMetric):
            gauss_codazzi_residual(gv, ShapeField(grid, np.zeros(grid.counts + (2, 2))), grid)


class TestGateCurvature:
    """The gate's curvature, from the stencils of the node-sampled metric,
    against the chart curvature of helpers.riemann_curvature at the nodes."""

    @staticmethod
    def _errors(name):
        m, errors = chart(name), []
        for n in (17, 33, 65):
            grid = Grid((n, n), (1.0, 1.0), (0.5, 0.0))
            G = component_major(reconstruct._metric_node_values(m, grid), 2)
            Gsi = component_major(spd_factors(node_major(G, 2))[2], 2)
            R = reconstruct._riemann_pairs(G, *reconstruct._christoffel_terms(G, Gsi, grid))
            want = component_major(helpers.riemann_curvature(m, grid.nodes()), 4)
            errors.append(np.max(np.abs(R[:, :, 0] - want[:, :, 0, 1])))
        return errors

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic"])
    def test_second_order_on_curved_charts(self, name):
        assert np.all(convergence_orders(self._errors(name)) >= 1.9)

    def test_exact_on_the_flat_polar_chart(self):
        # diag(1, r^2) is quadratic, so every stencil is exact and the gate
        # agrees with the chart curvature to the latter's difference noise
        assert max(self._errors("polar")) < 1e-8


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

    def test_tabulated_sphere_cap_pullback_within_h2(self):
        # the sphere-cap metric read from a node table: the march takes the
        # table's own derivative, second order up to the boundary rows
        pre = get_preset("sphere-cap")
        for n in (17, 33):
            grid = pre.grid((n, n))
            gv = pre.g.eval(grid.nodes())
            f = integrate_frame(MetricChart.from_table(grid, gv), pre.shape_field(grid), grid)
            h = max(grid.spacing)
            assert np.max(np.abs(pullback_metric(f) - gv)) <= 10.0 * h * h

    def test_incompatible_forms_rejected(self):
        pre = get_preset("sphere-incompatible")
        grid = pre.grid((17, 17))
        with pytest.raises(IncompatibleForms):
            integrate_frame(pre.g, pre.shape_field(grid), grid)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_forms_the_gate_passes_but_the_march_misses_rejected(self, n):
        """The gate passes sphere-incompatible on 4x4 to 7x7; the march's
        pullback error there, 17 to 50 h^2, exceeds 10 h^2 max|g| = 10 h^2."""
        pre = get_preset("sphere-incompatible")
        grid = pre.grid((n, n))
        assert gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid).passed
        with pytest.raises(IncompatibleForms, match=r"^the march misses its forms: pullback"):
            integrate_frame(pre.g, pre.shape_field(grid), grid)

    def test_anchor_frame_validation(self):
        pre = get_preset("cylinder")
        grid = pre.grid((9, 9))
        E0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])  # not g-orthonormal
        n0 = np.array([0.0, 0.0, 1.0])
        with pytest.raises(NonSPDAnchor):
            integrate_frame(pre.g, pre.shape_field(grid), grid, frame=(E0, n0))

    @pytest.mark.parametrize("case", ["nan normal", "inf frame", "3x3 frame", "short normal",
                                      "one tangent"])
    def test_anchor_frame_finite_and_shaped(self, case, monkeypatch):
        # a NaN passes every tolerance comparison, so finiteness is its own
        # check; shapes are checked before any product of the frame
        pre = get_preset("cylinder")
        grid = pre.grid((9, 9))
        E0 = np.zeros((3, 2))
        E0[:2] = np.linalg.cholesky(pre.g.eval(np.array(grid.origin))).T
        n0 = np.array([0.0, 0.0, 1.0])
        bad = np.array([[np.inf, 0.0], [0.0, 0.0], [0.0, 0.0]])
        frame = {"nan normal": (E0, [0.0, 0.0, np.nan]), "inf frame": (E0 + bad, n0),
                 "3x3 frame": (np.eye(3), n0), "short normal": (E0, n0[1:]),
                 "one tangent": (E0[:, 0], n0)}[case]

        def no_march(*args):
            raise AssertionError("the frame was not checked before the march")

        monkeypatch.setattr(reconstruct, "_sweep_coefficients", no_march)
        with pytest.raises(NonSPDAnchor, match="finite arrays of shapes"):
            integrate_frame(pre.g, pre.shape_field(grid), grid, frame=frame)

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


def _march_case(kind, counts=(9, 9)):
    """(g, S, grid) of a sphere (analytic derivatives), a Euclidean (constant)
    or a tabulated sphere metric (derivatives from the table); "swapped" is
    the sphere with its coordinates exchanged, so the metric varies along the
    second grid axis, and "curve" a curve on counts[0] nodes with a
    finite-differenced metric."""
    if kind == "curve":
        grid = Grid(counts[:1], (1.0,))
        g1 = MetricChart(dim=1, domain=[[0.0, 1.0]],
                         matrix=lambda p: (1.0 + 0.3 * p ** 2)[..., None])
        x = grid.nodes()[..., 0]
        return g1, ShapeField(grid, (np.sin(3.0 * x) + 1.5)[:, None, None]), grid
    pre = get_preset("cylinder" if kind == "euclidean" else "sphere-cap")
    grid = pre.grid(counts)
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

    @pytest.mark.parametrize("kind", ["sphere", "swapped", "tabulated"])
    @pytest.mark.parametrize("counts", [(7, 12), (12, 7)])
    def test_bytes_match_on_oblong_grids(self, kind, counts):
        # a square grid hides a swapped axis in the sweep loop; anchors on
        # the far edges march each sweep in one direction only
        g, S, grid = _march_case(kind, counts)
        n0, n1 = counts
        for anchor in (None, (n0 - 1, n1 - 1), (n0 - 1, 0), (0, n1 - 1)):
            self._assert_same_bits(g, S, grid, anchor)

    @pytest.mark.parametrize("anchor", [None, (7,), (16,)])
    def test_bytes_match_on_a_curve(self, anchor):
        self._assert_same_bits(*_march_case("curve", (17,)), anchor)

    @pytest.mark.parametrize("kind", ["sphere", "tabulated", "curve"])
    def test_christoffel_calls_per_sweep(self, kind, monkeypatch):
        calls = []

        def counting(m, x):
            calls.append(np.shape(x))
            return helpers.christoffel(m, x)

        monkeypatch.setattr(reconstruct, "christoffel", counting)
        for n in (9, 33):
            calls.clear()
            g, S, grid = _march_case(kind, (n, n))
            integrate_frame(g, S, grid)
            assert len(calls) == grid.dim

    @pytest.mark.parametrize("kind, counts, anchor", [("sphere", (7, 12), (3, 5)),
                                                      ("tabulated", (9, 9), None),
                                                      ("curve", (17,), (7,))])
    def test_one_node_product_per_rk4_stage(self, kind, counts, anchor, monkeypatch):
        # each RK4 stage is one product P omega of the frame matrix P = [E | n]
        shapes = []

        def counting(x, y):
            shapes.append((x.shape, y.shape))
            return real(x, y)

        real = reconstruct._node_product
        monkeypatch.setattr(reconstruct, "_node_product", counting)
        g, S, grid = _march_case(kind, counts)
        integrate_frame(g, S, grid, anchor_index=anchor)
        d = grid.dim
        assert len(shapes) == 4 * sum(n - 1 for n in grid.counts)
        assert all(x[:2] == y[:2] == (d + 1, d + 1) for x, y in shapes)


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_own_svd_reference_bit_for_bit(self, dim):
        """The rotation, translation and aligned values from the rotation
        kernel's SVD are those of the alignment's former SVD and det-sign
        flip, bit for bit, for curves in the plane and surfaces in space:
        random pairs, and noisy rotations (det C > 0) and reflections
        (det C < 0, where the smallest singular direction flips) of one map."""
        rng = np.random.default_rng(60 + dim)
        grid = Grid((9,) * dim, (1.0,) * dim)
        target = chart("euclidean", dim + 1)
        mirror = np.diag([1.0] * dim + [-1.0])
        for k in range(300):
            v0 = rng.normal(size=grid.counts + (dim + 1,))
            Q = random_rotation(rng, dim + 1) @ (mirror if k % 3 == 2 else np.eye(dim + 1))
            v = (rng.normal(size=v0.shape) if k % 3 == 0
                 else v0 @ Q.T + 1e-3 * rng.normal(size=v0.shape))
            f, f0 = DiscreteImmersion(grid, v, target), DiscreteImmersion(grid, v0, target)
            got, want = align_rigid(f, f0), helpers.align_rigid(f, f0)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert np.array_equal(got[2].values, want[2].values)
            assert np.linalg.det(got[0]) > 0.0

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
