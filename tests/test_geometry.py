"""Christoffel symbols, curvature, square roots, and SVD distances."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (lambdify_tensor, random_rotation, riemann_curvature,
                     symbolic_christoffel, symbolic_riemann_lowered)
from imlab import geometry
from imlab.errors import NotSPD, RankDeficient, SingularMetric
from imlab.fields import Grid
from imlab.geometry import (SPD_RTOL, MetricChart, chart, chart_factors, christoffel,
                            christoffel_from_values, component_major, cross3_cm,
                            cross_columns_cm, Diagonal, dist_rotations, dist_stiefel,
                            factor_form, left_mul,
                            node_major, project_stiefel, right_mul,
                            rotation_factors_cm, sigma_max_cm, spd_factors, spd_sqrt_det,
                            sqrt_and_inv_sqrt, stiefel_factors_cm, target_factors_cm)
from imlab.optimize import SIGMA_GUARD
from imlab.reconstruct import _riemann_pairs


def _symbolic_charts():
    th, ph = sp.symbols("theta phi", positive=True)
    return {
        "polar": ((th, ph), sp.Matrix([[1, 0], [0, th ** 2]])),
        "sphere": ((th, ph), sp.Matrix([[1, 0], [0, sp.sin(th) ** 2]])),
        "hyperbolic": ((th, ph), sp.Matrix([[1, 0], [0, sp.sinh(th) ** 2]])),
    }


def _linear_factor_chart(d, rng):
    """g(x) = M(x)^T M(x) + I with M(x) = A + sum_k x_k B_k on the unit box: a
    non-diagonal SPD metric with partials d_k g = B_k^T M + M^T B_k."""
    A = np.eye(d) + 0.5 * rng.normal(size=(d, d))
    B = 0.5 * rng.normal(size=(d, d, d))

    def factor(x):
        return A + np.tensordot(x, B, axes=(-1, 0))

    def matrix(x):
        M = factor(x)
        return np.swapaxes(M, -1, -2) @ M + np.eye(d)

    def deriv(x):
        M = factor(x)
        out = np.empty(x.shape[:-1] + (d, d, d))
        for k in range(d):
            T = B[k].T @ M
            out[..., k, :, :] = T + np.swapaxes(T, -1, -2)
        return out

    return MetricChart(dim=d, domain=[[0.0, 1.0]] * d, matrix=matrix, matrix_deriv=deriv)


def _random_table_chart(d, rng):
    """Multilinear interpolant of a random non-diagonal SPD table A^T A + I
    on the unit box (finite-difference partials)."""
    grid = Grid((9,) * d, (1.0,) * d)
    A = rng.normal(size=grid.counts + (d, d))
    return MetricChart.from_table(grid, np.swapaxes(A, -1, -2) @ A + np.eye(d))


class TestChristoffel:
    def test_forms_only_gamma(self, monkeypatch):
        """christoffel shares the Gamma of target_factors_cm, bit for bit, but
        forms none of its exact-form factors."""
        m, x = chart("sphere"), np.array([[0.7, 0.2], [1.1, 0.4], [0.9, 2.0]])
        want = node_major(target_factors_cm(m, x)[3], 3)
        monkeypatch.setattr(geometry, "factor_form", lambda M: pytest.fail("a factor form"))
        assert christoffel(m, x).tobytes() == np.ascontiguousarray(want).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
           table=st.booleans(), batch=st.sampled_from([(), (1,), (7,), (3, 5)]))
    def test_matches_batched_matmul_reference(self, seed, d, table, batch):
        rng = np.random.default_rng(seed)
        m = (_random_table_chart if table else _linear_factor_chart)(d, rng)
        x = rng.uniform(0.0, 1.0, size=batch + (d,))
        got = christoffel(m, x)
        want = helpers.christoffel_from_values(m.eval(x), m.eval_deriv(x))
        assert got.shape == want.shape == batch + (d, d, d)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic", "polar"])
    def test_diagonal_charts_equal_reference_bitwise(self, name):
        rng = np.random.default_rng(17)
        m = chart(name)
        x = np.stack([rng.uniform(0.4, 1.4, 200), rng.uniform(-2.0, 2.0, 200)], axis=-1)
        for pts in (x, x[0], x.reshape(10, 20, 2)):
            want = helpers.christoffel_from_values(m.eval(pts), m.eval_deriv(pts))
            assert np.array_equal(christoffel(m, pts), want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_inverse_squares_the_spd_kernel_root(self, d):
        """christoffel_from_values squares the G^{-1/2} its caller took from
        spd_factors, bit for bit, past that call's SingularMetric gate."""
        rng = np.random.default_rng(70 + d)
        A = rng.normal(size=(40, d, d))
        G = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(d)
        dG = rng.normal(size=(d, d, d, 40))
        _, Ginv = christoffel_from_values(component_major(spd_factors(G)[2], 2), dG)
        Gsi = component_major(spd_factors(G)[2], 2)
        assert np.array_equal(Ginv, left_mul(Gsi, Gsi))
        G[7] = 0.0
        with pytest.raises(SingularMetric):
            christoffel_from_values(component_major(spd_factors(G)[2], 2), dG)

    def test_euclidean_is_zero(self):
        m = chart("euclidean", 3)
        G = christoffel(m, [0.3, -1.2, 4.0])
        assert np.all(G == 0.0)

    def test_polar_plane_closed_form(self):
        m = chart("polar")
        G = christoffel(m, [2.0, 0.7])
        assert G[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
        assert G[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
        assert np.max(np.abs(G[mask])) < 1e-12

    def test_round_sphere_closed_form(self):
        m = chart("sphere")
        G = christoffel(m, [np.pi / 4, 1.0])
        assert G[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_against_symbolic_levi_civita(self):
        rng = np.random.default_rng(11)
        for name, (coords, gmat) in _symbolic_charts().items():
            m = chart(name)
            oracle = lambdify_tensor(coords, symbolic_christoffel(coords, gmat),
                                     (2, 2, 2))
            for _ in range(5):
                x = np.array([rng.uniform(0.4, 1.4), rng.uniform(-2.0, 2.0)])
                got = christoffel(m, x)
                assert np.allclose(got, oracle(x), atol=1e-10), name

    def test_constant_metric_vanishes(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        C = A @ A.T + 3 * np.eye(3)
        m = MetricChart(dim=3, domain=[[-2, 2]] * 3, constant=C)
        G = christoffel(m, [0.1, 0.5, -0.9])
        assert np.all(G == 0.0)

    def test_fd_fallback_matches_analytic(self):
        # same sphere metric without the analytic derivative
        m = MetricChart(dim=2, domain=[[0.1, np.pi - 0.1], [-5, 5]],
                        matrix=chart("sphere").matrix)
        ana = christoffel(chart("sphere"), [0.9, 0.4])
        num = christoffel(m, [0.9, 0.4])
        assert np.allclose(ana, num, atol=1e-8)

    def test_lower_index_symmetry(self):
        m = chart("hyperbolic")
        G = christoffel(m, [[0.6, 0.1], [1.1, -0.4]])
        assert np.allclose(G, np.swapaxes(G, -1, -2), atol=0)

    def test_singular_metric_raises(self):
        m = MetricChart(dim=2, domain=[[-1, 1], [-1, 1]], matrix=lambda x: np.broadcast_to(
            np.diag([1.0, 0.0]), x.shape[:-1] + (2, 2)))
        with pytest.raises(SingularMetric):
            christoffel(m, [0.0, 0.0])


class TestFromTable:
    """The multilinear interpolant on 1-D and 2-D grids; node coordinates are
    exact binary fractions, so the nodes themselves come back exactly."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_node_values_exact_and_linear_reproduced(self, d):
        rng = np.random.default_rng(40 + d)
        grid = Grid((9,) * d, (1.0,) * d)
        C, D = rng.normal(size=(d, d)), rng.normal(size=(d, d, d))
        C += 10.0 * np.eye(d)     # positive definite on the box, past the SPD gate

        def linear(x):
            return C + np.tensordot(x, D, axes=(-1, 0))

        m = MetricChart.from_table(grid, linear(grid.nodes()))
        assert np.array_equal(m.eval(grid.nodes()), linear(grid.nodes()))
        x = rng.uniform(0.0, 1.0, size=(300, d))
        want = linear(x)
        assert np.max(np.abs(m.eval(x) - want)) <= 1e-15 * np.max(np.abs(want))
        # the grid stencils are exact on linear tables, so is the derivative
        assert np.max(np.abs(m.eval_deriv(x) - D)) <= 1e-12 * np.max(np.abs(D))

    def test_derivative_second_order_up_to_the_boundary(self):
        # the sphere metric diag(1, sin^2 x) on the sphere-cap box, sampled at
        # random points and on both boundary rows x = 0.5 and x = 1.5, where a
        # centred difference of the clamped interpolant halves d_0 g_11
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(200, 2))
        x[:50, 0] = np.repeat([0.0, 1.0], 25)
        x[:, 0] += 0.5
        sphere = chart("sphere")
        for n in (17, 33, 65):
            grid = Grid((n, n), (1.0, 1.0), (0.5, 0.0))
            m = MetricChart.from_table(grid, sphere.eval(grid.nodes()))
            err = np.max(np.abs(m.eval_deriv(x) - sphere.eval_deriv(x)))
            assert err <= 2.0 * grid.spacing[0] ** 2

    @pytest.mark.parametrize("bad, what", [(np.nan, "must be finite"), (np.inf, "must be finite"),
                                           (None, "have shape")])
    def test_table_is_a_checked_node_array(self, bad, what):
        # a NaN cell used to be interpolated, and its stencils run, until
        # a factorization far downstream failed
        grid = Grid((9, 9), (1.0, 1.0))
        table = np.broadcast_to(np.eye(2), grid.counts + (2, 2)).copy()
        if bad is None:
            table = table[:, :-1]
        else:
            table[4, 7, 1, 1] = bad
        with pytest.raises(ValueError, match=f"tabulated metric values {what}"):
            MetricChart.from_table(grid, table)


class TestRiemannCurvature:
    def test_flat_charts_vanish(self):
        assert np.all(riemann_curvature(chart("euclidean", 2), [0.4, 0.2]) == 0.0)
        R = riemann_curvature(chart("polar"), [1.7, 0.3])
        assert np.max(np.abs(R)) < 1e-8

    def test_round_sphere_sectional_curvature(self):
        R = riemann_curvature(chart("sphere"), [np.pi / 3, 0.0])
        assert R[0, 1, 0, 1] == pytest.approx(0.75, abs=1e-7)

    def test_hyperbolic_sectional_curvature(self):
        x = np.array([0.8, 0.0])
        R = riemann_curvature(chart("hyperbolic"), x)
        assert R[0, 1, 0, 1] == pytest.approx(-np.sinh(0.8) ** 2, rel=1e-6)

    def test_against_symbolic_oracle(self):
        coords, gmat = _symbolic_charts()["sphere"]
        oracle = lambdify_tensor(coords, symbolic_riemann_lowered(coords, gmat),
                                 (2, 2, 2, 2))
        x = np.array([1.1, 0.5])
        got = riemann_curvature(chart("sphere"), x)
        assert np.allclose(got, oracle(x), atol=1e-7)

    def test_index_symmetries(self):
        R = riemann_curvature(chart("sphere"), [0.9, 0.1])
        assert np.allclose(R, -np.swapaxes(R, 0, 1), atol=1e-12)
        assert np.allclose(R, -np.swapaxes(R, 2, 3), atol=1e-12)
        assert np.allclose(R, np.moveaxis(R, [0, 1, 2, 3], [2, 3, 0, 1]), atol=1e-9)

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic", "polar"])
    def test_exactly_antisymmetric_in_the_last_pair(self, name):
        rng = np.random.default_rng(7)
        x = np.stack([rng.uniform(0.4, 1.4, 12), rng.uniform(-2.0, 2.0, 12)], axis=-1)
        R = riemann_curvature(chart(name), x)
        assert R.shape == (12, 2, 2, 2, 2)
        assert np.all(R == -np.swapaxes(R, -1, -2))
        assert np.all(R[..., [0, 1], [0, 1]] == 0.0)
        assert np.any(R != 0.0)

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic", "polar"])
    def test_matches_einsum_reference(self, name):
        m = chart(name)
        x = np.array([[0.7, 0.2], [1.3, -0.5]])
        G, Gam = m.eval(x), christoffel(m, x)
        dGam = np.random.default_rng(3).normal(size=(2, 2, 2, 2, 2))
        want = helpers.riemann_from_values(G, Gam, dGam)
        got = _riemann_pairs(component_major(G, 2), component_major(Gam, 3),
                             component_major(dGam, 4))
        assert got.shape == (2, 2, 1, 2)
        want_pairs = component_major(want, 4)[:, :, 0, 1]
        assert np.allclose(got[:, :, 0], want_pairs, rtol=1e-13, atol=1e-13)


class TestMetricSqrt:
    def test_identity_and_diagonal(self):
        assert np.allclose(sqrt_and_inv_sqrt(np.eye(3))[0], np.eye(3), atol=0)
        assert np.allclose(sqrt_and_inv_sqrt(np.diag([4.0, 9.0]))[0], np.diag([2.0, 3.0]),
                           atol=1e-14)

    def test_multiply_back_random_spd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            G = A @ A.T + 0.5 * np.eye(3)
            r = sqrt_and_inv_sqrt(G)[0]
            assert np.allclose(r @ r, G, rtol=1e-12, atol=1e-13)
            assert np.allclose(r, r.T, atol=0)

    def test_not_spd_raises(self):
        with pytest.raises(NotSPD):
            sqrt_and_inv_sqrt(np.diag([1.0, -2.0]))[0]
        with pytest.raises(NotSPD):
            sqrt_and_inv_sqrt(np.diag([1.0, 0.0]))[0]


def _eigh_factors(G):
    """The eigendecomposition reference the SPD kernel replaced: its guard
    decision per matrix, sqrt(det), the two roots, and cond(G)."""
    w, V = np.linalg.eigh(0.5 * (G + np.swapaxes(G, -1, -2)))
    bad = ~(w[..., 0] > SPD_RTOL * np.abs(w[..., -1]))
    r = np.sqrt(np.abs(w))[..., None, :]
    Vt = np.swapaxes(V, -1, -2)
    return (bad, np.sqrt(np.abs(np.prod(w, axis=-1))), (V * r) @ Vt, (V / r) @ Vt,
            np.abs(w[..., -1] / w[..., 0]))


def _spd_with_spectrum(rng, lmax, lmin):
    """Q diag(lmax, lmin) Q^T for random rotations Q, one matrix per entry."""
    th = rng.uniform(0.0, np.pi, size=np.shape(lmax))
    c, s = np.cos(th), np.sin(th)
    a = lmax * c * c + lmin * s * s
    d = lmax * s * s + lmin * c * c
    b = (lmax - lmin) * c * s
    return np.stack([a, b, b, d], axis=-1).reshape(np.shape(lmax) + (2, 2))


def _spd_corpora():
    rng = np.random.default_rng(611)
    A = rng.normal(size=(400, 2, 2))
    random = A @ np.swapaxes(A, -1, -2) + 1e-3 * np.eye(2)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=600)
    cond = 10.0 ** rng.uniform(0.0, 10.0, size=600)
    conditioned = _spd_with_spectrum(rng, scale, scale / cond)
    diagonal = np.stack([np.diag([s, s / c]) for s, c in zip(scale[:50], cond[:50])])
    return {"random": random, "conditioned": conditioned, "diagonal": diagonal}


class TestSpdKernel:
    """spd_factors against the eigh formulas it replaced."""

    @pytest.mark.parametrize("name", ["random", "conditioned", "diagonal"])
    def test_matches_eigh_reference(self, name):
        G = _spd_corpora()[name]
        bad, sdet, R_ref, Ri_ref, cond = _eigh_factors(G)
        assert not bad.any()
        s, R, Ri = spd_factors(G)
        tol = 1e-14 * cond

        def rel(x, ref):
            return np.linalg.norm(x - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))

        assert np.all(np.abs(s - sdet) <= tol * sdet)
        assert np.all(rel(R, R_ref) <= tol)
        assert np.all(rel(Ri, Ri_ref) <= tol)
        assert np.array_equal(R, np.swapaxes(R, -1, -2))
        assert np.array_equal(Ri, np.swapaxes(Ri, -1, -2))
        assert np.array_equal(spd_sqrt_det(G), s)
        assert all(np.array_equal(a, b) for a, b in zip(sqrt_and_inv_sqrt(G), (R, Ri)))

    def test_raises_on_the_rows_the_eigh_rule_rejects(self):
        rng = np.random.default_rng(612)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=800)
        ratio = SPD_RTOL * np.concatenate([
            np.repeat([0.99, 1.01], 200), 10.0 ** rng.uniform(-3.0, 3.0, size=400)])
        G = _spd_with_spectrum(rng, scale, scale * ratio)
        A = rng.normal(size=(200, 2, 2))
        G = np.concatenate([G, A + np.swapaxes(A, -1, -2), -G[:50]])
        bad, _, _, _, _ = _eigh_factors(G)
        w = np.linalg.eigvalsh(G)
        outside = np.abs(w[:, 0] / w[:, 1] / SPD_RTOL - 1.0) > 0.01
        assert outside.sum() > 800 and bad[outside].sum() > 300
        assert (~bad[outside]).sum() > 300
        for Gk, bk, ok in zip(G, bad, outside):
            if not ok:
                continue
            if bk:
                with pytest.raises(NotSPD):
                    spd_factors(Gk)
            else:
                spd_factors(Gk)
        with pytest.raises(SingularMetric):
            spd_sqrt_det(G)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, n, value):
        for k in range(n * n):
            G = np.tile(np.eye(n), (3, 1, 1))
            G[1].flat[k] = value
            with pytest.raises(NotSPD):
                spd_factors(G)
            with pytest.raises(SingularMetric):
                spd_sqrt_det(G)

    def test_scalar_and_three_by_three(self):
        s, R, Ri = spd_factors(np.array([[[4.0]], [[0.25]]]))
        assert np.array_equal(s, [2.0, 0.5])
        assert np.array_equal(R[:, 0, 0], [2.0, 0.5]) and np.array_equal(Ri[:, 0, 0], [0.5, 2.0])
        rng = np.random.default_rng(613)
        A = rng.normal(size=(30, 3, 3))
        G = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(3)
        _, sdet, R_ref, Ri_ref, _ = _eigh_factors(G)
        s, R, Ri = spd_factors(G)
        assert np.allclose(s, sdet, rtol=1e-13) and np.allclose(R, R_ref, rtol=1e-12)
        assert np.allclose(Ri, Ri_ref, rtol=1e-12, atol=1e-12)
        assert np.array_equal(R, np.swapaxes(R, -1, -2))

    def test_constant_chart_is_factored_once_without_nodes(self, monkeypatch):
        m = MetricChart(dim=2, domain=[[0.0, 1.0]] * 2, constant=[[2.0, 0.3], [0.3, 1.0]])
        nodes = np.random.default_rng(614).uniform(size=(5, 4, 2))
        per_node = spd_factors(m.eval(nodes))
        monkeypatch.setattr(MetricChart, "eval", lambda *a: pytest.fail("eval called"))
        G, *factors = chart_factors(m, lambda: pytest.fail("points built"))
        assert np.array_equal(G, m.constant)
        for f, ref in zip(factors, per_node):
            assert np.array_equal(np.broadcast_to(f, ref.shape), ref)


class TestRotationDistance:
    def test_closed_forms(self):
        assert dist_rotations(np.eye(3)) == 0.0
        assert dist_rotations(np.diag([2.0, 1.0])) == pytest.approx(1.0, abs=1e-14)
        assert dist_rotations(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            A = rng.normal(size=(3, 3))
            R = random_rotation(rng, 3)
            d = dist_rotations(A)
            assert abs(dist_rotations(R @ A) - d) < 1e-10
            assert abs(dist_rotations(A @ R) - d) < 1e-10


class TestStiefelDistance:
    def test_closed_forms(self):
        Q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert dist_stiefel(Q) == 0.0
        assert dist_stiefel(2 * Q) == pytest.approx(np.sqrt(2.0), abs=1e-14)
        assert dist_stiefel(np.zeros((3, 2))) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_sampling_lower_bound_and_projection(self):
        rng = np.random.default_rng(13)
        Q = rng.normal(size=(3, 2))
        d = dist_stiefel(Q)
        samples = []
        for _ in range(1000):
            O, _ = np.linalg.qr(rng.normal(size=(3, 2)))
            samples.append(np.linalg.norm(Q - O))
        assert min(samples) >= d - 1e-6
        assert abs(np.linalg.norm(Q - project_stiefel(Q)) - d) < 1e-12


def _svd_stiefel(Q):
    """Reference (dist^2, sigma_min, polar factor) from the thin SVD."""
    U, s, Vt = np.linalg.svd(Q, full_matrices=False)
    return np.sum((s - 1.0) ** 2, axis=-1), s[..., -1], U @ Vt


def _orthonormal_frames(rng, n, d):
    U, _, Vt = np.linalg.svd(rng.normal(size=(n, d + 1, d)), full_matrices=False)
    return U @ Vt


def stiefel_cm(Q, polar=False):
    """:func:`stiefel_factors_cm` of a node-major (..., d+1, d) corpus, the
    polar factor moved back to node-major."""
    dist2, smin, _, P = stiefel_factors_cm(component_major(Q, 2), polar=polar)
    return dist2, smin, None if P is None else node_major(P, 2)


def rotation_cm(B, polar=False):
    """:func:`rotation_factors_cm` of a node-major (..., n, n) corpus, the
    nearest rotation moved back to node-major (None unless ``polar``)."""
    dist2, smin, R = rotation_factors_cm(component_major(B, 2))
    return dist2, smin, node_major(R, 2) if polar else None


class TestStiefelKernel:
    """Closed-form component-major kernel against the SVD on seeded
    (d+1) x d corpora.

    dist^2 agrees to 1e-14 absolute on O(1) frames (relative to |Q|^2 on
    badly scaled ones, where the reference itself carries that error), the
    polar factor to 1e-12.
    """

    def _compare(self, Q, smin_rtol=1e-12):
        dist2, smin, P = stiefel_cm(Q, polar=True)
        ref2, ref_smin, ref_P = _svd_stiefel(Q)
        scale = np.maximum(1.0, np.sum(Q * Q, axis=(-2, -1)))
        assert np.all(dist2 >= 0.0)
        assert np.max(np.abs(dist2 - ref2) / scale) <= 1e-14
        assert np.max(np.abs(P - ref_P)) <= 1e-12
        assert np.max(np.abs(smin - ref_smin) / ref_smin) <= smin_rtol
        d2_only, smin_only, none = stiefel_cm(Q)
        assert none is None
        assert np.array_equal(d2_only, dist2) and np.array_equal(smin_only, smin)
        assert np.array_equal(dist_stiefel(Q), np.sqrt(dist2))

    @pytest.mark.parametrize("d", [1, 2])
    def test_random_frames(self, d):
        rng = np.random.default_rng(30 + d)
        self._compare(rng.normal(size=(4000, d + 1, d)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_near_isometric(self, d):
        # |Q|^2 - 2t + 2 cancels to ~1e-18 here; sigma_min comes from the
        # clustered pair and keeps about 8 digits (it only feeds the guard)
        rng = np.random.default_rng(40 + d)
        O = _orthonormal_frames(rng, 4000, d)
        self._compare(O + 1e-9 * rng.normal(size=O.shape), smin_rtol=1e-7)

    @pytest.mark.parametrize("d", [1, 2])
    def test_badly_scaled_columns(self, d):
        rng = np.random.default_rng(50 + d)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(4000, 1, d))
        self._compare(rng.normal(size=(4000, d + 1, d)) * scales)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rank_guard_side(self, d):
        rng = np.random.default_rng(60 + d)
        n = 2000
        O = _orthonormal_frames(rng, n, d)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        V = (np.stack([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)],
                      axis=-1).reshape(n, 2, 2) if d == 2 else np.ones((n, 1, 1)))
        sigma = np.empty((n, d))
        sigma[:, 0] = rng.uniform(0.5, 2.0, size=n)
        side = np.where(np.arange(n) % 2 == 0, 1.001, 0.999)
        sigma[:, -1] = SIGMA_GUARD * side
        Q = (O * sigma[:, None, :]) @ V
        _, smin, _ = stiefel_cm(Q)
        _, ref_smin, _ = _svd_stiefel(Q)
        assert np.array_equal(smin < SIGMA_GUARD, side < 1.0)
        assert np.array_equal(ref_smin < SIGMA_GUARD, side < 1.0)
        assert np.max(np.abs(smin - ref_smin) / ref_smin) <= 1e-6

    @pytest.mark.parametrize("d", [1, 2])
    def test_sigma_max_matches_svd(self, d):
        """sigma_max, which the rank gate of the frame pass reads."""
        rng = np.random.default_rng(80 + d)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(4000, 1, d))
        Q = rng.normal(size=(4000, d + 1, d)) * scales
        smax = stiefel_factors_cm(component_major(Q, 2))[2]
        ref = np.linalg.svd(Q, compute_uv=False)[:, 0]
        assert np.max(np.abs(smax - ref) / ref) <= 1e-14

    def test_rank_deficient_is_quiet(self):
        Q = np.zeros((2, 3, 2))
        Q[1, 0, 0] = 1.0
        with np.errstate(all="raise"):
            dist2, smin, P = stiefel_cm(Q, polar=True)
        assert np.array_equal(smin, [0.0, 0.0])
        assert np.array_equal(dist2, [2.0, 1.0])
        assert np.array_equal(P, np.zeros_like(Q))

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            stiefel_cm(np.ones((4, 2)))
        with pytest.raises(ValueError):
            stiefel_cm(np.ones((4, 3)))


def _svd_rotation(B):
    """Reference (dist^2, sigma_min, nearest rotation, singular values, det
    sign) from the SVD: flip the smallest singular direction when det < 0."""
    U, s, Vt = np.linalg.svd(B)
    sign = np.where(np.linalg.det(U) * np.linalg.det(Vt) < 0, -1.0, 1.0)
    target = np.ones_like(s)
    target[..., -1] = sign
    return (np.sum((s - target) ** 2, axis=-1), s[..., -1],
            (U * target[..., None, :]) @ Vt, s, sign)


def _orthogonal(rng, m, n):
    """m orthogonal n x n matrices, about half of them with det -1."""
    U, _, Vt = np.linalg.svd(rng.normal(size=(m, n, n)))
    return U @ Vt


class TestRotationKernel:
    """Closed-form (n = 2) and Newton polar (n = 3) component-major kernel
    against the SVD on seeded n x n corpora with both signs of det; for
    n = 3 one Newton batch serves both signs, and only the rows it cannot
    certify reach the SVD.

    dist^2 agrees to 1e-14 relative to max(1, |B|^2).  R agrees to 1e-12
    where the nearest rotation is well separated, sigma_{n-1} + sign(det B)
    sigma_n >= 1e-3 max(1, sigma_1): relative to sigma_1, since the SVD's own
    R carries an error of about eps sigma_1 over that gap.  sigma_min is
    exact for n = 2 and wherever n = 3 takes the SVD; on certified n = 3 rows
    it is the bound |det B| / |cof B|_F in [sigma_3 / sqrt(3), sigma_3], at
    least SIGMA_GUARD, so the guard decides as it does on the SVD.
    """

    def _compare(self, B):
        dist2, smin, R = rotation_cm(B, polar=True)
        ref2, ref_smin, ref_R, s, sign = _svd_rotation(B)
        n = B.shape[-1]
        scale = np.maximum(1.0, np.sum(B * B, axis=(-2, -1)))
        assert np.all(dist2 >= 0.0)
        assert np.max(np.abs(dist2 - ref2) / scale) <= 1e-14
        eye = np.broadcast_to(np.eye(n), R.shape)
        assert np.max(np.abs(np.swapaxes(R, -1, -2) @ R - eye)) <= 1e-14
        assert np.all(np.linalg.det(R) > 0.0)
        well = s[..., -2] + sign * s[..., -1] >= 1e-3 * np.maximum(1.0, s[..., 0])
        assert np.any(well)
        assert np.max(np.abs(R - ref_R)[well]) <= 1e-12
        assert np.array_equal(smin < SIGMA_GUARD, ref_smin < SIGMA_GUARD)
        slack = 1e-13 * s[..., 0]
        assert np.all(smin <= ref_smin + slack)
        assert np.all(smin >= (ref_smin if n == 2 else ref_smin / np.sqrt(3.0)) - slack)
        d2_only, smin_only, none = rotation_cm(B)
        assert none is None
        assert np.array_equal(d2_only, dist2) and np.array_equal(smin_only, smin)
        assert np.array_equal(dist_rotations(B), np.sqrt(dist2))
        return sign

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_frames(self, n):
        rng = np.random.default_rng(70 + n)
        sign = self._compare(rng.normal(size=(4000, n, n)))
        assert np.any(sign < 0) and np.any(sign > 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_near_rotation(self, n):
        # near reflections (det -1) are not separated: only dist^2 is compared
        rng = np.random.default_rng(80 + n)
        O = _orthogonal(rng, 4000, n)
        sign = self._compare(O + 1e-9 * rng.normal(size=O.shape))
        assert np.any(sign < 0) and np.any(sign > 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_badly_scaled_columns(self, n):
        rng = np.random.default_rng(90 + n)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(4000, 1, n))
        self._compare(rng.normal(size=(4000, n, n)) * scales)

    @pytest.mark.parametrize("n", [2, 3])
    def test_relax_like_frames(self, n):
        # rotations scaled by up to 2.5 plus a kick, as in director descents
        rng = np.random.default_rng(100 + n)
        O = _orthogonal(rng, 4000, n)
        O[..., 0] *= np.sign(np.linalg.det(O))[:, None]
        B = O * rng.uniform(0.5, 2.5, size=(4000, 1, 1)) + 0.2 * rng.normal(size=O.shape)
        self._compare(B)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_guard_side(self, n):
        rng = np.random.default_rng(110 + n)
        m = 2000
        sigma = rng.uniform(0.5, 2.0, size=(m, n))
        side = np.where(np.arange(m) % 2 == 0, 1.001, 0.999)
        sigma[:, -1] = SIGMA_GUARD * side
        B = (_orthogonal(rng, m, n) * sigma[:, None, :]) @ _orthogonal(rng, m, n)
        _, smin, _ = rotation_cm(B)
        _, ref_smin, _, _, sign = _svd_rotation(B)
        assert np.any(sign < 0) and np.any(sign > 0)
        assert np.array_equal(smin < SIGMA_GUARD, side < 1.0)
        assert np.array_equal(ref_smin < SIGMA_GUARD, side < 1.0)
        self._compare(B)

    def test_certified_frames_take_no_svd(self, monkeypatch):
        rng = np.random.default_rng(120)
        B = np.eye(3) + 0.1 * rng.normal(size=(500, 3, 3))
        ref2, ref_smin, ref_R, _, _ = _svd_rotation(B)

        def no_svd(*args, **kwargs):
            raise AssertionError("certified frames must not reach the SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        dist2, smin, R = rotation_cm(B, polar=True)
        assert np.max(np.abs(dist2 - ref2)) <= 1e-14
        assert np.max(np.abs(R - ref_R)) <= 1e-13
        assert np.all(smin <= ref_smin * (1.0 + 1e-13))
        assert np.all(smin >= ref_smin / np.sqrt(3.0) * (1.0 - 1e-13))

    @staticmethod
    def _reflections(rng, sigma):
        """U diag(sigma) V^T with det U V^T = -1, one per row of sigma."""
        m = len(sigma)
        U, V = _orthogonal(rng, m, 3), _orthogonal(rng, m, 3)
        U[..., 0] *= -(np.sign(np.linalg.det(U)) * np.sign(np.linalg.det(V)))[:, None]
        return (U * sigma[:, None, :]) @ np.swapaxes(V, -1, -2)

    def _no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("separated det < 0 frames must not reach the SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)

    def test_separated_reflections_take_no_svd(self, monkeypatch):
        """det < 0 frames whose two smallest singular values are separated,
        from O(1) to near-singular, badly scaled and relax-like, and those
        frames mixed with det > 0 ones: R within 1e-12 and dist^2 within
        1e-14 of the SVD's, with no SVD call."""
        rng = np.random.default_rng(130)
        m = 2000
        sigma = np.sort(rng.uniform(0.2, 3.0, size=(m, 3)), axis=1)[:, ::-1].copy()
        sigma[:, 2] = np.minimum(sigma[:, 2], 0.9 * sigma[:, 1])
        tiny = sigma.copy()
        tiny[:, 2] = 10.0 ** rng.uniform(-7.0, -2.0, size=m)
        wide = sigma * 10.0 ** rng.uniform(-2.0, 2.0, size=(m, 1))
        O = _orthogonal(rng, m, 3)
        O[..., 0] *= -np.sign(np.linalg.det(O))[:, None]
        kicked = O * rng.uniform(0.5, 2.5, size=(m, 1, 1)) + 0.2 * rng.normal(size=O.shape)
        kicked = kicked[np.linalg.det(kicked) < 0]
        s_kicked = np.linalg.svd(kicked, compute_uv=False)
        kicked = kicked[s_kicked[:, 1] - s_kicked[:, 2] >= 1e-2 * s_kicked.mean(axis=1)]
        mixed = self._reflections(rng, sigma)
        mixed[::2] = -mixed[::2]
        for B in (self._reflections(rng, sigma), self._reflections(rng, tiny),
                  self._reflections(rng, wide), kicked, mixed):
            ref2, ref_smin, ref_R, s, sign = _svd_rotation(B)
            flipped = np.arange(len(B)) % 2 == 0 if B is mixed else False
            assert np.array_equal(sign > 0, np.broadcast_to(flipped, sign.shape))
            with monkeypatch.context() as patch:
                self._no_svd(patch)
                dist2, smin, R = rotation_cm(B, polar=True)
            scale = np.maximum(1.0, np.sum(B * B, axis=(-2, -1)))
            assert np.max(np.abs(dist2 - ref2) / scale) <= 1e-14
            assert np.max(np.abs(R - ref_R)) <= 1e-12
            slack = 1e-13 * s[..., 0]
            assert np.all(smin <= ref_smin + slack)
            assert np.all(smin >= ref_smin / np.sqrt(3.0) - slack)

    def test_one_newton_batch_for_both_signs(self, monkeypatch):
        """Certified det > 0 rows, separated det < 0 rows and uncertified
        rows (zero, rank 1, near rank 1) in one call: one Newton batch, the
        SVD on exactly the uncertified rows, and the certified rows' results
        bit for bit those of a call on them alone."""
        rng = np.random.default_rng(133)
        m = 300
        pos = np.eye(3) + 0.1 * rng.normal(size=(m, 3, 3))
        sigma = np.sort(rng.uniform(0.2, 3.0, size=(m, 3)), axis=1)[:, ::-1].copy()
        sigma[:, 2] = np.minimum(sigma[:, 2], 0.9 * sigma[:, 1])
        neg = self._reflections(rng, sigma)
        tiny = 10.0 ** rng.uniform(-16.0, -9.0, size=m)     # sigma_3 below the guard
        low = np.stack([rng.uniform(1.0, 3.0, m), tiny * rng.uniform(1.0, 2.0, m), tiny], 1)
        near = (_orthogonal(rng, m, 3) * low[:, None, :]) @ _orthogonal(rng, m, 3)
        rank1 = rng.normal(size=(m, 3, 1)) * rng.normal(size=(m, 1, 3))
        B = np.concatenate([pos, neg, np.zeros((m, 3, 3)), rank1, near])
        order = rng.permutation(len(B))
        B = B[order]
        certified = order < 2 * m
        assert np.any(np.linalg.det(B[certified]) < 0.0)
        assert np.any(np.linalg.det(B[certified]) > 0.0)
        alone = rotation_cm(B[certified], polar=True)
        newton, svd_inputs = [], []
        polar, svd = geometry._newton_polar, np.linalg.svd

        def counted_newton(*args):
            newton.append(args[0].shape[1])
            return polar(*args)

        def recorded_svd(A, *args, **kwargs):
            svd_inputs.append(np.array(A))
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(geometry, "_newton_polar", counted_newton)
        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        dist2, smin, R = rotation_cm(B, polar=True)
        monkeypatch.undo()
        assert newton == [len(B)]
        assert len(svd_inputs) == 1 and np.array_equal(svd_inputs[0], B[~certified])
        for got, want in zip((dist2, smin, R), alone):
            assert got[certified].tobytes() == want.tobytes()

    @pytest.mark.parametrize("gap", [1e-9, 1e-12])
    def test_reflections_with_clustered_singular_values(self, gap):
        """det < 0 frames with sigma_2 ~ sigma_3, with all three clustered,
        and near-singular: the SVD's dist^2 within 1e-14, and a rotation."""
        rng = np.random.default_rng(131)
        m = 1000
        top = rng.uniform(1.2, 3.0, size=m)
        low = rng.uniform(0.2, 1.0, size=m)
        tiny = 10.0 ** rng.uniform(-12.0, -6.0, size=m)
        corpora = [np.stack([top, low * (1.0 + gap), low], axis=1),
                   np.stack([low * (1.0 + 2 * gap), low * (1.0 + gap), low], axis=1),
                   np.stack([top, low, tiny], axis=1),
                   np.stack([top, tiny * (1.0 + gap), tiny], axis=1)]
        for sigma in corpora:
            B = self._reflections(rng, sigma)
            ref2, ref_smin, _, _, sign = _svd_rotation(B)
            assert np.all(sign < 0)
            dist2, smin, R = rotation_cm(B, polar=True)
            scale = np.maximum(1.0, np.sum(B * B, axis=(-2, -1)))
            assert np.max(np.abs(dist2 - ref2) / scale) <= 1e-14
            assert np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3))) <= 1e-14
            assert np.all(np.linalg.det(R) > 0.0)
            assert np.array_equal(smin < SIGMA_GUARD, ref_smin < SIGMA_GUARD)

    def test_near_rank_one_frames_are_not_certified(self):
        """Frames with two singular values far below the guard, both signs of
        det: the computed det B is rounding noise there, so no row is
        certified on it; the guard decides as on the SVD, dist^2 agrees to
        1e-14, and no floating-point exception is raised."""
        rng = np.random.default_rng(132)
        m = 4000
        tiny = 10.0 ** rng.uniform(-16.0, -6.0, size=m)
        sigma = np.stack([rng.uniform(1.0, 3.0, m), tiny * rng.uniform(1.0, 2.0, m), tiny], 1)
        B = (_orthogonal(rng, m, 3) * sigma[:, None, :]) @ _orthogonal(rng, m, 3)
        ref2, ref_smin, _, _, sign = _svd_rotation(B)
        assert np.any(sign < 0) and np.any(sign > 0)
        with np.errstate(all="raise"):
            dist2, smin, R = rotation_cm(B, polar=True)
        assert np.array_equal(smin < SIGMA_GUARD, ref_smin < SIGMA_GUARD)
        scale = np.maximum(1.0, np.sum(B * B, axis=(-2, -1)))
        assert np.max(np.abs(dist2 - ref2) / scale) <= 1e-14
        assert np.all(np.linalg.det(R) > 0.0)

    def test_singular_is_quiet(self):
        B3 = np.stack([np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0]),
                       np.diag([2.0, 1.0, 0.0]), np.diag([1.0, 1.0, -1.0])])
        B2 = np.stack([np.zeros((2, 2)), np.ones((2, 2)), np.diag([1.0, -1.0])])
        for B in (B3, B2):
            with np.errstate(all="raise"):
                dist2, smin, R = rotation_cm(B, polar=True)
            ref2, ref_smin, _, _, _ = _svd_rotation(B)
            assert np.max(np.abs(dist2 - ref2)) <= 1e-14
            assert np.array_equal(smin[:-1], [0.0] * (len(B) - 1))
            assert np.all(np.isfinite(R))

    def test_shape_and_rejects_other_shapes(self):
        rng = np.random.default_rng(121)
        B = rng.normal(size=(5, 4, 3, 3))
        dist2, smin, R = rotation_cm(B, polar=True)
        assert dist2.shape == smin.shape == (5, 4) and R.shape == B.shape
        flat2, _, flatR = rotation_cm(B.reshape(-1, 3, 3), polar=True)
        assert np.array_equal(dist2.ravel(), flat2)
        assert np.array_equal(R.reshape(-1, 3, 3), flatR)
        assert rotation_cm(np.eye(3))[0].shape == ()
        for shape in ((4, 4), (3, 2), (1, 1)):
            with pytest.raises(ValueError):
                rotation_cm(np.ones(shape))


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_sigma_max(n):
    """The largest singular value of 1x1 and 2x2 stacks, random and
    badly scaled, within 1e-14 relative of the SVD's."""
    rng = np.random.default_rng(140 + n)
    M = rng.normal(size=(4000, n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4000, 1, 1))
    want = np.linalg.svd(M, compute_uv=False)[:, 0]
    got = sigma_max_cm(component_major(M, 2))
    assert got.shape == (4000,)
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_closed_form_sigma_max_on_the_polar_param_metric():
    """sigma_max of g^{1/2} S g^{-1/2} on the polar-parameter box of the
    check suite's margin sweep, as a batch of shape fields, against the SVD."""
    grid = Grid((17, 17), (1.0, 1.0), (1.0, 0.0))
    rng = np.random.default_rng(142)
    _, _, gs, gsi = chart_factors(chart("polar"), grid.nodes)
    S = rng.normal(size=(5,) + grid.counts + (2, 2))
    want = np.linalg.svd(gs @ S @ gsi, compute_uv=False)[..., 0]
    Scm = component_major(S, 2)
    got = sigma_max_cm(right_mul(left_mul(component_major(gs, 2), Scm), component_major(gsi, 2)))
    assert got.shape == (5,) + grid.counts
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_cross_by_components_is_bit_identical_to_numpy():
    rng = np.random.default_rng(31)
    Q = rng.normal(size=(33, 33, 3, 2)) * 10.0 ** rng.uniform(-3, 3, size=(33, 33, 1, 1))
    a, b = Q[..., 0], Q[..., 1]
    q = component_major(Q, 2)
    assert node_major(cross3_cm(q[:, 0], q[:, 1]), 1).tobytes() == np.cross(a, b).tobytes()
    assert node_major(cross3_cm(q[:, 1], q[:, 0]), 1).tobytes() == np.cross(b, a).tobytes()
    assert node_major(cross_columns_cm(q), 1).tobytes() == np.cross(a, b).tobytes()


def test_cross_kernels_write_into_out_and_take_single_frames():
    rng = np.random.default_rng(37)
    q = rng.normal(size=(3, 2, 5))
    out = np.full((3, 5), np.nan)
    assert cross3_cm(q[:, 0], q[:, 1], out=out) is out
    assert out.tobytes() == cross3_cm(q[:, 0], q[:, 1]).tobytes()
    # one frame, no node axes
    Q = rng.normal(size=(3, 2))
    assert cross_columns_cm(Q).tobytes() == np.cross(Q[:, 0], Q[:, 1]).tobytes()
    c = rng.normal(size=(2, 1))
    assert cross_columns_cm(c).tobytes() == np.array([-c[1, 0], c[0, 0]]).tobytes()
    assert dist_stiefel(Q).shape == ()


def _diagonal_factor(rng, n, nodes, one=False):
    """A per-node (n, n, *nodes) factor with off-diagonal entries +0 or -0 at
    random, and diagonal entries uniform in [0.2, 3] (exactly 1 with ``one``)."""
    M = np.where(rng.random((n, n) + nodes) < 0.5, -0.0, 0.0)
    diag = np.ones((n,) + nodes) if one else rng.uniform(0.2, 3.0, (n,) + nodes)
    M[np.arange(n), np.arange(n)] = diag
    return M


def _operand(rng, shape):
    """Normal entries, about a tenth of them replaced by +0 or -0."""
    u = rng.normal(size=shape)
    zeros = rng.random(shape) < 0.1
    u[zeros] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[zeros]
    return u


def _equal_to_zero_signs(got, want):
    """Equal values, and equal bits wherever the value is not zero: the
    dropped terms are exact zeros, which can flip only the sign of a zero."""
    nonzero = want != 0.0
    return (got.shape == want.shape and np.array_equal(got, want)
            and got[nonzero].tobytes() == want[nonzero].tobytes())


class TestFactorForms:
    """Each factor form (factor_form) against the dense product of the
    factor it came from."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
           side=st.sampled_from(["g", "h"]),
           kind=st.sampled_from(["diagonal", "identity", "constant identity"]),
           batch=st.sampled_from([(), (1,), (3,)]),
           counts=st.lists(st.integers(1, 5), min_size=2, max_size=2))
    def test_structured_products_match_dense(self, seed, d, side, kind, batch, counts):
        rng = np.random.default_rng(seed)
        nodes = tuple(counts[:d])
        n = d if side == "g" else d + 1     # g^{+-1/2}, g^{-1} or a factor of h
        if kind == "constant identity":
            M = np.where(np.eye(n) == 1.0, 1.0, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0))
        else:
            M = _diagonal_factor(rng, n, nodes, one=kind != "diagonal")
        form = factor_form(M)
        if kind == "diagonal":
            assert isinstance(form, Diagonal) and form.entries.shape == (n,) + nodes
        else:
            assert form is None
        u = _operand(rng, (3, n) + batch + nodes)     # u M: (m, k, *batch, *nodes)
        assert _equal_to_zero_signs(right_mul(u, form), right_mul(u, M))
        v = _operand(rng, (n, 2) + batch + nodes)     # M v: (m, k, *batch, *nodes)
        assert _equal_to_zero_signs(left_mul(form, v), left_mul(M, v))

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_nonzero_off_diagonal_node_stays_dense(self, n):
        rng = np.random.default_rng(150 + n)
        M = _diagonal_factor(rng, n, (4, 5))
        M[n - 1, 0, 2, 3] = 1e-300
        assert factor_form(M) is M
        assert factor_form(M[:, :, 2:, 3:]) is not None
        assert isinstance(factor_form(M[:, :, :2]), Diagonal)

    def test_one_node_diagonal_and_constant_matrix_are_told_apart(self):
        """For d = 1 a per-node diagonal on one node and a constant 1x1
        matrix have one shape; the form keeps them apart."""
        per_node, constant = np.full((1, 1, 1), 2.0), np.full((1, 1), 2.0)
        assert isinstance(factor_form(per_node), Diagonal)
        assert factor_form(constant) is constant
        u = np.arange(1.0, 4.0).reshape(3, 1, 1)
        for M in (per_node, constant):
            assert np.array_equal(right_mul(u, factor_form(M)), 2.0 * u)
            assert np.array_equal(left_mul(factor_form(M), u.reshape(1, 3, 1)),
                                  2.0 * u.reshape(1, 3, 1))

    def test_catalogue_factors(self):
        """The flat parameter metric's g^{-1/2} = [[1, -0], [-0, 1]] and the
        Euclidean target drop out; the warped-product charts are diagonal;
        a tabulated full metric stays dense."""
        grid = Grid((5, 4), (1.0, 1.0), (0.5, 0.0))
        gsi = spd_factors(np.eye(2))[2]
        assert np.signbit(gsi[0, 1]) and factor_form(gsi) is None
        assert target_factors_cm(chart("euclidean", 3), None)[:3] == (None, None, None)
        for name in ("sphere", "hyperbolic", "polar"):
            for M in chart_factors(chart(name), grid.nodes)[2:]:
                assert isinstance(factor_form(component_major(M, 2)), Diagonal)
        A = np.array([[1.0, 0.3], [-0.2, 0.9]])
        table = MetricChart.from_table(grid, np.broadcast_to(A.T @ A, grid.counts + (2, 2)))
        for M in chart_factors(table, grid.nodes)[2:]:
            M = component_major(M, 2)
            assert factor_form(M) is M


class TestStiefelProjection:
    def test_fixed_point(self):
        rng = np.random.default_rng(4)
        O, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        assert np.allclose(project_stiefel(O), O, atol=1e-13)

    def test_scaling(self):
        Q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(project_stiefel(2 * Q), Q, atol=1e-14)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            project_stiefel(np.outer([1.0, 2.0, 3.0], [1.0, 1.0]))
        with pytest.raises(RankDeficient):
            project_stiefel(np.zeros((3, 2)))
