"""Stretching/bending energies, the director-field relaxation, and identities."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import helpers
from helpers import library_jacobian, random_rotation
from imlab import energy as energy_module
from imlab import geometry as geometry_module
from imlab import immersion as immersion_module
from imlab.energy import (Integrands, parameter_factors, relaxed_total, sasaki_bound_margin,
                          sasaki_norm_sq, total_energy)
from imlab.errors import BadExponent, GridMismatch, NotSPD, SingularMetric
from imlab.fields import (DirectorField, DiscreteImmersion, Grid, ShapeField,
                          integrate_density, jacobian_array, lp_norm, w1p_distance)
from imlab.geometry import (MetricChart, chart, chart_factors, christoffel,
                            christoffel_from_values, component_major, dist_rotations,
                            dist_stiefel, node_major, spd_factors)
from imlab.harness import (_sym_field, random_curve_immersion, random_director,
                           random_smooth_field, random_surface_immersion)
from imlab.immersion import covariant_normal_derivative, normal_director, unit_normal
from imlab.optimize import OptimizeConfig, energy_gradient, minimize
from imlab.presets import get_preset
from imlab.reconstruct import gauss_codazzi_residual, integrate_frame

E2 = chart("euclidean", 2)
E3 = chart("euclidean", 3)


def _grid(n=17):
    return Grid((n, n), (1.0, 1.0))


def _plane(grid, lam=1.0):
    x = grid.nodes()
    vals = np.concatenate([lam * x, np.zeros(grid.counts + (1,))], axis=-1)
    return DiscreteImmersion(grid, vals, E3)


def _zero_shape(grid):
    return ShapeField(grid, np.zeros(grid.counts + (2, 2)))


def _id_shape(grid):
    return ShapeField(grid, np.broadcast_to(np.eye(2), grid.counts + (2, 2)).copy())


class TestStretchingEnergy:
    def test_isometric_is_tiny(self):
        for name in ("cylinder", "sphere-cap"):
            pre = get_preset(name)
            grid = pre.grid((33, 33))
            f = pre.reference_immersion(grid)
            rep = total_energy(f, pre.g, None, 2.0)
            assert rep.stretch < 1e-7
            assert np.all(rep.stretch_density >= 0)

    def test_scaled_plane_closed_form(self):
        grid = _grid()
        for lam in (0.7, 1.3):
            for p in (2.0, 3.0):
                val = total_energy(_plane(grid, lam), E2, None, p).stretch
                expect = (np.sqrt(2.0) * abs(lam - 1.0)) ** p
                assert val == pytest.approx(expect, rel=1e-12)

    def test_tilted_graph_analytic(self):
        grid = _grid(33)
        eps = 0.25
        x = grid.nodes()
        vals = np.stack([x[..., 0], x[..., 1], eps * x[..., 0]], axis=-1)
        f = DiscreteImmersion(grid, vals, E3)
        val = total_energy(f, E2, None, 2.0).stretch
        expect = (np.sqrt(1 + eps ** 2) - 1.0) ** 2
        assert val == pytest.approx(expect, abs=1e-8)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            total_energy(_plane(_grid(5)), E2, None, 0.7)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["lp_norm", "w1p_distance", "total_energy",
                                       "relaxed_total", "energy_gradient"])
    def test_non_finite_exponent_is_rejected(self, entry, p):
        pre = get_preset("cylinder")
        grid = pre.grid((9, 9))
        f = pre.reference_immersion(grid)
        S = pre.shape_field(grid)
        call = {"lp_norm": lambda: lp_norm(np.ones(grid.counts), p, None, grid),
                "w1p_distance": lambda: w1p_distance(f, f, p),
                "total_energy": lambda: total_energy(f, pre.g, S, p),
                "relaxed_total": lambda: relaxed_total(normal_director(f), pre.g, S, p),
                "energy_gradient": lambda: energy_gradient(f, pre.g, S, p)}[entry]
        with pytest.raises(BadExponent):
            call()

    def test_one_frame_pass_per_energy(self, monkeypatch):
        """total_energy forms the cross product and the Stiefel factors of
        its frame once: the rank gate reads them, with no second pass."""
        calls = []
        for name in ("cross_columns_cm", "stiefel_factors_cm"):
            real = getattr(geometry_module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for mod in (energy_module, immersion_module):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted)
        pre = get_preset("sphere-cap")
        grid = pre.grid((9, 9))
        total_energy(pre.reference_immersion(grid), pre.g, pre.shape_field(grid), 2.0)
        assert sorted(calls) == ["cross_columns_cm", "stiefel_factors_cm"]


class TestBendingEnergy:
    def test_matching_shape_operator_is_tiny(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((33, 33))
        f = pre.reference_immersion(grid)
        val = total_energy(f, pre.g, _id_shape(grid), 2.0).bend
        assert val < 1e-6

    def test_flat_plane_identity_target(self):
        grid = _grid()
        rep = total_energy(_plane(grid), E2, _id_shape(grid), 2.0)
        val, dens = rep.bend, rep.bend_density
        assert val == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(dens, 2.0, atol=1e-12)

    def test_cylinder_zero_target(self):
        pre = get_preset("cylinder")
        grid = pre.grid((33, 33))
        f = pre.reference_immersion(grid)
        val = total_energy(f, pre.g, _zero_shape(grid), 2.0).bend
        assert val == pytest.approx(1.0, abs=2e-3)


class TestTotalEnergy:
    def test_zero_energy_states(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((33, 33))
        rep = total_energy(pre.reference_immersion(grid), pre.g, _id_shape(grid), 2.0)
        assert rep.total < 1e-6
        flat = get_preset("flat")
        fgrid = flat.grid((17, 17))
        rep = total_energy(flat.reference_immersion(fgrid), flat.g,
                           _zero_shape(fgrid), 2.0)
        assert rep.total == 0.0

    def test_additivity_exact(self):
        rng = np.random.default_rng(21)
        grid = _grid(9)
        f = random_surface_immersion(grid, rng, amplitude=0.1)
        S = ShapeField(grid, 0.5 * _sym_field(grid, rng))
        rep = total_energy(f, E2, S, 2.0)
        assert rep.total == rep.stretch + rep.bend
        # the stretching term does not depend on S
        assert total_energy(f, E2, None, 2.0).stretch == rep.stretch


class TestShapeFieldGrid:
    """A shape field on another grid than the state's is rejected where the
    integrands are built, alone or in a batch, as gauss_codazzi_residual
    rejects it."""

    ENTRIES = {
        "total_energy": lambda f, xi, g, S: total_energy(f, g, S, 2.0),
        "relaxed_total": lambda f, xi, g, S: relaxed_total(xi, g, S, 2.0),
        "energy_gradient": lambda f, xi, g, S: energy_gradient(f, g, S, 2.0),
        "minimize": lambda f, xi, g, S: minimize(xi, g, S, 2.0, OptimizeConfig(max_iters=1)),
        "sasaki_bound_margin": lambda f, xi, g, S: sasaki_bound_margin(
            [xi, xi], g, [_id_shape(f.grid), S]),
        "Integrands": lambda f, xi, g, S: Integrands(f.grid, g, f.target, [S]),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("counts", [(9, 9), (9, 11)])
    def test_other_grid_raises(self, entry, counts):
        # the same node counts on the unit square used to pass silently,
        # reading S at the sphere cap's nodes
        pre = get_preset("sphere-cap")
        f = pre.reference_immersion(pre.grid((9, 9)))
        call = self.ENTRIES[entry]
        call(f, normal_director(f), pre.g, _id_shape(f.grid))
        with pytest.raises(GridMismatch):
            call(f, normal_director(f), pre.g, _id_shape(Grid(counts, (1.0, 1.0))))


class TestConnector:
    def test_euclidean_reduces_to_derivative(self):
        rng = np.random.default_rng(3)
        grid = _grid(9)
        xi = random_director(grid, E3, rng)
        K = covariant_normal_derivative(DiscreteImmersion(grid, xi.foot, E3), xi.vec)
        assert np.array_equal(K, library_jacobian(xi.vec, grid))

    def test_parallel_transport_along_meridian(self):
        residuals = []
        for n in (65, 129):
            grid = Grid((n,), (1.0,))
            t = grid.nodes()[..., 0]
            th = 0.7 + 0.6 * t
            foot = np.stack([th, np.full(n, 0.7)], axis=-1)
            vec = np.stack([np.full(n, 0.4), 1.3 / np.sin(th)], axis=-1)
            K = covariant_normal_derivative(DiscreteImmersion(grid, foot, chart("sphere")), vec)
            residuals.append(np.max(np.abs(K)))
        assert residuals[0] < 1e-3          # FD-level residual
        assert residuals[1] < residuals[0] / 3.0  # second-order decay

    def test_parallel_transport_latitude_ode_oracle(self):
        # transport around a non-geodesic circle, oracle integrated independently
        th0, om = 0.9, 2.0
        cot = np.cos(th0) / np.sin(th0)

        def rhs(t, v):
            return [np.sin(th0) * np.cos(th0) * om * v[1], -cot * om * v[0]]

        n = 129
        grid = Grid((n,), (1.0,))
        t = grid.nodes()[..., 0]
        sol = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.5], t_eval=t, rtol=1e-12,
                        atol=1e-12, dense_output=False)
        foot = np.stack([np.full(n, th0), om * t], axis=-1)
        K = covariant_normal_derivative(DiscreteImmersion(grid, foot, chart("sphere")), sol.y.T)
        assert np.max(np.abs(K)) < 2e-3

    def test_polar_constant_vector_gamma_term(self):
        n = 33
        grid = Grid((n,), (1.0,))
        t = grid.nodes()[..., 0]
        foot = np.stack([1.5 + 0.3 * t, 0.8 * t], axis=-1)
        vec = np.broadcast_to(np.array([0.7, -0.2]), (n, 2)).copy()
        K = covariant_normal_derivative(DiscreteImmersion(grid, foot, chart("polar")), vec)
        Gam = christoffel(chart("polar"), foot)
        Jx = library_jacobian(foot, grid)
        expect = np.einsum("...abc,...bi,...c->...ai", Gam, Jx, vec)
        assert np.max(np.abs(K - expect)) < 1e-13


class TestRelaxedEnergies:
    def test_normal_director_is_zero_energy(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((33, 33))
        xi = normal_director(pre.reference_immersion(grid))
        val = relaxed_total(xi, pre.g, None, 2.0).stretch
        assert val < 1e-7

    def test_flat_plane_long_director(self):
        grid = _grid()
        f = _plane(grid)
        vec = np.broadcast_to(np.array([0.0, 0.0, 2.0]), grid.counts + (3,)).copy()
        xi = DirectorField(grid, f.values, vec, E3)
        rep = relaxed_total(xi, E2, None, 2.0)
        val, dens = rep.stretch, rep.stretch_density
        assert np.allclose(dens, 1.0, atol=1e-12)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_orientation_reversing_director(self):
        grid = _grid()
        f = _plane(grid)
        vec = np.broadcast_to(np.array([0.0, 0.0, -1.0]), grid.counts + (3,)).copy()
        xi = DirectorField(grid, f.values, vec, E3)
        dens = relaxed_total(xi, E2, None, 2.0).stretch_density
        assert np.allclose(dens, 4.0, atol=1e-12)  # dist = 2 per node

    def test_relaxed_bending_zero_cases(self):
        pre = get_preset("sphere-cap")
        grid = pre.grid((33, 33))
        xi = normal_director(pre.reference_immersion(grid))
        val = relaxed_total(xi, pre.g, _id_shape(grid), 2.0).bend
        assert val < 1e-6
        cgrid = _grid(9)
        const = DirectorField(cgrid, np.broadcast_to(
            np.array([0.2, 0.3, 0.4]), cgrid.counts + (3,)).copy(),
            np.broadcast_to(np.array([1.0, 0.0, 0.0]), cgrid.counts + (3,)).copy(), E3)
        val = relaxed_total(const, E2, _zero_shape(cgrid), 2.0).bend
        assert val == 0.0

    def test_relaxed_bending_matches_immersion_bending(self):
        rng = np.random.default_rng(8)
        grid = _grid(17)
        f = random_surface_immersion(grid, rng, amplitude=0.07)
        S = ShapeField(grid, 0.6 * _sym_field(grid, rng))
        for p in (2.0, 3.0):
            vb = total_energy(f, E2, S, p).bend
            vr = relaxed_total(normal_director(f), E2, S, p).bend
            assert abs(vb - vr) <= 1e-10 * (1.0 + vb)


class TestRelaxationIdentity:
    def test_total_matches_on_random_immersions(self):
        rng = np.random.default_rng(17)
        grid = _grid(17)
        for _ in range(5):
            f = random_surface_immersion(grid, rng, amplitude=0.08)
            S = ShapeField(grid, 0.5 * _sym_field(grid, rng))
            xi = normal_director(f)
            for p in (2.0, 3.0):
                rep = total_energy(f, E2, S, p)
                rel = relaxed_total(xi, E2, S, p)
                assert abs(rep.total - rel.total) <= 1e-10 * (1.0 + rep.total)

    def test_distance_identity_nodewise(self):
        rng = np.random.default_rng(23)
        grid = _grid(17)
        f = random_surface_immersion(grid, rng, amplitude=0.1)
        xi = normal_director(f)
        B = node_major(Integrands(grid, E2, f.target).director(
            component_major(xi.foot, 1), component_major(xi.vec, 1)).B, 2)
        _, _, Hs, _ = chart_factors(f.target, f.values)
        _, gsi = parameter_factors(E2, grid)
        Q = Hs @ library_jacobian(f.values, grid) @ gsi
        assert np.max(np.abs(dist_rotations(B) - dist_stiefel(Q))) < 1e-10

    def test_zero_relaxed_stretching_forces_unit_normal_director(self):
        # exactly zero on flat analytic data
        flat = get_preset("flat")
        fgrid = flat.grid((17, 17))
        xi0 = normal_director(flat.reference_immersion(fgrid))
        val0 = relaxed_total(xi0, flat.g, None, 2.0).stretch
        assert val0 <= 1e-12
        assert np.max(np.abs(np.linalg.norm(xi0.vec, axis=-1) - 1.0)) < 1e-12
        pre = get_preset("cylinder")
        grid = pre.grid((33, 33))
        xi = normal_director(pre.reference_immersion(grid))
        val = relaxed_total(xi, pre.g, None, 2.0).stretch
        assert val < 1e-7
        H = xi.target.eval(xi.foot)
        vn = np.einsum("...ab,...a,...b->...", H, xi.vec, xi.vec)
        assert np.max(np.abs(vn - 1.0)) < 1e-6
        J = library_jacobian(xi.foot, grid)
        tang = np.einsum("...ab,...ai,...b->...i", H, J, xi.vec)
        assert np.max(np.abs(tang)) < 1e-6


class TestSasaki:
    def test_constant_director_zero(self):
        grid = _grid(9)
        foot = np.broadcast_to(np.array([0.1, 0.2, 0.3]), grid.counts + (3,)).copy()
        vec = np.broadcast_to(np.array([1.0, 2.0, 3.0]), grid.counts + (3,)).copy()
        xi = DirectorField(grid, foot, vec, E3)
        # squared roundoff from the boundary stencils of a constant field
        assert np.max(np.abs(sasaki_norm_sq(xi, E2))) < 1e-28

    def test_identity_plane_foot(self):
        grid = _grid(9)
        f = _plane(grid)
        vec = np.broadcast_to(np.array([0.3, 0.1, 2.0]), grid.counts + (3,)).copy()
        xi = DirectorField(grid, f.values, vec, E3)
        assert np.allclose(sasaki_norm_sq(xi, E2), 2.0, atol=1e-12)

    def test_against_direct_double_tangent_assembly(self):
        rng = np.random.default_rng(31)
        grid = Grid((65,), (1.0,))
        e1 = chart("euclidean", 1)
        for name in ("sphere", "polar", "hyperbolic"):
            tchart = chart(name)
            xi = random_director(grid, tchart, rng)
            got = sasaki_norm_sq(xi, e1)
            # direct per-node assembly through the double-tangent coordinates
            Jx = library_jacobian(xi.foot, grid)
            Jv = library_jacobian(xi.vec, grid)
            Gam = christoffel(tchart, xi.foot)
            H = tchart.eval(xi.foot)
            expect = np.zeros(grid.counts)
            for k in range(grid.counts[0]):
                horiz = Jx[k][:, 0]
                vert = Jv[k][:, 0] + np.einsum("abc,b,c->a", Gam[k], horiz, xi.vec[k])
                expect[k] = horiz @ H[k] @ horiz + vert @ H[k] @ vert
            assert np.max(np.abs(got - expect)) <= 1e-12 * (1.0 + np.max(expect))


class TestBoundMargin:
    def test_below_threshold_not_applicable(self):
        grid = _grid(9)
        xi = normal_director(_plane(grid))
        m = sasaki_bound_margin([xi], E2, [_zero_shape(grid)])
        assert m.shape == (1,) + grid.counts and np.all(np.isnan(m))

    def test_scaled_plane_applicable_and_nonnegative(self):
        grid = _grid(9)
        lam = 6.0
        f = _plane(grid, lam)
        vec = np.broadcast_to(np.array([0.0, 0.0, 1.0]), grid.counts + (3,)).copy()
        xi = DirectorField(grid, f.values, vec, E3)
        m = sasaki_bound_margin([xi], E2, [_zero_shape(grid)])[0]
        assert np.all(np.isfinite(m))
        expect = 3.0 * np.sqrt(2.0) * (lam - 1.0) - np.sqrt(2.0) * lam
        assert np.allclose(m, expect, atol=1e-10)

    def test_randomized_sweep_nonnegative(self):
        rng = np.random.default_rng(40)
        grid = _grid(13)
        count = 0
        for _ in range(40):
            amp = 10.0 ** rng.uniform(0.8, 2.0)
            xi = random_director(grid, E3, rng, vec_scale=amp)
            S = ShapeField(grid, rng.uniform(0, 2) * _sym_field(grid, rng))
            m = sasaki_bound_margin([xi], E2, [S])
            mask = np.isfinite(m)
            count += int(mask.sum())
            if mask.any():
                assert np.min(m[mask]) >= 0.0
        assert count > 1000


    @pytest.mark.parametrize("dim, target", [(2, "euclidean"), (1, "sphere")])
    def test_shares_jacobians_and_keeps_bits(self, monkeypatch, dim, target):
        """Two jacobian_array calls per batch (foot and vec, shared by the
        Sasaki norm and the integrands), and the margins of evaluating each
        field's two separately: bit for bit for a batch of one and for the
        curves, within 1e-14 for a batch of five 3x3 frames, whose Newton
        polar iteration runs until every row of the batch has converged."""
        rng = np.random.default_rng(41)
        grid = Grid((13,) * dim, (1.0,) * dim)
        g = chart("euclidean", dim)
        tchart = chart(target, 3 if target == "euclidean" else None)
        xis = [random_director(grid, tchart, rng, vec_scale=30.0) for _ in range(5)]
        Ss = [ShapeField(grid, rng.normal(size=grid.counts + (dim, dim))) for _ in range(5)]
        expect = np.stack([helpers.sasaki_bound_margin(xi, g, S) for xi, S in zip(xis, Ss)])

        calls = []
        real = energy_module.jacobian_array
        monkeypatch.setattr(energy_module, "jacobian_array",
                            lambda *a: calls.append(1) or real(*a))
        for k in (1, 5):
            m = sasaki_bound_margin(xis[:k], g, Ss[:k])
            assert len(calls) == 2
            assert np.isfinite(m).any()
            if k == 1 or dim == 1:
                assert m.tobytes() == expect[:k].tobytes()
            else:
                assert np.allclose(m, expect, rtol=1e-14, atol=0.0, equal_nan=True)
            calls.clear()

    @pytest.mark.parametrize("setup", range(4),
                             ids=[s[0] for s in helpers.margin_sweep_setups()])
    def test_batch_matches_one_call_per_field(self, setup):
        """A batch of the check suite's draws against the per-field reference:
        bit for bit on the curves, whose 2x2 frames have the closed-form
        rotation; within 1e-14 on the surfaces, where the Newton polar
        iteration runs until every row of the batch has converged.  The
        applicability masks are equal, and a batch of one is the reference."""
        name, tchart, pgrid, gparam = helpers.margin_sweep_setups()[setup]
        rng = np.random.default_rng(42)
        xis, Ss = [], []
        for _ in range(6):
            xis.append(random_director(pgrid, tchart, rng,
                                       vec_scale=10.0 ** rng.uniform(0.7, 2.0)))
            Ss.append(ShapeField(pgrid, rng.uniform(0.0, 2.0) * _sym_field(pgrid, rng)))
        got = sasaki_bound_margin(xis, gparam, Ss)
        want = np.stack([helpers.sasaki_bound_margin(xi, gparam, S)
                         for xi, S in zip(xis, Ss)])
        mask = np.isfinite(want)
        assert got.shape == (6,) + pgrid.counts and mask.sum() > 100
        assert np.array_equal(np.isfinite(got), mask)
        if pgrid.dim == 1:
            assert np.array_equal(got, want, equal_nan=True)
        else:
            assert np.all(np.abs(got[mask] - want[mask]) <= 1e-14 * np.abs(want[mask]))
        one = sasaki_bound_margin(xis[:1], gparam, Ss[:1])
        assert one.tobytes() == want[:1].tobytes()

    def test_factors_g_once(self, monkeypatch):
        """The g^{+-1/2} that conjugate S come from the Integrands the call
        builds: one chart_factors call on g per batch."""
        rng = np.random.default_rng(43)
        grid = Grid((9, 9), (1.0, 1.0), (1.0, 0.0))
        g = chart("polar")
        xis = [random_director(grid, E3, rng, vec_scale=30.0) for _ in range(3)]
        Ss = [ShapeField(grid, _sym_field(grid, rng)) for _ in range(3)]
        want = np.stack([helpers.sasaki_bound_margin(xi, g, S) for xi, S in zip(xis, Ss)])
        calls = []
        real = energy_module.chart_factors
        monkeypatch.setattr(energy_module, "chart_factors",
                            lambda m, *a: calls.append(m) or real(m, *a))
        got = sasaki_bound_margin(xis, g, Ss)
        assert sum(m is g for m in calls) == 1
        assert np.array_equal(np.isfinite(got), np.isfinite(want))

    def test_batch_needs_one_grid_target_and_shape_per_field(self):
        grid = _grid(9)
        xi = normal_director(_plane(grid))
        other = normal_director(_plane(_grid(11)))
        with pytest.raises(ValueError):
            sasaki_bound_margin([xi, other], E2, [_zero_shape(grid)] * 2)
        with pytest.raises(ValueError):
            sasaki_bound_margin([xi, xi], E2, [_zero_shape(grid)])
        moved = DirectorField(grid, xi.foot, xi.vec, chart("euclidean", 3))
        with pytest.raises(ValueError):
            sasaki_bound_margin([xi, moved], E2, [_zero_shape(grid)] * 2)

    def test_empty_batch_raises_its_own_value_error(self):
        # it used to fail as an IndexError on xis[0]
        with pytest.raises(ValueError, match="margin batch needs one or more fields"):
            sasaki_bound_margin([], E2, [])


def test_one_spd_gate_one_exception_class():
    """A metric that is indefinite at one node raises SingularMetric itself,
    naming that node, from every entry point that factors it: the energies,
    the volume form, the Christoffel symbols, the Gauss-Codazzi residual and,
    on a curve, the residual and the frame march behind it.  total_energy and
    relaxed_total used to raise NotSPD instead; on a curve the residual used
    to pass and the march to raise NonSPDAnchor."""
    grid = _grid(9)

    def matrix(x):     # identity but at the node (4, 4) = (0.5, 0.5)
        g = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        g[np.all(x == 0.5, axis=-1)] = [[1.0, 2.0], [2.0, 1.0]]
        return g

    g = MetricChart(dim=2, domain=[[0.0, 1.0]] * 2, matrix=matrix)
    f = _plane(grid)
    calls = [lambda: total_energy(f, g, None, 2.0),
             lambda: relaxed_total(normal_director(f), g, None, 2.0),
             lambda: lp_norm(np.ones(grid.counts), 2.0, g, grid),
             lambda: christoffel(g, grid.nodes()),
             lambda: gauss_codazzi_residual(g, _zero_shape(grid), grid)]
    for call in calls:
        with pytest.raises(SingularMetric, match=r"at index \(4, 4\)") as info:
            call()
        assert type(info.value) is SingularMetric and isinstance(info.value, NotSPD)

    curve = Grid((9,), (1.0,))     # node 4 at x = 0.5
    g1 = MetricChart(dim=1, domain=[[0.0, 1.0]],
                     matrix=lambda x: np.where(x == 0.5, -1.0, 1.0)[..., None])
    gv = np.ones((9, 1, 1))
    gv[4] = -2.0
    S1 = ShapeField(curve, np.zeros((9, 1, 1)))
    for call in (lambda: gauss_codazzi_residual(g1, S1, curve),
                 lambda: gauss_codazzi_residual(gv, S1, curve),
                 lambda: integrate_frame(g1, S1, curve)):
        with pytest.raises(SingularMetric, match=r"at index \(4,\)") as info:
            call()
        assert type(info.value) is SingularMetric


def test_integrand_inverse_metric_is_the_christoffel_one():
    """Integrands forms g^{-1} as christoffel_from_values does, bit for bit,
    on a tabulated non-diagonal metric whose interpolated values vary in the
    last bits from node to node."""
    grid = _grid(33)
    A = np.eye(2) + 0.2 * np.random.default_rng(3).normal(size=(2, 2))
    g = MetricChart.from_table(grid, np.broadcast_to(A.T @ A, grid.counts + (2, 2)))
    G = component_major(g.eval(grid.nodes()), 2)
    Gsi = component_major(spd_factors(node_major(G, 2))[2], 2)
    _, Ginv = christoffel_from_values(Gsi, jacobian_array(G, grid))
    ginv = Integrands(grid, g, E3).ginv
    assert ginv.shape == Ginv.shape and ginv.tobytes() == Ginv.tobytes()


class TestInvariances:
    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(12)
        grid = _grid(9)
        f = random_surface_immersion(grid, rng, amplitude=0.1)
        S = ShapeField(grid, 0.5 * _sym_field(grid, rng))
        R = random_rotation(rng, 3)
        b = rng.normal(size=3)
        moved = DiscreteImmersion(grid, f.values @ R.T + b, E3)
        rep0 = total_energy(f, E2, S, 2.0)
        rep1 = total_energy(moved, E2, S, 2.0)
        assert abs(rep0.stretch - rep1.stretch) <= 1e-12 * (1.0 + rep0.stretch)
        assert abs(rep0.bend - rep1.bend) <= 1e-12 * (1.0 + rep0.bend)

    def test_axis_relabel_invariance(self):
        rng = np.random.default_rng(14)
        grid = Grid((9, 13), (1.0, 1.4))
        f = random_surface_immersion(grid, rng, amplitude=0.1)
        Sv = 0.5 * _sym_field(grid, rng)
        rep0 = total_energy(f, E2, ShapeField(grid, Sv), 2.0)
        # swap the two parameter axes and relabel the tensor indices of S
        grid_t = Grid(grid.counts[::-1], grid.extents[::-1])
        f_t = DiscreteImmersion(grid_t, np.transpose(f.values, (1, 0, 2)), E3)
        # an axis swap reverses the parameter orientation, so the oriented
        # normal flips; the consistently relabeled shape operator is -P S P
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        Sv_t = -P @ np.transpose(Sv, (1, 0, 2, 3)) @ P
        rep1 = total_energy(f_t, E2, ShapeField(grid_t, Sv_t), 2.0)
        assert abs(rep0.stretch - rep1.stretch) <= 1e-13 * (1.0 + rep0.stretch)
        assert abs(rep0.bend - rep1.bend) <= 1e-13 * (1.0 + rep0.bend)


# ---------------------------------------------------------------------------
# reference formulas: each term assembled on its own, with per-call factors,
# the normal of unit_normal and the Christoffel term written out


def _reference_hom_sq(A, g, grid, target, points):
    ginv, _ = parameter_factors(g, grid)
    H = target.constant if target.is_constant else target.eval(points)
    return np.maximum(np.sum((H @ A) * (A @ ginv), axis=(-2, -1)), 0.0)


def _reference_connector(target, points, Dv, J, v):
    Gam = christoffel(target, points)
    return Dv + np.einsum("...abc,...bi,...c->...ai", Gam, J, v)


def _reference_total(f, g, S, p):
    J = library_jacobian(f.values, f.grid)
    _, _, Hs, _ = chart_factors(f.target, f.values)
    _, gsi = parameter_factors(g, f.grid)
    stretch = integrate_density(dist_stiefel(Hs @ J @ gsi) ** p, f.grid, g)
    n = unit_normal(f)
    A = _reference_connector(f.target, f.values, library_jacobian(n, f.grid), J, n) \
        + J @ S.values
    bend = integrate_density(_reference_hom_sq(A, g, f.grid, f.target, f.values)
                             ** (p / 2.0), f.grid, g)
    return stretch, bend


def _reference_relaxed(xi, g, S, p):
    Jx = library_jacobian(xi.foot, xi.grid)
    _, _, Hs, _ = chart_factors(xi.target, xi.foot)
    _, gsi = parameter_factors(g, xi.grid)
    B = Hs @ np.concatenate([Jx @ gsi, xi.vec[..., None]], axis=-1)
    stretch = integrate_density(dist_rotations(B) ** p, xi.grid, g)
    C = Jx @ S.values + _reference_connector(
        xi.target, xi.foot, library_jacobian(xi.vec, xi.grid), Jx, xi.vec)
    bend = integrate_density(_reference_hom_sq(C, g, xi.grid, xi.target, xi.foot)
                             ** (p / 2.0), xi.grid, g)
    return stretch, bend


def _stereographic():
    """The conformal chart h = lam I, lam = 4 / (1 + |y|^2)^2, of the round
    3-sphere, with its partials d_k lam = -4 y_k lam / (1 + |y|^2)."""
    def lam(y):
        return 4.0 / (1.0 + np.sum(y * y, axis=-1)) ** 2

    def deriv(y):     # [..., k, i, j] = d_k lam delta_ij
        dlam = -4.0 * y * (lam(y) / (1.0 + np.sum(y * y, axis=-1)))[..., None]
        return dlam[..., None, None] * np.eye(3)

    return MetricChart(dim=3, domain=[[-np.inf, np.inf]] * 3, name="stereographic",
                       matrix=lambda y: lam(y)[..., None, None] * np.eye(3),
                       matrix_deriv=deriv)


class TestCurvedTargets:
    """Library energies on curved target charts and a curved parameter
    metric against the reference formulas above."""

    @pytest.mark.parametrize("case", ["sphere-curve", "stereographic-surface"])
    def test_one_chart_pass_per_forward(self, case, monkeypatch):
        """Each immersion and director forward on a curved target evaluates
        the target chart once and factors it once (one eigh on a 3-D chart),
        and reads the connector's Gamma from that pass: each used to make a
        second evaluation and factorization for Gamma."""
        rng = np.random.default_rng(8)
        if case == "sphere-curve":
            grid, g, target = Grid((33,), (1.0,)), chart("euclidean", 1), chart("sphere")
            x = component_major(random_curve_immersion(grid, target, rng).values, 1)
        else:
            grid, g, target = _grid(9), E2, _stereographic()
            x = component_major(_plane(grid).values, 1)
        vec = component_major(random_smooth_field(grid, grid.dim + 1, rng), 1)
        core = Integrands(grid, g, target)
        calls = []
        for owner, name in ((MetricChart, "eval"), (geometry_module, "spd_factors"),
                            (np.linalg, "eigh")):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                if _name != "eval" or args[0] is target:
                    calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        want = sorted(["eval", "spd_factors"] + ["eigh"] * (target.dim == 3))
        for forward in (lambda: core.immersion(x), lambda: core.director(x, vec)):
            calls.clear()
            nodes = forward()
            assert sorted(calls) == want and np.all(np.isfinite(nodes.q2))

    def _cases(self):
        rng = np.random.default_rng(41)
        curve_grid = Grid((33,), (1.0,))
        E1 = chart("euclidean", 1)

        def curve_shape():
            return ShapeField(curve_grid, 0.4 * random_smooth_field(curve_grid, 1, rng)[..., None])

        for name in ("sphere", "hyperbolic"):
            for _ in range(3):
                yield random_curve_immersion(curve_grid, chart(name), rng), E1, curve_shape()
        for name in ("polar", "sphere"):
            for _ in range(3):
                yield random_director(curve_grid, chart(name), rng), E1, curve_shape()
        # a curved parameter metric: surfaces over the polar chart
        grid = Grid((17, 17), (1.0, 1.0), (1.0, 0.0))
        for _ in range(2):
            S = ShapeField(grid, 0.5 * _sym_field(grid, rng))
            f = random_surface_immersion(grid, rng, amplitude=0.08)
            yield f, chart("polar"), S
            yield random_director(grid, E3, rng), chart("polar"), S

    def test_energies_match_reference_formulas(self):
        worst = 0.0
        for state, g, S in self._cases():
            for p in (2.0, 3.0):
                if isinstance(state, DiscreteImmersion):
                    rep, ref = total_energy(state, g, S, p), _reference_total(state, g, S, p)
                else:
                    rep, ref = relaxed_total(state, g, S, p), _reference_relaxed(state, g, S, p)
                for got, expect in zip((rep.stretch, rep.bend), ref):
                    assert expect > 0.0
                    worst = max(worst, abs(got - expect) / expect)
        assert worst <= 1e-13

    def test_relaxation_identity_on_curved_targets(self):
        for state, g, S in self._cases():
            if isinstance(state, DiscreteImmersion):
                rep = total_energy(state, g, S, 2.0)
                rel = relaxed_total(normal_director(state), g, S, 2.0)
                assert abs(rep.total - rel.total) <= 1e-10 * (1.0 + rep.total)
