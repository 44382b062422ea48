"""Grids, stencils, quadrature, Sobolev distances, serialization."""

import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers as ref
from helpers import convergence_orders
from imlab import fields
from imlab.errors import BadExponent, GridMismatch
from imlab.fields import (DENSE_MAX_NODES, DirectorField, DiscreteImmersion, Grid,
                          ShapeField, atomic_write, axis_derivative,
                          axis_derivative_adjoint, axis_second_derivative,
                          difference_matrix, fd_jacobian,
                          fmt17, integrate_density, jacobian_adjoint, jacobian_array,
                          load_binary, load_node_csv, lp_norm, quadrature_weights,
                          save_binary, save_node_csv, w1p_distance, write_csv)
from imlab.geometry import MetricChart, chart, component_major, node_major
from imlab.harness import random_surface_immersion, write_json, write_svg_loglog
from imlab.optimize import OptimizeTrace
from imlab.presets import get_preset
from imlab.reconstruct import save_obj


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid((5, 9), (2.0, 1.0), (1.0, -0.5))
        assert g.spacing == (0.5, 0.125)
        nodes = g.nodes()
        assert nodes.shape == (5, 9, 2)
        assert nodes[0, 0, 0] == 1.0 and nodes[-1, -1, 1] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((3, 5), (1.0, 1.0))
        with pytest.raises(ValueError):
            Grid((5, 5), (0.0, 1.0))
        with pytest.raises(ValueError):
            Grid((5, 5, 5), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("counts", [(4.7, 5.9), (9.0, 9), (9, 9.5), 17.5, ("9", 9)])
    def test_counts_must_be_integers(self, counts):
        # (4.7, 5.9) used to be read as a 4 x 5 grid, and a preset's grid
        # truncated its counts the same way
        with pytest.raises(ValueError, match="as integers"):
            Grid(counts, (1.0, 1.0)[:len(np.atleast_1d(counts))])
        with pytest.raises(ValueError, match="as integers"):
            get_preset("sphere-cap").grid(counts)

    def test_integer_counts_of_any_integer_type(self):
        grid = Grid(np.array([9, 17]), (1.0, 1.0))
        assert grid.counts == (9, 17) and all(type(c) is int for c in grid.counts)
        assert get_preset("cylinder").grid(np.int64(9)).counts == (9, 9)

    @pytest.mark.parametrize("extents, origin", [
        ((np.nan, 1.0), None), ((1.0, np.inf), None), ((-np.inf, 1.0), None),
        ((1.0, 1.0), (np.nan, 0.0)), ((1.0, 1.0), (0.0, -np.inf)),
    ])
    def test_rejects_non_finite(self, extents, origin):
        with pytest.raises(ValueError, match="finite"):
            Grid((9, 9), extents, origin)


# points of the unit cube; the field helper's points lie in it
_CUBE = MetricChart(dim=3, domain=[[0.0, 1.0]] * 3, constant=np.eye(3))


def _field(kind, value=0.5, target=None, cut=False):
    """A field of the given kind on a 5x5 grid of the unit square, its point
    arrays in the unit cube, with one node entry of the ``kind`` array set to
    value and, with ``cut``, that array one node column short; the target
    chart defaults to Euclidean 3-space."""
    grid = Grid((5, 5), (1.0, 1.0))
    target = chart("euclidean", 3) if target is None else target
    x = np.concatenate([grid.nodes(), np.full(grid.counts + (1,), 0.5)], axis=-1)
    arrays = {"immersion": x, "foot": x.copy(), "vec": np.zeros(x.shape),
              "shape": np.zeros(grid.counts + (2, 2))}
    arrays[kind][2, 1, -1] = value
    if cut:
        arrays[kind] = arrays[kind][:, :-1]
    if kind == "immersion":
        return DiscreteImmersion(grid, arrays["immersion"], target)
    if kind in ("foot", "vec"):
        return DirectorField(grid, arrays["foot"], arrays["vec"], target)
    return ShapeField(grid, arrays["shape"])


class TestFieldValues:
    """Every field class checks its node arrays through fields._node_values."""

    @pytest.mark.parametrize("kind", ["immersion", "foot", "vec", "shape"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, kind, bad):
        _field(kind, 0.5)
        with pytest.raises(ValueError, match="finite"):
            _field(kind, bad)

    @pytest.mark.parametrize("kind", ["immersion", "foot", "vec", "shape"])
    def test_names_the_non_finite_node(self, kind):
        with pytest.raises(ValueError, match=r"values must be finite: non-finite value at "
                                             r"node \(2, 1\)$"):
            _field(kind, np.nan)

    def test_names_the_first_non_finite_node_of_any_array(self):
        grid = Grid((9, 9), (1.0, 1.0))
        density = np.ones(grid.counts)
        density[6, 2] = density[3, 7] = np.inf
        with pytest.raises(ValueError, match=r"^density values must be finite: "
                                             r"non-finite value at node \(3, 7\)$"):
            integrate_density(density, grid)
        with pytest.raises(ValueError, match=r"non-finite value at node \(4,\)$"):
            integrate_density(np.where(np.arange(9) >= 4, np.nan, 1.0), Grid((9,), (1.0,)))

    @pytest.mark.parametrize("kind", ["immersion", "foot", "vec", "shape"])
    def test_rejects_wrong_shape(self, kind):
        with pytest.raises(ValueError, match=r"have shape \(5, 4, .*expected \(5, 5, "):
            _field(kind, cut=True)

    @pytest.mark.parametrize("kind", ["immersion", "foot", "vec"])
    def test_points_must_lie_in_the_target_domain(self, kind):
        # the vector of a director is a tangent vector, not a point
        _field(kind, 1.0 + 5e-13, _CUBE)
        if kind == "vec":
            _field(kind, 1.5, _CUBE)
            return
        with pytest.raises(ValueError, match="leave the target chart domain"):
            _field(kind, 1.5, _CUBE)

    @pytest.mark.parametrize("kind", ["immersion", "foot"])
    def test_target_dimension_is_grid_dim_plus_one(self, kind):
        with pytest.raises(ValueError, match=r"target chart dimension must be grid dim \+ 1"):
            _field(kind, target=chart("euclidean", 2))

    def test_returns_the_float_array(self):
        grid = Grid((4,), (1.0,))
        ints = np.arange(8).reshape(4, 2)
        v = fields._node_values(grid, ints, (2,), "curve", chart("euclidean", 2))
        assert v.dtype == float and np.array_equal(v, ints)


@st.composite
def _stencil_cases(draw):
    """(grid, entry shape, rng): 1-D and 2-D grids of 4-65 nodes per axis
    with independent, anisotropic spacings, four-node axes (the three-point
    boundary fallback) among the counts, and node arrays with entry shapes
    (), (3,) and (3, 3)."""
    dim = draw(st.integers(1, 2))
    counts = tuple(draw(st.one_of(st.just(4), st.integers(4, 65))) for _ in range(dim))
    extents = tuple(draw(st.floats(0.05, 20.0)) for _ in range(dim))
    trailing = draw(st.sampled_from([(), (3,), (3, 3)]))
    return Grid(counts, extents), trailing, np.random.default_rng(draw(st.integers(0, 2 ** 32)))


@st.composite
def _long_axis_cases(draw):
    """(grid, entry shape, rng) as :func:`_stencil_cases`, with one axis of
    DENSE_MAX_NODES + 1 to + 64 nodes, which the stencils slice, and on 2-D
    grids the other axis, first or second, of 4-9 nodes."""
    long = draw(st.integers(DENSE_MAX_NODES + 1, DENSE_MAX_NODES + 64))
    counts = draw(st.sampled_from([(long,), (long, draw(st.integers(4, 9))),
                                   (draw(st.integers(4, 9)), long)]))
    extents = tuple(draw(st.floats(0.05, 20.0)) for _ in counts)
    trailing = draw(st.sampled_from([(), (3,)]))
    return Grid(counts, extents), trailing, np.random.default_rng(draw(st.integers(0, 2 ** 32)))


def _assert_adjoint_identity(case):
    """<J u, v> = <u, J^T v> on component-major (*entries, *counts) arrays,
    and per axis on the grid axes, trailing as in that layout and leading as
    in node-major arrays."""
    grid, entries, rng = case
    k = len(entries)
    u = rng.normal(size=entries + grid.counts)
    v = rng.normal(size=entries + (grid.dim,) + grid.counts)
    Ju = jacobian_array(u, grid)
    assert Ju.shape == v.shape
    lhs, rhs = np.sum(Ju * v), np.sum(u * jacobian_adjoint(v, grid))
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(Ju * v))
    col = (slice(None),) * k
    for axis, h in enumerate(grid.spacing):
        w = v[col + (axis,)]
        for a, b, ax in ((u, w, k + axis), (node_major(u, k), node_major(w, k), axis)):
            Da = axis_derivative(a, ax, h)
            lhs, rhs = np.sum(Da * b), np.sum(a * axis_derivative_adjoint(b, ax, h))
            assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(Da * b))


class TestStencils:
    def test_exact_on_affine(self):
        g = Grid((7, 5), (1.2, 0.8))
        x = g.nodes()
        A = np.array([[1.0, 2.0], [-0.5, 3.0], [0.25, -1.0]])
        f = component_major(x @ A.T + np.array([3.0, -1.0, 0.5]), 1)
        J = jacobian_array(f, g)
        assert J.shape == (3, 2) + g.counts
        assert np.max(np.abs(J - A[:, :, None, None])) < 1e-12

    def test_exact_on_quadratic(self):
        g = Grid((9,), (1.0,))
        x = g.nodes()[..., 0]
        f = np.stack([x ** 2, 0 * x, 0 * x])
        J = jacobian_array(f, g)
        assert np.max(np.abs(J[0, 0] - 2 * x)) < 1e-13

    def test_convergence_order_on_sine(self):
        errs = []
        for n in (17, 33, 65):
            g = Grid((n,), (1.0,))
            x = g.nodes()[..., 0]
            J = jacobian_array(np.sin(x)[None], g)
            errs.append(np.max(np.abs(J[0, 0] - np.cos(x))))
        assert np.all(convergence_orders(errs) >= 1.9)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        g = Grid((6, 7), (1.0, 2.0))
        u = rng.normal(size=(3,) + g.counts)
        v = rng.normal(size=(3,) + g.counts)
        for a, b in ((2.0, 0.5), (1.7, -0.3)):
            J = jacobian_array(a * u + b * v, g)
            K = a * jacobian_array(u, g) + b * jacobian_array(v, g)
            assert np.max(np.abs(J - K)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(_stencil_cases())
    def test_adjoint_identity(self, case):
        _assert_adjoint_identity(case)

    @settings(max_examples=30, deadline=None)
    @given(_long_axis_cases())
    def test_sliced_adjoint_identity(self, case):
        """The adjoint identity on grids with an axis above DENSE_MAX_NODES."""
        _assert_adjoint_identity(case)

    @settings(max_examples=30, deadline=None)
    @given(_long_axis_cases())
    def test_sliced_stencils_match_dense_reference(self, case):
        """Along an axis above DENSE_MAX_NODES the stencils and their
        adjoints build no difference matrix, and agree with dense products by the reference
        stencils' matrices to 1e-13 of the larger of the result and the
        input over h^order, on every axis of either layout."""
        grid, entries, rng = case
        k = len(entries)
        u = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=entries + grid.counts)
        refs = ((axis_derivative, ref.axis_derivative, False, 1),
                (axis_derivative_adjoint, ref.axis_derivative, True, 1),
                (axis_second_derivative, ref.axis_second_derivative, False, 2))
        # a difference matrix built on the way would call None and fail
        with mock.patch.object(fields, "difference_matrix", None):
            for axis, h in enumerate(grid.spacing):
                if grid.counts[axis] <= DENSE_MAX_NODES:
                    continue
                for a, ax in ((u, k + axis), (node_major(u, k), axis)):
                    n = a.shape[ax]
                    for fn, stencil, adjoint, order in refs:
                        D = stencil(np.eye(n), 0, h)
                        want = np.moveaxis(np.tensordot(D.T if adjoint else D,
                                                        np.moveaxis(a, ax, 0), 1), 0, ax)
                        got = fn(a, ax, h)
                        scale = max(np.max(np.abs(want)), np.max(np.abs(a)) / h ** order)
                        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        with pytest.raises(ValueError, match="up to"):
            difference_matrix(DENSE_MAX_NODES + 1, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(_stencil_cases())
    def test_matrices_match_slicing_reference(self, case):
        """The difference matrices agree with the slicing stencils they
        replaced to 1e-13, relative to the larger of the result and the
        input over h^order (the scale of the cancelling terms)."""
        grid, trailing, rng = case
        k = len(trailing)
        u = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=grid.counts + trailing)
        bar = rng.normal(size=grid.counts + trailing + (grid.dim,))

        def close(new, old, inp, h, order=1):
            assert new.shape == old.shape
            scale = max(np.max(np.abs(old)), np.max(np.abs(inp)) / h ** order)
            assert np.max(np.abs(new - old)) <= 1e-13 * scale

        h = min(grid.spacing)
        # the component-major stencils against the node-major reference
        J = jacobian_array(component_major(u, k), grid)
        close(node_major(J, k + 1), ref.jacobian_array(u, grid), u, h)
        Jt = jacobian_adjoint(component_major(bar, k + 1), grid)
        close(node_major(Jt, k), ref.jacobian_adjoint(bar, grid), bar, h)
        for axis, h in enumerate(grid.spacing):
            close(axis_derivative(u, axis, h), ref.axis_derivative(u, axis, h), u, h)
            close(axis_derivative_adjoint(u, axis, h),
                  ref.axis_derivative_adjoint(u, axis, h), u, h)
            close(axis_second_derivative(u, axis, h),
                  ref.axis_second_derivative(u, axis, h), u, h, order=2)

    def test_difference_matrices_cached_read_only_and_transposed_adjoint(self):
        D = difference_matrix(9, 0.25)
        assert difference_matrix(9, 0.25) is D and not D.flags.writeable
        assert difference_matrix(9, 0.25, 2) is not D
        with pytest.raises(ValueError):
            D[0, 0] = 1.0
        eye = np.eye(9)
        assert np.array_equal(axis_derivative(eye, 0, 0.25), D)
        assert np.array_equal(axis_derivative_adjoint(eye, 0, 0.25), D.T)
        assert np.array_equal(axis_second_derivative(eye, 0, 0.25),
                              difference_matrix(9, 0.25, 2))

    def test_no_axis_transposes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stencils must not call np.moveaxis")

        monkeypatch.setattr(np, "moveaxis", refuse)
        grid = Grid((5, 7), (1.0, 2.0))
        u = np.ones((3,) + grid.counts)
        jacobian_adjoint(jacobian_array(u, grid), grid)
        axis_second_derivative(u, 1, grid.spacing[1])

    def test_second_derivative_exact_on_cubics(self):
        g = Grid((9,), (2.0,))
        x = g.nodes()[..., 0]
        f = x ** 3 - 2 * x ** 2 + x
        d2 = axis_second_derivative(f, 0, g.spacing[0])
        assert np.max(np.abs(d2 - (6 * x - 4))) < 1e-11

    def test_fd_jacobian_wrapper(self):
        g = Grid((5, 5), (1.0, 1.0))
        f = DiscreteImmersion(g, np.concatenate([g.nodes(), np.zeros((5, 5, 1))],
                                                axis=-1), chart("euclidean", 3))
        J = fd_jacobian(f.values, g)
        assert J.shape == (5, 5, 3, 2)

    @settings(max_examples=60, deadline=None)
    @given(_stencil_cases(), st.integers(1, 3))
    def test_fd_jacobian_is_the_node_major_stencil(self, case, comps):
        """fd_jacobian of a node array (*counts, comps) is the component-major
        Jacobian moved to (*counts, comps, dim), bit for bit and C-contiguous;
        the grid is required."""
        grid, _, rng = case
        v = rng.normal(size=grid.counts + (comps,))
        J = fd_jacobian(v, grid)
        assert J.shape == grid.counts + (comps, grid.dim)
        assert J.flags["C_CONTIGUOUS"]
        assert np.array_equal(J, node_major(jacobian_array(component_major(v, 1), grid), 2))
        with pytest.raises(TypeError):
            fd_jacobian(v)


class TestQuadrature:
    def test_weights_sum_to_volume(self):
        g = Grid((9, 17), (2.0, 3.0))
        assert np.sum(quadrature_weights(g)) == pytest.approx(6.0, abs=1e-13)

    def test_constant_exactness(self):
        g = Grid((9, 9), (1.0, 1.0), (0.6, 0.0))
        sphere = chart("sphere")
        for p in (1.0, 2.0, 3.5):
            vol = integrate_density(np.ones(g.counts), g, sphere)
            got = lp_norm(np.full(g.counts, 2.5), p, sphere, g)
            assert abs(got - 2.5 * vol ** (1.0 / p)) < 1e-12 * max(1.0, vol)

    def test_sine_l2_norm(self):
        g = Grid((64, 64), (1.0, 1.0))
        f = np.sin(np.pi * g.nodes()[..., 0])
        got = lp_norm(f, 2.0, chart("euclidean", 2), g)
        assert abs(got - 1.0 / np.sqrt(2.0)) < 1e-3

    def test_refinement_order(self):
        # non-periodic integrand so the trapezoidal error is genuinely O(h^2)
        errs = []
        exact = np.sqrt((np.e ** 2 - 1.0) / 2.0)
        for n in (9, 17, 33):
            g = Grid((n,), (1.0,))
            f = np.exp(g.nodes()[..., 0])
            errs.append(abs(lp_norm(f, 2.0, None, g) - exact))
        assert np.all(convergence_orders(errs) >= 1.9)

    @pytest.mark.parametrize("density, what", [
        (np.full((9, 9), np.nan), "must be finite"), (np.ones((9, 8)), "have shape")])
    def test_density_is_a_checked_node_array(self, density, what):
        with pytest.raises(ValueError, match=what):
            integrate_density(density, Grid((9, 9), (1.0, 1.0)))

    def test_bad_exponent(self):
        g = Grid((5,), (1.0,))
        with pytest.raises(BadExponent):
            lp_norm(np.ones(5), 0.5, None, g)


class TestSobolevDistance:
    def _pair(self, n=33):
        g = Grid((n,), (1.0,))
        e2 = chart("euclidean", 2)
        base = np.stack([g.nodes()[..., 0], np.zeros(n)], axis=-1)
        return g, e2, DiscreteImmersion(g, base, e2)

    def test_zero_and_constant_shift(self):
        g, e2, f0 = self._pair()
        assert w1p_distance(f0, f0, 2.0) == 0.0
        c = np.array([0.3, -0.4])
        f = DiscreteImmersion(g, f0.values + c, e2)
        for p in (1.5, 2.0, 3.0):
            assert w1p_distance(f, f0, p) == pytest.approx(0.5, rel=1e-12)

    def test_long_axis_builds_no_matrix(self):
        """A 20001-node curve allocates a few node arrays, not the 3.2 GB
        difference matrix of its axis."""
        n = 20001
        g = Grid((n,), (1.0,))
        e2 = chart("euclidean", 2)
        t = g.nodes()[..., 0]
        f0 = DiscreteImmersion(g, np.stack([t, np.zeros(n)], axis=-1), e2)
        f = DiscreteImmersion(g, np.stack([t, np.sin(t)], axis=-1), e2)
        tracemalloc.start()
        try:
            w1p_distance(f, f0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * n * 8

    def test_wrinkle_against_fine_grid_oracle(self):
        n, k, eps = 20001, 3, 0.05
        g = Grid((n,), (1.0,))
        e2 = chart("euclidean", 2)
        t = g.nodes()[..., 0]
        f0 = DiscreteImmersion(g, np.stack([t, np.zeros(n)], axis=-1), e2)
        f = DiscreteImmersion(g, f0.values + eps * np.stack(
            [np.zeros(n), np.sin(2 * np.pi * k * t)], axis=-1), e2)
        exact = np.sqrt(eps ** 2 / 2 + eps ** 2 * (2 * np.pi * k) ** 2 / 2)
        assert abs(w1p_distance(f, f0, 2.0) - exact) < 1e-6

    @pytest.mark.parametrize("counts, metric", [((33,), None), ((17, 17), None),
                                                ((17, 17), "polar")],
                             ids=["curve", "surface", "polar-box"])
    def test_one_stencil_and_one_quadrature(self, monkeypatch, counts, metric):
        """One stencil pass on f - f0 and one factorization of g per call,
        within 1e-12 relative of the two-stencil, two-quadrature reference."""
        grid = Grid(counts, (1.0,) * len(counts), (1.0,) * len(counts))
        g = None if metric is None else chart(metric)
        calls = {"jacobian_array": 0, "chart_factors": 0}
        for name in calls:
            real = getattr(fields, name)
            monkeypatch.setattr(fields, name, lambda *a, _r=real, _n=name:
                                calls.__setitem__(_n, calls[_n] + 1) or _r(*a))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f, f0 = (random_surface_immersion(grid, rng, amplitude=0.3) for _ in range(2))
            for p in (1.0, 1.5, 2.0, 3.0):
                want = ref.w1p_distance(f, f0, p, g)
                for name in calls:
                    calls[name] = 0
                got = w1p_distance(f, f0, p, g)
                assert calls == {"jacobian_array": 1, "chart_factors": int(g is not None)}
                assert abs(got - want) <= 1e-12 * want

    def test_grid_mismatch(self):
        _, e2, f0 = self._pair(33)
        _, _, f1 = self._pair(17)
        with pytest.raises(GridMismatch):
            w1p_distance(f0, f1, 2.0)


@st.composite
def _node_arrays(draw):
    """Finite float64 node arrays on 1D or 2D grids with 1-4 components."""
    counts = tuple(draw(st.lists(st.integers(4, 7), min_size=1, max_size=2)))
    shape = counts + (draw(st.integers(1, 4)),)
    return draw(hnp.arrays(np.float64, shape,
                           elements=st.floats(allow_nan=False, allow_infinity=False)))


class TestSerialization:
    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = Grid((5, 7), (1.0, 2.0))
        vals = rng.normal(size=g.counts + (3,))
        # the node tables carry what the field checks reject
        vals[0, 0], vals[4, 6, 2] = [np.nan, np.inf, -np.inf], np.nan
        path = tmp_path / "field.csv"
        save_node_csv(path, g, vals)
        back = load_node_csv(path)
        assert np.array_equal(back.reshape(vals.shape), vals, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(_node_arrays())
    def test_csv_roundtrip_property(self, vals):
        grid = Grid(vals.shape[:-1], (1.0,) * (vals.ndim - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.csv")
            save_node_csv(path, grid, vals)
            back = load_node_csv(path)
        assert back.shape == vals.shape
        assert back.tobytes() == vals.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_node_arrays(), st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324]))
    def test_csv_writer_formats_each_number_with_fmt17(self, vals, special):
        """The one-format-per-file writers give the text of formatting every
        number with fmt17, as the row-by-row writers did."""
        vals = vals.copy()
        vals.flat[0] = special
        grid = Grid(vals.shape[:-1], (1.0,) * (vals.ndim - 1))
        idx = np.stack(np.meshgrid(*[np.arange(c) for c in grid.counts], indexing="ij"),
                       axis=-1).reshape(grid.num_nodes, grid.dim)
        rows = [",".join([str(int(k)) for k in i] + [fmt17(v) for v in row])
                for i, row in zip(idx, vals.reshape(grid.num_nodes, -1))]
        header = ",".join([f"i{a}" for a in range(grid.dim)]
                          + [f"c{k}" for k in range(vals.shape[-1])])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.csv")
            save_node_csv(path, grid, vals)
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == "\n".join([header] + rows) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(4, 6), st.integers(4, 6),
                                            st.just(3)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_obj_writer_formats_each_number_with_fmt17(self, vals):
        grid = Grid(vals.shape[:-1], (1.0, 1.0))
        n2 = grid.counts[1]
        lines = ["v " + " ".join(fmt17(c) for c in v) for v in vals.reshape(-1, 3)]
        for i in range(grid.counts[0] - 1):
            for j in range(n2 - 1):
                a, b, c, d = (i * n2 + j + 1, (i + 1) * n2 + j + 1,
                              (i + 1) * n2 + j + 2, i * n2 + j + 2)
                lines += [f"f {a} {b} {c}", f"f {a} {c} {d}"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.obj")
            save_obj(path, DiscreteImmersion(grid, vals, chart("euclidean", 3)))
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == "\n".join(lines) + "\n"

    def test_csv_rejects_missing_and_repeated_nodes(self, tmp_path):
        g = Grid((4, 5), (1.0, 1.0))
        path = tmp_path / "field.csv"
        save_node_csv(path, g, np.ones(g.counts + (2,)))
        header, *rows = path.read_text().strip().split("\n")
        missing, repeated = rows[:7] + rows[8:], rows + [rows[3]]
        swapped = rows[:3] + [rows[4]] + rows[4:]   # right count, one node twice
        for bad_rows in (missing, repeated, swapped):
            path.write_text("\n".join([header] + bad_rows) + "\n")
            with pytest.raises(ValueError):
                load_node_csv(path)
        path.write_text(header + "\n")
        with pytest.raises(ValueError):
            load_node_csv(path)

    @pytest.mark.parametrize("body, what", [
        ("0,0,1.0\n99999,99999,1.0\n", "rows cannot fill"),
        ("0,0,1.0\n0,1,x\n", "numbers"),
        ("0,0,1.0\n0,1.5,1.0\n", "integers"),
    ], ids=["two-rows-huge-grid", "non-numeric-value", "non-integer-index"])
    def test_csv_rejects_malformed_tables_naming_the_path(self, tmp_path, body, what):
        """Two rows at (0, 0) and (99999, 99999) span 1e10 nodes: a
        ValueError, not a 74.5 GiB bincount; bad cells name the path too."""
        path = tmp_path / "table.csv"
        path.write_text("i0,i1,c0\n" + body)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=what) as err:
                load_node_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(err.value) and peak < 1 << 20

    @pytest.mark.parametrize("header", ["c0,i0,c1", "i0,x,c0", "i0,c1,c0", "i0,c0,c2",
                                        "i1,i0,c0"])
    def test_csv_header_must_be_the_one_it_writes(self, tmp_path, header):
        """Columns are read by position, so any header but i0, ..., c0, ...
        loaded its columns as other quantities: a value column as the node
        index (c0,i0,...), a stray column as a value (i0,x,c0), or the table
        transposed (i1,i0,c0)."""
        grid = Grid((4, 5), (1.0, 1.0)) if header.startswith("i1") else Grid((5,), (1.0,))
        path = tmp_path / "table.csv"
        values = np.arange((3 - grid.dim) * grid.num_nodes, dtype=float)
        save_node_csv(path, grid, values.reshape(grid.counts + (-1,)))
        body = path.read_text().split("\n", 1)[1]
        assert load_node_csv(path).shape == grid.counts + (3 - grid.dim,)
        path.write_text(header + "\n" + body)
        with pytest.raises(ValueError, match="header") as err:
            load_node_csv(path)
        assert str(path) in str(err.value) and header in str(err.value)

    def test_binary_roundtrip_and_magic(self, tmp_path):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(4, 6, 3))
        path = tmp_path / "field.bin"
        save_binary(path, vals)
        with open(path, "rb") as fh:
            assert fh.read(8) == b"IMLAB001"
        assert np.array_equal(load_binary(path), vals)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_binary(bad)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4,
                                                   min_side=0, max_side=3)))
    def test_binary_roundtrip_property(self, vals):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.bin")
            save_binary(path, vals)
            back = load_binary(path)
        assert back.shape == vals.shape
        assert back.tobytes() == vals.tobytes()

    def test_binary_rejects_every_truncation(self, tmp_path):
        path = tmp_path / "field.bin"
        save_binary(path, np.arange(24.0).reshape(2, 3, 4))
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError, match="cut.bin"):
                load_binary(cut)
        cut.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(ValueError, match="cut.bin"):
            load_binary(cut)


def _artifact_writers():
    """One writer call per artifact writer, keyed by file name."""
    grid = Grid((4, 4), (1.0, 1.0))
    values = np.concatenate([grid.nodes(), np.zeros(grid.counts + (1,))], axis=-1)
    trace = OptimizeTrace()
    trace.append(0, 1.0, 0.5, 0.5, 0.1, 0.0)
    return {
        "field.csv": lambda p: save_node_csv(p, grid, values),
        "field.bin": lambda p: save_binary(p, values),
        "mesh.obj": lambda p: save_obj(p, DiscreteImmersion(grid, values,
                                                             chart("euclidean", 3))),
        "trace.csv": trace.to_csv,
        "report.json": lambda p: write_json(p, {"total": 1.0}),
        "table.csv": lambda p: write_csv(p, ["a", "b"], [[1.0, "x"]]),
        "plot.svg": lambda p: write_svg_loglog(p, [1.0, 2.0], [1.0, 4.0], "x", "y", "t"),
    }


class TestAtomicWrite:
    def test_artifact_mode_matches_plain_open(self, tmp_path):
        old = os.umask(0o022)
        try:
            with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
                fh.write("x\n")
            for name, write in _artifact_writers().items():
                write(str(tmp_path / name))
        finally:
            os.umask(old)
        plain = os.stat(tmp_path / "plain.txt").st_mode
        assert plain & 0o777 == 0o644
        for name in _artifact_writers():
            assert os.stat(tmp_path / name).st_mode == plain, name

    def test_every_writer_makes_a_missing_directory(self, tmp_path):
        folder = tmp_path / "a" / "b"
        for name, write in _artifact_writers().items():
            write(str(folder / name))
        assert sorted(os.listdir(folder)) == sorted(_artifact_writers())
        atomic_write(os.path.relpath(folder / "c" / "field.bin"), b"new")
        assert (folder / "c" / "field.bin").read_bytes() == b"new"

    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path,
                                                               monkeypatch):
        writers = _artifact_writers()
        for name, write in writers.items():
            (tmp_path / name).write_bytes(b"old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        for name, write in writers.items():
            with pytest.raises(OSError, match="replace failed"):
                write(str(tmp_path / name))
        with pytest.raises(OSError, match="replace failed"):
            atomic_write(tmp_path / "field.bin", b"new")
        assert sorted(os.listdir(tmp_path)) == sorted(writers)
        for name in writers:
            assert (tmp_path / name).read_bytes() == b"old"
