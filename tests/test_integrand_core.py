"""The component-major integrand core against the node-major reference.

``tests/helpers.py`` keeps the node-major forwards and reverse passes that
:class:`imlab.energy.Integrands` and :class:`imlab.optimize._Evaluator`
replaced; the component-major forwards get the states moved to their
layout, and the gradients come back node-major through
:func:`imlab.optimize.energy_gradient`.  Seeded problems drawn by hypothesis cover immersions and
director fields at d = 1 and d = 2; Euclidean, non-identity constant and
(for the library forwards) curved target charts; constant, non-identity and
varying parameter metrics g; and no, zero and varying shape operators S.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ReferenceEvaluator, ReferenceIntegrands, random_rotation
from imlab.energy import Integrands
from imlab.fields import DirectorField, DiscreteImmersion, Grid, ShapeField
from imlab.geometry import SIGMA_GUARD, MetricChart, chart, component_major, node_major
from imlab.harness import (random_curve_immersion, random_director, random_smooth_field,
                           random_surface_immersion)
from imlab.optimize import _Evaluator, energy_gradient, pack_state

INTEGRAND_RTOL = 1e-13
GRADIENT_RTOL = 1e-12


def _spd(rng, n):
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    return A.T @ A + 0.1 * np.eye(n)


def _grid(d, g_name):
    origin = (1.0, 0.0) if g_name == "polar" else None
    return Grid((9,) * d if d == 2 else (13,), (1.0,) * d, origin)


def _parameter_metric(d, name, rng):
    if name == "euclidean":
        return chart("euclidean", d)
    if name == "constant":
        return MetricChart(dim=d, domain=[[-np.inf, np.inf]] * d, constant=_spd(rng, d))
    if d == 2:
        return chart("polar")
    return MetricChart(dim=1, domain=[[-np.inf, np.inf]],
                       matrix=lambda x: (1.0 + 0.5 * np.sin(3.0 * x))[..., None])


def _target(d, name, rng):
    if name == "euclidean":
        return chart("euclidean", d + 1)
    if name == "constant":
        return MetricChart(dim=d + 1, domain=[[-np.inf, np.inf]] * (d + 1),
                           constant=_spd(rng, d + 1))
    return chart(name)


def _shape(grid, name, rng):
    d = grid.dim
    if name == "none":
        return None
    if name == "zero":
        return ShapeField(grid, np.zeros(grid.counts + (d, d)))
    # not symmetric: S is self-adjoint for g, not for the Euclidean product
    return ShapeField(grid, 0.4 * random_smooth_field(grid, d * d, rng).reshape(
        grid.counts + (d, d)))


def _state(kind, grid, target, rng):
    if kind == "director":
        return random_director(grid, target, rng, foot_scale=1.6, vec_scale=2.0)
    if target.is_constant:
        return DiscreteImmersion(grid, random_surface_immersion(grid, rng, 0.08).values,
                                 target)
    return random_curve_immersion(grid, target, rng)


def _cm(*arrays):
    return [component_major(a, 1) for a in arrays]


def _close(got, ref, rtol, scale=0.0):
    """max|got - ref| within rtol of max(max|ref|, scale)."""
    ref = np.asarray(ref)
    return np.max(np.abs(got - ref)) <= rtol * max(np.max(np.abs(ref)), scale)


def _bending_scales(ref, grid, points, v, HG):
    """Sizes of the terms of the bending pairs.  The bending field A (or C)
    is a difference of stencil terms of size t = max|v| / h, v the
    differentiated normal or director vector, so its rounding error is about
    eps t even where A is small, as on a nearly straight curve.  H A g^{-1}
    is bounded by |h| t |g^{-1}|, and q2 = sum(H A g^{-1} * A), whose
    rounding error is 2 sum(H A g^{-1} dA), by t |H A g^{-1}|."""
    t = np.max(np.abs(v)) / min(grid.spacing)
    H = ref._target(points)[0]
    return (np.max(np.abs(H)) * t * np.max(np.abs(ref.ginv)),
            t * np.max(np.abs(HG)))


def _problem(d, target_name, g_name, seed, kind, shape_name):
    """One seeded problem (state, g, target, S); the generator draws the
    target, the state, g and S in that order."""
    rng = np.random.default_rng(seed)
    grid = _grid(d, g_name)
    target = _target(d, target_name, rng)
    return (_state(kind, grid, target, rng), _parameter_metric(d, g_name, rng), target,
            _shape(grid, shape_name, rng))


@st.composite
def problems(draw, curved=True):
    d = draw(st.sampled_from([1, 2]))
    targets = ["euclidean", "constant"]
    if curved and d == 1:
        targets += ["sphere", "hyperbolic", "polar"]
    target_name = draw(st.sampled_from(targets))
    g_name = draw(st.sampled_from(["euclidean", "constant", "varying"]))
    if g_name == "varying" and d == 2:
        g_name = "polar"
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(["immersion", "director"]))
    return _problem(d, target_name, g_name, seed, kind,
                    draw(st.sampled_from(["none", "zero", "varying"])))


class TestComponentMajorCore:
    # a nearly straight curve: its bending field, 1.7e-2 at most, is a
    # difference of O(1/h) stencil terms, and HAG carries 1.4e-14 of their
    # rounding (8.2e-13 of max|HAG|)
    @example(_problem(1, "constant", "euclidean", 1696, "immersion", "none"), False)
    @settings(max_examples=60, deadline=None)
    @given(problems(), st.booleans())
    def test_forwards_match_reference(self, problem, polar):
        state, g, target, S = problem
        core = Integrands(state.grid, g, target, S)
        ref = ReferenceIntegrands(state.grid, g, target, S)
        if isinstance(state, DiscreteImmersion):
            got = core.immersion(*_cm(state.values), polar)
            want = ref.immersion(state.values, polar)
            HG = want.HA @ ref.ginv
            hg_scale, q2_scale = _bending_scales(ref, state.grid, state.values, want.n, HG)
            pairs = [(got.Q, want.Q, 2, 0.0), (got.P, want.P, 2, 0.0),
                     (got.nhat, want.nhat, 1, 0.0), (got.n, want.n, 1, 0.0),
                     (got.HAG, HG, 2, hg_scale)]
            assert _close(got.nu, want.nu, INTEGRAND_RTOL)
        else:
            got = core.director(*_cm(state.foot, state.vec), polar)
            want = ref.director(state.foot, state.vec, polar)
            HG = want.HC @ ref.ginv
            hg_scale, q2_scale = _bending_scales(ref, state.grid, state.foot, state.vec, HG)
            pairs = [(got.B, want.B, 2, 0.0), (got.R, want.R, 2, 0.0),
                     (got.HCG, HG, 2, hg_scale)]
            assert _close(core.sasaki_sq(*_cm(state.foot, state.vec)),
                          ref.sasaki_sq(state.foot, state.vec), INTEGRAND_RTOL)
        assert _close(got.dist2, want.dist2, INTEGRAND_RTOL)
        assert _close(got.q2, want.q2, INTEGRAND_RTOL, q2_scale)
        for a, b, k, scale in pairs:
            if b is None:
                assert a is None and not polar
            else:
                assert _close(node_major(a, k), b, INTEGRAND_RTOL, scale)
        for p in (2.0, 3.0):
            rep = core.report(got, p)
            for value, density, scale in ((rep.stretch, want.dist2, 0.0),
                                          (rep.bend, want.q2, q2_scale)):
                expect = float(np.sum(core.wdet * density ** (p / 2.0)))
                # a density error e moves density^(p/2) by at most
                # (p/2) (density + e)^(p/2 - 1) e
                e = INTEGRAND_RTOL * scale
                slack = np.sum(core.wdet * (p / 2.0) * (density + e) ** (p / 2.0 - 1.0) * e)
                assert abs(value - expect) <= INTEGRAND_RTOL * expect + slack

    @settings(max_examples=60, deadline=None)
    @given(problems(curved=False), st.sampled_from([2.0, 3.0]))
    def test_gradients_match_reference(self, problem, p):
        state, g, _, S = problem
        got = energy_gradient(state, g, S, p)
        nodes = (state.values,) if isinstance(state, DiscreteImmersion) else (state.foot,
                                                                              state.vec)
        want = ReferenceEvaluator(state, g, S, p).gradient_parts(
            np.concatenate([a.ravel() for a in nodes]))
        if isinstance(state, DiscreteImmersion):
            got, want = (got,), (want,)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert _close(a, b, GRADIENT_RTOL)


def _guard_state(kind, d, rng, side):
    """A linear state, Euclidean g and target, whose frame (the same at every
    node, to rounding) has sigma_min = SIGMA_GUARD * side."""
    grid = _grid(d, "euclidean")
    m = d + 1
    k = d if kind == "immersion" else m
    sigma = np.sort(rng.uniform(0.5, 2.0, size=k))[::-1]
    sigma[-1] = SIGMA_GUARD * side
    F = random_rotation(rng, m)[:, :k] * sigma @ random_rotation(rng, k)
    x = grid.nodes()
    foot = x @ F[:, :d].T
    if kind == "immersion":
        return DiscreteImmersion(grid, foot, chart("euclidean", m))
    return DirectorField(grid, foot, np.broadcast_to(F[:, d], foot.shape).copy(),
                         chart("euclidean", m))


class TestGuard:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["immersion", "director"]), st.sampled_from([1, 2]),
           st.sampled_from([0.999, 1.001]), st.integers(0, 2 ** 32 - 1))
    def test_forward_returns_none_where_reference_does(self, kind, d, side, seed):
        state = _guard_state(kind, d, np.random.default_rng(seed), side)
        g = chart("euclidean", d)
        core = Integrands(state.grid, g, state.target)
        ref = ReferenceIntegrands(state.grid, g, state.target)
        if kind == "immersion":
            got = core.immersion(*_cm(state.values), True, SIGMA_GUARD)
            want = ref.immersion(state.values, True, SIGMA_GUARD)
        else:
            got = core.director(*_cm(state.foot, state.vec), True, SIGMA_GUARD)
            want = ref.director(state.foot, state.vec, True, SIGMA_GUARD)
        assert (got is None) == (want is None) == (side < 1.0)
        ev = _Evaluator(state, g, None, 2.0)
        assert (ev.energy(pack_state(state))[0] == np.inf) == (side < 1.0)
