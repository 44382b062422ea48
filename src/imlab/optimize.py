"""Analytic gradients of the discrete energies and a quasi-Newton minimizer.

Energies and the intermediates of the gradients come from the forwards of
:class:`imlab.energy.Integrands`, the ones the library energies use, so the
minimizer and the library agree to the last bit.  Gradients are assembled by
reverse accumulation through them and the finite-difference stencils, in the
forwards' component-major layout up to the stencil adjoints; the
stretching derivative uses d(dist^2)/dQ = 2 (Q - proj(Q)), where proj is the
polar factor of an immersion frame or the nearest rotation of a director
frame (:func:`imlab.geometry.stiefel_factors`, ``rotation_factors``).
Gradients require p >= 2 (below that the integrand is not C^1 at its zeros)
and a constant-metric target chart; curved-target states stay evaluate-only.
A smallest frame singular value below 1e-8 makes the energy +inf and the
gradient raise, rather than regularizing, so descent runs cannot silently
smooth over degeneracies.

The minimizer is L-BFGS with Armijo backtracking.  Its two-loop recursion
starts from the scaled Sobolev metric H0 = gamma M, M = (I + beta (h^2 L)^2)^{-1}
(Nocedal & Wright, Numerical Optimization, 2006, Sec. 7.2; Neuberger, Sobolev
Gradients and Differential Equations, 1997), in place of a multiple of the
identity.  L is the separable Neumann second-difference Laplacian of the
state's grid, acting on each component, and h is the smallest grid spacing.
M damps the high-frequency modes that the bending term makes stiff, which a
scalar H0 leaves to many curvature pairs to learn, so the iteration count to
the gradient tolerance no longer grows with the grid: the criterion-10 probe
takes about 300 iterations at both 33^2 and 65^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .energy import Integrands, relaxed_total, total_energy
from .errors import (BadConfig, RankDeficient, UnsupportedExponent, UnsupportedTarget,
                     is_finite, is_int, require)
# jacobian_array is unused here but stays bound: perfbench/spans.py traces
# the stencil calls through every imlab module's binding
from .fields import (DirectorField, DiscreteImmersion, atomic_write, fmt17,  # noqa: F401
                     jacobian_adjoint, jacobian_array)
from .geometry import (SIGMA_GUARD, MetricChart, component_major, cross3_cm, left_mul,
                       node_major, right_mul)

State = Union[DiscreteImmersion, DirectorField]


@dataclass(frozen=True)
class OptimizeConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8
    step_tol: float = 1e-14
    memory: int = 10
    seed: int = 0

    def __post_init__(self):
        require(all(map(is_int, (self.max_iters, self.memory, self.seed))),
                "max_iters, memory and seed must be integers")
        require(self.max_iters >= 1 and self.memory >= 1,
                "max_iters and memory must be >= 1")
        require(all(is_finite(t) and t > 0 for t in (self.grad_tol, self.step_tol)),
                "tolerances must be positive finite numbers")


@dataclass
class OptimizeTrace:
    """Per-iteration records, the reason the loop stopped, and evaluation
    counters: energy evaluations (nfev), gradient evaluations (ngev) and
    rejected line-search trials (backtracks)."""

    records: List[dict] = field(default_factory=list)
    reason: str = ""
    nfev: int = 0
    ngev: int = 0
    backtracks: int = 0

    def append(self, it, energy, stretch, bend, grad_norm, step):
        self.records.append({"iter": it, "energy": energy, "stretch": stretch,
                             "bend": bend, "grad_norm": grad_norm, "step": step})

    def energies(self):
        return np.array([r["energy"] for r in self.records])

    def to_csv(self, path):
        lines = ["iter,energy,stretch,bend,grad_norm,step"]
        for r in self.records:
            lines.append(",".join([str(r["iter"])] + [
                fmt17(r[k]) for k in ("energy", "stretch", "bend", "grad_norm", "step")]))
        atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# state packing


def pack_state(state: State) -> np.ndarray:
    if isinstance(state, DiscreteImmersion):
        return state.values.ravel().copy()
    return np.concatenate([state.foot.ravel(), state.vec.ravel()])


def unpack_like(x: np.ndarray, template: State) -> State:
    if isinstance(template, DiscreteImmersion):
        return DiscreteImmersion(template.grid, x.reshape(template.values.shape),
                                 template.target)
    half = template.foot.size
    return DirectorField(template.grid,
                         x[:half].reshape(template.foot.shape),
                         x[half:].reshape(template.vec.shape),
                         template.target)


def objective(state: State, g: MetricChart, S, p: float):
    """(total, stretch, bend) of the energy the optimizer descends."""
    if isinstance(state, DiscreteImmersion):
        rep = total_energy(state, g, S, p)
    else:
        rep = relaxed_total(state, g, S, p)
    return rep.total, rep.stretch, rep.bend


# ---------------------------------------------------------------------------
# gradients


def _cross_adjoint(q, cbar):
    """Backpropagate through the oriented column cross product of
    component-major (d+1, d, ...) frames."""
    if q.shape[1] == 1:
        return np.stack([cbar[1], -cbar[0]])[:, None]
    return np.stack([cross3_cm(q[:, 1], cbar), cross3_cm(cbar, q[:, 0])], axis=1)


class _Evaluator:
    """Energy and gradient of one fixed (grid, g, S, p, target) problem.

    Holds the problem's :class:`imlab.energy.Integrands`, whose forwards give
    the energy and the component-major intermediates of the reverse passes
    below, which stay component-major up to the stencil adjoints; states
    whose smallest frame singular value sits below the gradient guard
    evaluate to +inf, so a line search never accepts a point where the
    gradient would be undefined.  The derivative of the bending integrand
    sum((H A) * (A g^{-1})) in A is 2 H A g^{-1}.
    """

    def __init__(self, template: State, g: MetricChart, S, p: float):
        if p < 2:
            raise UnsupportedExponent("gradients require p >= 2")
        if not template.target.is_constant:
            raise UnsupportedTarget("gradients support constant-metric targets only")
        self.template = template
        self.p = float(p)
        self.grid = template.grid
        self.core = Integrands(self.grid, g, template.target, S)
        self.ST = None if self.core.S is None else np.swapaxes(self.core.S, 0, 1)
        self.is_immersion = isinstance(template, DiscreteImmersion)

    def _stretch_bar(self, dist2, Q, proj):
        """Weighted d(dist^p)/dQ = p dist^{p-2} (Q - proj)."""
        p = self.p
        coef = p * dist2 ** ((p - 2.0) / 2.0) if p != 2.0 else 2.0
        return (self.core.wdet * coef) * (Q - proj)

    def _bend_bar(self, HAG, q2):
        """Weighted d(|A|^p)/dA = p |A|^{p-2} H A g^{-1}."""
        p = self.p
        return self.core.wdet * p * (q2 ** ((p - 2.0) / 2.0) if p != 2.0 else 1.0) * HAG

    def _adjoint(self, Jbar, Abar):
        """Stencil adjoint of the Jacobian cotangent Jbar + Abar S^T."""
        if self.ST is not None:
            Jbar = Jbar + right_mul(Abar, self.ST)
        return jacobian_adjoint(node_major(Jbar, 2), self.grid)

    def _forward(self, x, polar):
        if self.is_immersion:
            return self.core.immersion(x.reshape(self.template.values.shape),
                                       polar, SIGMA_GUARD)
        half = self.template.foot.size
        return self.core.director(x[:half].reshape(self.template.foot.shape),
                                  x[half:].reshape(self.template.vec.shape),
                                  polar, SIGMA_GUARD)

    def _immersion_gradient(self, fwd):
        core = self.core
        dist2, q2, Q, P, nu, nhat, HAG = fwd
        Abar = self._bend_bar(HAG, q2)
        # h^{-1/2} is symmetric: the cotangent of nhat is h^{-1/2} nbar
        nbar = component_major(jacobian_adjoint(node_major(Abar, 2), self.grid), 1)
        nhat_bar = left_mul(core.Hsi, nbar)
        cbar = (nhat_bar - nhat * np.add.reduce(nhat * nhat_bar, axis=0)) / nu
        Qbar = self._stretch_bar(dist2, Q, P) + _cross_adjoint(Q, cbar)
        return self._adjoint(right_mul(left_mul(core.Hs, Qbar), core.gsi), Abar)

    def _director_gradient(self, fwd):
        d = self.grid.dim
        dist2, q2, B, proj, HCG = fwd
        T = left_mul(self.core.Hs, self._stretch_bar(dist2, B, proj))
        Cbar = self._bend_bar(HCG, q2)
        grad_foot = self._adjoint(right_mul(T[:, :d], self.core.gsi), Cbar)
        grad_vec = jacobian_adjoint(node_major(Cbar, 2), self.grid) + node_major(T[:, d], 1)
        return grad_foot, grad_vec

    def energy(self, x: np.ndarray):
        fwd = self._forward(x, polar=False)
        if fwd is None:
            return np.inf, np.inf, np.inf
        rep = self.core.report(fwd, self.p)
        return rep.total, rep.stretch, rep.bend

    def gradient_parts(self, x: np.ndarray):
        """The gradient shaped like the state: the node values of an
        immersion, or the pair (grad_foot, grad_vec) of a director field."""
        fwd = self._forward(x, polar=True)
        if fwd is None:
            raise RankDeficient("frame singular value below gradient guard")
        if self.is_immersion:
            return self._immersion_gradient(fwd)
        return self._director_gradient(fwd)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        grad = self.gradient_parts(x)
        return grad.ravel() if self.is_immersion else np.concatenate(
            [grad[0].ravel(), grad[1].ravel()])


def energy_gradient(state: State, g: MetricChart, S, p: float):
    """Exact gradient of the discrete (quadrature-level) energy.

    Immersion states return an array shaped like the node values; director
    states return the pair (grad_foot, grad_vec).
    """
    return _Evaluator(state, g, S, p).gradient_parts(pack_state(state))


# ---------------------------------------------------------------------------
# limited-memory quasi-Newton with Armijo backtracking


ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
# H0 metric M = (I + SMOOTH_BETA (h^2 L)^SMOOTH_POWER)^{-1}.  Weaker smoothing
# gains less: with power 1 and beta 0.1 the criterion-10 probe at 33^2 took
# 644-708 iterations on three seeded starts, against 301-337 on twenty with
# these values.
SMOOTH_BETA = 10.0
SMOOTH_POWER = 2


class _GridSmoother:
    """M = (I + beta (h^2 L)^k)^{-1} on flat state vectors of one grid.

    L is the separable Neumann second-difference Laplacian (boundary rows
    (1, -1) / h^2), applied to each component of each node array of the
    state.  Its eigenbasis is the orthonormal cosine (DCT-II) basis of each
    axis, with eigenvalues (2 - 2 cos(pi k / n)) / h_axis^2, so M is one
    basis change per axis on each side of a diagonal scaling.  M is symmetric
    positive definite and leaves constant fields unchanged.
    """

    def __init__(self, grid):
        h = min(grid.spacing)
        self.bases = []
        lam = np.zeros(())
        for n, ha in zip(grid.counts, grid.spacing):
            k = np.arange(n)
            V = np.cos(np.pi * np.outer(k + 0.5, k) / n)
            self.bases.append(V / np.linalg.norm(V, axis=0))
            lam = np.add.outer(lam, (2.0 - 2.0 * np.cos(np.pi * k / n)) / ha ** 2)
        self.scale = 1.0 / (1.0 + SMOOTH_BETA * (h * h * lam) ** SMOOTH_POWER)
        # node arrays (immersion values, or director foot and vec) stacked,
        # and the permutations to and from component-major layout
        d = grid.dim
        self.shape = (-1,) + grid.counts + (d + 1,)
        self.to_fields = (0, d + 1) + tuple(range(1, d + 1))
        self.to_nodes = (0,) + tuple(range(2, d + 2)) + (1,)

    def __call__(self, x):
        # grids have one or two axes: the last is transformed from the
        # right, a first one from the left
        *first, last = self.bases
        u = x.reshape(self.shape).transpose(self.to_fields)
        for V in first:
            u = V.T @ u
        u = (u @ last) * self.scale @ last.T
        for V in first:
            u = V @ u
        return u.transpose(self.to_nodes).ravel()


def _two_loop(grad, pairs, smooth):
    """L-BFGS direction H grad from the initial matrix H0 = gamma M, with
    gamma = s^T y / y^T M y of the newest pair (M alone without pairs)."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    r = smooth(q)
    if pairs:
        s, y, _ = pairs[-1]
        r *= (s @ y) / (y @ smooth(y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ r)
        r += s * (a - b)
    return r


def minimize(state0: State, g: MetricChart, S, p: float,
             cfg: Optional[OptimizeConfig] = None):
    """Descend the discrete energy from state0; returns (state, trace).

    Limited-memory quasi-Newton directions whose two-loop recursion starts
    from the grid-smoothing metric gamma M (see the module docstring; the
    first direction is -M grad), with Armijo backtracking (sufficient
    decrease 1e-4, factor 0.5, first trial step min(1, 1/|grad|_max) and 1
    after).  Terminates on the gradient max-norm ("grad_tol"), the step
    max-norm ("step_tol"), the iteration cap ("max_iters"), or 60 failed
    backtracks (best state returned with reason "line_search_failed").  The
    trace counts energy and gradient evaluations and backtracks.
    """
    if cfg is None:
        cfg = OptimizeConfig()
    ev = _Evaluator(state0, g, S, p)
    smooth = _GridSmoother(state0.grid)
    x = pack_state(state0)
    total, stretch, bend = ev.energy(x)
    if not np.isfinite(total):
        raise BadConfig("energy not finite at the initial state")
    grad = ev.gradient(x)
    gnorm = float(np.max(np.abs(grad)))

    trace = OptimizeTrace(nfev=1, ngev=1)
    trace.append(0, total, stretch, bend, gnorm, 0.0)
    pairs = []

    for it in range(1, cfg.max_iters + 1):
        if gnorm <= cfg.grad_tol:
            trace.reason = "grad_tol"
            break
        direction = -_two_loop(grad, pairs, smooth)
        slope = float(direction @ grad)
        if slope >= 0.0:
            direction = -grad
            slope = float(direction @ grad)
        t = 1.0 if pairs else min(1.0, 1.0 / max(gnorm, 1e-12))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + t * direction
            f_new = ev.energy(x_new)
            trace.nfev += 1
            if f_new[0] <= total + ARMIJO_C1 * t * slope:
                accepted = True
                break
            t *= BACKTRACK
            trace.backtracks += 1
        if not accepted:
            trace.reason = "line_search_failed"
            break
        s_vec = x_new - x
        x = x_new
        total, stretch, bend = f_new
        grad_new = ev.gradient(x)
        trace.ngev += 1
        y_vec = grad_new - grad
        grad = grad_new
        gnorm = float(np.max(np.abs(grad)))
        sy = float(s_vec @ y_vec)
        if sy > 1e-10 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            pairs.append((s_vec, y_vec, 1.0 / sy))
            if len(pairs) > cfg.memory:
                pairs.pop(0)
        trace.append(it, total, stretch, bend, gnorm, t)
        if float(np.max(np.abs(s_vec))) <= cfg.step_tol:
            trace.reason = "step_tol"
            break
    else:
        trace.reason = "max_iters"
    return unpack_like(x, state0), trace
