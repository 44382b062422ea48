"""Analytic gradients of the discrete energies and a quasi-Newton minimizer.

Gradients are assembled by reverse accumulation through the finite-difference
stencils; the stretching derivative uses d(dist^2)/dQ = 2 (Q - proj(Q)),
valid away from rank deficiency, where proj is the closed-form polar factor
of an immersion frame or the nearest rotation of a director frame (closed
form for 2x2 frames, scaled Newton polar iteration for 3x3 ones, see
:func:`imlab.geometry.rotation_factors`).
Gradients require p >= 2 (below that the integrand is not C^1 at its zeros) and a constant-metric target chart, which
covers every minimization experiment shipped here; curved-target states stay
evaluate-only.  The smallest frame singular value is guarded at 1e-8: rather
than regularizing, gradient evaluation aborts, so descent runs cannot silently
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

from .energy import relaxed_total, total_energy
from .errors import (BadConfig, RankDeficient, UnsupportedExponent, UnsupportedTarget,
                     is_finite, is_int, require)
from .fields import (DirectorField, DiscreteImmersion, atomic_write, fmt17,
                     jacobian_adjoint, jacobian_array, quadrature_weights)
from .geometry import (SIGMA_GUARD, MetricChart, chart_factors, cross3,
                       cross_columns, rotation_factors, stiefel_factors)

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


def _cross_adjoint(B, cbar):
    """Backpropagate through the oriented column cross product."""
    d = B.shape[-1]
    if d == 1:
        b1 = np.stack([cbar[..., 1], -cbar[..., 0]], axis=-1)
        return b1[..., None]
    return np.stack([cross3(B[..., 1], cbar), cross3(cbar, B[..., 0])], axis=-1)


class _Evaluator:
    """Energy and gradient of one fixed (grid, g, S, p, target) problem.

    Precomputes everything independent of the unknowns; states whose smallest
    frame singular value sits below the gradient guard evaluate to +inf, so a
    line search never accepts a point where the gradient would be undefined.
    Each path has one forward shared by the energy and the gradient.  With
    H = h, the bending integrand g^{ij} h_ab A^a_i A^b_j is
    sum((H A) * (A g^{-1})) and its derivative in A is 2 H A g^{-1}.
    """

    def __init__(self, template: State, g: MetricChart, S, p: float):
        if p < 2:
            raise UnsupportedExponent("gradients require p >= 2")
        target = template.target
        if not target.is_constant:
            raise UnsupportedTarget("gradients support constant-metric targets only")
        self.template = template
        self.p = float(p)
        self.grid = template.grid
        self.Sv = S.values
        self.SvT = np.swapaxes(self.Sv, -1, -2)
        self.H = target.constant
        # both square roots come out exactly symmetric, so they are their
        # own transposes in the adjoints below
        _, _, self.Hs, self.Hsi = chart_factors(target, None)
        _, sdet, _, self.gsi = chart_factors(g, self.grid.nodes)
        self.ginv = self.gsi @ self.gsi
        self.wdet = quadrature_weights(self.grid) * sdet
        self.is_immersion = isinstance(template, DiscreteImmersion)

    # -- shared integrand pieces ----------------------------------------------

    def _bend_sq(self, A):
        """(H A, max(|A|^2_{g,h}, 0)) per node."""
        HA = self.H @ A
        return HA, np.maximum(np.sum(HA * (A @ self.ginv), axis=(-2, -1)), 0.0)

    def _stretch_bar(self, dist2, Q, proj):
        """Weighted d(dist^p)/dQ = p dist^{p-2} (Q - proj)."""
        p = self.p
        coef = p * dist2 ** ((p - 2.0) / 2.0) if p != 2.0 else 2.0
        return (self.wdet * coef)[..., None, None] * (Q - proj)

    def _bend_bar(self, HA, q2):
        """Weighted d(|A|^p)/dA = p |A|^{p-2} H A g^{-1}."""
        p = self.p
        coef = self.wdet * p * (q2 ** ((p - 2.0) / 2.0) if p != 2.0 else 1.0)
        return coef[..., None, None] * (HA @ self.ginv)

    # -- immersion states ---------------------------------------------------

    def _immersion_forward(self, values, polar):
        """(dist2, q2, node quantities) of an immersion, or None below the
        rank guard."""
        J = jacobian_array(values, self.grid)
        Q = self.Hs @ J @ self.gsi
        # the cross product of the columns of Q is det(g^{-1/2}) > 0 times
        # that of h^{1/2} J: same unit normal, and its length is sigma_1 sigma_2
        c = cross_columns(Q)
        nu = np.linalg.norm(c, axis=-1)
        dist2, smin, P = stiefel_factors(Q, nu, polar)
        if np.min(smin) < SIGMA_GUARD:
            return None
        nhat = c / nu[..., None]
        n = nhat @ self.Hsi
        A = jacobian_array(n, self.grid) + J @ self.Sv
        HA, q2 = self._bend_sq(A)
        return dist2, q2, Q, P, nu, nhat, HA

    def _immersion_gradient(self, values):
        fwd = self._immersion_forward(values, polar=True)
        if fwd is None:
            raise RankDeficient("frame singular value below gradient guard")
        dist2, q2, Q, P, nu, nhat, HA = fwd
        Abar = self._bend_bar(HA, q2)
        nhat_bar = jacobian_adjoint(Abar, self.grid) @ self.Hsi
        cbar = (nhat_bar - nhat * np.sum(nhat * nhat_bar, axis=-1, keepdims=True)) \
            / nu[..., None]
        Qbar = self._stretch_bar(dist2, Q, P) + _cross_adjoint(Q, cbar)
        Jbar = self.Hs @ Qbar @ self.gsi + Abar @ self.SvT
        return jacobian_adjoint(Jbar, self.grid)

    # -- director states ----------------------------------------------------

    def _director_forward(self, foot, vec, polar):
        """(dist2, q2, node quantities) of a director field, or None below
        the rank guard."""
        Jx = jacobian_array(foot, self.grid)
        Jv = jacobian_array(vec, self.grid)
        B = self.Hs @ np.concatenate([Jx @ self.gsi, vec[..., None]], axis=-1)
        dist2, smin, R = rotation_factors(B, polar)
        if np.min(smin) < SIGMA_GUARD:
            return None
        HC, q2 = self._bend_sq(Jx @ self.Sv + Jv)
        return dist2, q2, B, R, HC

    def _director_gradient(self, foot, vec):
        d = self.grid.dim
        fwd = self._director_forward(foot, vec, polar=True)
        if fwd is None:
            raise RankDeficient("director frame singular value below gradient guard")
        dist2, q2, B, proj, HC = fwd
        T = self.Hs @ self._stretch_bar(dist2, B, proj)
        Cbar = self._bend_bar(HC, q2)
        Jxbar = T[..., :, :d] @ self.gsi + Cbar @ self.SvT
        grad_foot = jacobian_adjoint(Jxbar, self.grid)
        grad_vec = jacobian_adjoint(Cbar, self.grid) + T[..., :, d]
        return grad_foot, grad_vec

    # -- flat-vector API ----------------------------------------------------

    def _split(self, x: np.ndarray):
        if self.is_immersion:
            return (x.reshape(self.template.values.shape),)
        half = self.template.foot.size
        return (x[:half].reshape(self.template.foot.shape),
                x[half:].reshape(self.template.vec.shape))

    def energy(self, x: np.ndarray):
        if self.is_immersion:
            fwd = self._immersion_forward(*self._split(x), polar=False)
        else:
            fwd = self._director_forward(*self._split(x), polar=False)
        if fwd is None:
            return np.inf, np.inf, np.inf
        stretch = float(np.sum(self.wdet * fwd[0] ** (self.p / 2.0)))
        bend = float(np.sum(self.wdet * fwd[1] ** (self.p / 2.0)))
        return stretch + bend, stretch, bend

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.is_immersion:
            return self._immersion_gradient(*self._split(x)).ravel()
        gf, gv = self._director_gradient(*self._split(x))
        return np.concatenate([gf.ravel(), gv.ravel()])


def energy_gradient(state: State, g: MetricChart, S, p: float):
    """Exact gradient of the discrete (quadrature-level) energy.

    Immersion states return an array shaped like the node values; director
    states return the pair (grad_foot, grad_vec).
    """
    ev = _Evaluator(state, g, S, p)
    if isinstance(state, DiscreteImmersion):
        return ev._immersion_gradient(state.values)
    return ev._director_gradient(state.foot, state.vec)


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
