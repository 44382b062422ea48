"""Analytic gradients of the discrete energies and a quasi-Newton minimizer.

Energies and the intermediates of the gradients come from the forwards of
:class:`imlab.energy.Integrands`, the ones the library energies use, so the
minimizer and the library agree to the last bit.  On director states each
accepted point runs the 3x3 rotation kernel once: the gradient forward
finds the frame of the energy forward that accepted the point in the
Integrands' one-entry memo.  The state vector holds each
node array component-major, (d+1, *counts), the layout of the forwards and
the stencils, so the reverse passes never transpose; :func:`unpack_like`,
:func:`energy_gradient` and the state :func:`minimize` returns are node-major.
The stretching derivative uses d(dist^2)/dQ = 2 (Q - proj(Q)), with proj the
polar factor or the nearest rotation of the frame.  Gradients require p >= 2
(below that the integrand is not C^1 at its zeros) and a constant-metric
target chart; curved-target states stay evaluate-only.  A smallest frame
singular value below 1e-8 makes the energy +inf and the gradient raise,
rather than regularizing, so descent runs cannot silently smooth over
degeneracies.

The minimizer is L-BFGS with Armijo backtracking, in the compact
representation of Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994), with the
scaled Sobolev metric H0 = gamma M, M = (I + beta (h^2 L)^2)^{-1}, as initial
matrix (Nocedal & Wright, Numerical Optimization, 2006, Sec. 7.2; Neuberger,
Sobolev Gradients and Differential Equations, 1997) in place of a multiple of
the identity.  L is the separable Neumann second-difference Laplacian of the
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

from .energy import Integrands
from .errors import (BadConfig, RankDeficient, UnsupportedExponent, UnsupportedTarget,
                     is_finite, is_int, require)
# no call here goes through jacobian_array; the binding stays because
# perfbench/test_perfbench.py::_bindings asserts that imlab.optimize.jacobian_array
# exists and that the tracer wraps it
from .fields import (DirectorField, DiscreteImmersion, check_exponent,  # noqa: F401
                     jacobian_adjoint, jacobian_array, write_csv)
from .geometry import (SIGMA_GUARD, MetricChart, component_major, cross3_cm, left_mul,
                       node_major, right_mul)

State = Union[DiscreteImmersion, DirectorField]


# Most curvature pairs the L-BFGS history keeps.  Compact L-BFGS uses 3-20;
# the history holds 2 memory rows of the state's length, so an unbounded
# value is an allocation of any size.
MAX_MEMORY = 100


@dataclass(frozen=True)
class OptimizeConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8
    step_tol: float = 1e-14
    memory: int = 10

    def __post_init__(self):
        require(is_int(self.max_iters) and is_int(self.memory),
                "max_iters and memory must be integers")
        require(self.max_iters >= 1 and self.memory >= 1,
                "max_iters and memory must be >= 1")
        require(self.memory <= MAX_MEMORY, f"memory must be <= {MAX_MEMORY}")
        require(all(is_finite(t) and t > 0 for t in (self.grad_tol, self.step_tol)),
                "tolerances must be positive finite numbers")


TRACE_COLUMNS = ("iter", "energy", "stretch", "bend", "grad_norm", "step")


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

    def append(self, *row):
        """Record (iter, energy, stretch, bend, grad_norm, step)."""
        self.records.append(dict(zip(TRACE_COLUMNS, row)))

    def energies(self):
        return np.array([r["energy"] for r in self.records])

    def to_csv(self, path):
        write_csv(path, TRACE_COLUMNS, [[r[k] for k in TRACE_COLUMNS] for r in self.records])


# ---------------------------------------------------------------------------
# state packing


def pack_arrays(arrays) -> np.ndarray:
    """The state vector of node-major (*counts, d+1) arrays: each
    component-major, (d+1, *counts), one after the other."""
    return np.concatenate([component_major(a, 1).ravel() for a in arrays])


def pack_state(state: State) -> np.ndarray:
    """The state vector of the node values of an immersion, or of the foot
    and the vector of a director field (:func:`pack_arrays`)."""
    return pack_arrays((state.values,) if isinstance(state, DiscreteImmersion)
                       else (state.foot, state.vec))


def _node_arrays(x: np.ndarray, grid) -> list:
    """The node-major (*counts, d+1) arrays stacked in a state vector."""
    return [np.ascontiguousarray(node_major(a, 1))
            for a in x.reshape((-1, grid.dim + 1) + grid.counts)]


def unpack_like(x: np.ndarray, template: State) -> State:
    arrays = _node_arrays(x, template.grid)
    if isinstance(template, DiscreteImmersion):
        return DiscreteImmersion(template.grid, arrays[0], template.target)
    return DirectorField(template.grid, *arrays, template.target)


# ---------------------------------------------------------------------------
# gradients


def _cross_adjoint(q, cbar):
    """Backpropagate through the oriented column cross product of
    component-major (d+1, d, ...) frames."""
    out = np.empty(q.shape)
    if q.shape[1] == 1:
        out[0, 0], out[1, 0] = cbar[1], -cbar[0]
    else:
        cross3_cm(q[:, 1], cbar, out=out[:, 0])
        cross3_cm(cbar, q[:, 0], out=out[:, 1])
    return out


class _Evaluator:
    """Energy and gradient of one fixed (grid, g, S, p, target) problem on
    component-major state vectors (:func:`pack_state`).

    Holds the problem's :class:`imlab.energy.Integrands`, whose forwards give
    the energy and the component-major intermediates of the reverse passes
    below; states whose smallest frame singular value sits below the
    gradient guard evaluate to +inf, so a line search never accepts a point
    where the gradient would be undefined.  The derivative of the bending
    integrand sum((H A) * (A g^{-1})) in A is 2 H A g^{-1}.
    """

    def __init__(self, template: State, g: MetricChart, S, p: float):
        check_exponent(p)
        if p < 2:
            raise UnsupportedExponent("gradients require p >= 2")
        if not template.target.is_constant:
            raise UnsupportedTarget("gradients support constant-metric targets only")
        self.p = float(p)
        self.grid = template.grid
        self.shape = (-1, self.grid.dim + 1) + self.grid.counts
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
        return jacobian_adjoint(Jbar, self.grid)

    def _forward(self, x, polar):
        """The guarded forward of a state vector, or of a (k, n) stack of
        them as one batch of component-major (d+1, k, *counts) arrays."""
        arrays = x.reshape(self.shape) if x.ndim == 1 else np.ascontiguousarray(
            np.moveaxis(x.reshape((len(x),) + self.shape), 0, 2))
        forward = self.core.immersion if self.is_immersion else self.core.director
        return forward(*arrays, polar, SIGMA_GUARD)

    def _immersion_gradient(self, fwd):
        core = self.core
        dist2, q2, Q, P, nu, nhat, HAG, _ = fwd
        Abar = self._bend_bar(HAG, q2)
        # h^{-1/2} is symmetric: the cotangent of nhat is h^{-1/2} nbar
        nhat_bar = left_mul(core.Hsi, jacobian_adjoint(Abar, self.grid))
        cbar = (nhat_bar - nhat * np.add.reduce(nhat * nhat_bar, axis=0)) / nu
        Qbar = self._stretch_bar(dist2, Q, P) + _cross_adjoint(Q, cbar)
        return self._adjoint(right_mul(left_mul(core.Hs, Qbar), core.gsi), Abar).ravel()

    def _director_gradient(self, fwd):
        d = self.grid.dim
        dist2, q2, B, proj, HCG = fwd
        T = left_mul(self.core.Hs, self._stretch_bar(dist2, B, proj))
        Cbar = self._bend_bar(HCG, q2)
        grad_foot = self._adjoint(right_mul(T[:, :d], self.core.gsi), Cbar)
        grad_vec = jacobian_adjoint(Cbar, self.grid) + T[:, d]
        return np.concatenate([grad_foot.ravel(), grad_vec.ravel()])

    def energy(self, x: np.ndarray):
        fwd = self._forward(x, polar=False)
        if fwd is None:
            return np.inf, np.inf, np.inf
        rep = self.core.report(fwd, self.p)     # the trace keeps floats, not numpy scalars
        return float(rep.total), float(rep.stretch), float(rep.bend)

    def energies(self, X: np.ndarray) -> np.ndarray:
        """The total energies (k,) of a (k, n) stack of state vectors, from
        one batched forward.  A batch with a state below the gradient guard
        is evaluated state by state, so that state alone reads +inf."""
        fwd = self._forward(X, polar=False)
        if fwd is None:
            return np.array([self.energy(x)[0] for x in X])
        return self.core.report(fwd, self.p).total

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The gradient, laid out like the state vector."""
        fwd = self._forward(x, polar=True)
        if fwd is None:
            raise RankDeficient("frame singular value below gradient guard")
        return (self._immersion_gradient if self.is_immersion else self._director_gradient)(fwd)


def energy_gradient(state: State, g: MetricChart, S, p: float):
    """Exact gradient of the discrete (quadrature-level) energy.

    Immersion states return an array shaped like the node values; director
    states return the pair (grad_foot, grad_vec).
    """
    grad = _node_arrays(_Evaluator(state, g, S, p).gradient(pack_state(state)), state.grid)
    return grad[0] if isinstance(state, DiscreteImmersion) else tuple(grad)


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
    """M = (I + beta (h^2 L)^k)^{-1} on component-major state vectors of one grid.

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
        self.shape = (-1,) + grid.counts
        # BLAS multiplies by a contiguous matrix from the right faster than
        # by a transposed view
        self.last_t = np.ascontiguousarray(self.bases[-1].T)

    def __call__(self, x):
        # grids have one or two axes: the last is transformed from the
        # right, as one product, a first one from the left
        *first, last = self.bases
        n = last.shape[0]
        u = x.reshape(self.shape)
        for V in first:
            u = V.T @ u
        u = (u.reshape(-1, n) @ last).reshape(u.shape) * self.scale
        u = (u.reshape(-1, n) @ self.last_t).reshape(u.shape)
        for V in first:
            u = V @ u
        return u.ravel()


class _History:
    """The curvature pairs (s, y) of the last ``memory`` accepted steps, in
    the compact representation of the L-BFGS matrix (Byrd, Nocedal &
    Schnabel, 1994) with H0 = gamma M.  The steps S and the smoothed
    gradient changes MY = M Y are stacked in (memory, n) buffers whose rows
    are reused oldest first; Y itself is not kept, since M is symmetric.
    R[i][j] = s_i^T y_j (i <= j) and W[i][j] = y_i^T M y_j are small lists
    over the pairs from oldest to newest, whose buffer rows are ``slots``."""

    def __init__(self, memory: int, smooth: _GridSmoother, n: int):
        self.smooth, self.memory = smooth, memory
        self.SMY = np.zeros((2 * memory, n))      # rows: S, then MY
        self.slots, self.R, self.W = [], [], []

    def push(self, s, y):
        """Keep the pair (s, y) unless s^T y <= 1e-10 |s| |y|."""
        if not float(s @ y) > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            return
        k = len(self.slots)
        if k == self.memory:
            k = self.slots.pop(0)
            self.R, self.W = ([row[1:] for row in t[1:]] for t in (self.R, self.W))
        self.slots.append(k)
        self.SMY[k], self.SMY[self.memory + k] = s, self.smooth(y)
        sy, ymy = (self.SMY @ y).reshape(2, -1)[:, self.slots].tolist()
        self.R = [row + [v] for row, v in zip(self.R, sy)]
        self.R.append([0.0] * (len(sy) - 1) + sy[-1:])
        self.W = [row + [v] for row, v in zip(self.W, ymy)] + [ymy]

    def direction(self, g):
        """H g, for H0 = gamma M with gamma = s^T y / y^T M y of the newest
        pair (M g alone without pairs).  With D the diagonal of the upper
        triangular R: R a = S^T g, R^T b = D a - gamma ((MY)^T g - W a), and
        H g = gamma (M g - MY^T a) + S^T b (the two-loop recursion's alphas
        and alphas minus betas)."""
        Mg = self.smooth(g)
        R, W, m = self.R, self.W, len(self.slots)
        if not m:
            return Mg
        Sg, MYg = (self.SMY @ g).reshape(2, -1)[:, self.slots].tolist()
        gamma = R[-1][-1] / W[-1][-1]
        a = [0.0] * m
        for i in range(m - 1, -1, -1):
            acc = Sg[i]
            for j in range(i + 1, m):
                acc -= R[i][j] * a[j]
            a[i] = acc / R[i][i]
        b = [0.0] * m
        for i in range(m):
            acc = MYg[i]
            for j in range(m):
                acc -= W[i][j] * a[j]
            acc = R[i][i] * a[i] - gamma * acc
            for j in range(i):
                acc -= R[j][i] * b[j]
            b[i] = acc / R[i][i]
        coef = np.zeros((2, self.memory))
        coef[:, self.slots] = b, a
        coef[1] *= -gamma
        return gamma * Mg + coef.ravel() @ self.SMY


def minimize(state0: State, g: MetricChart, S, p: float,
             cfg: Optional[OptimizeConfig] = None):
    """Descend the discrete energy from state0; returns (state, trace).

    Limited-memory quasi-Newton directions from the grid-smoothing initial
    matrix gamma M (see the module docstring; the first direction is
    -M grad), with Armijo backtracking (sufficient decrease 1e-4, factor 0.5,
    first trial step min(1, 1/|grad|_max) and 1 after).  Terminates on the
    gradient max-norm ("grad_tol"), the step max-norm ("step_tol"), the
    iteration cap ("max_iters"), or 60 failed backtracks (best state
    returned with reason "line_search_failed").  The trace counts energy and
    gradient evaluations and backtracks.
    """
    if cfg is None:
        cfg = OptimizeConfig()
    ev = _Evaluator(state0, g, S, p)
    x = pack_state(state0)
    history = _History(cfg.memory, _GridSmoother(state0.grid), x.size)
    total, stretch, bend = ev.energy(x)
    if not np.isfinite(total):
        raise BadConfig("energy not finite at the initial state")
    grad = ev.gradient(x)
    gnorm = float(np.max(np.abs(grad)))

    trace = OptimizeTrace(nfev=1, ngev=1)
    trace.append(0, total, stretch, bend, gnorm, 0.0)

    for it in range(1, cfg.max_iters + 1):
        if gnorm <= cfg.grad_tol:
            trace.reason = "grad_tol"
            break
        direction = -history.direction(grad)
        slope = float(direction @ grad)
        if slope >= 0.0:
            direction = -grad
            slope = float(direction @ grad)
        t = 1.0 if history.slots else min(1.0, 1.0 / max(gnorm, 1e-12))
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
        history.push(s_vec, y_vec)
        trace.append(it, total, stretch, bend, gnorm, t)
        if float(np.max(np.abs(s_vec))) <= cfg.step_tol:
            trace.reason = "step_tol"
            break
    else:
        trace.reason = "max_iters"
    return unpack_like(x, state0), trace
