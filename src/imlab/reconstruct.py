"""The compatibility equations of (g, S) and the frame march that realizes them.

For a Euclidean target the fundamental forms must satisfy the Gauss and
Codazzi identities (with II = g S):

    R_ijkl(g) = II_ik II_jl - II_il II_jk
    grad_i II_jk = grad_j II_ik

Both residuals are evaluated with the same grid stencils used everywhere else,
so they converge at second order for smooth compatible data.  The library's
one curvature path is component-major, (entries, *counts), with every
contraction an elementwise sum over the contracted index, Gamma and g^{-1}
from the Christoffel formula of :mod:`imlab.geometry`, and it computes only
the independent index pairs: R_ijkl at k < l and the Codazzi tensor at i < j.
Their other entries are exact negations or zeros in floating point, so the
maxima over the pairs are the maxima over all entries.  Reconstruction
integrates the moving-frame system for the frame P = [E | n] and position f,

    d_a P = P omega_a,   d_a f = E_a,

with the connection omega_a[k, j] = Gamma^k_aj, omega_a[d, j] = II_aj,
omega_a[k, d] = -S^k_a and omega_a[d, d] = 0, by classical fourth-order
Runge-Kutta steps, one sweep per grid axis: sweep a marches along axis a
from every node the earlier sweeps reached, on the anchor's line of the
later axes, in one batch (a curve is the one-sweep case).  The discrete
integration path is fixed (path independence holds only in the continuum).
omega_a depends on the point only, so each sweep tabulates it once over its
nodes and midpoints; an RK4 stage is one per-node product P omega_a of
:mod:`imlab.geometry`, and f follows the stage's column P[:, a].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import (AsymmetricShape, DegenerateCovariance, GridMismatch,
                     IncompatibleForms, NonSPDAnchor, is_int)
from .fields import (DiscreteImmersion, Grid, ShapeField, _node_values, atomic_write,
                     axis_derivative, axis_second_derivative, jacobian_array, quadrature_weights)
from .geometry import (RANK_RTOL, MetricChart, _node_product, _rotation_factors_svd, chart,
                       christoffel, christoffel_from_values, component_major, first_kind,
                       left_mul, node_major, right_mul, spd_factors)
from .immersion import pullback_metric, shape_operator

COMPAT_SAFETY = 10.0


@dataclass(frozen=True)
class CompatibilityReport:
    gauss_residual: np.ndarray
    codazzi_residual: np.ndarray
    tolerance: np.ndarray
    passed: bool

    @property
    def max_gauss(self) -> float:
        return float(np.max(self.gauss_residual))

    @property
    def max_codazzi(self) -> float:
        return float(np.max(self.codazzi_residual))


def _metric_node_values(g, grid: Grid) -> np.ndarray:
    if isinstance(g, MetricChart):
        return g.eval(grid.nodes())
    return _node_values(grid, g, (grid.dim,) * 2, "metric")


def _christoffel_terms(G, Gsi, grid: Grid) -> tuple:
    """Gamma^a_bc and, at b != k, d_k Gamma^a_bc, component-major, from the
    stencils of the metric values G (d, d, *counts), whose error coefficients,
    unlike Gamma's, do not jump between boundary and interior stencils.  Gamma,
    G^{-1} from christoffel_from_values on G^{-1/2} = Gsi, d_k G^{-1} = -G^{-1} d_k G G^{-1}."""
    d, h = grid.dim, grid.spacing
    dG = jacobian_array(G, grid)                    # [i, j, k] = d_k g_ij
    # [i, j, k, l] = d_k d_l g_ij: same-axis stencils, mixed ones nested
    # along distinct axes (second order up to the boundary)
    d2G = np.empty((d,) * 4 + grid.counts)
    for k in range(d):
        d2G[:, :, k, k] = axis_second_derivative(G, 2 + k, h[k])
        for l in range(k + 1, d):
            d2G[:, :, k, l] = d2G[:, :, l, k] = axis_derivative(dG[:, :, l], 2 + k, h[k])
    Gam, Ginv = christoffel_from_values(Gsi, dG)
    dGam = np.empty((d,) * 4 + grid.counts)
    for k in range(d):
        dGinv = -right_mul(left_mul(Ginv, dG[:, :, k]), Ginv)
        for l in set(range(d)) - {k}:
            dGam[k, :, l] = 0.5 * (left_mul(dGinv, first_kind(dG, l))
                                   + left_mul(Ginv, first_kind(d2G[:, :, k], l)))
    return Gam, dGam


def _riemann_pairs(G, Gam, dGam) -> np.ndarray:
    """Lowered curvature R_ijkl = g_im (A^m_jkl - A^m_jlk), A^m_jkl = d_k Gamma^m_lj
    + Gamma^m_kn Gamma^n_lj, at the pairs k < l in ``combinations`` order:
    component-major (d, d, pairs, ...) from G (d, d, ...), Gam[a, b, c] =
    Gamma^a_bc and dGam[k, a, b, c] = d_k Gamma^a_bc, read only where b != k.
    As a difference of A and its swap, R is exactly antisymmetric in (k, l)."""
    pairs = list(combinations(range(G.shape[0]), 2))
    R = np.empty(G.shape[:2] + (len(pairs),) + G.shape[2:])
    for p, (k, l) in enumerate(pairs):
        R[:, :, p] = left_mul(G, (dGam[k, :, l] + left_mul(Gam[:, k], Gam[:, l]))
                              - (dGam[l, :, k] + left_mul(Gam[:, l], Gam[:, k])))
    return R


def gauss_codazzi_residual(g, S: ShapeField, grid: Grid) -> CompatibilityReport:
    """Node-wise residuals of the Gauss and Codazzi identities for (g, S).

    ``g`` may be a metric chart (sampled at the nodes) or a node array of
    metric matrices; ``S`` must live on ``grid`` (GridMismatch otherwise).
    The pass tolerance is 10 h^2 scaled by the local curvature magnitude, so
    discretized-but-compatible inputs pass while genuinely incompatible ones
    fail.  Both tensors are computed at their independent pairs, k < l of
    R_ijkl and i < j of the Codazzi tensor; the other entries are exact
    negations or zeros, so the maxima over all entries are the same.
    """
    if S.grid != grid:
        raise GridMismatch("shape field and metric live on different grids")
    gv = _metric_node_values(g, grid)
    II = gv @ S.values
    h = max(grid.spacing)
    # same h^2 scaling as the compatibility gate: forms extracted from a
    # discrete immersion carry O(h^2) asymmetry that must pass
    asym = np.max(np.abs(II - np.swapaxes(II, -1, -2)))
    if asym > COMPAT_SAFETY * h * h * (1.0 + np.max(np.abs(II))):
        raise AsymmetricShape(f"g*S asymmetry {asym:.3e} exceeds tolerance")
    Gsi = spd_factors(gv)[2]     # the SPD gate, on curves and surfaces alike
    if grid.dim == 1:
        zeros = np.zeros(grid.counts)
        tol = np.full(grid.counts, COMPAT_SAFETY * h * h)
        return CompatibilityReport(zeros, zeros.copy(), tol, True)
    II = component_major(0.5 * (II + np.swapaxes(II, -1, -2)), 2)
    G = component_major(gv, 2)
    Gam, dGam = _christoffel_terms(G, component_major(Gsi, 2), grid)
    R = _riemann_pairs(G, Gam, dGam)
    # II_ik II_jl - II_il II_jk over the pairs k < l, indexed [i, j, pair]
    k, l = np.array(list(combinations(range(grid.dim), 2))).T
    Ik, Il = II[:, k], II[:, l]
    gauss_res = np.max(np.abs(R - (Ik[:, None] * Il[None] - Il[:, None] * Ik[None])),
                       axis=(0, 1, 2))

    def cov(i, j):
        # grad_i II_jk = d_i II_jk - Gam^m_ij II_mk - Gam^m_ik II_jm, over k
        return ((axis_derivative(II[j], 1 + i, grid.spacing[i])
                 - left_mul(Gam[None, :, i, j], II)[0]) - left_mul(II[None, j], Gam[:, i])[0])

    codazzi_res = np.max([np.abs(cov(i, j) - cov(j, i))
                          for i, j in combinations(range(grid.dim), 2)], axis=(0, 1))
    local_scale = 1.0 + np.max(np.abs(R), axis=(0, 1, 2)) \
        + np.max(np.abs(II), axis=(0, 1)) ** 2
    tol = COMPAT_SAFETY * h * h * local_scale
    passed = bool(np.all(gauss_res <= tol) and np.all(codazzi_res <= tol))
    return CompatibilityReport(gauss_res, codazzi_res, tol, passed)


# ---------------------------------------------------------------------------
# frame integration


def _midpoint_values(arr, axis: int) -> np.ndarray:
    """Cubic 4-point interpolation of node values at interval midpoints: exact
    for cubics, one-sided at the first and last interval of the axis, which
    has at least 4 nodes like every grid axis."""
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    mid = np.empty((a.shape[0] - 1,) + a.shape[1:])
    mid[1:-1] = (-a[:-3] + 9.0 * a[1:-2] + 9.0 * a[2:-1] - a[3:]) / 16.0
    c = np.array([0.3125, 0.9375, -0.3125, 0.0625])
    mid[0] = np.tensordot(c, a[:4], axes=(0, 0))
    mid[-1] = np.tensordot(c[::-1], a[-4:], axes=(0, 0))
    return np.moveaxis(mid, 0, axis)


def _anchor_frame(g: MetricChart, anchor_point, frame) -> np.ndarray:
    """The frame matrix P0 = [E0 | n0] (d+1, d+1) at the anchor, from one
    evaluation of g there: by default E0 is the transposed Cholesky factor of
    g(anchor) in the last-coordinate-zero plane and n0 the last axis (the
    residual gate has passed g at every node through the SPD gate); a custom
    ``frame=(E0, n0)`` must be finite, shaped (d+1, d) and (d+1,), reproduce
    g(anchor) and carry a unit normal orthogonal to E0 that makes P0
    positively oriented (NonSPDAnchor otherwise)."""
    ga, d = g.eval(anchor_point), g.dim
    if frame is None:
        P0 = np.eye(d + 1)
        P0[:d, :d] = np.linalg.cholesky(ga).T
        return P0
    E0, n0 = (np.asarray(c, dtype=float) for c in frame)
    if E0.shape != (d + 1, d) or n0.shape != (d + 1,) \
            or not (np.isfinite(E0).all() and np.isfinite(n0).all()):
        raise NonSPDAnchor(f"anchor frame must be finite arrays of shapes {(d + 1, d)} "
                           f"and {(d + 1,)}, got {E0.shape} and {n0.shape}")
    if np.max(np.abs(E0.T @ E0 - ga)) > 1e-8 * (1.0 + np.max(np.abs(ga))):
        raise NonSPDAnchor("anchor frame does not reproduce g(anchor)")
    if abs(n0 @ n0 - 1.0) > 1e-8 or np.max(np.abs(E0.T @ n0)) > 1e-8:
        raise NonSPDAnchor("anchor normal must be unit and orthogonal to the frame")
    P0 = np.column_stack([E0, n0])
    if np.linalg.det(P0) <= 0:
        raise NonSPDAnchor("anchor frame must be positively oriented")
    return P0


def _sweep_coefficients(g: MetricChart, X, line, axis: int) -> np.ndarray:
    """The connection table omega of the frame system along ``axis`` at the
    2n-1 half-step points ``X`` (2n-1, *batch, d) of one sweep, nodes at even
    and midpoints at odd indices, indexed [t, d+1, d+1, *batch]: omega[k, j]
    = Gamma^k_(axis)j, omega[d, j] = II_(axis)j = (g S)_(axis)j, omega[k, d]
    = -S^k_(axis) and omega[d, d] = 0, from one batched Christoffel and one
    batched metric evaluation.  ``line`` holds S at the sweep's nodes,
    node-major with the march along ``axis``."""
    d = X.shape[-1]
    S = np.empty(X.shape + (d,))
    S[0::2] = np.moveaxis(line, axis, 0)
    S[1::2] = np.moveaxis(_midpoint_values(line, axis), axis, 0)
    Gam, II = christoffel(g, X)[..., :, axis, :], (g.eval(X) @ S)[..., axis, :]
    omega = np.zeros((X.shape[0], d + 1, d + 1) + X.shape[1:-1])
    w = np.moveaxis(omega, (1, 2), (-2, -1))     # its node-major view
    w[..., :d, :d], w[..., d, :d], w[..., :d, d] = Gam, II, -S[..., :, axis]
    return omega


def _rk4_march(omega, axis, h, start, stop, F, P, out):
    """March d_axis P = P omega, d_axis f = P[:, axis] from node ``start`` to
    ``stop`` of one sweep, each stage one per-node product with the table
    omega at half-step 2j for node j, 2j + step for the midpoint towards the
    next node.  States are written into ``out`` (a list of per-node slots)."""
    step = 1 if stop > start else -1
    hh = h * step
    for j in range(start, stop, step):
        K1 = _node_product(P, omega[2 * j])
        P2 = P + 0.5 * hh * K1
        K2 = _node_product(P2, omega[2 * j + step])
        P3 = P + 0.5 * hh * K2
        K3 = _node_product(P3, omega[2 * j + step])
        P4 = P + hh * K3
        K4 = _node_product(P4, omega[2 * (j + step)])

        F = F + hh / 6.0 * (P[:, axis] + 2 * P2[:, axis] + 2 * P3[:, axis] + P4[:, axis])
        P = P + hh / 6.0 * (K1 + 2 * K2 + 2 * K3 + K4)
        out[j + step] = (F, P)


def _anchor(anchor_index, grid: Grid) -> tuple:
    """The anchor node: d integers 0 <= i < n_a, the first node by default."""
    if anchor_index is None:
        return (0,) * grid.dim
    idx = tuple(anchor_index) if isinstance(anchor_index, (tuple, list, np.ndarray)) else ()
    if len(idx) != grid.dim or not all(is_int(i) and 0 <= i < n
                                       for i, n in zip(idx, grid.counts)):
        raise ValueError(f"anchor_index must be {grid.dim} integers 0 <= i < n "
                         f"for counts {grid.counts}, got {anchor_index!r}")
    return tuple(int(i) for i in idx)


def integrate_frame(g: MetricChart, S: ShapeField, grid: Grid,
                    anchor_index: Optional[tuple] = None,
                    frame: Optional[tuple] = None,
                    return_frame: bool = False):
    """Reconstruct the Euclidean-target immersion carrying (g, S).

    The anchor frame defaults to the transposed Cholesky factor of g(anchor)
    embedded in the last-coordinate plane with the normal on the last axis;
    pass ``frame=(E0, n0)`` for a custom admissible frame (NonSPDAnchor
    otherwise).  ``anchor_index`` must be d integers 0 <= i < n_a
    (ValueError otherwise).  With ``return_frame`` the integrated tangent
    frame and normal node arrays are returned alongside the immersion.  ``g``
    must be a chart (TypeError otherwise): the march evaluates it between the
    nodes.  Forms that fail the Gauss-Codazzi gate raise IncompatibleForms, and
    so do forms the march does not carry, which the gate passes on some coarse
    grids: a pullback error above 10 h^2 max|g| or a shape-operator error above
    10 h^2 (1 + max|S|), h the largest spacing.
    """
    if not isinstance(g, MetricChart):
        raise TypeError(f"integrate_frame needs a MetricChart g, not {type(g).__name__}")
    anchor_index = _anchor(anchor_index, grid)
    report = gauss_codazzi_residual(g, S, grid)
    if not report.passed:
        raise IncompatibleForms(f"Gauss residual {report.max_gauss:.3e}, Codazzi residual "
                                f"{report.max_codazzi:.3e} exceed tolerance")
    d, axes = grid.dim, grid.axes()
    anchor_point = np.array([axes[a][anchor_index[a]] for a in range(d)])

    # component-major state: the position F (d+1, *batch) and the frame
    # matrix P = [E | n] (d+1, d+1, *batch)
    state = (np.zeros(d + 1), _anchor_frame(g, anchor_point, frame))
    for a, n in enumerate(grid.counts):
        # sweep a: along axis a from every node the earlier sweeps reached,
        # on the anchor's line of the later axes, all in one batch; its
        # half-step coordinates along axis a are x_0 + (k/2) h
        x = list(np.meshgrid(axes[a][0] + np.arange(2 * n - 1) / 2.0 * grid.spacing[a],
                             *axes[:a], indexing="ij"))
        X = np.stack(x[1:] + x[:1] + [np.full_like(x[0], axes[c][anchor_index[c]])
                                      for c in range(a + 1, d)], axis=-1)
        omega = _sweep_coefficients(g, X, S.values[(slice(None),) * (a + 1)
                                                   + anchor_index[a + 1:]], a)
        slots = [None] * n
        slots[anchor_index[a]] = state
        for stop in (n - 1, 0):
            _rk4_march(omega, a, grid.spacing[a], anchor_index[a], stop, *state, slots)
        state = [np.stack([s[c] for s in slots], axis=-1) for c in range(2)]
    F, P = state
    F, E, N = (np.ascontiguousarray(node_major(c, k))
               for c, k in ((F, 1), (P[:, :d], 2), (P[:, d], 1)))
    out = DiscreteImmersion(grid, F, chart("euclidean", d + 1))
    errors, scale = _form_errors(out, g, S)
    tol = COMPAT_SAFETY * max(grid.spacing) ** 2 * np.array(scale)
    if not np.all(np.array(list(errors.values())) <= tol):     # NaN included
        raise IncompatibleForms("the march misses its forms: pullback, shape-operator errors "
                                "%.3e, %.3e > %g h^2 max|g|, %g h^2 (1 + max|S|) = %.3e, %.3e"
                                % (*errors.values(), COMPAT_SAFETY, COMPAT_SAFETY, *tol))
    return (out, E, N) if return_frame else out


def _form_errors(f: DiscreteImmersion, g: MetricChart, S: ShapeField) -> tuple:
    """Max-norm errors of the pullback metric and the shape operator of f against
    (g, S), as report entries, and the sizes max|g| and 1 + max|S| of their bounds."""
    gv, so = g.eval(f.grid.nodes()), shape_operator(f).values - S.values
    return ({"pullback_max_error": float(np.max(np.abs(pullback_metric(f) - gv))),
             "shape_operator_max_error": float(np.max(np.abs(so)))},
            (np.max(np.abs(gv)), 1.0 + np.max(np.abs(S.values))))


# ---------------------------------------------------------------------------
# rigid alignment


def align_rigid(f: DiscreteImmersion, f0: DiscreteImmersion):
    """Optimal rotation and translation matching f0 to f (weighted Procrustes).

    Minimizes the quadrature-weighted squared L2 distance over proper
    rotations: R is the nearest rotation to the cross-covariance, from the
    rotation kernel's SVD, unless its second singular value is at most
    RANK_RTOL times the largest (DegenerateCovariance).  Returns (R, b,
    aligned f0) with aligned values R f0 + b.
    """
    if f.grid != f0.grid:
        raise GridMismatch("alignment requires a common grid")
    w = quadrature_weights(f.grid).reshape(-1)
    A = f.values.reshape(-1, f.values.shape[-1])
    B = f0.values.reshape(-1, f0.values.shape[-1])
    wsum = float(np.sum(w))
    mu = (w @ A) / wsum
    mu0 = (w @ B) / wsum
    C = (w[:, None] * (A - mu)).T @ (B - mu0)
    _, (s,), (R,) = _rotation_factors_svd(C[None])
    if s[-2] <= RANK_RTOL * max(s[0], 1e-300):
        raise DegenerateCovariance("cross-covariance is rank deficient")
    b = mu - R @ mu0
    aligned = DiscreteImmersion(f0.grid, f0.values @ R.T + b, f0.target)
    return R, b, aligned


# ---------------------------------------------------------------------------
# mesh export


def save_obj(path, f: DiscreteImmersion) -> None:
    """Wavefront OBJ export: row-major vertices, quad cells split in triangles."""
    if f.grid.dim != 2:
        raise ValueError("OBJ export supports surfaces only")
    n1, n2 = f.grid.counts
    # 1-based ids of each cell's corners (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    ids = np.arange(1, n1 * n2 + 1).reshape(n1, n2)
    a, b, c, dd = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    faces = np.stack([a, b, c, a, c, dd], axis=-1).ravel().tolist()
    # one %-format of the whole file; "%.17g" % x == fmt17(x) for every float x
    text = ("v %.17g %.17g %.17g\n" * (n1 * n2) + "f %d %d %d\n" * (len(faces) // 3)) \
        % tuple(f.values.ravel().tolist() + faces)
    atomic_write(path, text)
