"""Compatibility checking and reconstruction of immersions from (g, S).

For a Euclidean target the fundamental forms must satisfy the Gauss and
Codazzi identities (with II = g S):

    R_ijkl(g) = II_ik II_jl - II_il II_jk
    grad_i II_jk = grad_j II_ik

Both residuals are evaluated with the same grid stencils used everywhere else,
so they converge at second order for smooth compatible data.  The curvature
path is component-major, (entries, *counts), with every contraction an
elementwise sum over the contracted index, Gamma and g^{-1} from the
Christoffel formula of :mod:`imlab.geometry`, and it computes only the
independent index pairs: R_ijkl at k < l and the Codazzi tensor at i < j.
Their other entries are exact negations or zeros in floating point, so the
maxima over the pairs are the maxima over all entries.  Reconstruction
integrates the moving-frame system

    d_i f = E_i,   d_i E_j = Gamma^k_ij E_k + II_ij n,   d_i n = -E_j S^j_i

with classical fourth-order Runge-Kutta steps: first along the grid's first
axis through the anchor, then along the second axis per column.  The discrete
integration path is fixed (path independence holds only in the continuum).
The coefficients Gamma, II and S depend on the point only, so each sweep
evaluates them once, batched over its nodes and midpoints; an RK4 stage reads
them from that table and updates only the frame (E, n); f follows their E.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from .errors import (AsymmetricShape, DegenerateCovariance, GridMismatch,
                     IncompatibleForms, NonSPDAnchor, is_int)
from .fields import (CompatibilityReport, DiscreteImmersion, Grid, ShapeField,
                     atomic_write, axis_derivative, axis_second_derivative,
                     jacobian_array, quadrature_weights)
from .geometry import (MetricChart, chart, christoffel, christoffel_from_values,
                       component_major, first_kind, left_mul, riemann_from_values,
                       right_mul)

COMPAT_SAFETY = 10.0


def _metric_node_values(g, grid: Grid) -> np.ndarray:
    if isinstance(g, MetricChart):
        return g.eval(grid.nodes())
    gv = np.asarray(g, dtype=float)
    d = grid.dim
    if gv.shape != grid.counts + (d, d):
        raise ValueError("tabulated metric has wrong shape for this grid")
    return gv


def _christoffel_terms(G, grid: Grid) -> tuple:
    """Gamma^a_bc and, at b != k, d_k Gamma^a_bc, component-major, from the
    stencils of the metric values G (d, d, *counts), whose error coefficients,
    unlike Gamma's, do not jump between boundary and interior stencils.
    Gamma, G^{-1} from christoffel_from_values, d_k G^{-1} = -G^{-1} d_k G G^{-1}."""
    d, h = grid.dim, grid.spacing
    dG = jacobian_array(G, grid)                    # [i, j, k] = d_k g_ij
    # [i, j, k, l] = d_k d_l g_ij: same-axis stencils, mixed ones nested
    # along distinct axes (second order up to the boundary)
    d2G = np.empty((d,) * 4 + grid.counts)
    for k in range(d):
        d2G[:, :, k, k] = axis_second_derivative(G, 2 + k, h[k])
        for l in range(k + 1, d):
            d2G[:, :, k, l] = d2G[:, :, l, k] = axis_derivative(dG[:, :, l], 2 + k, h[k])
    Gam, Ginv = christoffel_from_values(G, dG)
    dGam = np.empty((d,) * 4 + grid.counts)
    for k in range(d):
        dGinv = -right_mul(left_mul(Ginv, dG[:, :, k]), Ginv)
        for l in set(range(d)) - {k}:
            dGam[k, :, l] = 0.5 * (left_mul(dGinv, first_kind(dG, l))
                                   + left_mul(Ginv, first_kind(d2G[:, :, k], l)))
    return Gam, dGam


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
    if grid.dim == 1:
        zeros = np.zeros(grid.counts)
        tol = np.full(grid.counts, COMPAT_SAFETY * h * h)
        return CompatibilityReport(zeros, zeros.copy(), tol, True)
    II = component_major(0.5 * (II + np.swapaxes(II, -1, -2)), 2)
    G = component_major(gv, 2)
    Gam, dGam = _christoffel_terms(G, grid)
    R = riemann_from_values(G, Gam, dGam)
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


def _default_anchor_frame(g: MetricChart, anchor_point) -> tuple:
    """Transposed Cholesky factor of g(anchor) in the last-coordinate-zero plane."""
    ga = g.eval(anchor_point)
    try:
        L = np.linalg.cholesky(ga)
    except np.linalg.LinAlgError as exc:
        raise NonSPDAnchor("metric at the anchor is not positive definite") from exc
    d = g.dim
    E0 = np.zeros((d + 1, d))
    E0[:d, :] = L.T
    n0 = np.zeros(d + 1)
    n0[d] = 1.0
    return E0, n0


def _validate_frame(g: MetricChart, anchor_point, E0, n0):
    ga = g.eval(anchor_point)
    if np.max(np.abs(E0.T @ E0 - ga)) > 1e-8 * (1.0 + np.max(np.abs(ga))):
        raise NonSPDAnchor("anchor frame does not reproduce g(anchor)")
    if abs(n0 @ n0 - 1.0) > 1e-8 or np.max(np.abs(E0.T @ n0)) > 1e-8:
        raise NonSPDAnchor("anchor normal must be unit and orthogonal to the frame")
    if np.linalg.det(np.column_stack([E0, n0])) <= 0:
        raise NonSPDAnchor("anchor frame must be positively oriented")


def _sweep_coefficients(g: MetricChart, X, Snode, Smid, axis: int) -> tuple:
    """The point-only coefficients of the frame system along ``axis`` at the
    2n-1 half-step points ``X`` (2n-1, batch, d) of one sweep, nodes at even
    and midpoints at odd indices: Gamma^k_(axis)j, II_(axis)j = (g S)_(axis)j
    and S^j_(axis), from one batched Christoffel and one batched metric
    evaluation.  ``Snode``/``Smid`` hold S at the nodes and midpoints."""
    S = np.empty((2 * len(Snode) - 1,) + Snode.shape[1:])
    S[0::2], S[1::2] = Snode, Smid
    Gam = christoffel(g, X)[..., :, axis, :].copy()
    II = (g.eval(X) @ S)[..., axis, :].copy()
    return Gam, II, S[..., :, axis]


def _frame_rhs(coef, t: int, E, N, axis: int):
    """Right-hand side of the moving-frame system along one axis, with the
    coefficients at half-step ``t`` of the sweep's table: state work only.
    It does not depend on the position F, so the RK4 stages carry none."""
    Gam, II, Sa = (c[t] for c in coef)
    # the sums over k of E Gam and E S, written out in index order
    GE = E[..., :, 0, None] * Gam[..., None, 0, :]
    SE = E[..., :, 0] * Sa[..., 0, None]
    for k in range(1, E.shape[-1]):
        GE = GE + E[..., :, k, None] * Gam[..., None, k, :]
        SE = SE + E[..., :, k] * Sa[..., k, None]
    return E[..., :, axis], GE + N[..., :, None] * II[..., None, :], -SE


def _rk4_march(coef, axis, h, start, stop, F, E, N, out):
    """March the frame system from node ``start`` to ``stop`` of one sweep.

    Node j reads the coefficient table at half-step 2j, the midpoint towards
    the next node at 2j + step.  States are written into ``out`` (a list of
    per-node slots).
    """
    step = 1 if stop > start else -1
    hh = h * step
    for j in range(start, stop, step):
        k1 = _frame_rhs(coef, 2 * j, E, N, axis)
        k2 = _frame_rhs(coef, 2 * j + step, E + 0.5 * hh * k1[1], N + 0.5 * hh * k1[2], axis)
        k3 = _frame_rhs(coef, 2 * j + step, E + 0.5 * hh * k2[1], N + 0.5 * hh * k2[2], axis)
        k4 = _frame_rhs(coef, 2 * (j + step), E + hh * k3[1], N + hh * k3[2], axis)

        F = F + hh / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        E = E + hh / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        N = N + hh / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        out[j + step] = (F, E, N)


def _sweep(g, X, Snode, Smid, axis, h, i0, state) -> list:
    """March one sweep (see :func:`_sweep_coefficients`) from node ``i0``,
    which holds ``state``, to both ends; returns F, E and N with the batch
    leading and the node second."""
    coef = _sweep_coefficients(g, X, Snode, Smid, axis)
    slots = [None] * len(Snode)
    slots[i0] = state
    _rk4_march(coef, axis, h, i0, len(Snode) - 1, *state, slots)
    _rk4_march(coef, axis, h, i0, 0, *state, slots)
    return [np.stack([s[c] for s in slots], axis=1) for c in range(3)]


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
    pass ``frame=(E0, n0)`` for a custom admissible frame.  ``anchor_index``
    must be d integers 0 <= i < n_a (ValueError otherwise).  With
    ``return_frame`` the integrated tangent frame and normal node arrays are
    returned alongside the immersion.  ``g`` must be a chart (TypeError
    otherwise): the march evaluates it between the nodes.
    """
    if not isinstance(g, MetricChart):
        raise TypeError(f"integrate_frame needs a MetricChart g, not {type(g).__name__}")
    anchor_index = _anchor(anchor_index, grid)
    report = gauss_codazzi_residual(g, S, grid)
    if not report.passed:
        raise IncompatibleForms(
            f"Gauss residual {report.max_gauss:.3e}, "
            f"Codazzi residual {report.max_codazzi:.3e} exceed tolerance")
    d = grid.dim
    axes = grid.axes()
    anchor_point = np.array([axes[a][anchor_index[a]] for a in range(d)])
    if frame is None:
        E0, n0 = _default_anchor_frame(g, anchor_point)
    else:
        E0 = np.asarray(frame[0], dtype=float)
        n0 = np.asarray(frame[1], dtype=float)
        _validate_frame(g, anchor_point, E0, n0)

    Sv = S.values
    h = grid.spacing
    state = (np.zeros((1, d + 1)), E0[None, ...], n0[None, ...])
    # half-step coordinates along the first axis, x_0 + (k/2) h
    x = axes[0][0] + np.arange(2 * grid.counts[0] - 1) / 2.0 * h[0]

    if d == 1:
        F, E, N = (a[0] for a in _sweep(g, x[:, None, None], Sv[:, None],
                                        _midpoint_values(Sv, 0)[:, None],
                                        0, h[0], anchor_index[0], state))
    else:
        # first sweep: along axis 0 on the anchor row
        i0, j0 = anchor_index
        Srow = Sv[:, j0]
        row = np.stack([x, np.full_like(x, axes[1][j0])], axis=-1)[:, None]
        state = [a[0] for a in _sweep(g, row, Srow[:, None],
                                      _midpoint_values(Srow, 0)[:, None],
                                      0, h[0], i0, state)]
        # second sweep: along axis 1, all columns in a single batch
        y = axes[1][0] + np.arange(2 * grid.counts[1] - 1) / 2.0 * h[1]
        col = np.stack(np.broadcast_arrays(axes[0], y[:, None]), axis=-1)
        F, E, N = _sweep(g, col, np.moveaxis(Sv, 1, 0),
                         np.moveaxis(_midpoint_values(Sv, 1), 1, 0),
                         1, h[1], j0, state)
    out = DiscreteImmersion(grid, F, chart("euclidean", d + 1))
    return (out, E, N) if return_frame else out


# ---------------------------------------------------------------------------
# rigid alignment


def align_rigid(f: DiscreteImmersion, f0: DiscreteImmersion):
    """Optimal rotation and translation matching f0 to f (weighted Procrustes).

    Minimizes the quadrature-weighted squared L2 distance over proper
    rotations via the SVD of the cross-covariance.  Returns (R, b, aligned f0)
    with aligned values R f0 + b.
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
    U, s, Vt = np.linalg.svd(C)
    if s[-2] <= 1e-12 * max(s[0], 1e-300):
        raise DegenerateCovariance("cross-covariance is rank deficient")
    sign = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
    D = np.ones(len(s))
    D[-1] = sign
    R = (U * D) @ Vt
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
