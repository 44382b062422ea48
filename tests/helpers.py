"""Shared test utilities: random rotations, convergence orders, symbolic oracles,
the slicing finite-difference stencils that the library's difference
matrices are checked against, the per-stage RK4 frame march that the
library's per-sweep march is checked against, the node-major integrand
forwards and reverse passes that the component-major core is checked
against, the node-major grid smoother and L-BFGS two-loop recursion that
the minimizer's component-major smoother and compact L-BFGS direction are
checked against, and the einsum Gauss-Codazzi residual, curvature and
fundamental forms that the component-major compatibility path is checked
against."""

from collections import namedtuple
from typing import Optional

import numpy as np
import sympy as sp

from imlab import fields
from imlab.errors import (AsymmetricShape, RankDeficient, UnsupportedExponent,
                          UnsupportedTarget)
from imlab.fields import (CompatibilityReport, DiscreteImmersion, Grid, ShapeField,
                          quadrature_weights)
from imlab.geometry import (RANK_RTOL, SIGMA_GUARD, MetricChart, chart_factors,
                            christoffel, christoffel_from_values, component_major,
                            node_major, rotation_factors_cm, stiefel_factors_cm)
from imlab.immersion import covariant_normal_derivative, unit_normal
from imlab.optimize import SMOOTH_BETA, SMOOTH_POWER
from imlab.reconstruct import (COMPAT_SAFETY, _default_anchor_frame,
                               _metric_node_values, _midpoint_values, _validate_frame)


def random_rotation(rng, n):
    """Haar-ish random proper rotation via QR with sign fixing."""
    A = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def convergence_orders(errors):
    """log2 ratios of consecutive errors for spacing-halving refinements."""
    errors = np.asarray(errors, dtype=float)
    return np.log2(errors[:-1] / errors[1:])


# ---------------------------------------------------------------------------
# symbolic Levi-Civita oracle (independent of the numeric implementation)


def symbolic_christoffel(coords, gmat):
    """Gamma^a_bc as sympy expressions from a symbolic metric matrix."""
    n = len(coords)
    ginv = gmat.inv()
    Gam = [[[sp.simplify(sp.Rational(1, 2) * sum(
        ginv[a, d] * (sp.diff(gmat[d, b], coords[c])
                      + sp.diff(gmat[d, c], coords[b])
                      - sp.diff(gmat[b, c], coords[d]))
        for d in range(n))) for c in range(n)] for b in range(n)] for a in range(n)]
    return Gam


def symbolic_riemann_lowered(coords, gmat):
    """R_ijkl with the same index convention as the numeric implementation."""
    n = len(coords)
    Gam = symbolic_christoffel(coords, gmat)
    R_up = [[[[sp.simplify(
        sp.diff(Gam[m][l][j], coords[k]) - sp.diff(Gam[m][k][j], coords[l])
        + sum(Gam[m][k][q] * Gam[q][l][j] - Gam[m][l][q] * Gam[q][k][j]
              for q in range(n)))
        for l in range(n)] for k in range(n)] for j in range(n)] for m in range(n)]
    R_low = [[[[sp.simplify(sum(gmat[i, m] * R_up[m][j][k][l] for m in range(n)))
                for l in range(n)] for k in range(n)] for j in range(n)]
             for i in range(n)]
    return R_low


def lambdify_tensor(coords, tensor, shape):
    """Numeric evaluator for a nested list of sympy expressions."""
    flat = []

    def collect(t, depth):
        if depth == 0:
            flat.append(t)
            return
        for item in t:
            collect(item, depth - 1)

    collect(tensor, len(shape))
    fns = [sp.lambdify(coords, e, "numpy") for e in flat]

    def evaluate(point):
        vals = np.array([f(*point) for f in fns], dtype=float)
        return vals.reshape(shape)

    return evaluate


# ---------------------------------------------------------------------------
# reference finite-difference stencils: the slicing implementation the
# per-axis difference matrices of imlab.fields replaced, kept verbatim


def axis_derivative(values, axis: int, spacing: float) -> np.ndarray:
    """d/dx_axis of a node array: central interior, one-sided O(h^2) boundary.

    The boundary stencils use five points so their leading error term equals
    the interior one (+ h^2 f'''/6).  A uniform error coefficient keeps the
    error field of derived quantities smooth up to the boundary, which is what
    lets nested derivatives (curvature of pullback data, normal derivatives)
    converge at second order in the max norm.  Four-node axes fall back to the
    classical three-point stencil.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    if v.shape[0] >= 5:
        out[0] = (-5.0 * v[0] + 11.0 * v[1] - 10.0 * v[2] + 5.0 * v[3]
                  - v[4]) / (2.0 * spacing)
        out[-1] = (5.0 * v[-1] - 11.0 * v[-2] + 10.0 * v[-3] - 5.0 * v[-4]
                   + v[-5]) / (2.0 * spacing)
    else:
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return np.moveaxis(out, 0, axis)


def axis_second_derivative(values, axis: int, spacing: float) -> np.ndarray:
    """d^2/dx_axis^2: central interior, 4-point one-sided O(h^2) boundary.

    Direct second-derivative stencils avoid the order loss of nesting
    one-sided first-derivative stencils at the boundary.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    h2 = spacing * spacing
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def axis_derivative_adjoint(bar, axis: int, spacing: float) -> np.ndarray:
    """Adjoint of :func:`axis_derivative` under the unweighted node dot product."""
    b = np.moveaxis(np.asarray(bar, dtype=float), axis, 0)
    out = np.zeros_like(b)
    out[:-2] -= b[1:-1]
    out[2:] += b[1:-1]
    if b.shape[0] >= 5:
        for k, c in enumerate((-5.0, 11.0, -10.0, 5.0, -1.0)):
            out[k] += c * b[0]
            out[-1 - k] += -c * b[-1]
    else:
        out[0] += -3.0 * b[0]
        out[1] += 4.0 * b[0]
        out[2] += -b[0]
        out[-1] += 3.0 * b[-1]
        out[-2] += -4.0 * b[-1]
        out[-3] += b[-1]
    out /= (2.0 * spacing)
    return np.moveaxis(out, 0, axis)


def jacobian_array(values, grid: Grid) -> np.ndarray:
    """Raw Jacobian d_i f^alpha of a node array, shape (*counts, comps, dim)."""
    values = np.asarray(values, dtype=float)
    cols = [axis_derivative(values, i, grid.spacing[i]) for i in range(grid.dim)]
    return np.stack(cols, axis=-1)


def jacobian_adjoint(bar, grid: Grid) -> np.ndarray:
    """Adjoint of :func:`jacobian_array`: scatter (*counts, comps, dim) back."""
    bar = np.asarray(bar, dtype=float)
    out = np.zeros(bar.shape[:-1])
    for i in range(grid.dim):
        out += axis_derivative_adjoint(bar[..., i], i, grid.spacing[i])
    return out


# ---------------------------------------------------------------------------
# reference frame march: the per-stage RK4 march that the per-sweep
# coefficient tables of imlab.reconstruct replaced, kept verbatim (the
# Gauss-Codazzi gate aside); returns the immersion values, frame and normal


def _frame_rhs(g, X, Sx, F, E, N, axis: int):
    """Batched right-hand side of the moving-frame system along one axis."""
    Gam = christoffel(g, X)
    gx = g.eval(X)
    II = gx @ Sx
    dF = E[..., :, axis]
    dE = (np.einsum("...kj,...ck->...cj", Gam[..., :, axis, :], E)
          + N[..., :, None] * II[..., axis, None, :])
    dN = -np.einsum("...ck,...k->...c", E, Sx[..., :, axis])
    return dF, dE, dN


def _rk4_march(g, axis, point_of, Snode, Smid, h, start, stop, F, E, N, out):
    """March the frame system from index ``start`` to ``stop`` along one axis.

    ``point_of(j)`` gives the batched coordinates at marching index j;
    ``Snode[j]``/``Smid[j]`` index the shape operator at nodes / midpoints
    (midpoint j sits between nodes j and j+1).  States are written into
    ``out`` (a list of per-index slots).
    """
    step = 1 if stop > start else -1
    j = start
    while j != stop:
        jn = j + step
        mid = j if step > 0 else jn
        hh = h * step
        Xa, Xm, Xb = point_of(j), point_of(j + 0.5 * step), point_of(jn)
        Sa, Sm, Sb = Snode[j], Smid[mid], Snode[jn]

        k1 = _frame_rhs(g, Xa, Sa, F, E, N, axis)
        F1, E1, N1 = F + 0.5 * hh * k1[0], E + 0.5 * hh * k1[1], N + 0.5 * hh * k1[2]
        k2 = _frame_rhs(g, Xm, Sm, F1, E1, N1, axis)
        F2, E2, N2 = F + 0.5 * hh * k2[0], E + 0.5 * hh * k2[1], N + 0.5 * hh * k2[2]
        k3 = _frame_rhs(g, Xm, Sm, F2, E2, N2, axis)
        F3, E3, N3 = F + hh * k3[0], E + hh * k3[1], N + hh * k3[2]
        k4 = _frame_rhs(g, Xb, Sb, F3, E3, N3, axis)

        F = F + hh / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        E = E + hh / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        N = N + hh / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        out[jn] = (F, E, N)
        j = jn


def integrate_frame(g, S, grid: Grid, anchor_index=None, frame=None):
    """(values, E, N) of the per-stage march from the anchor frame."""
    d = grid.dim
    if anchor_index is None:
        anchor_index = (0,) * d
    anchor_index = tuple(int(i) for i in anchor_index)
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

    if d == 1:
        n0_count = grid.counts[0]
        i0 = anchor_index[0]
        slots = [None] * n0_count
        slots[i0] = (np.zeros((1, 2)), E0[None, ...], n0[None, ...])
        Smid = _midpoint_values(Sv, 0)

        def point_of(t):
            return np.array([[axes[0][0] + t * h[0]]])

        F, E, N = slots[i0]
        _rk4_march(g, 0, point_of, Sv, Smid, h[0], i0, n0_count - 1, F, E, N, slots)
        F, E, N = slots[i0]
        _rk4_march(g, 0, point_of, Sv, Smid, h[0], i0, 0, F, E, N, slots)
        return tuple(np.stack([slots[i][c][0] for i in range(n0_count)])
                     for c in range(3))

    n1, n2 = grid.counts
    i0, j0 = anchor_index

    # first sweep: along axis 0 on the anchor row
    row_slots = [None] * n1
    row_slots[i0] = (np.zeros((1, 3)), E0[None, ...], n0[None, ...])
    Srow = Sv[:, j0]
    Smid_row = _midpoint_values(Srow, 0)

    def row_point(t):
        return np.array([[axes[0][0] + t * h[0], axes[1][j0]]])

    F, E, N = row_slots[i0]
    if i0 < n1 - 1:
        _rk4_march(g, 0, row_point, Srow, Smid_row, h[0], i0, n1 - 1, F, E, N, row_slots)
    if i0 > 0:
        _rk4_march(g, 0, row_point, Srow, Smid_row, h[0], i0, 0, F, E, N, row_slots)

    # second sweep: along axis 1, all columns in a single batch
    F0 = np.concatenate([row_slots[i][0] for i in range(n1)], axis=0)
    E0b = np.concatenate([row_slots[i][1] for i in range(n1)], axis=0)
    N0 = np.concatenate([row_slots[i][2] for i in range(n1)], axis=0)
    col_slots = [None] * n2
    col_slots[j0] = (F0, E0b, N0)
    Snode = np.moveaxis(Sv, 1, 0)                # (n2, n1, d, d)
    Smid_col = np.moveaxis(_midpoint_values(Sv, 1), 1, 0)

    def col_point(t):
        y = axes[1][0] + t * h[1]
        return np.stack([axes[0], np.full(n1, y)], axis=-1)

    if j0 < n2 - 1:
        _rk4_march(g, 1, col_point, Snode, Smid_col, h[1], j0, n2 - 1, F0, E0b, N0, col_slots)
    if j0 > 0:
        _rk4_march(g, 1, col_point, Snode, Smid_col, h[1], j0, 0, F0, E0b, N0, col_slots)

    return tuple(np.stack([col_slots[j][c] for j in range(n2)], axis=1)
                 for c in range(3))


# ---------------------------------------------------------------------------
# reference integrand core: the node-major forwards and reverse passes (batched
# matmuls on (..., d+1, d) stacks) that the component-major core of
# imlab.energy and imlab.optimize replaced, kept verbatim but for the class
# names and the library stencils and frame kernels being called through the
# node-major wrappers below; the rank check, the connector and the cross
# products are the node-major ones they called


def library_jacobian(values, grid: Grid) -> np.ndarray:
    """The library Jacobian of a node-major array: (*counts, comps, dim)."""
    return fields.fd_jacobian(values, grid)


def library_jacobian_adjoint(bar, grid: Grid) -> np.ndarray:
    """The library stencil adjoint of a node-major (*counts, comps, dim)
    cotangent: (*counts, comps)."""
    out = fields.jacobian_adjoint(component_major(bar, 2), grid)
    return np.ascontiguousarray(node_major(out, 1))


def _frames_first(B):
    return np.moveaxis(np.asarray(B, dtype=float), (-2, -1), (0, 1))


def rotation_factors(B, polar=False):
    """:func:`imlab.geometry.rotation_factors_cm` of node-major (..., n, n)
    frames."""
    dist2, smin, r = rotation_factors_cm(_frames_first(B), polar)
    return dist2, smin, None if r is None else np.moveaxis(r, (0, 1), (-2, -1))


def stiefel_factors(Q, s=None, polar=False):
    """:func:`imlab.geometry.stiefel_factors_cm` of node-major (..., d+1, d)
    frames."""
    dist2, smin, P = stiefel_factors_cm(_frames_first(Q), s, polar)
    return dist2, smin, None if P is None else np.moveaxis(P, (0, 1), (-2, -1))


def cross_columns(B):
    """Euclidean normal direction to the column span, oriented positively.

    B has shape (..., d+1, d) with d in {1, 2}.  det([B | result]) > 0 holds
    automatically for these closed forms, and the length of the result is the
    product of the singular values of B.
    """
    d = B.shape[-1]
    if d == 1:
        b = B[..., 0]
        return np.stack([-b[..., 1], b[..., 0]], axis=-1)
    if d == 2:
        return cross3(B[..., 0], B[..., 1])
    raise ValueError("generalized cross product implemented for d in {1, 2}")


def cross3(a, b):
    """a x b for (..., 3) arrays, written out by components.

    Bit-identical to ``np.cross``, without its Python-level ``moveaxis``
    overhead, which dominates at the grid sizes used here.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                    axis=-1)


def _frame_and_rank_check(B, c):
    """Raise where sigma_min <= RANK_RTOL sigma_max, else return |c|; c is the
    cross product of the columns of the (..., d+1, d) frame B, whose length
    is sigma_1 ... sigma_d."""
    s = np.linalg.norm(c, axis=-1)
    _, smin, _ = stiefel_factors(B, s)
    # sigma_max^2 = |B|^2 - (d - 1) sigma_min^2 for d in {1, 2}
    smax2 = np.sum(B * B, axis=(-2, -1)) - (B.shape[-1] - 1) * smin ** 2
    bad = smin <= RANK_RTOL * np.maximum(np.sqrt(np.maximum(smax2, 0.0)), 1e-300)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise RankDeficient(f"differential is rank deficient at node {idx}")
    return s


def connector(target, points, Dv, J, v):
    """Derivative along a map, with differential J and values at ``points``,
    of a target vector field v with raw derivative Dv:
    Dv^a_i + Gamma^a_bc d_i f^b v^c (Dv itself for a constant target)."""
    if target.is_constant:
        return Dv
    Gam = christoffel(target, points)
    return Dv + np.einsum("...abc,...bi,...c->...ai", Gam, J, v)


ImmersionNodes = namedtuple("ImmersionNodes", "dist2 q2 Q P nu nhat HA")
DirectorNodes = namedtuple("DirectorNodes", "dist2 q2 B R HC")


class ReferenceIntegrands:
    """The stretching and bending integrands of one (grid, g, target, S) problem.

    g^{-1/2}, g^{-1}, the quadrature weights times sqrt det g and the factors
    of a constant target are computed once, here; a curved target is factored
    at the state's points in each forward, which then also adds the connector
    term Gamma(f) df v.  Without S the shape operator is zero.  With H = h,
    the bending integrand g^{ij} h_ab A^a_i A^b_j is sum((H A) * (A g^{-1})).
    """

    def __init__(self, grid: Grid, g: MetricChart, target: MetricChart,
                 S: Optional[ShapeField] = None):
        self.grid = grid
        self.target = target
        self.Sv = np.zeros((grid.dim, grid.dim)) if S is None else S.values
        # the square roots come out exactly symmetric, so they are their own
        # transposes in the minimizer's adjoints
        _, sdet, _, self.gsi = chart_factors(g, grid.nodes)
        self.ginv = self.gsi @ self.gsi
        self.wdet = quadrature_weights(grid) * sdet
        if target.is_constant:
            self.H, _, self.Hs, self.Hsi = chart_factors(target, None)

    def _target(self, points):
        """(h, h^{1/2}, h^{-1/2}): single matrices, or per node at the points."""
        if self.target.is_constant:
            return self.H, self.Hs, self.Hsi
        H, _, Hs, Hsi = chart_factors(self.target, points)
        return H, Hs, Hsi

    def _bend_sq(self, H, A):
        """(H A, max(|A|^2_{g,h}, 0)) per node."""
        HA = H @ A
        return HA, np.maximum(np.sum(HA * (A @ self.ginv), axis=(-2, -1)), 0.0)

    def immersion(self, values, polar=False, guard=None):
        """ImmersionNodes of the immersion with node values ``values``.

        Without ``guard``, raises RankDeficient where h^{1/2} J is rank
        deficient (:func:`imlab.immersion.unit_normal`'s rule); with it,
        returns None where sigma_min(Q) < guard.
        """
        J = library_jacobian(values, self.grid)
        H, Hs, Hsi = self._target(values)
        Q = Hs @ J @ self.gsi
        # the cross product of the columns of Q is det(g^{-1/2}) > 0 times
        # that of h^{1/2} J: same unit normal, and its length is sigma_1 sigma_2
        c = cross_columns(Q)
        nu = np.linalg.norm(c, axis=-1)
        dist2, smin, P = stiefel_factors(Q, nu, polar)
        if guard is None:
            B = Hs @ J
            _frame_and_rank_check(B, cross_columns(B))
        elif np.min(smin) < guard:
            return None
        nhat = c / nu[..., None]
        # n = h^{-1/2} nhat; a single (symmetric) h^{-1/2} multiplies from the
        # right, the product the minimizer's bits were fixed with
        n = nhat @ Hsi if Hsi.ndim == 2 else (Hsi @ nhat[..., None])[..., 0]
        A = connector(self.target, values, library_jacobian(n, self.grid), J, n) + J @ self.Sv
        HA, q2 = self._bend_sq(H, A)
        return ImmersionNodes(dist2, q2, Q, P, nu, nhat, HA)

    def derivatives(self, foot, vec):
        """The Jacobians (Jx, Jv) of a director field's foot and vector."""
        return library_jacobian(foot, self.grid), library_jacobian(vec, self.grid)

    def director(self, foot, vec, polar=False, guard=None, J=None):
        """DirectorNodes of the director field (foot, vec); with ``guard``,
        None where sigma_min(B) < guard.  ``J`` reuses the pair that
        :meth:`derivatives` returned for this field."""
        Jx, Jv = self.derivatives(foot, vec) if J is None else J
        H, Hs, _ = self._target(foot)
        B = Hs @ np.concatenate([Jx @ self.gsi, vec[..., None]], axis=-1)
        dist2, smin, R = rotation_factors(B, polar)
        if guard is not None and np.min(smin) < guard:
            return None
        HC, q2 = self._bend_sq(H, Jx @ self.Sv + connector(self.target, foot, Jv, Jx, vec))
        return DirectorNodes(dist2, q2, B, R, HC)

    def sasaki_sq(self, foot, vec, J=None):
        """Squared Sasaki norm |Df_x|^2_{g,h} + |K o Dxi|^2_{g,h} per node;
        ``J`` as in :meth:`director`."""
        Jx, Jv = self.derivatives(foot, vec) if J is None else J
        K = connector(self.target, foot, Jv, Jx, vec)
        H, _, _ = self._target(foot)
        return self._bend_sq(H, Jx)[1] + self._bend_sq(H, K)[1]


def _cross_adjoint(B, cbar):
    """Backpropagate through the oriented column cross product."""
    d = B.shape[-1]
    if d == 1:
        b1 = np.stack([cbar[..., 1], -cbar[..., 0]], axis=-1)
        return b1[..., None]
    return np.stack([cross3(B[..., 1], cbar), cross3(cbar, B[..., 0])], axis=-1)


class ReferenceEvaluator:
    """Energy and gradient of one fixed (grid, g, S, p, target) problem.

    Holds the problem's :class:`imlab.energy.Integrands`, whose forwards give
    the energy and the intermediates of the reverse passes below; states
    whose smallest frame singular value sits below the gradient guard
    evaluate to +inf, so a line search never accepts a point where the
    gradient would be undefined.  The derivative of the bending integrand
    sum((H A) * (A g^{-1})) in A is 2 H A g^{-1}.
    """

    def __init__(self, template, g: MetricChart, S, p: float):
        if p < 2:
            raise UnsupportedExponent("gradients require p >= 2")
        if not template.target.is_constant:
            raise UnsupportedTarget("gradients support constant-metric targets only")
        self.template = template
        self.p = float(p)
        self.grid = template.grid
        self.core = ReferenceIntegrands(self.grid, g, template.target, S)
        self.SvT = np.swapaxes(self.core.Sv, -1, -2)
        self.is_immersion = isinstance(template, DiscreteImmersion)

    def _stretch_bar(self, dist2, Q, proj):
        """Weighted d(dist^p)/dQ = p dist^{p-2} (Q - proj)."""
        p = self.p
        coef = p * dist2 ** ((p - 2.0) / 2.0) if p != 2.0 else 2.0
        return (self.core.wdet * coef)[..., None, None] * (Q - proj)

    def _bend_bar(self, HA, q2):
        """Weighted d(|A|^p)/dA = p |A|^{p-2} H A g^{-1}."""
        p = self.p
        coef = self.core.wdet * p * (q2 ** ((p - 2.0) / 2.0) if p != 2.0 else 1.0)
        return coef[..., None, None] * (HA @ self.core.ginv)

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
        dist2, q2, Q, P, nu, nhat, HA = fwd
        Abar = self._bend_bar(HA, q2)
        nhat_bar = library_jacobian_adjoint(Abar, self.grid) @ core.Hsi
        cbar = (nhat_bar - nhat * np.sum(nhat * nhat_bar, axis=-1, keepdims=True)) \
            / nu[..., None]
        Qbar = self._stretch_bar(dist2, Q, P) + _cross_adjoint(Q, cbar)
        Jbar = core.Hs @ Qbar @ core.gsi + Abar @ self.SvT
        return library_jacobian_adjoint(Jbar, self.grid)

    def _director_gradient(self, fwd):
        d = self.grid.dim
        dist2, q2, B, proj, HC = fwd
        T = self.core.Hs @ self._stretch_bar(dist2, B, proj)
        Cbar = self._bend_bar(HC, q2)
        Jxbar = T[..., :, :d] @ self.core.gsi + Cbar @ self.SvT
        grad_foot = library_jacobian_adjoint(Jxbar, self.grid)
        grad_vec = library_jacobian_adjoint(Cbar, self.grid) + T[..., :, d]
        return grad_foot, grad_vec

    def gradient_parts(self, x: np.ndarray):
        """The gradient shaped like the state: the node values of an
        immersion, or the pair (grad_foot, grad_vec) of a director field."""
        fwd = self._forward(x, polar=True)
        if fwd is None:
            raise RankDeficient("frame singular value below gradient guard")
        if self.is_immersion:
            return self._immersion_gradient(fwd)
        return self._director_gradient(fwd)


# ---------------------------------------------------------------------------
# reference L-BFGS pieces: the grid smoother on node-major state vectors,
# with its permutations to and from component-major layout, and the two-loop
# recursion over a list of pairs, that imlab.optimize's component-major
# smoother and compact-representation direction replaced, kept verbatim


class GridSmoother:
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


def two_loop(grad, pairs, smooth):
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


# ---------------------------------------------------------------------------
# reference compatibility path: the node-major einsum contractions and the
# LAPACK inverse that the component-major curvature of imlab.geometry and
# imlab.reconstruct replaced, kept verbatim but for the function names; and
# the einsum and np.linalg.solve fundamental forms of imlab.immersion


def _grid_partials(values, grid: Grid) -> np.ndarray:
    """Stack of axis derivatives with the derivative index leading the tensor axes."""
    der = [fields.axis_derivative(values, i, grid.spacing[i]) for i in range(grid.dim)]
    return np.stack(der, axis=grid.dim)


def _grid_second_partials(values, grid: Grid) -> np.ndarray:
    """Second partials d_k d_l with two leading derivative indices.

    Same-axis entries use direct second-derivative stencils; mixed entries
    nest first-derivative stencils along distinct axes (which commute and
    keep second-order accuracy up to the boundary).
    """
    d, h = grid.dim, grid.spacing
    P = [[None] * d for _ in range(d)]
    for k in range(d):
        P[k][k] = fields.axis_second_derivative(values, k, h[k])
        for l in range(k + 1, d):
            P[k][l] = P[l][k] = fields.axis_derivative(
                fields.axis_derivative(values, l, h[l]), k, h[k])
    return np.stack([np.stack(row, axis=d) for row in P], axis=d)


def _christoffel_partials(gv, dG, d2G) -> np.ndarray:
    """Partials d_k Gamma^a_bc assembled from metric derivatives.

    Avoids differencing the Christoffel field itself, whose error
    coefficients jump between boundary and interior stencils.
    """
    Ginv = np.linalg.inv(gv)
    dGinv = -np.einsum("...am,...kmn,...nd->...kad", Ginv, dG, Ginv)
    T = np.swapaxes(dG, -3, -2) + np.moveaxis(dG, -3, -1) - dG
    dT = np.swapaxes(d2G, -3, -2) + np.moveaxis(d2G, -3, -1) - d2G
    return 0.5 * (np.einsum("...kad,...dbc->...kabc", dGinv, T)
                  + np.einsum("...ad,...kdbc->...kabc", Ginv, dT))


def riemann_from_values(G, Gam, dGam) -> np.ndarray:
    """Fully lowered curvature from Gamma and its partials dGam[..., k, a, b, c].

    R_ijkl = g_im (d_k Gamma^m_lj - d_l Gamma^m_kj
                   + Gamma^m_kn Gamma^n_lj - Gamma^m_ln Gamma^n_kj).
    """
    R_up = (np.einsum("...kmlj->...mjkl", dGam)
            - np.einsum("...lmkj->...mjkl", dGam)
            + np.einsum("...mkn,...nlj->...mjkl", Gam, Gam)
            - np.einsum("...mln,...nkj->...mjkl", Gam, Gam))
    return np.einsum("...im,...mjkl->...ijkl", G, R_up)


def gauss_codazzi_residual(g, S: ShapeField, grid: Grid) -> CompatibilityReport:
    """Node-wise residuals of the Gauss and Codazzi identities for (g, S)."""
    d = grid.dim
    gv = _metric_node_values(g, grid)
    Sv = S.values
    II = gv @ Sv
    h = max(grid.spacing)
    asym = np.max(np.abs(II - np.swapaxes(II, -1, -2)))
    if asym > COMPAT_SAFETY * h * h * (1.0 + np.max(np.abs(II))):
        raise AsymmetricShape(f"g*S asymmetry {asym:.3e} exceeds tolerance")
    II = 0.5 * (II + np.swapaxes(II, -1, -2))
    if d == 1:
        zeros = np.zeros(grid.counts)
        tol = np.full(grid.counts, COMPAT_SAFETY * h * h)
        return CompatibilityReport(zeros, zeros.copy(), tol, True)

    dG = _grid_partials(gv, grid)
    Gam = christoffel_from_values(gv, dG)
    dGam = _christoffel_partials(gv, dG, _grid_second_partials(gv, grid))
    R = riemann_from_values(gv, Gam, dGam)
    gauss_tensor = R - (np.einsum("...ik,...jl->...ijkl", II, II)
                        - np.einsum("...il,...jk->...ijkl", II, II))
    gauss_res = np.max(np.abs(gauss_tensor), axis=(-4, -3, -2, -1))

    # grad_i II_jk = d_i II_jk - Gam^m_ij II_mk - Gam^m_ik II_jm
    dII = _grid_partials(II, grid)
    covII = (dII
             - np.einsum("...mij,...mk->...ijk", Gam, II)
             - np.einsum("...mik,...jm->...ijk", Gam, II))
    cod_tensor = covII - np.swapaxes(covII, -3, -2)
    codazzi_res = np.max(np.abs(cod_tensor), axis=(-3, -2, -1))

    local_scale = 1.0 + np.max(np.abs(R), axis=(-4, -3, -2, -1)) \
        + np.max(np.abs(II), axis=(-2, -1)) ** 2
    tol = COMPAT_SAFETY * h * h * local_scale
    passed = bool(np.all(gauss_res <= tol) and np.all(codazzi_res <= tol))
    return CompatibilityReport(gauss_res, codazzi_res, tol, passed)


def pullback_metric(f: DiscreteImmersion) -> np.ndarray:
    """First fundamental form (f*h)_ij at the nodes, shape (*counts, d, d)."""
    J = fields.fd_jacobian(f.values, f.grid)
    H = f.target.eval(f.values)
    G = np.einsum("...ai,...ab,...bj->...ij", J, H, J)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def shape_operator(f: DiscreteImmersion) -> ShapeField:
    """Shape operator extracted from grad n = -df o S by least squares."""
    n = unit_normal(f)
    W = covariant_normal_derivative(f, n)
    J = fields.fd_jacobian(f.values, f.grid)
    H = f.target.eval(f.values)
    G = np.einsum("...ai,...ab,...bj->...ij", J, H, J)
    rhs = np.einsum("...ai,...ab,...bj->...ij", J, H, W)
    S = -np.linalg.solve(G, rhs)
    return ShapeField(f.grid, S)
