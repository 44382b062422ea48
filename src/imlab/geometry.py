"""Metric charts, Christoffel symbols, curvature, and matrix distances/projections.

A :class:`MetricChart` evaluates a Riemannian metric (and optionally its first
partial derivatives) on an axis-aligned coordinate box.  All evaluators are
batched: a point argument of shape ``(..., n)`` yields matrices of shape
``(..., n, n)``.  The module also provides the Frobenius distances to the
rotation group (SVD) and to the set of orthonormal-column matrices (closed
form for hypersurface frames), which are the building blocks of the
stretching integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotSPD, RankDeficient, SingularMetric

# Scale-relative tolerances: smallest eigenvalue / singular value versus largest.
SPD_RTOL = 1e-12
RANK_RTOL = 1e-12

# Relative finite-difference step for metric derivatives (fraction of axis extent).
FD_STEP_REL = 1e-5


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"point has {x.shape[-1]} coordinates, chart has dim {dim}")
    return x


@dataclass(frozen=True)
class MetricChart:
    """Evaluator of a metric on a single coordinate chart.

    ``matrix`` maps points ``(..., dim)`` to symmetric positive-definite
    matrices ``(..., dim, dim)``.  ``matrix_deriv``, when supplied, returns the
    partials ``(..., dim, dim, dim)`` indexed ``[k, i, j] = d_k m_ij``;
    otherwise central finite differences with a step proportional to the
    domain extent are used.  ``constant`` short-circuits x-independent metrics.
    """

    dim: int
    domain: np.ndarray
    matrix: Optional[Callable] = None
    matrix_deriv: Optional[Callable] = None
    name: str = "custom"
    constant: Optional[np.ndarray] = None

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float).reshape(self.dim, 2)
        object.__setattr__(self, "domain", dom)
        if self.constant is not None:
            c = np.asarray(self.constant, dtype=float)
            if c.shape != (self.dim, self.dim):
                raise ValueError("constant metric has wrong shape")
            object.__setattr__(self, "constant", c)
        elif self.matrix is None:
            raise ValueError("either matrix or constant must be given")

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def extents(self) -> np.ndarray:
        """Per-axis extent; unbounded axes report a unit reference scale."""
        ext = self.domain[:, 1] - self.domain[:, 0]
        return np.where(np.isfinite(ext), ext, 1.0)

    def eval(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        if self.constant is not None:
            out = np.empty(x.shape[:-1] + (self.dim, self.dim))
            out[...] = self.constant
            return out
        return np.asarray(self.matrix(x), dtype=float)

    def eval_deriv(self, x) -> np.ndarray:
        """Partials d_k m_ij, shape (..., dim, dim, dim) with k leading."""
        x = _as_points(x, self.dim)
        n = self.dim
        if self.constant is not None:
            return np.zeros(x.shape[:-1] + (n, n, n))
        if self.matrix_deriv is not None:
            return np.asarray(self.matrix_deriv(x), dtype=float)
        steps = self.extents() * FD_STEP_REL
        out = np.empty(x.shape[:-1] + (n, n, n))
        for k in range(n):
            dx = np.zeros(n)
            dx[k] = steps[k]
            out[..., k, :, :] = (self.eval(x + dx) - self.eval(x - dx)) / (2.0 * steps[k])
        return out

    @staticmethod
    def from_function(dim, fn, domain=None, deriv=None, name="custom"):
        """Wrap a single-point metric function (looped over batches)."""
        if domain is None:
            domain = [[-np.inf, np.inf]] * dim

        def batched(x):
            x = np.asarray(x, dtype=float)
            flat = x.reshape(-1, dim)
            vals = np.stack([np.asarray(fn(p), dtype=float) for p in flat])
            return vals.reshape(x.shape[:-1] + (dim, dim))

        batched_deriv = None
        if deriv is not None:
            def batched_deriv(x):
                x = np.asarray(x, dtype=float)
                flat = x.reshape(-1, dim)
                vals = np.stack([np.asarray(deriv(p), dtype=float) for p in flat])
                return vals.reshape(x.shape[:-1] + (dim, dim, dim))

        return MetricChart(dim=dim, domain=domain, matrix=batched,
                           matrix_deriv=batched_deriv, name=name)

    @staticmethod
    def from_table(grid, values, name="tabulated"):
        """Multilinear interpolant of node-sampled metric values on a grid.

        Continuous but only piecewise-smooth; adequate for energies and
        quadrature, not for curvature through the interpolation kinks.
        """
        values = np.asarray(values, dtype=float)
        d = grid.dim
        if values.shape != grid.counts + (d, d):
            raise ValueError("tabulated metric has wrong shape")
        origin = np.asarray(grid.origin)
        spacing = np.asarray(grid.spacing)
        counts = grid.counts

        def interp(x):
            x = np.asarray(x, dtype=float)
            t = (x - origin) / spacing
            t = np.clip(t, 0.0, np.array(counts) - 1.0)
            i0 = np.minimum(t.astype(int), np.array(counts) - 2)
            w = t - i0
            if d == 1:
                v0 = values[i0[..., 0]]
                v1 = values[i0[..., 0] + 1]
                w0 = w[..., 0][..., None, None]
                return (1 - w0) * v0 + w0 * v1
            v00 = values[i0[..., 0], i0[..., 1]]
            v10 = values[i0[..., 0] + 1, i0[..., 1]]
            v01 = values[i0[..., 0], i0[..., 1] + 1]
            v11 = values[i0[..., 0] + 1, i0[..., 1] + 1]
            w0 = w[..., 0][..., None, None]
            w1 = w[..., 1][..., None, None]
            return ((1 - w0) * (1 - w1) * v00 + w0 * (1 - w1) * v10
                    + (1 - w0) * w1 * v01 + w0 * w1 * v11)

        domain = np.stack([origin, origin + np.asarray(grid.extents)], axis=1)
        return MetricChart(dim=d, domain=domain, matrix=interp, name=name)


# ---------------------------------------------------------------------------
# built-in chart catalogue


def _sphere_matrix(x):
    th = x[..., 0]
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sin(th) ** 2
    return g


def _sphere_deriv(x):
    th = x[..., 0]
    dg = np.zeros(x.shape[:-1] + (2, 2, 2))
    dg[..., 0, 1, 1] = 2.0 * np.sin(th) * np.cos(th)
    return dg


def _hyperbolic_matrix(x):
    th = x[..., 0]
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sinh(th) ** 2
    return g


def _hyperbolic_deriv(x):
    th = x[..., 0]
    dg = np.zeros(x.shape[:-1] + (2, 2, 2))
    dg[..., 0, 1, 1] = 2.0 * np.sinh(th) * np.cosh(th)
    return dg


def _polar_matrix(x):
    r = x[..., 0]
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = r ** 2
    return g


def _polar_deriv(x):
    r = x[..., 0]
    dg = np.zeros(x.shape[:-1] + (2, 2, 2))
    dg[..., 0, 1, 1] = 2.0 * r
    return dg


_EPS_ANGLE = 1e-3


def chart(name: str, dim: int | None = None) -> MetricChart:
    """Named metric charts: euclidean (any dim), sphere, hyperbolic, polar."""
    if name == "euclidean":
        if dim is None:
            raise ValueError("euclidean chart needs an explicit dimension")
        dom = [[-np.inf, np.inf]] * dim
        return MetricChart(dim=dim, domain=dom, name="euclidean",
                           constant=np.eye(dim))
    if dim is not None and dim != 2:
        raise ValueError(f"chart {name!r} is two-dimensional")
    if name == "sphere":
        dom = [[_EPS_ANGLE, np.pi - _EPS_ANGLE], [-np.inf, np.inf]]
        return MetricChart(dim=2, domain=dom, matrix=_sphere_matrix,
                           matrix_deriv=_sphere_deriv, name="sphere")
    if name == "hyperbolic":
        dom = [[_EPS_ANGLE, np.inf], [-np.inf, np.inf]]
        return MetricChart(dim=2, domain=dom, matrix=_hyperbolic_matrix,
                           matrix_deriv=_hyperbolic_deriv, name="hyperbolic")
    if name == "polar":
        dom = [[_EPS_ANGLE, np.inf], [-np.inf, np.inf]]
        return MetricChart(dim=2, domain=dom, matrix=_polar_matrix,
                           matrix_deriv=_polar_deriv, name="polar")
    raise ValueError(f"unknown chart {name!r}")


# ---------------------------------------------------------------------------
# symmetric square roots and eigen-based checks


def _spd_eigh(G, err=NotSPD):
    G = np.asarray(G, dtype=float)
    w, V = np.linalg.eigh(0.5 * (G + np.swapaxes(G, -1, -2)))
    if np.any(w[..., 0] <= SPD_RTOL * np.abs(w[..., -1])):
        raise err("matrix is not positive definite to working precision")
    return w, V


def metric_sqrt(G) -> np.ndarray:
    """Symmetric positive-definite square root (eigendecomposition based)."""
    w, V = _spd_eigh(G)
    s = np.sqrt(w)
    R = np.einsum("...ik,...k,...jk->...ij", V, s, V)
    return 0.5 * (R + np.swapaxes(R, -1, -2))


def sqrt_and_inv_sqrt(G, err=NotSPD):
    """(G^{1/2}, G^{-1/2}) in one eigendecomposition."""
    w, V = _spd_eigh(G, err=err)
    s = np.sqrt(w)
    R = np.einsum("...ik,...k,...jk->...ij", V, s, V)
    Ri = np.einsum("...ik,...k,...jk->...ij", V, 1.0 / s, V)
    return 0.5 * (R + np.swapaxes(R, -1, -2)), 0.5 * (Ri + np.swapaxes(Ri, -1, -2))


def spd_sqrt_det(G, err=SingularMetric) -> np.ndarray:
    """sqrt(det G) for SPD matrices (the Riemannian volume density)."""
    w, _ = _spd_eigh(G, err=err)
    return np.sqrt(np.prod(w, axis=-1))


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature


@dataclass(frozen=True)
class ChristoffelValue:
    """Levi-Civita connection coefficients, components[..., a, b, c] = Gamma^a_bc."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))


def christoffel_from_values(G, dG) -> np.ndarray:
    """Gamma^a_bc from metric values and partials dG[..., k, i, j] = d_k g_ij."""
    w, V = _spd_eigh(G, err=SingularMetric)
    Ginv = np.einsum("...ik,...k,...jk->...ij", V, 1.0 / w, V)
    t1 = np.swapaxes(dG, -3, -2)        # [d,b,c] = dG[b,d,c]
    t2 = np.moveaxis(dG, -3, -1)        # [d,b,c] = dG[c,d,b]
    term = t1 + t2 - dG
    return 0.5 * np.einsum("...ad,...dbc->...abc", Ginv, term)


def christoffel(m: MetricChart, x) -> ChristoffelValue:
    """Levi-Civita Christoffel symbols of a metric chart at point(s) x."""
    x = _as_points(x, m.dim)
    if m.is_constant:
        return ChristoffelValue(np.zeros(x.shape[:-1] + (m.dim,) * 3))
    G = m.eval(x)
    dG = m.eval_deriv(x)
    return ChristoffelValue(christoffel_from_values(G, dG))


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


def riemann_curvature(m: MetricChart, x) -> np.ndarray:
    """Lowered curvature tensor R_ijkl of the Levi-Civita connection at x.

    Antisymmetric in (i,j) and in (k,l), symmetric under pair exchange.
    Partials of the Christoffel symbols are taken by central differences.
    """
    x = _as_points(x, m.dim)
    n = m.dim
    if m.is_constant:
        return np.zeros(x.shape[:-1] + (n,) * 4)
    G = m.eval(x)
    Gam = christoffel(m, x).components
    # larger step when the metric derivative itself is finite-differenced,
    # to keep the nested-difference noise below truncation error
    rel = FD_STEP_REL if m.matrix_deriv is not None else 1e-4
    steps = m.extents() * rel
    dGam = np.empty(x.shape[:-1] + (n,) * 4)
    for k in range(n):
        dx = np.zeros(n)
        dx[k] = steps[k]
        gp = christoffel(m, x + dx).components
        gm = christoffel(m, x - dx).components
        dGam[..., k, :, :, :] = (gp - gm) / (2.0 * steps[k])
    return riemann_from_values(G, Gam, dGam)


# ---------------------------------------------------------------------------
# distances and projections on rotation / orthonormal-column sets


def dist_rotations(A) -> np.ndarray:
    """Frobenius distance from a square matrix to the rotation group SO(n).

    With singular values s_1 >= ... >= s_n: sqrt(sum (s_i - 1)^2) when
    det A >= 0; when det A < 0 the smallest singular value flips sign in the
    nearest rotation, giving sqrt(sum_{i<n} (s_i - 1)^2 + (s_n + 1)^2).
    """
    A = np.asarray(A, dtype=float)
    s = np.linalg.svd(A, compute_uv=False)
    target = np.ones_like(s)
    neg = np.linalg.det(A) < 0
    if A.ndim == 2:
        if neg:
            target[-1] = -1.0
    else:
        target[neg, -1] = -1.0
    return np.sqrt(np.sum((s - target) ** 2, axis=-1))


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


def stiefel_factors(Q, s=None, polar=False):
    """Closed-form (dist^2, sigma_min, polar factor) of (..., d+1, d) frames.

    For d = 2, with G = Q^T Q, s = sigma_1 sigma_2 = |q_1 x q_2| (the cross
    product keeps s accurate near rank deficiency, where sqrt(det G) cancels)
    and t = sigma_1 + sigma_2 = sqrt(|Q|^2 + 2 s):
    dist^2 = |Q|^2 - 2 t + 2; sigma_min = s / sigma_max with
    sigma_max = (t + sqrt(|Q|^2 - 2 s)) / 2; P = Q G^{-1/2} with
    G^{-1/2} = (adj G + s I) / (t s) (2x2 square root identity, Higham,
    Functions of Matrices, 2008).  For d = 1, sigma = |q| and P = q / |q|.

    dist^2 and P avoid sigma_1 - sigma_2, which keeps about 8 digits near an
    isometry; sigma_min does not, so it has that accuracy where
    sigma_1 ~ sigma_2 and full accuracy near the rank guards.  ``s`` may be
    passed when the caller has the cross product.  P is None unless
    ``polar`` is set, and zero where s = 0.
    """
    Q = np.asarray(Q, dtype=float)
    d = Q.shape[-1]
    if d not in (1, 2) or Q.shape[-2] != d + 1:
        raise ValueError(f"closed-form Stiefel kernel needs (..., d+1, d) frames "
                         f"with d in {{1, 2}}, got {Q.shape[-2:]}")
    if s is None:
        s = np.linalg.norm(cross_columns(Q), axis=-1)
    if d == 1:
        P = Q * _safe_reciprocal(s)[..., None, None] if polar else None
        return (s - 1.0) ** 2, s, P
    n2 = np.sum(Q * Q, axis=(-2, -1))
    t = np.sqrt(n2 + 2.0 * s)
    dist2 = np.maximum(n2 - 2.0 * t + 2.0, 0.0)
    smax = 0.5 * (t + np.sqrt(np.maximum(n2 - 2.0 * s, 0.0)))
    smin = s / np.maximum(smax, np.finfo(float).tiny)
    if not polar:
        return dist2, smin, None
    q1, q2 = Q[..., 0], Q[..., 1]
    g11 = np.sum(q1 * q1, axis=-1)[..., None]
    g22 = np.sum(q2 * q2, axis=-1)[..., None]
    g12 = np.sum(q1 * q2, axis=-1)[..., None]
    sc = s[..., None]
    inv = _safe_reciprocal(t * s)[..., None]
    P = np.stack([(q1 * (g22 + sc) - q2 * g12) * inv,
                  (q2 * (g11 + sc) - q1 * g12) * inv], axis=-1)
    return dist2, smin, P


def _safe_reciprocal(x):
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)


def dist_stiefel(Q) -> np.ndarray:
    """Frobenius distance from (..., d+1, d) frames, d in {1, 2}, to
    orthonormal-column matrices (closed form, see :func:`stiefel_factors`)."""
    dist2, _, _ = stiefel_factors(Q)
    return np.sqrt(dist2)


def project_stiefel(Q) -> np.ndarray:
    """Nearest orthonormal-column matrix, U V^T from the thin SVD Q = U S V^T.

    Unique only at full rank; rank deficiency is an error rather than an
    arbitrary choice.
    """
    Q = np.asarray(Q, dtype=float)
    U, s, Vt = np.linalg.svd(Q, full_matrices=False)
    smin, smax = s[..., -1], s[..., 0]
    if np.any(smin <= RANK_RTOL * np.maximum(smax, 1e-300)) or np.any(smax == 0.0):
        raise RankDeficient("projection onto orthonormal columns is not unique")
    return U @ Vt
