"""Metric charts, SPD factors, Christoffel symbols, and per-node kernels.

A :class:`MetricChart` evaluates a Riemannian metric (and optionally its first
partial derivatives) on an axis-aligned coordinate box.  All evaluators are
batched: a point argument of shape ``(..., n)`` yields matrices of shape
``(..., n, n)``.  The metric factors (sqrt det, square root, inverse
square root) come from one kernel, closed form for 2x2 and 1x1 matrices,
and a constant chart is factored once.  The module also provides the
Frobenius distances to the rotation group (closed form for 2x2 frames,
one scaled Newton polar batch for 3x3 ones of both signs of det, with an
SVD fallback for the rows it cannot certify) and to the
set of orthonormal-column matrices (closed form for hypersurface frames),
which are the building blocks of the stretching integrands.  The frame
kernels work on component-major arrays, matrix entries leading and node axes
trailing, where a per-node product is elementwise arithmetic on node arrays
(:func:`left_mul`, :func:`right_mul`), and a metric factor is applied in its
exact form (:func:`factor_form`: an exact identity is dropped, a per-node
diagonal is one elementwise product); :func:`dist_stiefel` and
:func:`dist_rotations` take node-major frames.  Christoffel symbols have one
component-major formula, :func:`christoffel_from_values`, for chart points and
grid nodes.  Curvature belongs to the compatibility check of
:mod:`imlab.reconstruct`, its one caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import RankDeficient, SingularMetric

# Scale-relative tolerances: smallest eigenvalue / singular value versus largest.
SPD_RTOL = 1e-12
RANK_RTOL = 1e-12

# Smallest frame singular value at which gradients are still evaluated.
SIGMA_GUARD = 1e-8

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
        if self.constant is not None:
            return np.zeros(x.shape[:-1] + (self.dim,) * 3)
        if self.matrix_deriv is not None:
            return np.asarray(self.matrix_deriv(x), dtype=float)
        steps = self.extents() * FD_STEP_REL     # central differences along each axis
        return np.stack([(self.eval(x + dx) - self.eval(x - dx)) / (2.0 * h)
                         for h, dx in zip(steps, steps * np.eye(self.dim))], axis=-3)

    @staticmethod
    def from_table(grid, values):
        """Multilinear interpolant of node-sampled metric values on a grid,
        the chart named ``tabulated``, whose derivative is the same
        interpolant of the table's grid partials (second order up to the
        boundary, :func:`imlab.fields.jacobian_array`), built past the SPD
        gate of :func:`spd_factors`, which names the first node it rejects.

        Continuous but only piecewise-smooth; adequate for energies,
        quadrature and the frame march, not for curvature through the
        interpolation kinks.
        """
        from .fields import _node_values, jacobian_array     # fields imports this module
        d = grid.dim
        values = _node_values(grid, values, (d, d), "tabulated metric")
        spd_factors(values)     # the SPD gate, once on the whole table
        origin = np.asarray(grid.origin)
        spacing = np.asarray(grid.spacing)
        counts = np.array(grid.counts)

        def interpolant(table):     # points (..., d) to (..., *entries)
            pad = (1,) * (table.ndim - d)

            def interp(x):
                t = np.clip((np.asarray(x, dtype=float) - origin) / spacing, 0.0, counts - 1.0)
                i0 = np.minimum(t.astype(int), counts - 2)
                w = np.moveaxis(t - i0, -1, 0).reshape((d,) + t.shape[:-1] + pad)
                for c in range(2 ** d):     # cell corners, first axis fastest
                    up = [(c >> a) & 1 for a in range(d)]
                    weight = np.multiply.reduce([w[a] if up[a] else 1 - w[a]
                                                 for a in range(d)])   # in axis order
                    term = weight * table[tuple(i0[..., a] + up[a] for a in range(d))]
                    out = term if c == 0 else out + term
                return out
            return interp

        # [*nodes, k, i, j] = d_k g_ij
        dG = node_major(np.moveaxis(jacobian_array(component_major(values, 2), grid), 2, 0), 3)
        domain = np.stack([origin, origin + np.asarray(grid.extents)], axis=1)
        return MetricChart(dim=d, domain=domain, matrix=interpolant(values),
                           matrix_deriv=interpolant(np.ascontiguousarray(dG)),
                           name="tabulated")


# ---------------------------------------------------------------------------
# built-in chart catalogue


def _warped_product(phi, dphi):
    """The metric diag(1, phi(x_0)^2) of a warped product and its partials,
    whose only nonzero entry is d_0 g_11 = 2 phi phi'."""
    def matrix(x):
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = phi(x[..., 0]) ** 2
        return g

    def deriv(x):
        dg = np.zeros(x.shape[:-1] + (2, 2, 2))
        dg[..., 0, 1, 1] = 2.0 * phi(x[..., 0]) * dphi(x[..., 0])
        return dg

    return matrix, deriv


_EPS_ANGLE = 1e-3
# name: (phi, phi', upper end of the first axis), first axis from _EPS_ANGLE
_WARPED = {"sphere": (np.sin, np.cos, np.pi - _EPS_ANGLE),
           "hyperbolic": (np.sinh, np.cosh, np.inf),
           "polar": (lambda r: r, lambda r: 1.0, np.inf)}
CHART_NAMES = ("euclidean",) + tuple(_WARPED)


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
    if name not in _WARPED:
        raise ValueError(f"unknown chart {name!r}")
    phi, dphi, hi = _WARPED[name]
    matrix, deriv = _warped_product(phi, dphi)
    return MetricChart(dim=2, domain=[[_EPS_ANGLE, hi], [-np.inf, np.inf]], matrix=matrix,
                       matrix_deriv=deriv, name=name)


# ---------------------------------------------------------------------------
# symmetric positive-definite factors


def spd_factors(G):
    """(sqrt(det G), G^{1/2}, G^{-1/2}) of the symmetric part of (..., n, n)
    matrices, past the one SPD gate: SingularMetric, naming the index of the
    first matrix it rejects, unless lambda_min > SPD_RTOL |lambda_max|, so
    also on NaN or infinite entries.

    n = 2 is in closed form (Higham, Functions of Matrices, SIAM 2008, Sec. 6):
    with G = [[a, b], [b, c]], s = sqrt(ac - b^2) and t = sqrt(a + c + 2s),
    G^{1/2} = (G + sI) / t and G^{-1/2} = (adj G + sI) / (st), both exactly
    symmetric; the guard is lambda_max = (a + c + hypot(a - c, 2b)) / 2 > 0
    and det G > SPD_RTOL lambda_max^2.  n = 1 is the scalar root, n > 2 eigh.
    """
    G = np.asarray(G, dtype=float)
    n, ok = G.shape[-1], np.isfinite(G).all(axis=(-2, -1))
    if ok.all() and n > 2:
        w, V = np.linalg.eigh(0.5 * (G + np.swapaxes(G, -1, -2)))
        ok, det = w[..., 0] > SPD_RTOL * np.abs(w[..., -1]), np.prod(w, axis=-1)
    elif ok.all() and n == 2:
        a, c, b = G[..., 0, 0], G[..., 1, 1], 0.5 * (G[..., 0, 1] + G[..., 1, 0])
        det, lmax = a * c - b * b, 0.5 * (a + c + np.hypot(a - c, 2.0 * b))
        ok = (lmax > 0.0) & (det > SPD_RTOL * lmax * lmax)
    elif ok.all():
        det = G[..., 0, 0]
        ok = det > SPD_RTOL * np.abs(det)
    if not ok.all():
        at = np.argwhere(~ok)[0].tolist()     # [] for a single matrix
        raise SingularMetric("matrix is not positive definite to working precision"
                             + (f" at index {tuple(at)}" if at else ""))
    s = np.sqrt(det)
    if n > 2:
        r, Vt = np.sqrt(w)[..., None, :], np.swapaxes(V, -1, -2)
        R, Ri = (V * r) @ Vt, (V / r) @ Vt
        return s, 0.5 * (R + np.swapaxes(R, -1, -2)), 0.5 * (Ri + np.swapaxes(Ri, -1, -2))
    if n == 1:
        return s, s[..., None, None], 1.0 / s[..., None, None]
    u = 1.0 / np.sqrt(a + c + 2.0 * s)     # 1 / t, and v = 1 / (s t)
    v = u / s
    return (s, np.stack([(a + s) * u, b * u, b * u, (c + s) * u], -1).reshape(G.shape),
            np.stack([(c + s) * v, -b * v, -b * v, (a + s) * v], -1).reshape(G.shape))


def sqrt_and_inv_sqrt(G):
    """(G^{1/2}, G^{-1/2}) of SPD matrices (see :func:`spd_factors`)."""
    return spd_factors(G)[1:]


def spd_sqrt_det(G) -> np.ndarray:
    """sqrt(det G) for SPD matrices (the Riemannian volume density), past
    the gate of :func:`spd_factors`."""
    return spd_factors(G)[0]


def chart_factors(m: MetricChart, x):
    """(m, sqrt(det m), m^{1/2}, m^{-1/2}) at points x (..., dim) or at those a
    callable x returns (:func:`spd_factors`).  A constant chart is factored
    once, x unused: its factors are single matrices, broadcast by numpy."""
    G = m.constant if m.is_constant else m.eval(x() if callable(x) else x)
    return (G,) + spd_factors(G)


def target_factors_cm(m: MetricChart, x):
    """(m, m^{1/2}, m^{-1/2}, Gamma) at points x (..., n) with node axes, from one
    m.eval, spd_factors and m.eval_deriv: the factors component-major (n, n, ...)
    in their exact form (:func:`factor_form`), Gamma[a, b, c, ...] = Gamma^a_bc
    from the dense m^{-1/2}; a constant chart's single matrices, Gamma None, x unused."""
    H, _, Hs, Hsi = chart_factors(m, x)
    H, Hs, Hsi = (component_major(M, 2) for M in (H, Hs, Hsi))
    Gam = None if m.is_constant else _chart_christoffel(m, x, Hsi)
    return tuple(factor_form(M) for M in (H, Hs, Hsi)) + (Gam,)


def _chart_christoffel(m: MetricChart, x, Hsi):
    """Gamma[a, b, c, ...] of a curved chart at points x with node axes, from its m^{-1/2} there."""
    return christoffel_from_values(Hsi, np.moveaxis(component_major(m.eval_deriv(x), 3), 0, 2))[0]


# ---------------------------------------------------------------------------
# Christoffel symbols


def first_kind(D, b: int) -> np.ndarray:
    """2 Gamma_ebc = d_b g_ec + d_c g_eb - d_e g_bc at lower index b, indexed
    [e, c], from component-major partials D[i, j, x] = d_x g_ij (or d_k D)."""
    return (D[:, :, b] + D[:, b]) - np.swapaxes(D[b], 0, 1)


def christoffel_from_values(Gsi, dG) -> tuple:
    """(Gamma, G^{-1}) from the component-major G^{-1/2} (d, d, *nodes) that
    :func:`spd_factors` returned past its gate and the partials dG[i, j, k] =
    d_k g_ij, the jacobian_array layout: Gamma^a_bc = G^{ae} Gamma_ebc
    (:func:`first_kind`) as an elementwise sum over e, G^{-1} = (G^{-1/2})^2."""
    Ginv = left_mul(Gsi, Gsi)
    Gam = np.empty(dG.shape)
    for b in range(Gsi.shape[0]):
        Gam[:, b] = 0.5 * left_mul(Ginv, first_kind(dG, b))
    return Gam, Ginv


def christoffel(m: MetricChart, x) -> np.ndarray:
    """Levi-Civita Christoffel symbols [..., a, b, c] = Gamma^a_bc of a metric
    chart at point(s) x (..., dim), formed as :func:`target_factors_cm` forms them."""
    x = _as_points(x, m.dim)
    shape = x.shape[:-1] + (m.dim,) * 3
    if m.is_constant:
        return np.zeros(shape)
    p = x if x.ndim > 1 else x[None]     # node axes, so every product is elementwise
    Gam = _chart_christoffel(m, p, component_major(chart_factors(m, p)[3], 2))
    return np.ascontiguousarray(node_major(Gam, 3)).reshape(shape)


# ---------------------------------------------------------------------------
# component-major node arrays: matrix entries lead, node axes trail, so the
# per-node algebra is elementwise arithmetic on whole node arrays


def component_major(a, k):
    """Contiguous copy of a node-major (*nodes, *entries) array with k entry
    axes, moved to the front: (*entries, *nodes)."""
    a = np.asarray(a, dtype=float)
    n = a.ndim - k
    return np.ascontiguousarray(a.transpose(tuple(range(n, a.ndim)) + tuple(range(n))))


def node_major(a, k):
    """The node-major view (*nodes, *entries) of a component-major array
    with k leading entry axes."""
    return a.transpose(tuple(range(k, a.ndim)) + tuple(range(k)))


class Diagonal(NamedTuple):
    """A per-node factor whose off-diagonal entries are all exactly +-0,
    held as its component-major diagonal (n, *nodes)."""

    entries: np.ndarray


def factor_form(M):
    """The exact form of a component-major factor M, one (n, n) matrix or
    (n, n, *nodes) per node, as :func:`left_mul` and :func:`right_mul` take
    it: None where every M is exactly the identity, the :class:`Diagonal` of
    a per-node M whose off-diagonal entries are all exactly +-0, else M.
    The dropped terms are products by exact zeros, so a product by the form
    has the bits of the product by M, up to the sign of a zero result."""
    n = M.shape[0]
    if not np.all(M[~np.eye(n, dtype=bool)] == 0.0):
        return M
    diag = M[np.arange(n), np.arange(n)]
    if np.all(diag == 1.0):
        return None
    return Diagonal(diag) if M.ndim > 2 else M


def _lined_up(a, lead, ndim):
    """a with unit axes after its ``lead`` entry axes, up to ``ndim`` axes, so
    its node axes meet the trailing node axes of an array of that rank."""
    return a.reshape(a.shape[:lead] + (1,) * (ndim - a.ndim) + a.shape[lead:])


def _node_product(x, y):
    """sum_i x[:, i] y[i] per node, x (m, k, ...) and y (k, j, ...) with their
    node axes lined up: the dense per-node product."""
    out = x[:, 0, None] * y[None, 0]
    for i in range(1, x.shape[1]):
        out = out + x[:, i, None] * y[None, i]
    return out


def left_mul(M, u):
    """M u per node for component-major u (m, k, ...) and M in a form of
    :func:`factor_form`: None returns u itself, a Diagonal scales the rows of
    u elementwise, one (m, m) matrix is a single product, and a
    component-major (m, m, ...) M is a sum over its columns, its node axes
    meeting the trailing node axes of u, as in :func:`right_mul`."""
    if M is None:
        return u
    if isinstance(M, Diagonal):
        return _lined_up(M.entries, 1, u.ndim) * u
    if M.ndim == 2:
        return (M @ u.reshape(M.shape[1], -1)).reshape((M.shape[0],) + u.shape[1:])
    return _node_product(_lined_up(M, 2, u.ndim), u)


def right_mul(u, M):
    """u M per node for component-major u (m, k, ...) and M in a form of
    :func:`factor_form`: None returns u itself, a Diagonal scales the
    columns of u elementwise, one (k, j) matrix is a single stacked product,
    and a component-major (k, j, ...) M is a sum over its rows.  The node
    axes of a per-node M meet the trailing node axes of u, so one per-node
    M serves a batch of states (m, k, batch, *counts)."""
    if M is None:
        return u
    if isinstance(M, Diagonal):
        return u * _lined_up(M.entries, 1, u.ndim - 1)
    if M.ndim == 2:
        out = np.matmul(M.T, u.reshape(u.shape[0], M.shape[0], -1))
        return out.reshape(u.shape[:1] + M.shape[1:] + u.shape[2:])
    return _node_product(u, _lined_up(M, 2, u.ndim))


# ---------------------------------------------------------------------------
# distances and projections on rotation / orthonormal-column sets


def dist_rotations(A) -> np.ndarray:
    """Frobenius distance from (..., n, n) matrices to the rotation group
    SO(n), n in {2, 3} (see :func:`rotation_factors_cm`).

    With singular values s_1 >= ... >= s_n: sqrt(sum (s_i - 1)^2) when
    det A >= 0; when det A < 0 the smallest singular value flips sign in the
    nearest rotation, giving sqrt(sum_{i<n} (s_i - 1)^2 + (s_n + 1)^2).
    """
    return np.sqrt(rotation_factors_cm(component_major(A, 2))[0])


# Cofactor k = 3i + j of a flat row-major 3x3 matrix x is x[a] x[b] - x[c] x[d]
# with (a, b, c, d) = _COF[:, k]: rows i+1, i+2 and columns j+1, j+2, mod 3.
_COF = np.array([[3 * ((i + 1) % 3) + (j + 1) % 3, 3 * ((i + 2) % 3) + (j + 2) % 3,
                  3 * ((i + 1) % 3) + (j + 2) % 3, 3 * ((i + 2) % 3) + (j + 1) % 3]
                 for i in range(3) for j in range(3)]).T
# Scaled Newton polar iteration: stop once no entry moved by more than
# NEWTON_TOL, which leaves the new iterate accurate to about NEWTON_TOL^2
# (quadratic convergence); rows still moving after NEWTON_MAX_STEPS (about 6
# suffice for condition numbers up to 1e11) go to the SVD.
NEWTON_TOL = 1e-9
NEWTON_MAX_STEPS = 20
# DET_ROUNDING |B|_F^3 bounds the rounding error of det B from the cofactor
# expansion (at most 0.06 eps |B|_F^3 measured on near rank-1 frames).  A
# smaller |det B| certifies nothing: on frames with two tiny singular values
# it is noise, and |det B| / |cof B|_F with it.
DET_ROUNDING = 4.0 * np.finfo(float).eps
# det < 0 frames whose two smallest singular values differ by less than this
# fraction of the mean singular value take the SVD: there the flipped
# direction is not determined to working precision
FLIP_GAP_RTOL = 1e-3
_EYE9 = np.eye(3).reshape(9, 1)


def _cofactors(x):
    """Cofactor matrices of component-major (9, N) 3x3 matrices, with
    det = sum of the first row of x times the first row of the cofactors."""
    t = x[_COF]
    c = t[0] * t[1] - t[2] * t[3]
    return c, np.add.reduce(x[:3] * c[:3], axis=0)


def sigma_max_cm(m):
    """Largest singular value of component-major (n, n, ...) matrices, n in
    {1, 2}, in closed form: |m| for n = 1 and, for n = 2,
    (hypot(m00 + m11, m10 - m01) + hypot(m00 - m11, m01 + m10)) / 2, the half
    sum and half difference of the two singular values."""
    if m.shape[0] == 1:
        return np.abs(m[0, 0])
    return 0.5 * (np.hypot(m[0, 0] + m[1, 1], m[1, 0] - m[0, 1])
                  + np.hypot(m[0, 0] - m[1, 1], m[0, 1] + m[1, 0]))


def _rotation_factors_2(b):
    """(dist^2, sigma_min, R) of component-major (4, N) 2x2 frames."""
    theta = np.arctan2(b[2] - b[1], b[0] + b[3])
    co, si = np.cos(theta), np.sin(theta)
    r = np.empty_like(b)
    r[0], r[1], r[2], r[3] = co, -si, si, co
    smax = sigma_max_cm(b.reshape(2, 2, -1))
    smin = np.abs(b[0] * b[3] - b[1] * b[2]) / np.maximum(smax, np.finfo(float).tiny)
    return np.add.reduce((b - r) ** 2, axis=0), smin, r


def _rotation_factors_svd(B):
    """(dist^2, descending singular values (M, n), R) of (M, n, n) frames from
    the SVD: the nearest rotation R flips the smallest singular direction when det < 0."""
    U, s, Vt = np.linalg.svd(B)
    target = np.ones_like(s)
    target[:, -1] = np.where(np.linalg.det(U) * np.linalg.det(Vt) < 0, -1.0, 1.0)
    return np.sum((s - target) ** 2, axis=-1), s, (U * target[:, None, :]) @ Vt


def _newton_polar(x, c, det):
    """Scaled Newton polar iteration X <- (gamma X + X^{-T} / gamma) / 2 on
    component-major (9, N) matrices with det > 0, X^{-T} = cof X / det X and
    gamma = (|X^{-1}|_F / |X|_F)^{1/2} = (|cof X|_F / |X|_F / det X)^{1/2}.
    Returns the last iterate and which rows have converged."""
    for _ in range(NEWTON_MAX_STEPS):
        gamma = np.sqrt(np.sqrt(np.add.reduce(c * c, axis=0)
                                / np.add.reduce(x * x, axis=0)) / det)
        x_new = (0.5 * gamma) * x + (0.5 / (gamma * det)) * c
        step = np.maximum.reduce(np.abs(x_new - x), axis=0)
        x = x_new
        if np.maximum.reduce(step, initial=0.0) <= NEWTON_TOL:
            break
        c, det = _cofactors(x)
    return x, step <= NEWTON_TOL


def _flip_smallest(b, p, adet):
    """(R, separated) of component-major (9, N) frames B with det B = -adet
    < 0 and orthogonal polar factor P (det P = -1): R = P (I - 2 v v^T)
    with v the unit eigenvector of the smallest eigenvalue of H = sym(P^T B).

    The eigenvalues of H (the singular values of B) come from the
    trigonometric solution of its characteristic cubic (Smith, Eigenvalues of
    a symmetric 3x3 matrix, CACM 4(4), 1961); the smallest one is refined by
    two Newton steps on lambda^3 - tr H lambda^2 + c_2 lambda - |det B|.  v is
    the largest column of adj(H - lambda I), whose columns are the cross
    products of its rows, times adj(H - lambda I) once more (one step of
    inverse iteration).  ``separated`` holds where the two smallest
    eigenvalues differ by at least FLIP_GAP_RTOL times their mean tr H / 3,
    so v is determined; elsewhere, degenerate rows included, R is not used."""
    p3, b3 = p.reshape(3, 3, -1), b.reshape(3, 3, -1)
    ptb = p3[0, :, None] * b3[0] + p3[1, :, None] * b3[1] + p3[2, :, None] * b3[2]
    h = 0.5 * (ptb + ptb.transpose(1, 0, 2)).reshape(9, -1)
    tr = h[0] + h[4] + h[8]
    q = tr / 3.0
    with np.errstate(all="ignore"):
        a = h - q * _EYE9
        w = np.sqrt(np.add.reduce(a * a, axis=0) / 6.0)
        phi = np.arccos(np.clip(0.5 * _cofactors(a / w)[1], -1.0, 1.0)) / 3.0
        top = q + 2.0 * w * np.cos(phi)
        lam = q + 2.0 * w * np.cos(phi + 2.0 * np.pi / 3.0)
        separated = (tr - top - 2.0 * lam) >= FLIP_GAP_RTOL * q
        c2 = np.add.reduce(_cofactors(h)[0][::4], axis=0)
        for _ in range(2):
            lam = lam - ((((lam - tr) * lam + c2) * lam - adet)
                         / ((3.0 * lam - 2.0 * tr) * lam + c2))
        adj = _cofactors(h - lam * _EYE9)[0].reshape(3, 3, -1)
        col = adj[np.argmax(np.add.reduce(adj * adj, axis=1), axis=0), :,
                  np.arange(adj.shape[2])].T
        v = np.add.reduce(adj * col, axis=1)
        v = v / np.sqrt(np.add.reduce(v * v, axis=0))
    pv = np.add.reduce(p3 * v, axis=1)
    return (p3 - 2.0 * pv[:, None] * v).reshape(9, -1), separated


def _rotation_factors_3(b):
    """(dist^2, sigma_min, R) of component-major (9, N) 3x3 frames."""
    c, det = _cofactors(b)
    cnorm = np.sqrt(np.add.reduce(c * c, axis=0))
    n2 = np.add.reduce(b * b, axis=0)
    adet = np.abs(det)
    # |det B| / |cof B|_F = 1 / |B^{-1}|_F lies in [sigma_3 / sqrt(3), sigma_3]:
    # at or above the guard, past the rounding error of det, the guard
    # cannot fire; the zero frame, whose floor is 0, is not certified
    floor = SIGMA_GUARD * cnorm + DET_ROUNDING * n2 * np.sqrt(n2)
    ok = (adet > 0.0) & (adet >= floor) & (adet < np.inf)
    # sign(det B) B has the cofactors of B and determinant |det B|, so the
    # iteration on it returns sign(det B) P; the other rows start at the
    # identity, a fixed point (gamma = 1, step 0)
    x = np.copysign(1.0, det) * b
    x[:, ~ok] = c[:, ~ok] = _EYE9
    r, done = _newton_polar(x, c, np.where(ok, adet, 1.0))
    ok &= done
    neg = ok & (det < 0.0)
    if neg.any():
        r[:, neg], ok[neg] = _flip_smallest(b[:, neg], -r[:, neg], adet[neg])
    dist2 = np.add.reduce((b - r) ** 2, axis=0)
    smin = np.divide(adet, cnorm, out=np.empty_like(adet), where=ok)     # no 0 / 0
    rest = ~ok
    if rest.any():
        dist2[rest], s, R = _rotation_factors_svd(b[:, rest].T.reshape(-1, 3, 3))
        smin[rest], r[:, rest] = s[:, -1], R.reshape(-1, 9).T
    return dist2, smin, r


def rotation_factors_cm(b):
    """(dist^2, sigma_min, nearest rotation R) of component-major (n, n, ...)
    frames, n in {2, 3}.

    n = 2 is in closed form for either sign of det B: R is the rotation by
    atan2(b_10 - b_01, b_00 + b_11), whose trace pairing with B is
    hypot(b_00 + b_11, b_10 - b_01) = sigma_1 + sign(det B) sigma_2, and
    sigma_min = |det B| / sigma_max.

    n = 3 runs the scaled Newton polar iteration
    X <- (gamma X + gamma^{-1} X^{-T}) / 2 from X = B, with
    gamma = (|X^{-1}|_F / |X|_F)^{1/2} and X^{-T} = cof X / det X from cross
    products of the columns (Higham, Computing the polar decomposition - with
    applications, SIAM J. Sci. Stat. Comput. 7, 1986), on the rows it
    certifies: |det B| / |cof B|_F >= SIGMA_GUARD, with |det B| past its
    rounding error (DET_ROUNDING |B|_F^3).  That ratio lies in
    [sigma_3 / sqrt(3), sigma_3]; it is returned as sigma_min of those rows,
    which is all the guard needs, since it is at least SIGMA_GUARD.  One
    batch serves both signs of det B: it iterates from sign(det B) B, whose
    cofactors are those of B and whose determinant is |det B|, so it returns
    sign(det B) P for the orthogonal polar factor P, with the other rows held
    at the identity, a fixed point.  Rows with det B > 0 take P as R; rows
    with det B < 0 flip the smallest singular direction of P
    (:func:`_flip_smallest`), where the two smallest singular values are
    separated.  The other rows (det B = 0, not certified, not converged or
    not separated) take the SVD and return the exact sigma_min.

    dist^2 = |B - R|_F^2 is formed directly, with no |B|^2 - 2 tr + n
    cancellation, so R is formed in any case and always returned.
    """
    n = b.shape[0]
    if n not in (2, 3) or b.shape[1] != n:
        raise ValueError(f"rotation kernel needs (n, n) frames with n in "
                         f"{{2, 3}}, got {b.shape[:2]}")
    nodes = b.shape[2:]
    flat = np.ascontiguousarray(b, dtype=float).reshape(n * n, -1)
    dist2, smin, r = (_rotation_factors_2 if n == 2 else _rotation_factors_3)(flat)
    return dist2.reshape(nodes), smin.reshape(nodes), r.reshape(b.shape)


def cross3_cm(a, b, out=None):
    """a x b for component-major (3, ...) arrays, written out by components
    into ``out`` (a new array by default): bit-identical to ``np.cross`` on
    the node-major arrays, without its Python-level overhead."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape)) if out is None else out
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0, ...])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1, ...])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2, ...])
    return out


def cross_columns_cm(q):
    """Euclidean normal direction to the column span of component-major
    (d+1, d, ...) frames, d in {1, 2}, oriented positively: (d+1, ...).

    det([B | result]) > 0 holds automatically for these closed forms, and the
    length of the result is the product of the singular values of B.
    """
    d = q.shape[1]
    if d == 1:
        out = np.empty((2,) + q.shape[2:])
        out[0], out[1] = -q[1, 0], q[0, 0]
        return out
    if d == 2:
        return cross3_cm(q[:, 0], q[:, 1])
    raise ValueError("generalized cross product implemented for d in {1, 2}")


def stiefel_factors_cm(q, s=None, polar=False):
    """Closed-form (dist^2, sigma_min, sigma_max, polar factor) of
    component-major (d+1, d, ...) frames.

    For d = 2, with G = Q^T Q, s = sigma_1 sigma_2 = |q_1 x q_2| (the cross
    product keeps s accurate near rank deficiency, where sqrt(det G) cancels)
    and t = sigma_1 + sigma_2 = sqrt(|Q|^2 + 2 s):
    dist^2 = |Q|^2 - 2 t + 2; sigma_max = (t + sqrt(|Q|^2 - 2 s)) / 2 and
    sigma_min = s / sigma_max; P = Q G^{-1/2} with
    G^{-1/2} = (adj G + s I) / (t s) (2x2 square root identity, Higham,
    Functions of Matrices, 2008).  For d = 1, sigma = |q| and P = q / |q|.

    dist^2 and P avoid sigma_1 - sigma_2, which keeps about 8 digits near an
    isometry; sigma_min does not, so it has that accuracy where
    sigma_1 ~ sigma_2 and full accuracy near the rank guards.  ``s`` may be
    passed when the caller has the cross product.  P is None unless
    ``polar`` is set, and zero where s = 0.  Sums over components run in
    index order, as numpy's reductions over the trailing axes of node-major
    frames do, so the results equal theirs bit for bit.
    """
    d = q.shape[1]
    if d not in (1, 2) or q.shape[0] != d + 1:
        raise ValueError(f"closed-form Stiefel kernel needs (d+1, d) frames "
                         f"with d in {{1, 2}}, got {q.shape[:2]}")
    if s is None:
        c = cross_columns_cm(q)
        s = np.sqrt(np.add.reduce(c * c, axis=0))
    if d == 1:
        return (s - 1.0) ** 2, s, s, q * _safe_reciprocal(s) if polar else None
    n2 = np.add.reduce((q * q).reshape((6,) + q.shape[2:]), axis=0)
    t = np.sqrt(n2 + 2.0 * s)
    dist2 = np.maximum(n2 - 2.0 * t + 2.0, 0.0)
    smax = 0.5 * (t + np.sqrt(np.maximum(n2 - 2.0 * s, 0.0)))
    smin = s / np.maximum(smax, np.finfo(float).tiny)
    if not polar:
        return dist2, smin, smax, None
    q1, q2 = q[:, 0], q[:, 1]
    g11 = np.add.reduce(q1 * q1, axis=0)
    g22 = np.add.reduce(q2 * q2, axis=0)
    g12 = np.add.reduce(q1 * q2, axis=0)
    inv = _safe_reciprocal(t * s)
    P = np.empty(q.shape)
    np.multiply(q1 * (g22 + s) - q2 * g12, inv, out=P[:, 0])
    np.multiply(q2 * (g11 + s) - q1 * g12, inv, out=P[:, 1])
    return dist2, smin, smax, P


def _safe_reciprocal(x):
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)


def dist_stiefel(Q) -> np.ndarray:
    """Frobenius distance from (..., d+1, d) frames, d in {1, 2}, to
    orthonormal-column matrices (closed form, see :func:`stiefel_factors_cm`)."""
    return np.sqrt(stiefel_factors_cm(component_major(Q, 2))[0])


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
