"""Unit normals, pullback metrics, and shape operators of discrete immersions.

The oriented unit normal is computed pointwise: the Jacobian columns are moved
to the target-orthonormal frame by the metric square root, the Euclidean
generalized cross product of the columns is normalized, and the result is
mapped back.  The cross product uses the closed forms for d = 1 (rotation by
90 degrees) and d = 2 (cofactor expansion); both make the frame
(df(e_1), ..., df(e_d), n) positively oriented by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient
from .fields import DirectorField, DiscreteImmersion, ShapeField, jacobian_array
from .geometry import (RANK_RTOL, christoffel, component_major, cross_columns_cm,
                       left_mul, node_major, right_mul, stiefel_factors_cm,
                       target_factors_cm)


def _frame_and_rank_check(b, c):
    """Raise where sigma_min <= RANK_RTOL sigma_max, else return |c|; c is the
    cross product of the columns of the component-major (d+1, d, ...) frame
    b, whose length is sigma_1 ... sigma_d."""
    s = np.sqrt(np.add.reduce(c * c, axis=0))
    _, smin, _ = stiefel_factors_cm(b, s)
    # sigma_max^2 = |B|^2 - (d - 1) sigma_min^2 for d in {1, 2}
    smax2 = (np.add.reduce((b * b).reshape((-1,) + b.shape[2:]), axis=0)
             - (b.shape[1] - 1) * smin ** 2)
    bad = smin <= RANK_RTOL * np.maximum(np.sqrt(np.maximum(smax2, 0.0)), 1e-300)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise RankDeficient(f"differential is rank deficient at node {idx}")
    return s


def _normal_pass(f: DiscreteImmersion) -> tuple:
    """Component-major (x, J, h, n) of an immersion: node values, raw Jacobian,
    target metric (one matrix if constant), rank-checked oriented h-unit normal."""
    x = component_major(f.values, 1)
    J = jacobian_array(x, f.grid)
    H, Hs, Hsi = target_factors_cm(f.target, f.values)
    b = left_mul(Hs, J)
    c = cross_columns_cm(b)
    c = c / _frame_and_rank_check(b, c)
    return x, J, H, left_mul(Hsi, c[:, None])[:, 0]


def unit_normal(f: DiscreteImmersion) -> np.ndarray:
    """Oriented h-unit normal of a full-rank discrete immersion, as a node
    array (*counts, d+1)."""
    return np.ascontiguousarray(node_major(_normal_pass(f)[3], 1))


def _gram(J, H, *W) -> list:
    """J^T h J, then J^T h B for each B (d+1, d, *counts) in W, component-major
    (d, d, *counts), from the raw Jacobian J and the target metric h."""
    JtH = right_mul(np.swapaxes(J, 0, 1), H)
    return [right_mul(JtH, B) for B in (J,) + W]


def pullback_metric(f: DiscreteImmersion) -> np.ndarray:
    """First fundamental form (f*h)_ij at the nodes, shape (*counts, d, d)."""
    H = target_factors_cm(f.target, f.values)[0]
    G, = _gram(jacobian_array(component_major(f.values, 1), f.grid), H)
    return np.ascontiguousarray(node_major(0.5 * (G + np.swapaxes(G, 0, 1)), 2))


def connector(target, points, Dv, J, v):
    """Derivative along a map, with differential J and values at ``points``,
    of a target vector field v with raw derivative Dv:
    Dv^a_i + Gamma^a_bc d_i f^b v^c (Dv itself for a constant target).
    Dv, J (m, d, ...), v and ``points`` (m, ...) are component-major."""
    if target.is_constant:
        return Dv
    Gam = component_major(christoffel(target, node_major(points, 1)), 3)
    Gv = Gam[:, :, 0] * v[0]
    for c in range(1, v.shape[0]):
        Gv = Gv + Gam[:, :, c] * v[c]
    return Dv + left_mul(Gv, J)


def covariant_normal_derivative(f: DiscreteImmersion, n: np.ndarray) -> np.ndarray:
    """Pullback-connection derivative of a vector field n (*counts, d+1)
    along f, the connector K o Dxi of the director field xi = (f, n):
    (grad n)_i^a = d_i n^a + Gamma^a_bc(f) d_i f^b n^c, as the node array
    (*counts, d+1, d).  With n the unit normal of f it is grad n.
    """
    x, v = component_major(f.values, 1), component_major(n, 1)
    K = connector(f.target, x, jacobian_array(v, f.grid), jacobian_array(x, f.grid), v)
    return np.ascontiguousarray(node_major(K, 2))


def shape_operator(f: DiscreteImmersion) -> ShapeField:
    """Shape operator extracted from grad n = -df o S by least squares.

    Normal equations with the pullback Gram matrix G = J^T h J: the discrete
    grad n is never exactly tangential, so S is the minimizer of
    |grad n + df S|_h, S = -(adj G / det G) J^T h grad n (d in {1, 2}, as
    :func:`unit_normal` requires).
    """
    x, J, H, n = _normal_pass(f)
    G, rhs = _gram(J, H, connector(f.target, x, jacobian_array(n, f.grid), J, n))
    if G.shape[0] == 1:
        adj, det = np.ones_like(G), G[0, 0]
    else:
        adj = np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]])
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    if not np.all(det > 0.0):
        raise RankDeficient("singular pullback metric in the shape-operator equations")
    return ShapeField(f.grid, np.ascontiguousarray(node_major(left_mul(adj, rhs) / -det, 2)))


def normal_director(f: DiscreteImmersion) -> DirectorField:
    """Director field with foot f and vector the oriented unit normal of f."""
    return DirectorField(f.grid, f.values, unit_normal(f), f.target)
