"""Unit normals, pullback metrics, and shape operators of discrete immersions.

One private frame pass forms the oriented unit normal pointwise, for this
module and for :class:`imlab.energy.Integrands`: the Jacobian columns are moved
to the target-orthonormal frame by the metric square roots, and the Euclidean
generalized cross product of the columns (closed forms for d = 1, a rotation by
90 degrees, and d = 2, the cofactor expansion, both making the frame
(df(e_1), ..., df(e_d), n) positively oriented) is normalized and mapped back;
the frame's Stiefel factors and rank gate are read from the same cross product.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient
from .fields import DirectorField, DiscreteImmersion, ShapeField, _node_values, jacobian_array
from .geometry import (RANK_RTOL, _node_product, component_major, cross_columns_cm, left_mul,
                       node_major, right_mul, stiefel_factors_cm, target_factors_cm)


def _frame(B, Hsi, gsi=None, polar=False, guard=None):
    """(Q, dist^2, P, nu, nhat, n) of a component-major (d+1, d, ...) frame
    B = h^{1/2} J: Q = B g^{-1/2}, its Stiefel factors, nu = |c| for the cross
    product c of its columns (B's too, up to det g^{-1/2} > 0), nhat = c / nu
    and n = h^{-1/2} nhat.  Raises RankDeficient where sigma_min(Q) <=
    RANK_RTOL sigma_max(Q), or with ``guard`` returns None where it is < guard."""
    Q = right_mul(B, gsi)
    c = cross_columns_cm(Q)
    nu = np.sqrt(np.add.reduce(c * c, axis=0))
    dist2, smin, smax, P = stiefel_factors_cm(Q, nu, polar)
    if guard is None:
        bad = smin <= RANK_RTOL * np.maximum(smax, 1e-300)
        if np.any(bad):
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise RankDeficient(f"differential is rank deficient at node {idx}")
    elif np.min(smin) < guard:
        return None
    nhat = c / nu
    return Q, dist2, P, nu, nhat, left_mul(Hsi, nhat[:, None])[:, 0]


def _normal_pass(f: DiscreteImmersion) -> tuple:
    """Component-major (J, h, Gamma, n) of an immersion: raw Jacobian, target
    metric and Christoffel symbols from one chart pass at its values
    (:func:`imlab.geometry.target_factors_cm`), rank-checked oriented h-unit normal."""
    J = jacobian_array(component_major(f.values, 1), f.grid)
    H, Hs, Hsi, Gam = target_factors_cm(f.target, f.values)
    return J, H, Gam, _frame(left_mul(Hs, J), Hsi)[-1]


def unit_normal(f: DiscreteImmersion) -> np.ndarray:
    """Oriented h-unit normal of a full-rank discrete immersion, as a node
    array (*counts, d+1)."""
    return np.ascontiguousarray(node_major(_normal_pass(f)[-1], 1))


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


def connector(Gam, Dv, J, v):
    """Derivative along a map with differential J of a target vector field v
    with raw derivative Dv: Dv^a_i + Gamma^a_bc d_i f^b v^c for the target's
    Gam[a, b, c, ...] at the map's points (:func:`imlab.geometry.target_factors_cm`),
    Dv itself for Gam None.  Dv, J (m, d, ...), v (m, ...) are component-major."""
    if Gam is None:
        return Dv
    Gv = _node_product(Gam.reshape((-1,) + Gam.shape[2:]), v[:, None])     # Gamma^a_bc v^c
    return Dv + left_mul(Gv.reshape(Gam.shape[:2] + v.shape[1:]), J)


def covariant_normal_derivative(f: DiscreteImmersion, n: np.ndarray) -> np.ndarray:
    """Pullback-connection derivative of a vector field n (*counts, d+1)
    along f, the connector K o Dxi of the director field xi = (f, n):
    (grad n)_i^a = d_i n^a + Gamma^a_bc(f) d_i f^b n^c, as the node array
    (*counts, d+1, d).  With n the unit normal of f it is grad n.
    """
    v = component_major(_node_values(f.grid, n, (f.grid.dim + 1,), "vector field"), 1)
    J = jacobian_array(component_major(f.values, 1), f.grid)
    K = connector(target_factors_cm(f.target, f.values)[3], jacobian_array(v, f.grid), J, v)
    return np.ascontiguousarray(node_major(K, 2))


def _forms(f: DiscreteImmersion) -> tuple:
    """Raw pullback Gram matrix G = J^T h J, component-major (d, d, *counts),
    and the shape operator as a node array (*counts, d, d), from one normal pass.

    S is extracted from grad n = -df o S by least squares, with the normal
    equations of G: the discrete grad n is never exactly tangential, so S is
    the minimizer of |grad n + df S|_h, S = -(adj G / det G) J^T h grad n
    (d in {1, 2}, as :func:`unit_normal` requires).
    """
    J, H, Gam, n = _normal_pass(f)
    G, rhs = _gram(J, H, connector(Gam, jacobian_array(n, f.grid), J, n))
    if G.shape[0] == 1:
        adj, det = np.ones_like(G), G[0, 0]
    else:
        adj = np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]])
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    if not np.all(det > 0.0):
        raise RankDeficient("singular pullback metric in the shape-operator equations")
    return G, np.ascontiguousarray(node_major(left_mul(adj, rhs) / -det, 2))


def shape_operator(f: DiscreteImmersion) -> ShapeField:
    """Shape operator extracted from grad n = -df o S by least squares (:func:`_forms`)."""
    return ShapeField(f.grid, _forms(f)[1])


def normal_director(f: DiscreteImmersion) -> DirectorField:
    """Director field with foot f and vector the oriented unit normal of f."""
    return DirectorField(f.grid, f.values, unit_normal(f), f.target)
