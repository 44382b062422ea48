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
from .fields import (DirectorField, DiscreteImmersion, JacobianField,
                     NormalField, ShapeField, jacobian_array)
from .geometry import (RANK_RTOL, chart_factors, christoffel, cross_columns,
                       stiefel_factors)


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


def unit_normal(f: DiscreteImmersion) -> NormalField:
    """Oriented h-unit normal field of a full-rank discrete immersion."""
    J = jacobian_array(f.values, f.grid)
    _, _, Hs, Hsi = chart_factors(f.target, f.values)
    B = Hs @ J
    c = cross_columns(B)
    c = c / _frame_and_rank_check(B, c)[..., None]
    return NormalField(f.grid, (Hsi @ c[..., None])[..., 0])


def pullback_metric(f: DiscreteImmersion) -> np.ndarray:
    """First fundamental form (f*h)_ij at the nodes, shape (*counts, d, d)."""
    J = jacobian_array(f.values, f.grid)
    H = f.target.eval(f.values)
    G = np.einsum("...ai,...ab,...bj->...ij", J, H, J)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def connector(target, points, Dv, J, v):
    """Derivative along a map, with differential J and values at ``points``,
    of a target vector field v with raw derivative Dv:
    Dv^a_i + Gamma^a_bc d_i f^b v^c (Dv itself for a constant target)."""
    if target.is_constant:
        return Dv
    Gam = christoffel(target, points).components
    return Dv + np.einsum("...abc,...bi,...c->...ai", Gam, J, v)


def covariant_normal_derivative(f: DiscreteImmersion, n: NormalField) -> JacobianField:
    """Pullback-connection derivative of the normal:
    (grad n)_i^a = d_i n^a + Gamma^a_bc(f) d_i f^b n^c.
    """
    J = jacobian_array(f.values, f.grid)
    Dn = jacobian_array(n.values, f.grid)
    return JacobianField(f.grid, connector(f.target, f.values, Dn, J, n.values))


def shape_operator(f: DiscreteImmersion) -> ShapeField:
    """Shape operator extracted from grad n = -df o S by least squares.

    Normal equations with the pullback Gram matrix: the discrete grad n is
    never exactly tangential, so S is the minimizer of |grad n + df S|_h.
    """
    n = unit_normal(f)
    W = covariant_normal_derivative(f, n).values
    J = jacobian_array(f.values, f.grid)
    H = f.target.eval(f.values)
    G = np.einsum("...ai,...ab,...bj->...ij", J, H, J)
    rhs = np.einsum("...ai,...ab,...bj->...ij", J, H, W)
    S = -np.linalg.solve(G, rhs)
    return ShapeField(f.grid, S)


def normal_director(f: DiscreteImmersion) -> DirectorField:
    """Director field with foot f and vector the oriented unit normal of f."""
    n = unit_normal(f)
    return DirectorField(f.grid, f.values, n.values, f.target)
