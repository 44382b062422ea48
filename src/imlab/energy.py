"""Stretching and bending energies of immersions and their director-field relaxation.

The stretching integrand is the Frobenius distance of the frame-reduced
differential Q = h^{1/2}(f) df g^{-1/2} to the orthonormal-column matrices;
the bending integrand is the (g,h)-norm of the shape-operator discrepancy
A_i^a = d_i n^a + Gamma^a_bc(f) d_i f^b n^c + d_j f^a S^j_i.  The relaxed
counterparts act on arbitrary director fields xi = (x, v): the square matrix
h^{1/2} [df_x g^{-1/2} | v] is measured against the rotation group, and the
connector K o Dxi replaces the normal derivative (its node-major entry point
is :func:`imlab.immersion.covariant_normal_derivative` of the foot and the
vector).  Conjugating by the metric square roots realizes all metric
distances as Euclidean matrix distances.
:class:`Integrands` is the one implementation of both integrands, for the
library functions here and for the minimizer (:mod:`imlab.optimize`), so
both report the same numbers.  Its forwards take component-major states,
(d+1, *counts), and keep every per-node quantity component-major, matrix
entries leading and node axes trailing, as the stencils of
:func:`imlab.fields.jacobian_array` return them; each small per-node product
is then a few elementwise operations on whole node arrays, or one matrix
product for a single constant factor.  The library functions here move the
node-major arrays of their fields to that layout once, at entry.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import (DirectorField, DiscreteImmersion, Grid, ShapeField, check_exponent,
                     jacobian_array, quadrature_weights)
from .geometry import (MetricChart, chart_factors, component_major, cross_columns_cm,
                       left_mul, node_major, right_mul, rotation_factors_cm,
                       stiefel_factors_cm, target_factors_cm)
from .immersion import _frame_and_rank_check, connector


@dataclass(frozen=True)
class EnergyReport:
    """Stretching, bending and total energy plus per-node integrands."""

    p: float
    stretch: float
    bend: float
    stretch_density: np.ndarray
    bend_density: np.ndarray

    @property
    def total(self) -> float:
        return self.stretch + self.bend


def parameter_factors(g: MetricChart, grid: Grid):
    """(g^{-1}, g^{-1/2}) at the grid nodes, single matrices for a constant g."""
    _, _, _, gsi = chart_factors(g, grid.nodes)
    return gsi @ gsi, gsi


# Per-node integrands (squared frame distance dist2, squared bending norm q2)
# and the intermediates of their VJPs, component-major: the frame Q or B,
# its polar factor P or nearest rotation R (None unless asked for),
# nu = |cross(Q)| = sigma_1 sigma_2, the unit cross product nhat, and
# h A g^{-1} of the bending field A, half its q2-derivative.
ImmersionNodes = namedtuple("ImmersionNodes", "dist2 q2 Q P nu nhat HAG")
DirectorNodes = namedtuple("DirectorNodes", "dist2 q2 B R HCG")


class Integrands:
    """The stretching and bending integrands of one (grid, g, target, S) problem.

    g^{+-1/2} and g^{-1} = (g^{-1/2})^2 (as christoffel_from_values forms
    it) from one factorization of g, the quadrature weights times sqrt det g
    and the factors of a constant target are computed once, here; a curved
    target is factored at the state's points in each forward, which then also
    adds the connector term Gamma(f) df v.  Without S, or with S = 0, the
    shape operator is left out.  With H = h, the bending integrand
    g^{ij} h_ab A^a_i A^b_j is sum((H A g^{-1}) * A).

    The forwards take component-major states (d+1, *counts) and return
    component-major intermediates.  With a list of k shape fields, they take
    a batch of k states (d+1, k, *counts).
    """

    def __init__(self, grid: Grid, g: MetricChart, target: MetricChart, S=None):
        self.grid = grid
        self.target = target
        # the square roots come out exactly symmetric, so they are their own
        # transposes in the minimizer's adjoints
        _, sdet, gs, gsi = chart_factors(g, grid.nodes)
        self.gs, self.gsi = component_major(gs, 2), component_major(gsi, 2)
        self.ginv = left_mul(self.gsi, self.gsi)
        batch = isinstance(S, list)
        Sv = np.stack([s.values for s in S]) if batch else None if S is None else S.values
        self.S = None if Sv is None or not Sv.any() else component_major(Sv, 2)
        if batch:   # per-node factors broadcast over the states' batch axis
            self.gs, self.gsi, self.ginv = (F if F.ndim == 2 else F[:, :, None]
                                            for F in (self.gs, self.gsi, self.ginv))
        self.wdet = quadrature_weights(grid) * sdet
        if target.is_constant:
            self.H, self.Hs, self.Hsi = target_factors_cm(target, None)

    def _target(self, points):
        """(h, h^{1/2}, h^{-1/2}): single matrices, or per node at the
        component-major points."""
        if self.target.is_constant:
            return self.H, self.Hs, self.Hsi
        return target_factors_cm(self.target, node_major(points, 1))

    def _jacobian(self, x):
        """jacobian_array of a state, (m, d, *counts) or (m, d, k, *counts)."""
        J = jacobian_array(x, self.grid)
        return J if x.ndim == self.grid.dim + 1 else np.moveaxis(J, 2, 1)

    def _bend_sq(self, H, A):
        """(H A g^{-1}, max(|A|^2_{g,h}, 0)) per node."""
        HAG = left_mul(H, right_mul(A, self.ginv))
        sq = (HAG * A).reshape((-1,) + A.shape[2:])
        return HAG, np.maximum(np.add.reduce(sq, axis=0), 0.0)

    def _with_shape(self, J, K):
        """J S + K, K alone without S."""
        return K if self.S is None else right_mul(J, self.S) + K

    def immersion(self, values, polar=False, guard=None):
        """ImmersionNodes of the immersion with component-major node values
        ``values`` (d+1, *counts).

        Without ``guard``, raises RankDeficient where h^{1/2} J is rank
        deficient (:func:`imlab.immersion.unit_normal`'s rule); with it,
        returns None where sigma_min(Q) < guard.
        """
        J = self._jacobian(values)
        H, Hs, Hsi = self._target(values)
        B = left_mul(Hs, J)
        Q = right_mul(B, self.gsi)
        # the cross product of the columns of Q is det(g^{-1/2}) > 0 times
        # that of h^{1/2} J: same unit normal, and its length is sigma_1 sigma_2
        c = cross_columns_cm(Q)
        nu = np.sqrt(np.add.reduce(c * c, axis=0))
        dist2, smin, P = stiefel_factors_cm(Q, nu, polar)
        if guard is None:
            _frame_and_rank_check(B, cross_columns_cm(B))
        elif np.min(smin) < guard:
            return None
        nhat = c / nu
        n = left_mul(Hsi, nhat[:, None])[:, 0]
        Dn = self._jacobian(n)
        HAG, q2 = self._bend_sq(H, self._with_shape(J, connector(self.target, values, Dn, J, n)))
        return ImmersionNodes(dist2, q2, Q, P, nu, nhat, HAG)

    def director_terms(self, foot, vec):
        """(Jx, K o Dxi, h, h^{1/2}) of the director field (foot, vec), shared
        by :meth:`director` and :meth:`sasaki_sq`."""
        Jx, Jv = self._jacobian(foot), self._jacobian(vec)
        H, Hs, _ = self._target(foot)
        return Jx, connector(self.target, foot, Jv, Jx, vec), H, Hs

    def director(self, foot, vec, polar=False, guard=None, terms=None):
        """DirectorNodes of the director field (foot, vec); with ``guard``,
        None where sigma_min(B) < guard.  ``terms`` reuses what
        :meth:`director_terms` returned for this field."""
        Jx, K, H, Hs = self.director_terms(foot, vec) if terms is None else terms
        B = left_mul(Hs, np.concatenate([right_mul(Jx, self.gsi), vec[:, None]], axis=1))
        dist2, smin, R = rotation_factors_cm(B, polar)
        if guard is not None and np.min(smin) < guard:
            return None
        HCG, q2 = self._bend_sq(H, self._with_shape(Jx, K))
        return DirectorNodes(dist2, q2, B, R, HCG)

    def sasaki_sq(self, foot, vec, terms=None):
        """Squared Sasaki norm |Df_x|^2_{g,h} + |K o Dxi|^2_{g,h} per node;
        ``terms`` as in :meth:`director`."""
        Jx, K, H, _ = self.director_terms(foot, vec) if terms is None else terms
        return self._bend_sq(H, Jx)[1] + self._bend_sq(H, K)[1]

    def report(self, nodes, p: float) -> EnergyReport:
        """Quadrature of the p-th powers of the integrands against dVol_g."""
        sd, bd = nodes.dist2 ** (p / 2.0), nodes.q2 ** (p / 2.0)
        return EnergyReport(p=p, stretch=float(np.sum(self.wdet * sd)),
                            bend=float(np.sum(self.wdet * bd)),
                            stretch_density=sd, bend_density=bd)


def total_energy(f: DiscreteImmersion, g: MetricChart, S: Optional[ShapeField],
                 p: float) -> EnergyReport:
    """Integrals of dist^p(Q, orthonormal columns) and |grad n + df S|^p_{g,h}
    against dVol_g, each with its per-node density; S = None drops df S."""
    check_exponent(p)
    core = Integrands(f.grid, g, f.target, S)
    return core.report(core.immersion(component_major(f.values, 1)), p)


# ---------------------------------------------------------------------------
# director-field (relaxed) energies


def _director_cm(xi: DirectorField):
    """The component-major (foot, vec) of a director field."""
    return component_major(xi.foot, 1), component_major(xi.vec, 1)


def relaxed_total(xi: DirectorField, g: MetricChart, S: Optional[ShapeField],
                  p: float) -> EnergyReport:
    """Integrals of the p-th powers of the distance of the extended frame
    [df_x | v] to the rotations of the product metric and of
    |df_x S + K o Dxi|_{g,h}, against dVol_g, as :func:`total_energy`."""
    check_exponent(p)
    core = Integrands(xi.grid, g, xi.target, S)
    return core.report(core.director(*_director_cm(xi)), p)


def sasaki_norm_sq(xi: DirectorField, g: MetricChart) -> np.ndarray:
    """Squared Sasaki norm of the director derivative per node:
    |Dxi|^2 = |Df_x|^2_{g,h} + |K o Dxi|^2_{g,h}.
    """
    return Integrands(xi.grid, g, xi.target).sasaki_sq(*_director_cm(xi))


def sasaki_bound_margin(xis: Sequence[DirectorField], g: MetricChart,
                        Ss: Sequence[ShapeField]) -> np.ndarray:
    """Margins (k, *counts) of the pointwise bound of |Dxi| by the energy
    integrands of k director fields on one grid and target, each with its
    shape field, from one batched forward.

    Where |Dxi| >= (3 + 2M) sqrt(d+1), with M the sup of the g-operator norm
    of S, the margin is (3 + 2M) (dist + |df S + K o Dxi|) - |Dxi|, which
    must be nonnegative.  Below the threshold the bound does not apply and
    NaN is returned as an explicit not-applicable sentinel.
    """
    grid, target = xis[0].grid, xis[0].target
    if len(Ss) != len(xis) or any(x.target is not target or x.grid != grid for x in xis):
        raise ValueError("a margin batch needs one grid, one target and one S per field")
    core = Integrands(grid, g, target, list(Ss))
    foot, vec = (component_major(np.stack([getattr(x, a) for x in xis]), 1)
                 for a in ("foot", "vec"))
    terms = core.director_terms(foot, vec)
    lhs = np.sqrt(core.sasaki_sq(foot, vec, terms))
    nodes = core.director(foot, vec, terms=terms)
    gs, gsi = (np.ascontiguousarray(node_major(F, 2)) for F in (core.gs, core.gsi))
    s = np.linalg.svd(gs @ np.stack([S.values for S in Ss]) @ gsi, compute_uv=False)
    factor = 3.0 + 2.0 * np.max(s[..., 0], axis=tuple(range(1, s.ndim - 1)), keepdims=True)
    rhs = factor * (np.sqrt(nodes.dist2) + np.sqrt(nodes.q2))
    applicable = lhs >= factor * np.sqrt(grid.dim + 1.0)
    return np.where(applicable, rhs - lhs, np.nan)
