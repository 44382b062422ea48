"""Stretching and bending energies of immersions and their director-field relaxation.

The stretching integrand is the Frobenius distance of the frame-reduced
differential Q = h^{1/2}(f) df g^{-1/2} to the orthonormal-column matrices;
the bending integrand is the (g,h)-norm of the shape-operator discrepancy
A_i^a = d_i n^a + Gamma^a_bc(f) d_i f^b n^c + d_j f^a S^j_i.  The relaxed
counterparts act on arbitrary director fields xi = (x, v): the square matrix
h^{1/2} [df_x g^{-1/2} | v] is measured against the rotation group, and the
connector K o Dxi replaces the normal derivative.  Conjugating by the metric
square roots realizes all metric distances as Euclidean matrix distances.
:class:`Integrands` is the one implementation of both integrands, for the
library functions here and for the minimizer (:mod:`imlab.optimize`), so
both report the same numbers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadExponent
from .fields import (DirectorField, DiscreteImmersion, Grid, JacobianField,
                     ShapeField, jacobian_array, quadrature_weights)
from .geometry import (MetricChart, chart_factors, cross_columns, rotation_factors,
                       stiefel_factors)
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


def _check_p(p):
    if p < 1:
        raise BadExponent("p must be >= 1")


def parameter_factors(g: MetricChart, grid: Grid):
    """(g^{-1}, g^{-1/2}) at the grid nodes, single matrices for a constant g."""
    _, _, _, gsi = chart_factors(g, grid.nodes)
    return gsi @ gsi, gsi


# Per-node integrands (squared frame distance dist2, squared bending norm q2)
# and the intermediates of their VJPs: the polar factor P or nearest rotation
# R (None unless asked for), nu = |cross(Q)| = sigma_1 sigma_2, the unit
# cross product nhat, and the bending fields premultiplied by h.
ImmersionNodes = namedtuple("ImmersionNodes", "dist2 q2 Q P nu nhat HA")
DirectorNodes = namedtuple("DirectorNodes", "dist2 q2 B R HC")


class Integrands:
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
        J = jacobian_array(values, self.grid)
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
        A = connector(self.target, values, jacobian_array(n, self.grid), J, n) + J @ self.Sv
        HA, q2 = self._bend_sq(H, A)
        return ImmersionNodes(dist2, q2, Q, P, nu, nhat, HA)

    def director(self, foot, vec, polar=False, guard=None):
        """DirectorNodes of the director field (foot, vec); with ``guard``,
        None where sigma_min(B) < guard."""
        Jx = jacobian_array(foot, self.grid)
        Jv = jacobian_array(vec, self.grid)
        H, Hs, _ = self._target(foot)
        B = Hs @ np.concatenate([Jx @ self.gsi, vec[..., None]], axis=-1)
        dist2, smin, R = rotation_factors(B, polar)
        if guard is not None and np.min(smin) < guard:
            return None
        HC, q2 = self._bend_sq(H, Jx @ self.Sv + connector(self.target, foot, Jv, Jx, vec))
        return DirectorNodes(dist2, q2, B, R, HC)

    def sasaki_sq(self, foot, vec):
        """Squared Sasaki norm |Df_x|^2_{g,h} + |K o Dxi|^2_{g,h} per node."""
        Jx = jacobian_array(foot, self.grid)
        K = connector(self.target, foot, jacobian_array(vec, self.grid), Jx, vec)
        H, _, _ = self._target(foot)
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
    against dVol_g; densities retained for export."""
    _check_p(p)
    core = Integrands(f.grid, g, f.target, S)
    return core.report(core.immersion(f.values), p)


def stretching_energy(f: DiscreteImmersion, g: MetricChart, p: float):
    """(value, per-node density) of the stretching term."""
    rep = total_energy(f, g, None, p)
    return rep.stretch, rep.stretch_density


def bending_energy(f: DiscreteImmersion, g: MetricChart, S: ShapeField, p: float):
    """(value, per-node density) of the bending term."""
    rep = total_energy(f, g, S, p)
    return rep.bend, rep.bend_density


# ---------------------------------------------------------------------------
# director-field (relaxed) energies


def connector_apply(xi: DirectorField) -> JacobianField:
    """Connector applied to the director derivative:
    (K o Dxi)_i^a = d_i v^a + Gamma^a_bc(x) d_i x^b v^c.
    """
    Jx = jacobian_array(xi.foot, xi.grid)
    Jv = jacobian_array(xi.vec, xi.grid)
    return JacobianField(xi.grid, connector(xi.target, xi.foot, Jv, Jx, xi.vec))


def director_frame(xi: DirectorField, g: MetricChart) -> np.ndarray:
    """Square frame matrix B = h^{1/2}(x) [df_x g^{-1/2} | v] per node."""
    return Integrands(xi.grid, g, xi.target).director(xi.foot, xi.vec).B


def relaxed_total(xi: DirectorField, g: MetricChart, S: Optional[ShapeField],
                  p: float) -> EnergyReport:
    """Integrals of the p-th powers of the distance of the extended frame
    [df_x | v] to the rotations of the product metric and of
    |df_x S + K o Dxi|_{g,h}, against dVol_g."""
    _check_p(p)
    core = Integrands(xi.grid, g, xi.target, S)
    return core.report(core.director(xi.foot, xi.vec), p)


def relaxed_stretching(xi: DirectorField, g: MetricChart, p: float):
    """(value, per-node density) of the relaxed stretching term."""
    rep = relaxed_total(xi, g, None, p)
    return rep.stretch, rep.stretch_density


def relaxed_bending(xi: DirectorField, g: MetricChart, S: ShapeField, p: float):
    """(value, per-node density) of the relaxed bending term."""
    rep = relaxed_total(xi, g, S, p)
    return rep.bend, rep.bend_density


def sasaki_norm_sq(xi: DirectorField, g: MetricChart) -> np.ndarray:
    """Squared Sasaki norm of the director derivative per node:
    |Dxi|^2 = |Df_x|^2_{g,h} + |K o Dxi|^2_{g,h}.
    """
    return Integrands(xi.grid, g, xi.target).sasaki_sq(xi.foot, xi.vec)


def sasaki_bound_margin(xi: DirectorField, g: MetricChart, S: ShapeField) -> np.ndarray:
    """Margin of the pointwise bound of |Dxi| by the energy integrands.

    Where |Dxi| >= (3 + 2M) sqrt(d+1), with M the sup of the g-operator norm
    of S, returns (3 + 2M) (dist + |df S + K o Dxi|) - |Dxi|, which must be
    nonnegative.  Below the threshold the bound does not apply and NaN is
    returned as an explicit not-applicable sentinel.
    """
    core = Integrands(xi.grid, g, xi.target, S)
    lhs = np.sqrt(core.sasaki_sq(xi.foot, xi.vec))
    nodes = core.director(xi.foot, xi.vec)
    factor = 3.0 + 2.0 * S.sup_norm(g)
    rhs = factor * (np.sqrt(nodes.dist2) + np.sqrt(nodes.q2))
    applicable = lhs >= factor * np.sqrt(xi.grid.dim + 1.0)
    return np.where(applicable, rhs - lhs, np.nan)
