"""Stretching and bending energies of immersions and their director-field relaxation.

The stretching integrand is the Frobenius distance of the frame-reduced
differential Q = h^{1/2}(f) df g^{-1/2} to the orthonormal-column matrices;
the bending integrand is the (g,h)-norm of the shape-operator discrepancy
A_i^a = d_i n^a + Gamma^a_bc(f) d_i f^b n^c + d_j f^a S^j_i.  The relaxed
counterparts act on arbitrary director fields xi = (x, v): the square matrix
h^{1/2} [df_x g^{-1/2} | v] is measured against the rotation group, and the
connector K o Dxi replaces the normal derivative.  Conjugating by the metric
square roots realizes all metric distances as Euclidean matrix distances; the
roots come from :func:`imlab.geometry.chart_factors`, closed form for 2x2
metrics, and a constant metric is factored once per call as single matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadExponent
from .fields import (DirectorField, DiscreteImmersion, Grid, JacobianField,
                     ShapeField, integrate_density, jacobian_array)
from .geometry import (MetricChart, chart_factors, christoffel, dist_rotations,
                       dist_stiefel)
from .immersion import covariant_normal_derivative, unit_normal


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


def target_factors(target: MetricChart, points):
    """(h, h^{1/2}, h^{-1/2}) at the given target points, single matrices for
    a constant target."""
    H, _, Hs, Hsi = chart_factors(target, points)
    return H, Hs, Hsi


def hom_norm_sq(A, g: MetricChart, grid: Grid, target: MetricChart, points):
    """Squared (g,h)-norm of a Hom(TM, TN) field, g^{ij} h_ab A^a_i A^b_j, with
    g at the grid nodes and h at the target points."""
    ginv, _ = parameter_factors(g, grid)
    H = target.constant if target.is_constant else target.eval(points)
    return np.sum((H @ A) * (A @ ginv), axis=(-2, -1))


def stretching_energy(f: DiscreteImmersion, g: MetricChart, p: float):
    """Integral of dist^p(Q, orthonormal columns) against dVol_g.

    Returns (value, density) with the per-node integrand before quadrature.
    """
    _check_p(p)
    J = jacobian_array(f.values, f.grid)
    _, Hs, _ = target_factors(f.target, f.values)
    _, gsi = parameter_factors(g, f.grid)
    Q = Hs @ J @ gsi
    density = dist_stiefel(Q) ** p
    return integrate_density(density, f.grid, g), density


def bending_energy(f: DiscreteImmersion, g: MetricChart, S: ShapeField, p: float):
    """Integral of |grad n + df S|^p_{g,h} against dVol_g."""
    _check_p(p)
    n = unit_normal(f)
    W = covariant_normal_derivative(f, n).values
    J = jacobian_array(f.values, f.grid)
    A = W + J @ S.values
    density = np.maximum(hom_norm_sq(A, g, f.grid, f.target, f.values), 0.0) ** (p / 2.0)
    return integrate_density(density, f.grid, g), density


def total_energy(f: DiscreteImmersion, g: MetricChart, S: ShapeField,
                 p: float) -> EnergyReport:
    """Stretching plus bending; densities retained for export."""
    es, sd = stretching_energy(f, g, p)
    eb, bd = bending_energy(f, g, S, p)
    return EnergyReport(p=p, stretch=es, bend=eb, stretch_density=sd, bend_density=bd)


# ---------------------------------------------------------------------------
# director-field (relaxed) energies


def connector_apply(xi: DirectorField) -> JacobianField:
    """Connector applied to the director derivative:
    (K o Dxi)_i^a = d_i v^a + Gamma^a_bc(x) d_i x^b v^c.
    """
    Jx = jacobian_array(xi.foot, xi.grid)
    Jv = jacobian_array(xi.vec, xi.grid)
    if xi.target.is_constant:
        return JacobianField(xi.grid, Jv)
    Gam = christoffel(xi.target, xi.foot).components
    K = Jv + np.einsum("...abc,...bi,...c->...ai", Gam, Jx, xi.vec)
    return JacobianField(xi.grid, K)


def director_frame(xi: DirectorField, g: MetricChart) -> np.ndarray:
    """Square frame matrix B = h^{1/2}(x) [df_x g^{-1/2} | v] per node."""
    Jx = jacobian_array(xi.foot, xi.grid)
    _, Hs, _ = target_factors(xi.target, xi.foot)
    _, gsi = parameter_factors(g, xi.grid)
    cols = np.concatenate([Jx @ gsi, xi.vec[..., None]], axis=-1)
    return Hs @ cols


def relaxed_stretching(xi: DirectorField, g: MetricChart, p: float):
    """Integral of the p-th power of the distance of the extended frame
    [df_x | v] to the rotations of the product metric, against dVol_g."""
    _check_p(p)
    B = director_frame(xi, g)
    density = dist_rotations(B) ** p
    return integrate_density(density, xi.grid, g), density


def _relaxed_bending_field(xi: DirectorField, S: ShapeField) -> np.ndarray:
    Jx = jacobian_array(xi.foot, xi.grid)
    return Jx @ S.values + connector_apply(xi).values


def relaxed_bending(xi: DirectorField, g: MetricChart, S: ShapeField, p: float):
    """Integral of |df_x S + K o Dxi|^p_{g,h} against dVol_g."""
    _check_p(p)
    C = _relaxed_bending_field(xi, S)
    density = np.maximum(hom_norm_sq(C, g, xi.grid, xi.target, xi.foot), 0.0) ** (p / 2.0)
    return integrate_density(density, xi.grid, g), density


def relaxed_total(xi: DirectorField, g: MetricChart, S: ShapeField,
                  p: float) -> EnergyReport:
    es, sd = relaxed_stretching(xi, g, p)
    eb, bd = relaxed_bending(xi, g, S, p)
    return EnergyReport(p=p, stretch=es, bend=eb, stretch_density=sd, bend_density=bd)


def sasaki_norm_sq(xi: DirectorField, g: MetricChart) -> np.ndarray:
    """Squared Sasaki norm of the director derivative per node:
    |Dxi|^2 = |Df_x|^2_{g,h} + |K o Dxi|^2_{g,h}.
    """
    Jx = jacobian_array(xi.foot, xi.grid)
    K = connector_apply(xi).values
    return (hom_norm_sq(Jx, g, xi.grid, xi.target, xi.foot)
            + hom_norm_sq(K, g, xi.grid, xi.target, xi.foot))


def sasaki_bound_margin(xi: DirectorField, g: MetricChart, S: ShapeField) -> np.ndarray:
    """Margin of the pointwise bound of |Dxi| by the energy integrands.

    Where |Dxi| >= (3 + 2M) sqrt(d+1), with M the sup of the g-operator norm
    of S, returns (3 + 2M) (dist + |df S + K o Dxi|) - |Dxi|, which must be
    nonnegative.  Below the threshold the bound does not apply and NaN is
    returned as an explicit not-applicable sentinel.
    """
    d = xi.grid.dim
    M = S.sup_norm(g)
    lhs = np.sqrt(np.maximum(sasaki_norm_sq(xi, g), 0.0))
    dist = dist_rotations(director_frame(xi, g))
    C = _relaxed_bending_field(xi, S)
    bend = np.sqrt(np.maximum(hom_norm_sq(C, g, xi.grid, xi.target, xi.foot), 0.0))
    factor = 3.0 + 2.0 * M
    rhs = factor * (dist + bend)
    applicable = lhs >= factor * np.sqrt(d + 1.0)
    return np.where(applicable, rhs - lhs, np.nan)
