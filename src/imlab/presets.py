"""Named (metric, shape operator) presets with closed-form reference surfaces.

Every preset fixes a parameter box, the metric chart g on it, a shape field S,
and (when one exists) the closed-form immersion realizing the pair.  The
reference parametrizations are chosen so the oriented normal matches the sign
convention of the shape operator (cylinder and sphere curve toward the
normal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import DiscreteImmersion, Grid, ShapeField
from .geometry import MetricChart, chart

CYLINDER_RADIUS = 1.0
SPHERE_CAP_BOX = ((0.5, 1.5), (0.0, 1.0))
# larger cap for the incompatibility probe: the infimal energy of mismatched
# forms grows steeply with the domain, keeping the probe clear of zero
SPHERE_INCOMPATIBLE_BOX = ((0.5, 1.9), (0.0, 1.4))


def box_grid(box, counts) -> Grid:
    """The grid with node ``counts`` on ``box``, one (lo, hi) pair per axis;
    a single count on a two-dimensional box serves both axes."""
    counts = tuple(np.atleast_1d(counts))
    if len(counts) == 1 and len(box) == 2:
        counts = counts * 2
    return Grid(counts, tuple(hi - lo for lo, hi in box), tuple(lo for lo, _ in box))


@dataclass(frozen=True)
class Preset:
    name: str
    dim: int
    box: tuple
    g: MetricChart
    shape_values: Callable
    reference: Optional[Callable] = None

    def grid(self, counts) -> Grid:
        return box_grid(self.box, counts)

    def shape_field(self, grid: Grid) -> ShapeField:
        return ShapeField(grid, self.shape_values(grid))

    def reference_immersion(self, grid: Grid) -> Optional[DiscreteImmersion]:
        if self.reference is None:
            return None
        return DiscreteImmersion(grid, self.reference(grid.nodes()),
                                 chart("euclidean", self.dim + 1))


def _const_shape(matrix):
    """The function of a grid that gives the shape-field values equal to
    ``matrix`` at every node, (*counts, d, d)."""
    matrix = np.asarray(matrix, dtype=float)

    def build(grid):
        out = np.empty(grid.counts + matrix.shape)
        out[...] = matrix
        return out

    return build


def _flat_reference(x):
    """The flat graph (x, 0) of node coordinates x (..., d): (..., d+1)."""
    return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)


def _cylinder_reference(x):
    r = CYLINDER_RADIUS
    u, v = x[..., 0], x[..., 1]
    return np.stack([r * np.sin(u / r), v, r * (1.0 - np.cos(u / r))], axis=-1)


def _sphere_cap_reference(x):
    th, ph = x[..., 0], x[..., 1]
    return np.stack([np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph),
                     np.cos(th)], axis=-1)


def _build_presets():
    flat = Preset(
        name="flat", dim=2, box=((0.0, 1.0), (0.0, 1.0)),
        g=chart("euclidean", 2),
        shape_values=_const_shape(np.zeros((2, 2))),
        reference=_flat_reference)
    cylinder = Preset(
        name="cylinder", dim=2, box=((0.0, 1.0), (0.0, 1.0)),
        g=chart("euclidean", 2),
        shape_values=_const_shape(np.diag([1.0 / CYLINDER_RADIUS, 0.0])),
        reference=_cylinder_reference)
    sphere_cap = Preset(
        name="sphere-cap", dim=2, box=SPHERE_CAP_BOX,
        g=chart("sphere"),
        shape_values=_const_shape(np.eye(2)),
        reference=_sphere_cap_reference)
    sphere_incompatible = Preset(
        name="sphere-incompatible", dim=2, box=SPHERE_INCOMPATIBLE_BOX,
        g=chart("sphere"),
        shape_values=_const_shape(np.zeros((2, 2))),
        reference=None)
    return {p.name: p for p in (flat, cylinder, sphere_cap, sphere_incompatible)}


PRESETS = _build_presets()


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]
