"""imlab: stretching/bending energies of hypersurface immersions.

Evaluation and minimization of the codimension-1 stretching plus bending
energy, reconstruction of reference immersions from prescribed first and
second fundamental forms, and desk-scale verification experiments.
"""

from .energy import (EnergyReport, Integrands, relaxed_total, sasaki_bound_margin,
                     sasaki_norm_sq, total_energy)
from .errors import (AsymmetricShape, BadConfig, BadExponent,
                     DegenerateCovariance, GridMismatch, ImlabError,
                     IncompatibleForms, NonSPDAnchor, NotSPD, RankDeficient,
                     SingularMetric, UnsupportedExponent, UnsupportedTarget)
from .fields import (DirectorField, DiscreteImmersion, Grid, ShapeField, fd_jacobian,
                     lp_norm, w1p_distance)
from .geometry import (MetricChart, chart, christoffel, dist_rotations,
                       dist_stiefel, project_stiefel, riemann_curvature,
                       sqrt_and_inv_sqrt)
from .immersion import (covariant_normal_derivative, normal_director,
                        pullback_metric, shape_operator, unit_normal)
from .optimize import OptimizeConfig, OptimizeTrace, energy_gradient, minimize
from .presets import PRESETS, get_preset
from .reconstruct import (align_rigid, gauss_codazzi_residual, integrate_frame,
                          save_obj)

__version__ = "0.1.0"
