"""Exception types shared across the library, and the type tests of config values."""

import math
import numbers


class ImlabError(Exception):
    """Base class for all library errors."""


class NotSPD(ImlabError):
    """Matrix expected to be symmetric positive definite is not."""


class SingularMetric(NotSPD):
    """Metric matrix fails the one SPD gate, :func:`imlab.geometry.spd_factors`."""


class RankDeficient(ImlabError):
    """A differential (or projection input) lost full rank."""


class GridMismatch(ImlabError):
    """Two fields live on different grids."""


class BadExponent(ImlabError):
    """Integrability exponent p out of range (p < 1, or not finite)."""


class UnsupportedExponent(ImlabError):
    """Operation requires p >= 2 (gradients of SVD-based integrands)."""


class UnsupportedTarget(ImlabError):
    """Operation is restricted to constant-metric (Euclidean-like) targets."""


class AsymmetricShape(ImlabError):
    """g*S is not symmetric: not a valid second fundamental form."""


class IncompatibleForms(ImlabError):
    """Fundamental forms fail the Gauss-Codazzi compatibility check."""


class NonSPDAnchor(ImlabError):
    """Custom anchor frame not finite, not shaped (d+1, d) and (d+1,), or not a
    positively oriented frame reproducing the metric at the anchor point."""


class DegenerateCovariance(ImlabError):
    """Cross-covariance too rank-deficient for a unique rigid alignment."""


class BadConfig(ImlabError):
    """Invalid experiment or optimizer configuration."""


def is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def require(ok, message) -> None:
    """Reject a config value: raise BadConfig(message) unless ok."""
    if not ok:
        raise BadConfig(message)
