"""Shared test utilities: random rotations, convergence orders, symbolic oracles,
and the slicing finite-difference stencils that the library's difference
matrices are checked against."""

import numpy as np
import sympy as sp

from imlab.fields import Grid


def random_rotation(rng, n):
    """Haar-ish random proper rotation via QR with sign fixing."""
    A = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def convergence_orders(errors):
    """log2 ratios of consecutive errors for spacing-halving refinements."""
    errors = np.asarray(errors, dtype=float)
    return np.log2(errors[:-1] / errors[1:])


# ---------------------------------------------------------------------------
# symbolic Levi-Civita oracle (independent of the numeric implementation)


def symbolic_christoffel(coords, gmat):
    """Gamma^a_bc as sympy expressions from a symbolic metric matrix."""
    n = len(coords)
    ginv = gmat.inv()
    Gam = [[[sp.simplify(sp.Rational(1, 2) * sum(
        ginv[a, d] * (sp.diff(gmat[d, b], coords[c])
                      + sp.diff(gmat[d, c], coords[b])
                      - sp.diff(gmat[b, c], coords[d]))
        for d in range(n))) for c in range(n)] for b in range(n)] for a in range(n)]
    return Gam


def symbolic_riemann_lowered(coords, gmat):
    """R_ijkl with the same index convention as the numeric implementation."""
    n = len(coords)
    Gam = symbolic_christoffel(coords, gmat)
    R_up = [[[[sp.simplify(
        sp.diff(Gam[m][l][j], coords[k]) - sp.diff(Gam[m][k][j], coords[l])
        + sum(Gam[m][k][q] * Gam[q][l][j] - Gam[m][l][q] * Gam[q][k][j]
              for q in range(n)))
        for l in range(n)] for k in range(n)] for j in range(n)] for m in range(n)]
    R_low = [[[[sp.simplify(sum(gmat[i, m] * R_up[m][j][k][l] for m in range(n)))
                for l in range(n)] for k in range(n)] for j in range(n)]
             for i in range(n)]
    return R_low


def lambdify_tensor(coords, tensor, shape):
    """Numeric evaluator for a nested list of sympy expressions."""
    flat = []

    def collect(t, depth):
        if depth == 0:
            flat.append(t)
            return
        for item in t:
            collect(item, depth - 1)

    collect(tensor, len(shape))
    fns = [sp.lambdify(coords, e, "numpy") for e in flat]

    def evaluate(point):
        vals = np.array([f(*point) for f in fns], dtype=float)
        return vals.reshape(shape)

    return evaluate


# ---------------------------------------------------------------------------
# reference finite-difference stencils: the slicing implementation the
# per-axis difference matrices of imlab.fields replaced, kept verbatim


def axis_derivative(values, axis: int, spacing: float) -> np.ndarray:
    """d/dx_axis of a node array: central interior, one-sided O(h^2) boundary.

    The boundary stencils use five points so their leading error term equals
    the interior one (+ h^2 f'''/6).  A uniform error coefficient keeps the
    error field of derived quantities smooth up to the boundary, which is what
    lets nested derivatives (curvature of pullback data, normal derivatives)
    converge at second order in the max norm.  Four-node axes fall back to the
    classical three-point stencil.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    if v.shape[0] >= 5:
        out[0] = (-5.0 * v[0] + 11.0 * v[1] - 10.0 * v[2] + 5.0 * v[3]
                  - v[4]) / (2.0 * spacing)
        out[-1] = (5.0 * v[-1] - 11.0 * v[-2] + 10.0 * v[-3] - 5.0 * v[-4]
                   + v[-5]) / (2.0 * spacing)
    else:
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return np.moveaxis(out, 0, axis)


def axis_second_derivative(values, axis: int, spacing: float) -> np.ndarray:
    """d^2/dx_axis^2: central interior, 4-point one-sided O(h^2) boundary.

    Direct second-derivative stencils avoid the order loss of nesting
    one-sided first-derivative stencils at the boundary.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    h2 = spacing * spacing
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def axis_derivative_adjoint(bar, axis: int, spacing: float) -> np.ndarray:
    """Adjoint of :func:`axis_derivative` under the unweighted node dot product."""
    b = np.moveaxis(np.asarray(bar, dtype=float), axis, 0)
    out = np.zeros_like(b)
    out[:-2] -= b[1:-1]
    out[2:] += b[1:-1]
    if b.shape[0] >= 5:
        for k, c in enumerate((-5.0, 11.0, -10.0, 5.0, -1.0)):
            out[k] += c * b[0]
            out[-1 - k] += -c * b[-1]
    else:
        out[0] += -3.0 * b[0]
        out[1] += 4.0 * b[0]
        out[2] += -b[0]
        out[-1] += 3.0 * b[-1]
        out[-2] += -4.0 * b[-1]
        out[-3] += b[-1]
    out /= (2.0 * spacing)
    return np.moveaxis(out, 0, axis)


def jacobian_array(values, grid: Grid) -> np.ndarray:
    """Raw Jacobian d_i f^alpha of a node array, shape (*counts, comps, dim)."""
    values = np.asarray(values, dtype=float)
    cols = [axis_derivative(values, i, grid.spacing[i]) for i in range(grid.dim)]
    return np.stack(cols, axis=-1)


def jacobian_adjoint(bar, grid: Grid) -> np.ndarray:
    """Adjoint of :func:`jacobian_array`: scatter (*counts, comps, dim) back."""
    bar = np.asarray(bar, dtype=float)
    out = np.zeros(bar.shape[:-1])
    for i in range(grid.dim):
        out += axis_derivative_adjoint(bar[..., i], i, grid.spacing[i])
    return out
