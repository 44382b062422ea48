"""Parameter-domain grids, discrete maps and tensor fields, derivatives, norms.

The field classes hold node arrays row-major with the grid axes leading, e.g.
a map into R^3 on an n1 x n2 grid has shape (n1, n2, 3).  Every node array
that enters (a field, a tabulated or array metric, a quadrature density) has
one check, :func:`_node_values`: the shape is grid.counts + entries, every
entry is finite, and points of a target chart need a chart of dimension
grid dim + 1 whose domain holds them (1e-12 margin).  The stencils work
component-major, entries leading and grid axes trailing: :func:`jacobian_array`
takes (comps, n1, n2) and returns (comps, dim, n1, n2), the layout of the
integrand forwards and the minimizer's state vector; :func:`fd_jacobian` is
the node-major entry point, from a node array (n1, n2, comps) and its grid to
(n1, n2, comps, dim).  Derivatives use second-order central stencils at
interior nodes and second-order one-sided stencils at the boundary, so they
are exact on quadratics.  On an axis of up to DENSE_MAX_NODES nodes the
stencil is a cached per-axis difference matrix applied by a matrix product,
one product for the array's last axis; longer axes apply it by slicing, with
no matrix.  The adjoints apply the transpose.  Quadrature is tensor-product
trapezoidal, collocated with the derivative nodes.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadExponent, GridMismatch, UnsupportedTarget, is_int
from .geometry import MetricChart, chart_factors, component_major, node_major

BINARY_MAGIC = b"IMLAB001"


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on an axis-aligned box.

    spacing = extent / (count - 1) per axis; at least 4 nodes per axis, an
    integer count, so the one-sided boundary stencils have room.
    """

    counts: tuple
    extents: tuple
    origin: tuple = None

    def __post_init__(self):
        counts = tuple(np.atleast_1d(self.counts).tolist())
        extents = tuple(float(e) for e in np.atleast_1d(self.extents))
        origin = self.origin
        if origin is None:
            origin = (0.0,) * len(counts)
        origin = tuple(float(o) for o in np.atleast_1d(origin))
        if not (1 <= len(counts) <= 2):
            raise ValueError("grid dimension must be 1 or 2")
        if len(extents) != len(counts) or len(origin) != len(counts):
            raise ValueError("counts, extents and origin must have equal length")
        if not all(is_int(c) and c >= 4 for c in counts):
            raise ValueError(f"need at least 4 nodes per axis, as integers, got {counts}")
        if not all(np.isfinite(extents)) or not all(np.isfinite(origin)):
            raise ValueError("extents and origin must be finite")
        if any(e <= 0 for e in extents):
            raise ValueError("extents must be positive")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "origin", origin)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def spacing(self) -> tuple:
        return tuple(e / (c - 1) for e, c in zip(self.extents, self.counts))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axes(self):
        return [o + np.arange(c) * h
                for o, c, h in zip(self.origin, self.counts, self.spacing)]

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (*counts, dim)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)


def _node_values(grid: Grid, values, entries: tuple, what: str, target=None) -> np.ndarray:
    """``values`` as a float array, after the module's one check of a node
    array of ``grid`` with ``entries``-shaped values (ValueError naming
    ``what``); ``target`` is the chart the values are points of, if any."""
    v = np.asarray(values, dtype=float)
    if v.shape != grid.counts + entries:
        raise ValueError(f"{what} values have shape {v.shape}, expected {grid.counts + entries}")
    if not np.all(np.isfinite(v)):
        node = tuple(np.argwhere(~np.isfinite(v))[0, :grid.dim].tolist())
        raise ValueError(f"{what} values must be finite: non-finite value at node {node}")
    if target is not None:
        if target.dim != grid.dim + 1:
            raise ValueError("target chart dimension must be grid dim + 1")
        if np.any(v < target.domain[:, 0] - 1e-12) or np.any(v > target.domain[:, 1] + 1e-12):
            raise ValueError(f"{what} values leave the target chart domain")
    return v


@dataclass(frozen=True)
class DiscreteImmersion:
    """Node samples of a map into a (d+1)-dimensional target chart."""

    grid: Grid
    values: np.ndarray
    target: MetricChart

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values(
            self.grid, self.values, (self.grid.dim + 1,), "immersion", self.target))


@dataclass(frozen=True)
class DirectorField:
    """Footpoint map plus a tangent vector at each footpoint (coordinates of TN)."""

    grid: Grid
    foot: np.ndarray
    vec: np.ndarray
    target: MetricChart

    def __post_init__(self):
        grid, m = self.grid, (self.grid.dim + 1,)
        object.__setattr__(self, "foot", _node_values(grid, self.foot, m, "foot", self.target))
        object.__setattr__(self, "vec", _node_values(grid, self.vec, m, "vec"))


@dataclass(frozen=True)
class ShapeField:
    """Node array of (1,1)-tensors S^j_i, values[..., j, i]."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values(
            self.grid, self.values, (self.grid.dim,) * 2, "shape-field"))


# ---------------------------------------------------------------------------
# finite-difference stencils


# Axes of at most DENSE_MAX_NODES nodes apply their stencil as a dense
# difference matrix, one BLAS product; longer axes slice, with no matrix.
# Timed with one BLAS thread, the product is 1.5-6x faster than slicing up
# to 129 nodes, the two trade places at 257 (1-D grids favour the product,
# 2-D adjoints the slices), and slicing is 1.6-2.5x faster from 513 on,
# where the matrix also grows as count^2 (3.2 GB at 20001 nodes).
DENSE_MAX_NODES = 257


def _stencil(count: int, spacing: float, order: int):
    """(interior, first, last) rows of the d/dx (order 1) or d^2/dx^2 (order
    2) stencil on one axis, divided by their scale: central interior rows
    and one-sided O(h^2) rows at the first node and, mirrored (negated for
    d/dx), at the last.  The five-point d/dx rows share the interior leading
    error term (+ h^2 f'''/6), which keeps nested derivatives second order
    up to the boundary; four-node axes fall back to three points.  Direct
    d^2/dx^2 rows avoid nesting one-sided d/dx rows."""
    if order == 1:
        inner, scale = (-1.0, 0.0, 1.0), 2.0 * spacing
        first = (-5.0, 11.0, -10.0, 5.0, -1.0) if count >= 5 else (-3.0, 4.0, -1.0)
    else:
        inner, scale, first = (1.0, -2.0, 1.0), spacing * spacing, (2.0, -5.0, 4.0, -1.0)
    first = np.array(first) / scale
    return np.array(inner) / scale, first, first[::-1] * (-1.0) ** order


@functools.lru_cache(maxsize=128)
def difference_matrix(count: int, spacing: float, order: int = 1) -> np.ndarray:
    """Read-only (count, count) matrix of the :func:`_stencil` rows, built
    once per (count, spacing, order), for count <= DENSE_MAX_NODES only."""
    if count > DENSE_MAX_NODES:
        raise ValueError(f"difference matrices are built up to {DENSE_MAX_NODES} "
                         f"nodes, got {count}")
    inner, first, last = _stencil(count, spacing, order)
    D = np.zeros((count, count))
    i = np.arange(1, count - 1)[:, None]
    D[i, i + np.arange(-1, 2)] = inner
    D[0, :len(first)] = first
    D[-1, -len(last):] = last
    D.setflags(write=False)
    return D


@functools.lru_cache(maxsize=128)
def _transposed_difference_matrix(count: int, spacing: float, order: int) -> np.ndarray:
    """Contiguous read-only transpose of :func:`difference_matrix`: BLAS
    multiplies by it from the right faster than by the transposed view."""
    Dt = np.ascontiguousarray(difference_matrix(count, spacing, order).T)
    Dt.setflags(write=False)
    return Dt


def _sliced(v, axis: int, spacing: float, order: int, adjoint: bool):
    """The :func:`_stencil` rows, or their transpose, applied along ``axis``
    by slicing.  Each node's terms are summed in column order; the adjoint
    scatters the same terms, the interior rows first, then the first and the
    last row."""
    n = v.shape[axis]
    inner, first, last = _stencil(n, spacing, order)
    lead = (slice(None),) * axis
    shifted = [lead + (slice(k, n - 2 + k),) for k in range(3)]
    tail = n - len(last)
    if not adjoint:
        out = np.empty(v.shape)
        out[lead + (slice(1, n - 1),)] = sum(c * v[s] for c, s in zip(inner, shifted) if c)
        out[lead + (0,)] = sum(c * v[lead + (k,)] for k, c in enumerate(first))
        out[lead + (n - 1,)] = sum(c * v[lead + (tail + k,)] for k, c in enumerate(last))
        return out
    out = np.zeros(v.shape)
    rows = v[lead + (slice(1, n - 1),)]
    for c, s in zip(inner, shifted):
        if c:
            out[s] += c * rows
    for k, c in enumerate(first):
        out[lead + (k,)] += c * v[lead + (0,)]
    for k, c in enumerate(last):
        out[lead + (tail + k,)] += c * v[lead + (n - 1,)]
    return out


def _along_axis(values, axis: int, spacing: float, order=1, adjoint=False):
    """The axis's stencil, or its transpose, applied along ``axis``.  Up to
    DENSE_MAX_NODES nodes it is the difference matrix: one product on the
    first or the last axis, a product batched over the leading axes
    otherwise, so the array is never transposed.  Longer axes slice
    (:func:`_sliced`)."""
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    if n > DENSE_MAX_NODES:
        return _sliced(v, axis, spacing, order, adjoint)
    D = difference_matrix(n, spacing, order)
    if axis == v.ndim - 1:
        Dt = D if adjoint else _transposed_difference_matrix(n, spacing, order)
        return (v.reshape(-1, n) @ Dt).reshape(v.shape)
    u = v.reshape(math.prod(v.shape[:axis]), n, -1)
    return ((D.T if adjoint else D) @ (u[0] if axis == 0 else u)).reshape(v.shape)


def axis_derivative(values, axis: int, spacing: float) -> np.ndarray:
    """d/dx_axis of a node array: central interior, one-sided O(h^2)
    boundary, so exact on quadratics."""
    return _along_axis(values, axis, spacing)


def axis_second_derivative(values, axis: int, spacing: float) -> np.ndarray:
    """d^2/dx_axis^2: central interior, 4-point one-sided O(h^2) boundary."""
    return _along_axis(values, axis, spacing, order=2)


def axis_derivative_adjoint(bar, axis: int, spacing: float) -> np.ndarray:
    """Adjoint of :func:`axis_derivative` under the unweighted node dot
    product: the transposed difference matrix."""
    return _along_axis(bar, axis, spacing, adjoint=True)


def jacobian_array(values, grid: Grid) -> np.ndarray:
    """Raw Jacobian d_i f^alpha of a component-major node array
    (*comps, *counts): shape (*comps, dim, *counts)."""
    values = np.asarray(values, dtype=float)
    k = values.ndim - grid.dim
    # filled column by column, so one product's temporary lives at a time
    J = np.empty(values.shape[:k] + (grid.dim,) + grid.counts)
    for i, h in enumerate(grid.spacing):
        J[(slice(None),) * k + (i,)] = axis_derivative(values, k + i, h)
    return J


def jacobian_adjoint(bar, grid: Grid) -> np.ndarray:
    """Adjoint of :func:`jacobian_array`: (*comps, dim, *counts) back to
    (*comps, *counts)."""
    bar = np.asarray(bar, dtype=float)
    k = bar.ndim - grid.dim - 1
    col = (slice(None),) * k
    out = axis_derivative_adjoint(bar[col + (0,)], k, grid.spacing[0])
    for i in range(1, grid.dim):
        out += axis_derivative_adjoint(bar[col + (i,)], k + i, grid.spacing[i])
    return out


def fd_jacobian(values, grid: Grid) -> np.ndarray:
    """Raw Jacobian d_i f^alpha of a node-major array (*counts, comps):
    the contiguous node array (*counts, comps, dim)."""
    J = jacobian_array(component_major(values, 1), grid)
    return np.ascontiguousarray(node_major(J, 2))


# ---------------------------------------------------------------------------
# quadrature and norms


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Tensor-product trapezoidal node weights."""
    w = np.ones(grid.counts)
    for i, (c, h) in enumerate(zip(grid.counts, grid.spacing)):
        line = np.full(c, h)
        line[0] = line[-1] = h / 2.0
        shape = [1] * grid.dim
        shape[i] = c
        w = w * line.reshape(shape)
    return w


def integrate_density(density, grid: Grid, g: Optional[MetricChart] = None) -> float:
    """Quadrature of a node scalar field against the Riemannian volume
    sqrt(det g) (1 when no metric is given).

    Summation order is fixed (row-major numpy reduction) so results are
    reproducible bit-for-bit.
    """
    density = _node_values(grid, density, (), "density")
    if g is not None and g.dim != grid.dim:
        raise ValueError("volume metric dimension must match the grid")
    sdet = 1.0 if g is None else chart_factors(g, grid.nodes)[1]
    return float(np.sum(quadrature_weights(grid) * density * sdet))


def check_exponent(p) -> None:
    """Raise BadExponent unless the integrability exponent p is finite and >= 1."""
    if not 1 <= p < np.inf:
        raise BadExponent("p must be finite and >= 1")


def lp_norm(values, p: float, g: Optional[MetricChart], grid: Grid) -> float:
    """(integral of |values|^p dVol_g)^(1/p) with trapezoidal weights."""
    check_exponent(p)
    values = np.asarray(values, dtype=float)
    return integrate_density(np.abs(values) ** p, grid, g) ** (1.0 / p)


def w1p_distance(f: DiscreteImmersion, f0: DiscreteImmersion, p: float,
                 g: Optional[MetricChart] = None) -> float:
    """Sobolev W^{1,p} distance of two maps into a Euclidean target.

    (||f - f0||_p^p + ||Df - Df0||_p^p)^(1/p), with pointwise Euclidean /
    Frobenius norms and quadrature against dVol_g: one quadrature of
    |f - f0|^p + |D(f - f0)|^p, from one stencil pass on the difference.
    """
    check_exponent(p)
    if f.grid != f0.grid:
        raise GridMismatch("fields live on different grids")
    if not (f.target.is_constant and f0.target.is_constant):
        raise UnsupportedTarget("W^{1,p} distance needs a Euclidean target")
    diff = component_major(f.values - f0.values, 1)
    J = jacobian_array(diff, f.grid)
    sq = [np.add.reduce((a * a).reshape((-1,) + f.grid.counts), axis=0) for a in (diff, J)]
    return integrate_density(sq[0] ** (p / 2.0) + sq[1] ** (p / 2.0), f.grid, g) ** (1.0 / p)


# ---------------------------------------------------------------------------
# serialization: CSV (17 significant digits) and raw binary dumps


def atomic_write(path, data) -> None:
    """Write text (UTF-8) or bytes to ``path`` through a temporary file in the
    same directory and ``os.replace``: readers see the old file or the new
    one, never part of a write, and a failed write leaves no temporary file.
    The directory is made if missing, when the first file goes in.  The file
    gets the mode a plain ``open`` would give it (0o666 less the umask),
    since the temporary file is created with that mode."""
    path = os.fspath(path)
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if isinstance(data, bytes):
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        else:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def fmt17(x) -> str:
    """The number format of every text artifact: 17 significant digits."""
    return format(float(x), ".17g")


def write_csv(path, header: Sequence[str], rows) -> None:
    """A CSV table: the header, then one line per row, strings as they are
    and numbers in :func:`fmt17`."""
    lines = [",".join(header)] + [",".join(c if isinstance(c, str) else fmt17(c)
                                           for c in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def save_node_csv(path, grid: Grid, values) -> None:
    """One row per node: index tuple, then components, 17 significant digits,
    under the header i0, ..., c0, c1, ....

    Trailing (non-grid) axes of ``values`` are flattened into components.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[:grid.dim] != grid.counts:
        raise ValueError("values do not live on the given grid")
    flat = values.reshape(grid.num_nodes, -1)
    comp = flat.shape[1]
    header = ",".join([f"i{a}" for a in range(grid.dim)] + [f"c{k}" for k in range(comp)])
    idx = np.stack(np.meshgrid(*[np.arange(c) for c in grid.counts],
                               indexing="ij"), axis=-1).reshape(grid.num_nodes, grid.dim)
    # one %-format of the whole table: Python ints and floats, and
    # "%.17g" % x == fmt17(x) for every float x
    cells = np.concatenate([idx.astype(object), flat.astype(object)], axis=1)
    row = ",".join(["%d"] * grid.dim + ["%.17g"] * comp) + "\n"
    atomic_write(path, header + "\n" + (row * grid.num_nodes) % tuple(cells.ravel()))


def load_node_csv(path) -> np.ndarray:
    """Inverse of :func:`save_node_csv`; component axis kept even when single.

    Every malformed table raises ValueError naming the path: ragged rows,
    non-integer indices, non-numeric values, and index ranges whose node
    count differs from the row count (checked before any grid-sized
    allocation, so two rows cannot ask for a huge grid), or missing and
    repeated nodes."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().strip().split("\n")
    header = rows[0].split(",")
    n_idx = sum(1 for h in header if h.startswith("i") and h[1:].isdigit())
    data = [r.split(",") for r in rows[1:]]
    if n_idx < 1 or not data or any(len(r) != len(header) for r in data):
        raise ValueError(f"{path}: node table is empty or has ragged rows")
    try:
        idx = np.array([[int(c) for c in r[:n_idx]] for r in data])
        vals = np.array([[float(c) for c in r[n_idx:]] for r in data])
    except ValueError as exc:
        raise ValueError(f"{path}: node indices must be integers and values "
                         f"numbers ({exc})") from None
    if idx.min() < 0:
        raise ValueError(f"{path}: negative node index")
    counts = tuple(int(c) for c in idx.max(axis=0) + 1)
    if math.prod(counts) != len(data):
        raise ValueError(f"{path}: {len(data)} rows cannot fill the {counts} grid "
                         f"their indices span")
    seen = np.bincount(np.ravel_multi_index(tuple(idx.T), counts), minlength=len(data))
    if np.any(seen != 1):
        raise ValueError(f"{path}: {int(np.sum(seen == 0))} nodes missing and "
                         f"{int(np.sum(seen > 1))} repeated on a {counts} grid")
    out = np.empty(counts + (vals.shape[1],))
    out[tuple(idx.T)] = vals
    return out


def save_binary(path, values) -> None:
    """Little-endian float64 dump, row-major, magic header + uint64 shape."""
    values = np.asarray(values, dtype="<f8")
    atomic_write(path, b"".join([BINARY_MAGIC, struct.pack("<Q", values.ndim),
                                 struct.pack(f"<{values.ndim}Q", *values.shape),
                                 values.tobytes()]))


def load_binary(path) -> np.ndarray:
    """Inverse of :func:`save_binary`.  A file with a bad magic header, cut
    short, or holding a different number of values than its shape says raises
    ValueError naming the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise ValueError(f"{path}: bad magic header in binary field dump")
    head = len(BINARY_MAGIC) + 8
    if len(raw) < head:
        raise ValueError(f"{path}: binary field dump cut inside its header")
    (ndim,) = struct.unpack_from("<Q", raw, len(BINARY_MAGIC))
    if len(raw) < head + 8 * ndim:
        raise ValueError(f"{path}: binary field dump cut inside its header")
    shape = struct.unpack_from(f"<{ndim}Q", raw, head)
    head += 8 * ndim
    if len(raw) - head != 8 * math.prod(shape):
        raise ValueError(f"{path}: binary field dump holds {len(raw) - head} data "
                         f"bytes, its shape {shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8", offset=head).reshape(shape).copy()
