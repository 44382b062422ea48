"""Span tracer and layer wrappers for the imlab benchmark.

One layer per imlab module, plus ``kernels`` for the numpy small-matrix
kernels.  :meth:`Tracer.install` wraps every binding of each target function:
its home-module attribute, every other imlab module attribute bound to the
same object (``from .fields import jacobian_array`` copies the binding into
optimize, energy, immersion and harness), and every value of an imlab
module-level dict (``harness.RUNNERS``).  Numpy kernels are wrapped on
``numpy`` / ``numpy.linalg`` and ``MetricChart.eval`` on the class.
:meth:`Tracer.uninstall` puts every replaced binding back.  Nothing under
``src/`` is edited: the wrappers time calls made into each module.

A span is ``(name, start_ns, end_ns, parent, op, self_ns, work, variant)``.
Self time is the span's duration minus the time covered by its child spans
(calls are serial, so children never overlap).  ``work`` is a computed count:
batch elements for kernels (from array shapes) and file bytes for artifact
I/O (from file sizes after the call).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

import numpy as np

# (metric prefix, home module, attribute path, kind)
#   kernel: work = batch elements of the call; io: work = bytes of the file
#   named by the first argument; fn: calls and time only.
LAYERS = (
    ("kernels.svd", "numpy.linalg", "svd", "kernel"),
    ("kernels.eigh", "numpy.linalg", "eigh", "kernel"),
    ("kernels.eigvalsh", "numpy.linalg", "eigvalsh", "kernel"),
    ("kernels.det", "numpy.linalg", "det", "kernel"),
    ("kernels.solve", "numpy.linalg", "solve", "kernel"),
    ("kernels.einsum", "numpy", "einsum", "kernel"),
    ("kernels.cross", "numpy", "cross", "kernel"),
    ("energy.parameter_factors", "imlab.energy", "parameter_factors", "fn"),
    ("energy.total_energy", "imlab.energy", "total_energy", "fn"),
    ("energy.relaxed_total", "imlab.energy", "relaxed_total", "fn"),
    ("energy.sasaki_bound_margin", "imlab.energy", "sasaki_bound_margin", "fn"),
    ("geometry.sqrt_and_inv_sqrt", "imlab.geometry", "sqrt_and_inv_sqrt", "fn"),
    ("geometry.spd_sqrt_det", "imlab.geometry", "spd_sqrt_det", "fn"),
    ("geometry.dist_stiefel", "imlab.geometry", "dist_stiefel", "fn"),
    ("geometry.dist_rotations", "imlab.geometry", "dist_rotations", "fn"),
    ("geometry.christoffel", "imlab.geometry", "christoffel", "fn"),
    ("geometry.MetricChart.eval", "imlab.geometry", "MetricChart.eval", "fn"),
    ("immersion.unit_normal", "imlab.immersion", "unit_normal", "fn"),
    ("immersion.pullback_metric", "imlab.immersion", "pullback_metric", "fn"),
    ("immersion.shape_operator", "imlab.immersion", "shape_operator", "fn"),
    ("immersion.covariant_normal_derivative", "imlab.immersion",
     "covariant_normal_derivative", "fn"),
    ("fields.jacobian_array", "imlab.fields", "jacobian_array", "fn"),
    ("fields.jacobian_adjoint", "imlab.fields", "jacobian_adjoint", "fn"),
    ("fields.integrate_density", "imlab.fields", "integrate_density", "fn"),
    ("fields.w1p_distance", "imlab.fields", "w1p_distance", "fn"),
    ("fields.save_node_csv", "imlab.fields", "save_node_csv", "io"),
    ("fields.save_binary", "imlab.fields", "save_binary", "io"),
    ("fields.load_node_csv", "imlab.fields", "load_node_csv", "io"),
    ("harness.write_json", "imlab.harness", "write_json", "io"),
    ("harness.write_csv", "imlab.harness", "write_csv", "io"),
    ("harness.write_svg_loglog", "imlab.harness", "write_svg_loglog", "io"),
    ("harness.random_smooth_field", "imlab.harness", "random_smooth_field", "fn"),
    ("harness.run_check", "imlab.harness", "run_check", "fn"),
    ("harness.run_reconstruct", "imlab.harness", "run_reconstruct", "fn"),
    ("harness.run_stability_sweep", "imlab.harness", "run_stability_sweep", "fn"),
    ("harness.run_ratio_study", "imlab.harness", "run_ratio_study", "fn"),
    ("harness.run_energy", "imlab.harness", "run_energy", "fn"),
    ("reconstruct.save_obj", "imlab.reconstruct", "save_obj", "io"),
    ("reconstruct.gauss_codazzi_residual", "imlab.reconstruct",
     "gauss_codazzi_residual", "fn"),
    ("reconstruct.integrate_frame", "imlab.reconstruct", "integrate_frame", "fn"),
    ("reconstruct.align_rigid", "imlab.reconstruct", "align_rigid", "fn"),
    ("optimize.minimize", "imlab.optimize", "minimize", "fn"),
)

# Sub-counts kept beside a target's totals: the 3x2 (immersion frame) and
# 3x3 (director frame) SVDs, and metric evaluations of the tabulated chart.
VARIANTS = {"kernels.svd": ("3x2", "3x3"),
            "geometry.MetricChart.eval": ("tabulated",)}

WORK_STAT = {"kernel": "matrices", "io": "bytes"}


def _batch(shape, core: int) -> int:
    """Number of matrices in a stack whose last ``core`` axes are the matrix."""
    return math.prod(shape[:max(len(shape) - core, 0)])


def _einsum_batch(subscripts, *operands) -> int:
    """Broadcast size of the ``...`` axes of an einsum call (1 without them)."""
    if not isinstance(subscripts, str) or "..." not in subscripts:
        return 1
    specs = subscripts.replace(" ", "").split("->")[0].split(",")
    shapes = []
    for spec, op in zip(specs, operands):
        if "..." in spec:
            shape = np.shape(op)
            shapes.append(shape[:len(shape) - (len(spec) - 3)])
    return math.prod(np.broadcast_shapes(*shapes))


def _matrix_work(args, kwargs):
    shape = np.shape(args[0])
    return _batch(shape, 2), "x".join(str(n) for n in shape[-2:])


def _kernel_work(prefix):
    if prefix == "kernels.einsum":
        return lambda args, kwargs: (_einsum_batch(*args), None)
    if prefix == "kernels.cross":
        return lambda args, kwargs: (math.prod(np.broadcast_shapes(
            np.shape(args[0])[:-1], np.shape(args[1])[:-1])), None)
    return _matrix_work


def _io_work(args, kwargs):
    return os.path.getsize(args[0]), None


def _eval_work(args, kwargs):
    return 0, ("tabulated" if args[0].name == "tabulated" else None)


def _no_work(args, kwargs):
    return 0, None


def _work_fn(prefix, kind):
    if kind == "kernel":
        return _kernel_work(prefix)
    if kind == "io":
        return _io_work
    if prefix == "geometry.MetricChart.eval":
        return _eval_work
    return _no_work


def _imlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "imlab" or n.startswith("imlab."))]


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, work_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                try:
                    work, variant = work_of(args, kwargs)
                except OSError:     # the call raised before writing its file
                    work, variant = 0, None
                spans[frame[0]] = (name, t0, t1, parent, self.op,
                                   t1 - t0 - frame[1], work, variant)

        wrapper.perfbench_wrapper = True
        return wrapper

    def install(self):
        """Wrap every binding of every target; record what was replaced."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        imlab_mods = _imlab_modules()
        self.missing = []
        for prefix, home, path, kind in LAYERS:
            module = sys.modules.get(home)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(prefix, orig, _work_fn(prefix, kind))
            if owner_name:          # a method: its one binding is on the class
                self._replace(owner, attr, orig, wrapper)
                continue
            homes = [np, np.linalg] if kind == "kernel" else []
            for mod in homes + imlab_mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, orig, wrapper)
                    elif isinstance(value, dict) and mod in imlab_mods:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                self._saved.append((value, dkey, orig, True))
                                value[dkey] = wrapper

    def _replace(self, owner, attr, orig, wrapper):
        self._saved.append((owner, attr, orig, False))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every binding :meth:`install` replaced, newest first."""
        while self._saved:
            owner, key, orig, is_item = self._saved.pop()
            if is_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    # -- aggregation --------------------------------------------------------

    def op_totals(self, op) -> dict:
        """name -> [calls, self_ns, work] over the spans of one op; variants
        are keyed ``name.variant``."""
        out = {}
        for span in self.spans:
            if span is None or span[4] != op:
                continue
            name, _, _, _, _, self_ns, work, variant = span
            keys = (name,) if variant is None else (name, f"{name}.{variant}")
            for key in keys:
                acc = out.setdefault(key, [0, 0, 0])
                acc[0] += 1
                acc[1] += self_ns
                acc[2] += work
        return out

    def self_times(self, name) -> list:
        """Per-call self times in seconds of every span with this name."""
        return [s[5] * 1e-9 for s in self.spans if s is not None and s[0] == name]

    def write(self, path):
        """Write the spans as CSV, one row per span, parents by row index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op,self_ns,work,variant\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    fh.write(f"{i},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]},"
                             f"{s[6]},{s[7] or ''}\n")


def layer_metric_names():
    """(name, unit) of every span-derived per-layer metric, in report order."""
    out = []
    for prefix, _, _, kind in LAYERS:
        out.append((f"{prefix}.calls", "count"))
        out.append((f"{prefix}.self_s", "s"))
        if kind in WORK_STAT:
            out.append((f"{prefix}.{WORK_STAT[kind]}", "count" if kind == "kernel" else "B"))
        for variant in VARIANTS.get(prefix, ()):
            out.append((f"{prefix}.{variant}.calls", "count"))
            out.append((f"{prefix}.{variant}.self_s", "s"))
            if kind in WORK_STAT:
                out.append((f"{prefix}.{variant}.{WORK_STAT[kind]}", "count"))
    return out
