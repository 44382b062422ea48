"""Experiment drivers: invariant checks, stability sweeps, reconstruction runs.

Every driver consumes an :class:`ExperimentConfig`, writes its artifacts
(CSV with 17 significant digits, JSON with sorted keys, optional OBJ/SVG)
atomically into the output directory, and returns the report dictionary.
Identical (config, seed) pairs produce byte-identical outputs: all randomness
flows through the config seed and summation orders are fixed.  The check
suite's margin sweep makes one batched margin call per batch of draws, and
its gradient check one batched energy call per column of its Ridders
tableaus.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import energy as en
from .errors import (AsymmetricShape, BadConfig, IncompatibleForms, SingularMetric,
                     is_finite, is_int, require)
from .fields import (DirectorField, DiscreteImmersion, Grid, ShapeField, _node_values,
                     atomic_write, fd_jacobian, fmt17, jacobian_array, load_node_csv,
                     save_binary, save_node_csv, w1p_distance, write_csv)
from .geometry import (CHART_NAMES, MetricChart, chart, christoffel, component_major,
                       dist_stiefel, project_stiefel, spd_factors, target_factors_cm)
from .immersion import _gram, normal_director, unit_normal
from .optimize import OptimizeConfig, _Evaluator, energy_gradient, minimize, pack_state
from .presets import PRESETS, _const_shape, _flat_reference, box_grid, get_preset
from .reconstruct import (_form_errors, _integrate, align_rigid, gauss_codazzi_residual,
                          integrate_frame, save_obj)

CONFIG_VERSION = 1
EXPERIMENTS = ("energy", "check", "reconstruct", "minimize",
               "stability-sweep", "ratio-study")
RATIO_GUARD = 1e-12
# tensor modes per component of a random smooth field
SMOOTH_MODES = 3
# random states per kind in the check suite's gradient check
GRADIENT_STATES = 3
# Ridders' step ratio and most columns (orders) of its tableau
RIDDERS_SHRINK = 1.4
RIDDERS_COLUMNS = 10


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    preset: str = "cylinder"
    grid: tuple = (33, 33)
    p: float = 2.0
    frequencies: tuple = (2, 4, 8)
    amplitudes: tuple = (0.1, 0.05, 0.02, 0.01)
    seed: int = 0
    out: str = "out"
    start: str = "immersion"          # minimize: immersion | director
    start_amplitude: float = 0.02
    director_scale: float = 2.0
    num_random: int = 5               # corpus size for the check suite
    s_override: Optional[tuple] = None  # constant S replacing the preset's in checks
    custom: Optional[dict] = None     # preset "custom": {"g": ..., "s": ..., "box": ...}
    optimizer: OptimizeConfig = field(default_factory=OptimizeConfig)

    def __post_init__(self):
        require(all(isinstance(getattr(self, k), str)
                    for k in ("experiment", "preset", "out", "start")),
                "experiment, preset, out and start must be strings")
        require(self.experiment in EXPERIMENTS, f"unknown experiment {self.experiment!r}")
        grid = (self.grid,) if is_int(self.grid) else self.grid
        require(_is_list(grid, is_int) and 1 <= len(grid) <= 2 and min(grid) >= 4,
                "grid needs one or two integer node counts of at least 4")
        object.__setattr__(self, "grid", tuple(int(c) for c in grid))
        if self.custom is not None:
            _check_custom(self.custom, self.grid)
        if self.preset == "custom":
            require(self.custom is not None, "preset 'custom' needs a custom object")
        else:
            require(self.preset in PRESETS, f"unknown preset {self.preset!r}")
        for name in ("p", "start_amplitude", "director_scale"):
            require(is_finite(getattr(self, name)), f"{name} must be a finite number")
        require(self.p >= 1, "p must be >= 1")
        require(is_int(self.num_random) and self.num_random >= 1,
                "num_random must be an integer >= 1")
        require(is_int(self.seed) and self.seed >= 0, "seed must be an integer >= 0")
        for name in ("amplitudes", "frequencies"):
            require(_is_list(getattr(self, name), is_finite),
                    f"{name} must be a list of finite numbers")
            object.__setattr__(self, name, tuple(float(a) for a in getattr(self, name)))
        amps, freqs = self.amplitudes, self.frequencies
        if self.experiment in ("stability-sweep", "ratio-study"):     # a wrinkle to measure
            require(amps and amps[0] > 0 and amps[-1] >= 0
                    and all(a2 < a1 for a1, a2 in zip(amps, amps[1:])),
                    "amplitudes must be nonnegative and strictly decreasing, the first positive")
            require(freqs and min(freqs) > 0,
                    "frequencies must be a non-empty list of positive numbers")
            w = wrinkle_profile(box_grid(((0.0, 1.0),) * 2, self.grid), freqs)
            require(np.max(np.abs(w)) > 1e-12, f"frequencies {list(freqs)} are a zero wrinkle "
                    f"on the {'x'.join(map(str, w.shape))} grid: it vanishes at every node")
        require(self.start in ("immersion", "director"),
                "start must be 'immersion' or 'director'")
        if self.s_override is not None:
            require(_is_list(self.s_override, lambda row: _is_list(row, is_finite, 2), 2),
                    "s_override must be a 2x2 list of finite numbers")
            object.__setattr__(self, "s_override",
                               tuple(tuple(map(float, row)) for row in self.s_override))


def _is_list(v, item, size=None) -> bool:
    return (isinstance(v, (list, tuple)) and all(item(x) for x in v)
            and size in (None, len(v)))


def _check_custom(custom, counts) -> None:
    """Reject a malformed custom problem, whose grid is two-dimensional: g is
    a chart name or {"csv": path}, s a 2x2 list of finite numbers or
    {"csv": path}, box two finite [lo, hi] pairs with lo < hi, inside the
    domain of a named chart, whose metric is finite and SPD on its grid nodes."""
    def table(v):
        return isinstance(v, dict) and set(v) == {"csv"} and isinstance(v["csv"], str)

    require(isinstance(custom, dict) and set(custom) == {"g", "s", "box"},
            "custom must be an object with exactly the keys g, s and box")
    require(custom["g"] in CHART_NAMES or table(custom["g"]),
            f"custom.g must be one of {CHART_NAMES} or {{\"csv\": path}}")
    require(table(custom["s"]) or _is_list(custom["s"], lambda r: _is_list(r, is_finite, 2), 2),
            "custom.s must be a 2x2 list of finite numbers or {\"csv\": path}")
    require(_is_list(custom["box"], lambda b: _is_list(b, is_finite, 2) and b[0] < b[1], 2),
            "custom.box must be two [lo, hi] pairs of finite numbers with lo < hi")
    if isinstance(custom["g"], str):
        domain = (m := chart(custom["g"], 2)).domain
        require(all(a <= lo and hi <= b for (lo, hi), (a, b) in zip(custom["box"], domain)),
                f"custom.box {custom['box']} leaves the domain {domain.tolist()} "
                f"of the {custom['g']} chart")
        try:     # hyperbolic sinh^2 overflows past x = 355, is ill-conditioned past 14.5
            with np.errstate(over="ignore", invalid="ignore"):
                spd_factors(m.eval(box_grid(custom["box"], counts).nodes()))
        except SingularMetric as exc:
            raise BadConfig(f"custom.box {custom['box']}: the {custom['g']} chart's metric on "
                            f"its grid nodes is not finite and positive definite: {exc}") from None


def config_from_dict(d: dict) -> ExperimentConfig:
    require(isinstance(d, dict) and is_int(ver := d.get("imlab_config")) and ver == CONFIG_VERSION,
            f"config must be an object declaring \"imlab_config\": {CONFIG_VERSION}")
    kwargs = {k: v for k, v in d.items() if k != "imlab_config"}
    opt = kwargs.pop("optimizer", None)
    opt = {} if opt is None else opt
    require(isinstance(opt, dict), "optimizer must be an object")
    unknown = sorted(set(kwargs) - set(ExperimentConfig.__dataclass_fields__)) + [
        f"optimizer.{k}" for k in sorted(set(opt) - set(OptimizeConfig.__dataclass_fields__))]
    require(not unknown, f"unknown config keys: {unknown}")
    require("experiment" in kwargs, "config must name an experiment")
    return ExperimentConfig(**kwargs, optimizer=OptimizeConfig(**opt))


# ---------------------------------------------------------------------------
# atomic output helpers


def write_json(path, obj) -> None:
    """Atomic JSON write; a NaN or infinite value raises ValueError before
    anything is written, since JSON has no such numbers."""
    atomic_write(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
                 + "\n")


def write_svg_loglog(path, xs, ys, xlabel, ylabel, title) -> None:
    """Minimal deterministic log-log polyline plot."""
    W, H, m = 480, 360, 55
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0 and math.isfinite(y)]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{W/2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>']
    if pts:
        lx = [math.log10(p[0]) for p in pts]
        ly = [math.log10(p[1]) for p in pts]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        x1 += 1e-9 + 0.05 * (x1 - x0)
        x0 -= 1e-9 + 0.05 * (x1 - x0)
        y1 += 1e-9 + 0.05 * (y1 - y0)
        y0 -= 1e-9 + 0.05 * (y1 - y0)

        def sx(v):
            return m + (v - x0) / (x1 - x0) * (W - 2 * m)

        def sy(v):
            return H - m - (v - y0) / (y1 - y0) * (H - 2 * m)

        poly = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        parts.append(f'<polyline points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>')
        for a, b in zip(lx, ly):
            parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="black"/>')
        for a, b, (xv, yv) in zip(lx, ly, pts):
            parts.append(f'<text x="{sx(a):.2f}" y="{sy(b)-8:.2f}" font-size="9" '
                         f'text-anchor="middle">{yv:.3g}</text>')
    parts.append(f'<rect x="{m}" y="{m}" width="{W-2*m}" height="{H-2*m}" '
                 f'fill="none" stroke="gray"/>')
    parts.append(f'<text x="{W/2:.1f}" y="{H-12}" text-anchor="middle" '
                 f'font-size="11">{xlabel} (log)</text>')
    parts.append(f'<text x="16" y="{H/2:.1f}" font-size="11" text-anchor="middle" '
                 f'transform="rotate(-90 16 {H/2:.1f})">{ylabel} (log)</text>')
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# random smooth fields and corpora (all randomness through explicit seeds)


def unit_axes(grid: Grid) -> list:
    """The node coordinates of each axis mapped to [0, 1]."""
    return [(x - o) / e for x, o, e in zip(grid.axes(), grid.origin, grid.extents)]


def _tensor_mode(amp, sines) -> np.ndarray:
    """amp times the outer product of the per-axis sines: (amp s_0)[:, None] s_1."""
    return amp * sines[0] if len(sines) == 1 else (amp * sines[0])[:, None] * sines[1]


def random_smooth_field(grid: Grid, ncomp: int, rng) -> np.ndarray:
    """Superposition of a few low-frequency tensor modes, O(1) amplitude.

    Each mode draws (k, phase, amp) from rng, component by component, as
    scalars: the numbers and generator state of integers(1, 4, size=dim),
    uniform(0, 2 pi, size=dim) and normal(), without their per-call array
    overhead.  Then all modes are evaluated as whole arrays, the mode axes
    trailing the node axes, and summed in index order."""
    shape, d = (ncomp, SMOOTH_MODES), grid.dim
    k, phase, amp = [], [], []
    for _ in range(ncomp * SMOOTH_MODES):
        k += [rng.integers(1, 4) for _ in range(d)]
        phase += [2.0 * np.pi * rng.random() for _ in range(d)]
        amp.append(rng.standard_normal())
    k, phase = np.array(k).reshape(shape + (d,)), np.array(phase).reshape(shape + (d,))
    amp = np.array(amp).reshape(shape)
    modes = _tensor_mode(amp, [np.sin(np.pi * k[..., a] * x[:, None, None] + phase[..., a])
                               for a, x in enumerate(unit_axes(grid))])
    acc = np.zeros(grid.counts + (ncomp,))
    for m in range(SMOOTH_MODES):
        acc += modes[..., m]
    return acc / SMOOTH_MODES


def random_surface_immersion(grid: Grid, rng, amplitude: float = 0.05) -> DiscreteImmersion:
    """Random full-rank graph-like hypersurface in Euclidean (d+1)-space: a
    surface on a 2-D grid, a curve in the plane on a 1-D one."""
    m = grid.dim + 1
    values = _flat_reference(grid.nodes()) + amplitude * random_smooth_field(grid, m, rng)
    return DiscreteImmersion(grid, values, chart("euclidean", m))


def random_curve_immersion(grid: Grid, target, rng) -> DiscreteImmersion:
    """Random full-rank curve staying inside a 2-dimensional target chart."""
    t = unit_axes(grid)[0]
    lo, hi = target.domain[:, 0], target.domain[:, 1]
    mid0 = 0.5 * (max(lo[0], 0.3) + min(hi[0], 1.3))
    span0 = min(hi[0], 1.3) - max(lo[0], 0.3)
    s0 = random_smooth_field(grid, 1, rng)[..., 0]
    s0 = s0 / (np.max(np.abs(s0)) + 1e-12)
    s1 = random_smooth_field(grid, 1, rng)[..., 0]
    s1 = s1 / (np.max(np.abs(s1)) + 1e-12)
    comp0 = mid0 + 0.35 * span0 * s0
    comp1 = t + 0.05 * s1
    values = np.stack([comp0, comp1], axis=-1)
    return DiscreteImmersion(grid, values, target)


def random_director(grid: Grid, target, rng, foot_scale=1.0, vec_scale=1.0) -> DirectorField:
    if target.dim == grid.dim + 1 and target.is_constant:
        base = random_surface_immersion(grid, rng, amplitude=0.05 * foot_scale)
        foot = base.values
    else:
        foot = random_curve_immersion(grid, target, rng).values
    vec = vec_scale * random_smooth_field(grid, grid.dim + 1, rng)
    return DirectorField(grid, foot, vec, target)


def wrinkle_profile(grid: Grid, frequencies) -> np.ndarray:
    """Mixed sinusoidal bump, vanishing-free interior oscillation in [0,1]^d coords."""
    xh = unit_axes(grid)
    acc = np.zeros(grid.counts)
    for q in frequencies:
        acc += _tensor_mode(1.0, [np.sin(np.pi * q * x) for x in xh])
    return acc / max(len(tuple(frequencies)), 1)


def wrinkled_immersion(f0: DiscreteImmersion, n0: np.ndarray, eps: float,
                       frequencies) -> DiscreteImmersion:
    """f0 moved by eps times the wrinkle profile along n0, the unit normal of f0."""
    w = wrinkle_profile(f0.grid, frequencies)
    values = f0.values + eps * w[..., None] * n0
    return DiscreteImmersion(f0.grid, values, f0.target)


# ---------------------------------------------------------------------------
# check suite


def _sasaki_direct(xi: DirectorField, g) -> np.ndarray:
    """Independent Sasaki-norm assembly through the double-tangent coordinates.

    Builds Dxi(e_i) = (x, v, d_i x, d_i v), applies the bundle projection and
    the connector map separately, and contracts with g^{ij} and h pairwise.
    """
    Jx = fd_jacobian(xi.foot, xi.grid)
    Jv = fd_jacobian(xi.vec, xi.grid)
    H = xi.target.eval(xi.foot)
    Gam = christoffel(xi.target, xi.foot)
    ginv, _ = en.parameter_factors(g, xi.grid)
    horiz = Jx
    vert = Jv + np.einsum("...abc,...bi,...c->...ai", Gam, Jx, xi.vec)
    acc = np.zeros(xi.grid.counts)
    d = xi.grid.dim
    for i in range(d):
        for j in range(d):
            pair = (np.einsum("...ab,...a,...b->...", H, horiz[..., i], horiz[..., j])
                    + np.einsum("...ab,...a,...b->...", H, vert[..., i], vert[..., j]))
            acc += ginv[..., i, j] * pair
    return acc


def _check_entry(name, violation, tol, n_samples, **extra):
    """Report entry of one check; a check that ran on no samples fails."""
    return {"check": name, "max_violation": float(violation), "tolerance": float(tol),
            "n_samples": int(n_samples),
            "pass": bool(violation <= tol and n_samples > 0), **extra}


def run_check(cfg: ExperimentConfig):
    """Run the registered invariant suites; emit a JSON report."""
    rng = np.random.default_rng(cfg.seed)
    checks = []
    grid2 = get_preset("flat").grid(cfg.grid)
    grid1 = Grid((max(cfg.grid),), (1.0,))

    # relaxation identity and node-wise distance identity on random surfaces,
    # from one pair of forwards each: the frame distances do not depend on S
    relax_viol = dist_viol = 0.0
    for _ in range(cfg.num_random):
        f = random_surface_immersion(grid2, rng)
        Sf = ShapeField(grid2, 0.3 * _sym_field(grid2, rng))
        core, imm, dirn, gap = _identity_forwards(f, get_preset("flat").g, Sf)
        for p in (2.0, 3.0):
            rep, rel = core.report(imm, p), core.report(dirn, p)
            relax_viol = max(relax_viol,
                             abs(rep.total - rel.total) / (1.0 + rep.total))
        dist_viol = max(dist_viol, gap)
    for name in ("sphere", "hyperbolic"):
        tchart = chart(name)
        for _ in range(cfg.num_random):
            fc = random_curve_immersion(grid1, tchart, rng)
            dist_viol = max(dist_viol, _identity_forwards(fc, chart("euclidean", 1))[3])
    checks.append(_check_entry("relaxation_identity", relax_viol, 1e-10,
                               2 * cfg.num_random))
    checks.append(_check_entry("distance_identity", dist_viol, 1e-10,
                               3 * cfg.num_random))

    # Sasaki norm identity against the direct double-tangent assembly
    sas_viol = 0.0
    for name, pgrid in (("euclidean", grid2), ("sphere", grid1), ("polar", grid1)):
        tchart = chart(name, 3) if name == "euclidean" else chart(name)
        gparam = get_preset("flat").g if pgrid is grid2 else chart("euclidean", 1)
        for _ in range(cfg.num_random):
            xi = random_director(pgrid, tchart, rng)
            a = en.sasaki_norm_sq(xi, gparam)
            b = _sasaki_direct(xi, gparam)
            sas_viol = max(sas_viol, float(np.max(np.abs(a - b))
                                           / (1.0 + float(np.max(np.abs(b))))))
    checks.append(_check_entry("sasaki_identity", sas_viol, 1e-12, 3 * cfg.num_random))

    # pointwise derivative bound margin on amplified directors
    margin_min, applicable = _margin_sweep(cfg, rng, samples_needed=2000)
    checks.append(_check_entry("sasaki_bound_margin", max(0.0, -margin_min), 0.0,
                               applicable, applicable_samples=int(applicable)))

    # Gauss-Codazzi on the presets (including the shape-symmetry gate)
    for name in ("flat", "cylinder", "sphere-cap"):
        preset = get_preset(name)
        pgrid = preset.grid(cfg.grid)
        S = preset.shape_field(pgrid)
        if cfg.s_override is not None:
            S = ShapeField(pgrid, _const_shape(cfg.s_override)(pgrid))
        try:
            rep = gauss_codazzi_residual(preset.g, S, pgrid)
            entry = _check_entry(f"gauss_codazzi:{name}",
                                 max(rep.max_gauss, rep.max_codazzi),
                                 float(np.max(rep.tolerance)), rep.gauss_residual.size)
            entry["pass"] = bool(rep.passed and entry["pass"])
        except AsymmetricShape as exc:
            entry = {"check": f"gauss_codazzi:{name}", "pass": False, "n_samples": 0,
                     "status": f"AsymmetricShape: {exc}"}
        checks.append(entry)

    # incompatible preset must fail compatibility
    preset = get_preset("sphere-incompatible")
    pgrid = preset.grid(cfg.grid)
    rep = gauss_codazzi_residual(preset.g, preset.shape_field(pgrid), pgrid)
    checks.append(_check_entry("gauss_codazzi:sphere-incompatible-rejected",
                               float(rep.passed), 0.0, rep.gauss_residual.size))

    # analytic gradient versus central finite differences
    if cfg.p < 2:
        checks.append({"check": "gradient_fd", "status": "skipped: p<2", "pass": True,
                       "n_samples": 0})
    else:
        gv, n = _gradient_fd_violation(rng, p=float(cfg.p), coords=8)
        checks.append(_check_entry("gradient_fd", gv, 1e-5, n))

    # zero-energy presets
    ze_viol = 0.0
    for name in ("flat", "sphere-cap"):
        preset = get_preset(name)
        pgrid = preset.grid(cfg.grid)
        f0 = preset.reference_immersion(pgrid)
        rep = en.total_energy(f0, preset.g, preset.shape_field(pgrid), 2.0)
        h = max(pgrid.spacing)
        ze_viol = max(ze_viol, rep.total / (10.0 * h * h))
    checks.append(_check_entry("zero_energy_presets", ze_viol, 1.0, 2))

    # SVD projection consistency
    proj_viol = 0.0
    for _ in range(cfg.num_random):
        Q = rng.normal(size=(3, 2))
        proj_viol = max(proj_viol,
                        abs(np.linalg.norm(Q - project_stiefel(Q)) - dist_stiefel(Q)))
    checks.append(_check_entry("stiefel_projection", proj_viol, 1e-12, cfg.num_random))

    passed = all(c.get("pass", False) for c in checks)
    report = {"imlab_config": CONFIG_VERSION, "experiment": "check",
              "grid": list(cfg.grid), "p": cfg.p, "seed": cfg.seed,
              "checks": checks, "passed": passed}
    write_json(os.path.join(cfg.out, "check_report.json"), report)
    return report, passed


def _sym_field(grid, rng):
    raw = random_smooth_field(grid, grid.dim * grid.dim, rng)
    M = raw.reshape(grid.counts + (grid.dim, grid.dim))
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _identity_forwards(f: DiscreteImmersion, g, S=None):
    """The Integrands of (f, g, S), its forwards of f and of the normal director
    of f (the normal of the first), and the max node-wise gap between their
    frame distances (to the orthonormal columns and to the rotations)."""
    core = en.Integrands(f.grid, g, f.target, S)
    x = component_major(f.values, 1)
    imm = core.immersion(x)
    dirn = core.director(x, imm.n)
    return core, imm, dirn, float(np.max(np.abs(np.sqrt(dirn.dist2) - np.sqrt(imm.dist2))))


def _margin_sweep(cfg, rng, samples_needed: int):
    """Minimum margin and applicable-sample count across target charts."""
    margin_min = np.inf
    total_applicable = 0
    setups = [("euclidean3", chart("euclidean", 3),
               Grid((17, 17), (1.0, 1.0)), get_preset("flat").g),
              ("sphere", chart("sphere"), Grid((64,), (1.0,)), chart("euclidean", 1)),
              ("hyperbolic", chart("hyperbolic"), Grid((64,), (1.0,)),
               chart("euclidean", 1)),
              ("polar-param", chart("euclidean", 3), Grid((17, 17), (1.0, 1.0), (1.0, 0.0)),
               chart("polar"))]
    for _, tchart, pgrid, gparam in setups:
        applicable = 0
        draws = 0
        while applicable < samples_needed and draws < 200:
            # a draw adds at most num_nodes applicable samples, so the loop is
            # certain to make this many more: one batch, the same draws
            batch = min(-(-(samples_needed - applicable) // pgrid.num_nodes), 200 - draws)
            draws += batch
            xis, Ss = [], []
            for _ in range(batch):
                amp = 10.0 ** rng.uniform(0.7, 2.0)
                xis.append(random_director(pgrid, tchart, rng, vec_scale=amp))
                # amplify footpoint oscillation too (keeps feet in-domain for curves)
                Ss.append(ShapeField(pgrid, rng.uniform(0.0, 2.0) * _sym_field(pgrid, rng)))
            m = en.sasaki_bound_margin(xis, gparam, Ss)
            mask = np.isfinite(m)
            applicable += int(np.sum(mask))
            if np.any(mask):
                margin_min = min(margin_min, float(np.min(m[mask])))
        total_applicable += applicable
    return margin_min, total_applicable


def _gradient_fd_violation(rng, p: float, coords: int):
    """Max relative mismatch between analytic and finite-difference gradients,
    and the number of coordinates compared."""
    worst = 0.0
    flat = get_preset("flat")
    grid = Grid((9, 9), (1.0, 1.0))
    for _ in range(GRADIENT_STATES):
        f = random_surface_immersion(grid, rng, amplitude=0.08)
        S = ShapeField(grid, 0.4 * _sym_field(grid, rng))
        worst = max(worst, _fd_vs_analytic(f, flat.g, S, p, rng, coords))
        xi = random_director(grid, chart("euclidean", 3), rng,
                             vec_scale=1.0)
        worst = max(worst, _fd_vs_analytic(xi, flat.g, S, p, rng, coords))
    return worst, 2 * GRADIENT_STATES * coords   # every state has 243 coordinates or more


def _fd_vs_analytic(state, g, S, p, rng, coords: int) -> float:
    """Max relative mismatch between the analytic gradient and Ridders'
    differences of the total energy at ``coords`` coordinates drawn from rng."""
    ev, x = _Evaluator(state, g, S, p), pack_state(state)
    grad = ev.gradient(x)
    floor = max(1e-6 * float(np.max(np.abs(grad))), 1e-12)
    idx = rng.choice(x.size, size=min(coords, x.size), replace=False)
    gi = grad[idx]
    # an error estimate of 1 % of the 1e-5 tolerance is accurate enough
    fd = _ridders(ev.energies, x, idx, 1e-4 * np.maximum(1.0, np.abs(x[idx])),
                  1e-7 * np.maximum(np.abs(gi), floor))
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(gi)), floor)
    return float(np.max(np.abs(gi - fd) / scale))


class _Tableau:
    """One coordinate's Ridders tableau (Numerical Recipes, 3rd ed., Sec. 5.7,
    dfridr): central differences with steps h, h / RIDDERS_SHRINK, ...,
    extrapolated column by column.  ``best`` is the estimate with the
    smallest error estimate so far."""

    def __init__(self, h, target):
        self.h, self.target = h, target
        self.prev, self.best, self.err = [], 0.0, np.inf

    def add(self, central) -> bool:
        """Add the column of the central difference at step ``h``; False once
        the error estimate stops improving, reaches ``target``, or the
        highest order moves by more than twice it."""
        row, last = [central], self.err
        for j, q in enumerate(self.prev):
            fac = RIDDERS_SHRINK ** (2 * j + 2)
            row.append((fac * row[j] - q) / (fac - 1.0))
            e = max(abs(row[-1] - row[-2]), abs(row[-1] - q))
            if e <= self.err:
                self.best, self.err = row[-1], e
        if self.prev and (self.err >= last or self.err <= self.target
                          or abs(row[-1] - self.prev[-1]) >= 2 * self.err):
            return False
        self.prev, self.h = row, self.h / RIDDERS_SHRINK
        return True


def _ridders(energies, x, idx, h, target) -> np.ndarray:
    """dE/dx_i at x for each coordinate i of ``idx`` by Ridders' extrapolation
    (:class:`_Tableau`), from first steps ``h`` to error estimates ``target``.

    The tableaus run in lockstep, at most RIDDERS_COLUMNS columns: each
    column evaluates E(x + h_i e_i) and E(x - h_i e_i) of every coordinate
    still running with one call of ``energies`` on the (2 k, n) stack of
    those states, so each coordinate evaluates the points it would alone."""
    tableaus = [_Tableau(hi, ti) for hi, ti in zip(h, target)]
    live = list(range(len(tableaus)))
    for _ in range(RIDDERS_COLUMNS):
        steps = np.array([tableaus[j].h for j in live])
        X = np.repeat(x[None], 2 * len(live), axis=0)
        X[np.arange(X.shape[0]), np.repeat(idx[live], 2)] += np.stack([steps, -steps], 1).ravel()
        E = energies(X)
        live = [j for j, ep, em in zip(live, E[0::2], E[1::2])
                if tableaus[j].add((ep - em) / (2.0 * tableaus[j].h))]
        if not live:
            break
    return np.array([t.best for t in tableaus])


# ---------------------------------------------------------------------------
# energy / reconstruct / minimize drivers


def _load_tensor_table(path, grid: Grid) -> np.ndarray:
    """A d x d tensor per node read from CSV, past the one node-array check."""
    d = grid.dim
    table = _node_values(grid, load_node_csv(path), (d * d,), f"table {path}")
    return table.reshape(grid.counts + (d, d))


def _custom_context(cfg: ExperimentConfig):
    """Problem built from the config: named or tabulated g, constant or tabulated S."""
    gspec, sspec = cfg.custom["g"], cfg.custom["s"]
    grid = box_grid(cfg.custom["box"], cfg.grid)
    try:
        g = (chart(gspec, grid.dim) if isinstance(gspec, str)
             else MetricChart.from_table(grid, _load_tensor_table(gspec["csv"], grid)))
        Sv = (_load_tensor_table(sspec["csv"], grid) if isinstance(sspec, dict)
              else _const_shape(sspec)(grid))
    except SingularMetric as exc:     # name the table whose node the gate rejects
        raise BadConfig(f"table {gspec['csv']}: {exc}") from None
    except ValueError as exc:         # a table its reader or the node check rejects
        raise BadConfig(str(exc)) from None
    return g, grid, ShapeField(grid, Sv), None


def _problem_context(cfg: ExperimentConfig):
    """(g, grid, S, reference immersion or None) for the configured problem."""
    if cfg.preset == "custom":
        return _custom_context(cfg)
    preset = get_preset(cfg.preset)
    grid = preset.grid(cfg.grid)
    return preset.g, grid, preset.shape_field(grid), preset.reference_immersion(grid)


def _grid_meta(grid: Grid) -> dict:
    return {"counts": list(grid.counts), "extents": list(grid.extents),
            "origin": list(grid.origin)}


def run_energy(cfg: ExperimentConfig):
    """Evaluate the energy of the preset's reference immersion; export densities."""
    g, grid, S, f0 = _problem_context(cfg)
    f0 = integrate_frame(g, S, grid) if f0 is None else f0
    rep = en.total_energy(f0, g, S, cfg.p)
    save_node_csv(os.path.join(cfg.out, "immersion.csv"), grid, f0.values)
    save_node_csv(os.path.join(cfg.out, "stretch_density.csv"), grid, rep.stretch_density)
    save_node_csv(os.path.join(cfg.out, "bend_density.csv"), grid, rep.bend_density)
    report = {"imlab_config": CONFIG_VERSION, "experiment": "energy",
              "preset": cfg.preset, "grid_meta": _grid_meta(grid), "p": cfg.p,
              "stretch": rep.stretch, "bend": rep.bend, "total": rep.total}
    write_json(os.path.join(cfg.out, "energy_report.json"), report)
    return report, True


def run_reconstruct(cfg: ExperimentConfig):
    """Reconstruct the immersion carrying the preset's forms; report its check's errors."""
    g, grid, S, ref = _problem_context(cfg)
    f, _, _, errors = _integrate(g, S, grid)
    report = {"imlab_config": CONFIG_VERSION, "experiment": "reconstruct",
              "preset": cfg.preset, "grid_meta": _grid_meta(grid), **errors}
    if ref is not None:
        _, _, aligned = align_rigid(ref, f)
        report["aligned_max_distance"] = float(
            np.max(np.linalg.norm(ref.values - aligned.values, axis=-1)))
    save_node_csv(os.path.join(cfg.out, "reconstructed.csv"), grid, f.values)
    save_binary(os.path.join(cfg.out, "reconstructed.bin"), f.values)
    if grid.dim == 2:
        save_obj(os.path.join(cfg.out, "reconstructed.obj"), f)
    write_json(os.path.join(cfg.out, "reconstruct_report.json"), report)
    return report, True


STALL_WINDOW = 100


def _stall_diagnostics(state, g, S, p, trace) -> dict:
    """Why a minimization did not reach grad_tol: the max-norm of the
    residual gradient at the terminal state per field (immersion ``values``,
    or director ``foot`` and ``vec``) and per component, the largest of them
    by name, and the energy decrease over the last STALL_WINDOW trace records."""
    grad = energy_gradient(state, g, S, p)
    parts = {"values": grad} if isinstance(state, DiscreteImmersion) else \
        dict(zip(("foot", "vec"), grad))
    maxes = {k: np.max(np.abs(v.reshape(-1, v.shape[-1])), axis=0).tolist()
             for k, v in parts.items()}
    top, name, comp = max((m, k, c) for k, ms in maxes.items() for c, m in enumerate(ms))
    recent = trace.records[-STALL_WINDOW:]
    return {"residual_gradient_max": maxes,
            "residual_gradient_largest": {"field": name, "component": comp, "max": top},
            "recent_records": len(recent),
            "recent_energy_decrease": float(recent[0]["energy"] - recent[-1]["energy"])}


def run_minimize(cfg: ExperimentConfig):
    """Descend the energy from a perturbed start; dump terminal state and trace."""
    g, grid, S, f0 = _problem_context(cfg)
    rng = np.random.default_rng(cfg.seed)
    if f0 is None:
        try:
            f0 = integrate_frame(g, S, grid)
        except IncompatibleForms:
            # incompatible forms have no reference: start from the flat chart graph
            f0 = DiscreteImmersion(grid, _flat_reference(grid.nodes()), chart("euclidean", 3))

    if cfg.start == "immersion":
        start = DiscreteImmersion(
            grid, f0.values + cfg.start_amplitude * random_smooth_field(grid, 3, rng),
            f0.target)
    else:
        base = normal_director(f0)
        start = DirectorField(grid, base.foot, cfg.director_scale * base.vec,
                              base.target)

    state, trace = minimize(start, g, S, cfg.p, cfg.optimizer)
    trace.to_csv(os.path.join(cfg.out, "trace.csv"))
    report = {"imlab_config": CONFIG_VERSION, "experiment": "minimize",
              "preset": cfg.preset, "grid_meta": _grid_meta(grid), "p": cfg.p,
              "seed": cfg.seed, "start": cfg.start,
              "iterations": int(trace.records[-1]["iter"]),
              "termination": trace.reason,
              "converged": trace.reason == "grad_tol",
              "nfev": trace.nfev, "ngev": trace.ngev,
              "backtracks": trace.backtracks,
              "terminal_energy": float(trace.records[-1]["energy"]),
              "terminal_stretch": float(trace.records[-1]["stretch"]),
              "terminal_bend": float(trace.records[-1]["bend"])}
    if not report["converged"]:
        report.update(_stall_diagnostics(state, g, S, cfg.p, trace))
    if isinstance(state, DiscreteImmersion):
        save_node_csv(os.path.join(cfg.out, "terminal.csv"), grid, state.values)
        save_binary(os.path.join(cfg.out, "terminal.bin"), state.values)
        report.update(_form_errors(state, g, S)[0])
    else:
        save_node_csv(os.path.join(cfg.out, "terminal_foot.csv"), grid, state.foot)
        save_node_csv(os.path.join(cfg.out, "terminal_vec.csv"), grid, state.vec)
        # |v|_h^2 and v^T h J, component-major
        vv, vJ = _gram(component_major(state.vec, 1)[:, None],
                       target_factors_cm(state.target, state.foot)[0],
                       jacobian_array(component_major(state.foot, 1), grid))
        report["vec_norm_max_error"] = float(np.max(np.abs(np.sqrt(vv[0, 0]) - 1.0)))
        report["tangency_max_error"] = float(np.max(np.abs(vJ[0])))
    write_json(os.path.join(cfg.out, "minimize_report.json"), report)
    return report, True


# ---------------------------------------------------------------------------
# stability sweep and ratio study


def run_stability_sweep(cfg: ExperimentConfig):
    """Wrinkle-family sweep: energies, aligned Sobolev distances, bound ratios."""
    g, grid, S, _ = _problem_context(cfg)
    f0 = integrate_frame(g, S, grid)
    n0 = unit_normal(f0)
    records, field_files = [], []
    for k, eps in enumerate(cfg.amplitudes):
        feps = wrinkled_immersion(f0, n0, eps, cfg.frequencies)
        rep = en.total_energy(feps, g, S, cfg.p)
        R, b, f0_aligned = align_rigid(feps, f0)
        dist_map = w1p_distance(feps, f0_aligned, cfg.p, g)
        neps = unit_normal(feps)
        n_rot = DiscreteImmersion(grid, n0 @ R.T, feps.target)
        n_eps_field = DiscreteImmersion(grid, neps, feps.target)
        dist_normal = w1p_distance(n_eps_field, n_rot, cfg.p, g)
        denom = rep.total ** (1.0 / cfg.p) if rep.total > 0 else 0.0
        # eps = 0 is degenerate by construction (0/0 in the continuum): the
        # energy sits at the discretization floor, so flag it explicitly
        flagged = denom < RATIO_GUARD or eps == 0.0
        ratio = None if flagged else (dist_map + dist_normal) / denom
        records.append({"eps": eps, "energy": rep.total, "w1p_map": dist_map,
                        "w1p_normal": dist_normal, "ratio": ratio, "flagged": flagged})
        fname = f"field_{k:03d}.bin"
        save_binary(os.path.join(cfg.out, fname), feps.values)
        field_files.append(fname)

    header = ["eps", "energy", "w1p_map", "w1p_normal", "ratio", "flagged"]
    write_csv(os.path.join(cfg.out, "sweep.csv"), header,
              [[r[k] for k in header[:4]] + ["" if r["ratio"] is None else fmt17(r["ratio"]),
                                             "1" if r["flagged"] else "0"] for r in records])
    xs = [r["eps"] for r in records]
    write_svg_loglog(os.path.join(cfg.out, "sweep_energy.svg"), xs,
                     [r["energy"] for r in records],
                     "eps", "energy", f"{cfg.preset}: energy vs amplitude")
    write_svg_loglog(os.path.join(cfg.out, "sweep_ratio.svg"), xs,
                     [r["ratio"] if r["ratio"] is not None else float("nan") for r in records],
                     "eps", "ratio", f"{cfg.preset}: stability ratio vs amplitude")
    report = {"imlab_config": CONFIG_VERSION, "experiment": cfg.experiment,
              "preset": cfg.preset, "grid_meta": _grid_meta(grid), "p": cfg.p,
              "seed": cfg.seed, "frequencies": list(cfg.frequencies),
              "field_files": field_files, "records": records}
    write_json(os.path.join(cfg.out, "sweep.json"), report)
    return report, True


def run_ratio_study(cfg: ExperimentConfig):
    """Quantitative-bound probe: empirical ratio statistics over the sweep."""
    report, _ = run_stability_sweep(cfg)
    ratios = [r["ratio"] for r in report["records"] if r["ratio"] is not None]
    stats = {"imlab_config": CONFIG_VERSION, "experiment": "ratio-study",
             "preset": cfg.preset, "p": cfg.p,
             "num_ratios": len(ratios),
             "ratio_max": max(ratios) if ratios else None,
             "ratio_min": min(ratios) if ratios else None,
             "ratio_spread": (max(ratios) / min(ratios)) if ratios else None}
    write_json(os.path.join(cfg.out, "ratio_study.json"), stats)
    return stats, True


RUNNERS = {"energy": run_energy, "check": run_check, "reconstruct": run_reconstruct,
           "minimize": run_minimize, "stability-sweep": run_stability_sweep,
           "ratio-study": run_ratio_study}


def run_experiment(cfg: ExperimentConfig):
    return RUNNERS[cfg.experiment](cfg)
