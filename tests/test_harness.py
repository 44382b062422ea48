"""Experiment drivers, configuration validation, CLI, reproducibility."""

import copy
import dataclasses
import filecmp
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from imlab.cli import main as cli_main
from imlab.energy import relaxed_total, total_energy
from imlab.errors import BadConfig
from imlab.fields import (DirectorField, DiscreteImmersion, Grid, fd_jacobian, fmt17,
                          load_binary, load_node_csv, save_node_csv)
from imlab.geometry import chart
from imlab import geometry, harness, presets
from imlab import optimize as optimize_module
from imlab.optimize import MAX_MEMORY, energy_gradient, unpack_like
from imlab.harness import (ExperimentConfig, config_from_dict,
                           run_check, run_minimize, run_experiment,
                           run_stability_sweep, wrinkle_profile, write_json)
from imlab.presets import PRESETS, get_preset
from imlab.reconstruct import gauss_codazzi_residual



def _load_config(path):
    """The config of a JSON file, as the console script reads one."""
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


class TestConfig:
    def test_requires_version_field(self):
        with pytest.raises(BadConfig):
            config_from_dict({"experiment": "check"})
        cfg = config_from_dict({"imlab_config": 1, "experiment": "check"})
        assert cfg.experiment == "check"

    def test_rejects_unknown_keys_and_values(self):
        with pytest.raises(BadConfig):
            config_from_dict({"imlab_config": 1, "experiment": "check",
                              "bogus": 1})
        with pytest.raises(BadConfig):
            config_from_dict({"imlab_config": 1, "experiment": "fly"})
        with pytest.raises(BadConfig):
            config_from_dict({"imlab_config": 1, "experiment": "check",
                              "preset": "moebius"})

    def test_sweep_amplitudes_must_decrease(self):
        base = {"imlab_config": 1, "experiment": "stability-sweep"}
        with pytest.raises(BadConfig):
            config_from_dict({**base, "amplitudes": [0.1, 0.1]})
        with pytest.raises(BadConfig):
            config_from_dict({**base, "amplitudes": [0.01, 0.1]})
        cfg = config_from_dict({**base, "amplitudes": [0.1, 0.05, 0.0]})
        assert cfg.amplitudes[-1] == 0.0

    @pytest.mark.parametrize("experiment", ["stability-sweep", "ratio-study"])
    @pytest.mark.parametrize("key, value", [
        ("amplitudes", []), ("amplitudes", [0.0]), ("frequencies", []),
        ("frequencies", [0]), ("frequencies", [2, -4])],
        ids=["no-amplitude", "zero-amplitude", "no-frequency", "zero-frequency",
             "negative-frequency"])
    def test_sweep_with_nothing_to_measure_exits_1(self, tmp_path, capsys, experiment,
                                                    key, value):
        """No amplitude, no positive amplitude, or no positive frequency (a
        zero wrinkle) is a config error: the ratio study on the cylinder
        used to exit 0 with num_ratios 0, or report the unperturbed
        reference's 4.3e-13 as a stability ratio."""
        d = {"imlab_config": 1, "experiment": experiment, "preset": "cylinder",
             "grid": [9, 9], key: value}
        with pytest.raises(BadConfig, match=key):
            config_from_dict(d)
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert cli_main([experiment, "--config", str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"imlab: error: {key}") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["stability-sweep", "ratio-study"])
    @pytest.mark.parametrize("frequencies, grid, counts", [
        ([8], [9, 9], "9x9"), ([16], 9, "9x9"), ([8, 16], [9], "9x9"), ([32], [33, 33], "33x33")],
        ids=["8-on-9", "16-on-9", "8-and-16-on-9", "32-on-33"])
    def test_zero_wrinkle_on_the_grid_exits_1(self, tmp_path, capsys, experiment,
                                              frequencies, grid, counts):
        """Positive frequencies whose sines vanish at every node of the config
        grid (multiples of n - 1) are a zero wrinkle: the ratio study on the
        cylinder at 9x9 with [8] used to exit 0 and report the unperturbed
        reference's 4.3e-13 as ratio_max."""
        d = {"imlab_config": 1, "experiment": experiment, "preset": "cylinder",
             "grid": grid, "frequencies": frequencies}
        with pytest.raises(BadConfig, match=rf"frequencies .* the {counts} grid"):
            config_from_dict(d)
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert cli_main([experiment, "--config", str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error: frequencies") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("file_grid, flag, code", [([9, 9], "17", 0), ([17, 17], "9", 1)])
    def test_flags_replace_the_file_before_the_check(self, tmp_path, capsys, monkeypatch,
                                                      file_grid, flag, code):
        """The config is checked once, on the grid the run uses: [8] on a 9x9
        file grid run with --grid 17 is valid (it used to be rejected, naming
        the 9x9 grid), and on a 17x17 file grid run with --grid 9 it is not."""
        from imlab import cli
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: ran.append(cfg) or ({}, True))
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"imlab_config": 1, "experiment": "energy",
                                       "preset": "cylinder", "grid": file_grid,
                                       "frequencies": [8]}))
        assert cli_main(["ratio-study", "--config", str(cfgpath), "--grid", flag]) == code
        if code == 0:
            assert [(c.experiment, c.grid) for c in ran] == [("ratio-study", (17,))]
        else:
            assert ran == [] and "the 9x9 grid" in capsys.readouterr().err

    def test_a_zero_mode_beside_a_wrinkle_stays_valid(self):
        cfg = config_from_dict({"imlab_config": 1, "experiment": "ratio-study",
                                "preset": "cylinder", "grid": [9, 9], "frequencies": [8, 2]})
        assert cfg.frequencies == (8.0, 2.0)
        assert np.max(np.abs(wrinkle_profile(get_preset("cylinder").grid(cfg.grid),
                                             cfg.frequencies))) == 0.5

    @pytest.mark.parametrize("key,value", [
        ("p", float("nan")), ("p", float("inf")), ("p", "2"),
        ("start_amplitude", float("nan")),
        ("director_scale", float("inf")), ("amplitudes", (0.1, float("nan"))),
        ("num_random", 0), ("s_override", ((0.0, 1.0, 2.0),)),
        ("s_override", ((0.0,), (1.0,)))])
    def test_rejects_non_finite_and_empty_values(self, key, value):
        with pytest.raises(BadConfig):
            ExperimentConfig(experiment="check", **{key: value})

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"imlab_config": 1, "experiment": "energy",
                                    "preset": "flat", "grid": [9, 9],
                                    "p": 3.0, "seed": 4}))
        cfg = _load_config(path)
        assert cfg.p == 3.0 and cfg.preset == "flat" and cfg.grid == (9, 9)


class TestRunCheck:
    def test_default_presets_pass(self, tmp_path):
        cfg = ExperimentConfig(experiment="check", grid=(17, 17),
                               out=str(tmp_path), seed=3, num_random=2)
        report, passed = run_check(cfg)
        assert passed
        assert (tmp_path / "check_report.json").exists()

    def test_corrupted_shape_fails_only_compat_checks(self, tmp_path):
        cfg = ExperimentConfig(experiment="check", grid=(9, 9), out=str(tmp_path),
                               seed=3, num_random=2,
                               s_override=((0.0, 1.0), (0.0, 0.0)))
        report, passed = run_check(cfg)
        assert not passed
        by_name = {c["check"]: c for c in report["checks"]}
        assert not by_name["gauss_codazzi:flat"]["pass"]
        assert "AsymmetricShape" in by_name["gauss_codazzi:flat"]["status"]
        for name, entry in by_name.items():
            if not name.startswith("gauss_codazzi:"):
                assert entry["pass"], name

    def test_low_exponent_skips_gradient_check(self, tmp_path):
        cfg = ExperimentConfig(experiment="check", grid=(9, 9), out=str(tmp_path),
                               seed=3, num_random=2, p=1.5)
        report, passed = run_check(cfg)
        assert passed
        entry = [c for c in report["checks"] if c["check"] == "gradient_fd"][0]
        assert entry["status"] == "skipped: p<2"


class TestSweep:
    def test_records_sorted_and_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(experiment="stability-sweep", preset="cylinder",
                               grid=(17, 17), amplitudes=(0.1, 0.02), seed=1,
                               out=str(tmp_path))
        report, _ = run_stability_sweep(cfg)
        eps = [r["eps"] for r in report["records"]]
        assert eps == sorted(eps, reverse=True)
        # re-evaluate the serialized fields: must reproduce reported energies
        pre = get_preset("cylinder")
        grid = pre.grid((17, 17))
        for rec, fname in zip(report["records"], report["field_files"]):
            values = load_binary(tmp_path / fname)
            f = DiscreteImmersion(grid, values, chart("euclidean", 3))
            rep = total_energy(f, pre.g, pre.shape_field(grid), cfg.p)
            assert abs(rep.total - rec["energy"]) <= 1e-12 * (1.0 + rec["energy"])
        for name in ("sweep.csv", "sweep.json", "sweep_energy.svg",
                     "sweep_ratio.svg"):
            assert (tmp_path / name).exists()
        # the emitted CSV re-parses to exactly the reported statistics
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        for row, rec in zip(rows, report["records"]):
            eps, energy, w1p_map, w1p_normal, ratio, flagged = row.split(",")
            assert float(eps) == rec["eps"]
            assert float(energy) == rec["energy"]
            assert float(w1p_map) == rec["w1p_map"]
            assert float(w1p_normal) == rec["w1p_normal"]
            assert (ratio == "" and rec["ratio"] is None) or \
                float(ratio) == rec["ratio"]

    def test_zero_amplitude_flagged(self, tmp_path):
        cfg = ExperimentConfig(experiment="stability-sweep", preset="cylinder",
                               grid=(17, 17), amplitudes=(0.05, 0.0), seed=1,
                               out=str(tmp_path))
        report, _ = run_stability_sweep(cfg)
        last = report["records"][-1]
        assert last["flagged"] and last["ratio"] is None
        h = 1.0 / 16.0
        assert last["energy"] <= 10.0 * h * h

    def test_reference_normal_computed_once(self, tmp_path, monkeypatch):
        """One unit normal of the reference immersion, shared by every
        wrinkled immersion, plus one of each wrinkled immersion."""
        calls = []
        real = harness.unit_normal
        monkeypatch.setattr(harness, "unit_normal", lambda f: calls.append(f) or real(f))
        cfg = ExperimentConfig(experiment="stability-sweep", preset="cylinder",
                               grid=(33, 33), seed=7, out=str(tmp_path))
        run_stability_sweep(cfg)
        assert len(cfg.amplitudes) == 4 and len(calls) == 5


class TestRunMinimize:
    def test_flat_immersion_run(self, tmp_path):
        from imlab.optimize import OptimizeConfig
        cfg = ExperimentConfig(experiment="minimize", preset="flat", grid=(9, 9),
                               seed=7, out=str(tmp_path), start="immersion",
                               start_amplitude=0.01,
                               optimizer=OptimizeConfig(max_iters=5000,
                                                        grad_tol=1e-13, memory=30))
        report, _ = run_minimize(cfg)
        assert report["terminal_energy"] <= 1e-10
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "terminal.csv").exists()

    def test_director_run_recovers_unit_vector(self, tmp_path):
        from imlab.optimize import OptimizeConfig
        cfg = ExperimentConfig(experiment="minimize", preset="flat", grid=(9, 9),
                               seed=7, out=str(tmp_path), start="director",
                               director_scale=2.0,
                               optimizer=OptimizeConfig(max_iters=500,
                                                        grad_tol=1e-12))
        report, _ = run_minimize(cfg)
        assert report["vec_norm_max_error"] <= 1e-4
        assert report["tangency_max_error"] <= 1e-4
        # against the node-major einsum assembly of |v|_h and J^T h v
        grid = get_preset("flat").grid((9, 9))
        foot = load_node_csv(tmp_path / "terminal_foot.csv")
        vec = load_node_csv(tmp_path / "terminal_vec.csv")
        H = chart("euclidean", 3).eval(foot)
        vnorm = np.sqrt(np.einsum("...ab,...a,...b->...", H, vec, vec))
        tangency = np.einsum("...ab,...ai,...b->...i", H, fd_jacobian(foot, grid), vec)
        assert abs(report["vec_norm_max_error"] - np.max(np.abs(vnorm - 1.0))) <= 1e-15
        assert abs(report["tangency_max_error"] - np.max(np.abs(tangency))) <= 1e-15


    @pytest.mark.parametrize("g", ["euclidean", "sphere"])
    def test_one_compatibility_evaluation(self, g, tmp_path, monkeypatch):
        # a compatible custom problem starts from its reconstruction, an
        # incompatible one from the flat chart graph; either way the
        # Gauss-Codazzi residual is evaluated once
        from imlab import reconstruct
        from imlab.optimize import OptimizeConfig
        calls, starts = [], []

        def counting(*args):
            calls.append(args)
            return gauss_codazzi_residual(*args)

        def spying(start, *args):
            starts.append(start)
            return minimize(start, *args)

        gauss_codazzi_residual = reconstruct.gauss_codazzi_residual
        minimize = harness.minimize
        monkeypatch.setattr(reconstruct, "gauss_codazzi_residual", counting)
        monkeypatch.setattr(harness, "gauss_codazzi_residual", counting)
        monkeypatch.setattr(harness, "minimize", spying)
        cfg = ExperimentConfig(experiment="minimize", preset="custom", grid=(9, 9),
                               out=str(tmp_path), start_amplitude=0.0,
                               custom=dict(_CUSTOM, g=g),
                               optimizer=OptimizeConfig(max_iters=1))
        run_minimize(cfg)
        assert len(calls) == 1
        grid = Grid((9, 9), (1.0, 1.0), (0.5, 0.0))
        flat = np.concatenate([grid.nodes(), np.zeros(grid.counts + (1,))], axis=-1)
        if g == "euclidean":
            # the reconstruction of flat forms is the graph up to a rigid motion
            assert np.max(np.abs(starts[0].values - (flat - flat[0, 0]))) < 1e-12
        else:
            assert starts[0].values.tobytes() == flat.tobytes()


class TestCustomProblem:
    def test_tabulated_metric_matches_named_chart(self, tmp_path):
        # tabulated Euclidean metric behaves like the named flat preset
        grid = Grid((9, 9), (1.0, 1.0))
        gv = np.broadcast_to(np.eye(2), grid.counts + (2, 2)).copy()
        gpath = tmp_path / "metric.csv"
        save_node_csv(gpath, grid, gv)
        cfg = config_from_dict({
            "imlab_config": 1, "experiment": "energy", "preset": "custom",
            "grid": [9, 9], "out": str(tmp_path / "out"),
            "custom": {"g": {"csv": str(gpath)}, "s": [[0.0, 0.0], [0.0, 0.0]],
                       "box": [[0.0, 1.0], [0.0, 1.0]]}})
        report, _ = run_experiment(cfg)
        assert report["total"] <= 1e-20

    def test_table_must_match_the_config_grid(self, tmp_path):
        # a 5x9 table read onto a 9x5 grid has the right node count but
        # would be scrambled by a reshape
        gpath = tmp_path / "metric.csv"
        grid = Grid((5, 9), (1.0, 1.0))
        save_node_csv(gpath, grid, np.broadcast_to(np.eye(2), grid.counts + (2, 2)))
        cfg = config_from_dict({
            "imlab_config": 1, "experiment": "energy", "preset": "custom",
            "grid": [9, 5], "out": str(tmp_path / "out"),
            "custom": {"g": {"csv": str(gpath)}, "s": [[0.0, 0.0], [0.0, 0.0]],
                       "box": [[0.0, 1.0], [0.0, 1.0]]}})
        with pytest.raises(BadConfig):
            run_experiment(cfg)

    @pytest.mark.parametrize("key", ["g", "s"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_cell_exits_1_naming_table_and_node(self, tmp_path, capsys,
                                                                 key, bad):
        """A nan or inf cell in a custom table is an input error naming the
        table and the node, not a factorization failure downstream."""
        grid = Grid((9, 9), (1.0, 1.0))
        table = np.broadcast_to(np.eye(2), grid.counts + (2, 2)).copy()
        table[6, 2, 1, 0] = table[7, 1, 0, 0] = bad
        path = tmp_path / f"{key}.csv"
        save_node_csv(path, grid, table)
        custom = {"g": "euclidean", "s": [[0.0, 0.0], [0.0, 0.0]],
                  "box": [[0.0, 1.0], [0.0, 1.0]], key: {"csv": str(path)}}
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "energy", "preset": "custom",
            "grid": [9, 9], "out": str(tmp_path / "out"), "custom": custom}))
        with pytest.raises(BadConfig, match=r"non-finite value at node \(6, 2\)"):
            run_experiment(_load_config(cfgpath))
        assert cli_main(["energy", "--config", str(cfgpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error:") and str(path) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("experiment", ["energy", "reconstruct"])
    def test_indefinite_metric_node_exits_1_naming_table_and_node(self, tmp_path, capsys,
                                                                  experiment):
        """A g table that is indefinite at one node fails the SPD gate when
        its chart is built: exit 1 with one error line naming the table and
        the node, which used to read only "matrix is not positive definite
        to working precision"."""
        grid = Grid((9, 9), (1.0, 1.0))
        table = np.broadcast_to(np.eye(2), grid.counts + (2, 2)).copy()
        table[4, 5] = [[1.0, 2.0], [2.0, 1.0]]
        path = tmp_path / "metric.csv"
        save_node_csv(path, grid, table)
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": experiment, "preset": "custom",
            "grid": [9, 9], "out": str(tmp_path / "out"),
            "custom": {"g": {"csv": str(path)}, "s": [[0.0, 0.0], [0.0, 0.0]],
                       "box": [[0.0, 1.0], [0.0, 1.0]]}}))
        with pytest.raises(BadConfig, match=r"at index \(4, 5\)"):
            run_experiment(_load_config(cfgpath))
        assert cli_main([experiment, "--config", str(cfgpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error: table") and str(path) in err and "(4, 5)" in err
        assert len(err.splitlines()) == 1

    def test_table_with_swapped_axes_exits_1_naming_the_table(self, tmp_path, capsys):
        """A sphere-cap metric table whose header lists its axes as i1,i0
        used to load transposed: at 9x9 the run exited 0 on the transposed
        metric, at 33x33 it failed the Gauss-Codazzi gate with a residual of
        0.995, naming neither the table nor its header."""
        grid = get_preset("sphere-cap").grid((9, 9))
        path = tmp_path / "metric.csv"
        save_node_csv(path, grid, chart("sphere").eval(grid.nodes()))
        header, body = path.read_text().split("\n", 1)
        path.write_text(header.replace("i0,i1", "i1,i0") + "\n" + body)
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "reconstruct", "preset": "custom", "grid": [9, 9],
            "custom": {"g": {"csv": str(path)}, "s": [[1.0, 0.0], [0.0, 1.0]],
                       "box": [[0.5, 1.5], [0.0, 1.0]]}}))
        out = tmp_path / "out"
        assert cli_main(["reconstruct", "--config", str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error:") and str(path) in err and "header" in err
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_table_spanning_a_huge_grid_exits_1(self, tmp_path, capsys):
        """A two-row g table at indices (0, 0) and (99999, 99999) is an input
        error (exit 1 and one error line naming the table), not a 74.5 GiB
        allocation that dies with a traceback."""
        gpath = tmp_path / "metric.csv"
        gpath.write_text("i0,i1,c0,c1,c2,c3\n0,0,1,0,0,1\n99999,99999,1,0,0,1\n")
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "energy", "preset": "custom",
            "grid": [9, 9], "out": str(tmp_path / "out"),
            "custom": {"g": {"csv": str(gpath)}, "s": [[0.0, 0.0], [0.0, 0.0]],
                       "box": [[0.0, 1.0], [0.0, 1.0]]}}))
        assert cli_main(["energy", "--config", str(cfgpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error:") and str(gpath) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("g, box, domain", [
        ("sphere", [[3.5, 4.5], [0, 1]], "[[0.001, 3.14"),
        ("polar", [[0.0, 1.0], [0.0, 1.0]], "[[0.001, inf], [-inf, inf]]")],
        ids=["sphere", "polar-from-0"])
    def test_box_outside_the_chart_domain_exits_1_at_config_load(self, tmp_path, capsys,
                                                                 g, box, domain):
        """A box that leaves its named chart's domain is a config error naming
        the box and the domain: the sphere box used to run and exit 0, the
        polar box at r = 0 to fail late in the SPD gate naming neither."""
        custom = {"g": g, "s": [[1, 0], [0, 1]], "box": box}
        with pytest.raises(BadConfig, match="custom.box") as exc:
            config_from_dict({"imlab_config": 1, "experiment": "reconstruct",
                              "preset": "custom", "custom": custom})
        assert str(box) in str(exc.value) and domain in str(exc.value)
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"imlab_config": 1, "experiment": "reconstruct",
                                       "preset": "custom", "grid": [9, 9], "custom": custom}))
        out = tmp_path / "out"
        assert cli_main(["reconstruct", "--config", str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error: custom.box") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("hi, node", [(800.0, "(4, 0)"), (20.0, "(6, 0)")],
                             ids=["overflow", "ill-conditioned"])
    def test_box_where_the_chart_metric_fails_the_gate_exits_1_at_config_load(
            self, tmp_path, capsys, hi, node):
        """A box inside the hyperbolic chart's domain on whose grid nodes
        sinh^2 overflows (from node 4 at 400), or fails the SPD gate's
        conditioning (from node 6 at 15.1), is a config error naming the box,
        the chart and the first such node, with no warning: the box to 800
        used to fail late, after five RuntimeWarnings, naming neither the box
        nor the overflow."""
        custom = {"g": "hyperbolic", "s": [[0, 0], [0, 0]], "box": [[0.5, hi], [0, 1]]}
        with pytest.raises(BadConfig, match="custom.box") as exc:
            config_from_dict({"imlab_config": 1, "experiment": "reconstruct",
                              "preset": "custom", "grid": [9, 9], "custom": custom})
        msg = str(exc.value)
        assert str(custom["box"]) in msg and "hyperbolic" in msg and node in msg
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"imlab_config": 1, "experiment": "reconstruct",
                                       "preset": "custom", "grid": [9, 9], "custom": custom}))
        out = tmp_path / "out"
        assert cli_main(["reconstruct", "--config", str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error: custom.box") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_box_inside_the_chart_domain_is_the_preset_grid(self):
        cfg = ExperimentConfig(experiment="energy", preset="custom", grid=(9,),
                               custom={"g": "sphere", "s": [[1, 0], [0, 1]],
                                       "box": [[0.5, 1.5], [0, 1]]})
        assert harness._problem_context(cfg)[1] == get_preset("sphere-cap").grid(9)


_ARTIFACTS = {
    "check": ["check_report.json"],
    "energy": ["bend_density.csv", "energy_report.json", "immersion.csv",
               "stretch_density.csv"],
    "reconstruct": ["reconstruct_report.json", "reconstructed.bin", "reconstructed.csv",
                    "reconstructed.obj"],
    "minimize": ["minimize_report.json", "terminal.bin", "terminal.csv", "trace.csv"],
    "stability-sweep": ["field_000.bin", "field_001.bin", "sweep.csv", "sweep.json",
                        "sweep_energy.svg", "sweep_ratio.svg"],
}
_ARTIFACTS["ratio-study"] = sorted(_ARTIFACTS["stability-sweep"] + ["ratio_study.json"])


class TestReconstructCarriesItsForms:
    """The march checks what it built: integrate_frame raises IncompatibleForms
    when the pullback error exceeds COMPAT_SAFETY h^2 max|g| or the
    shape-operator error COMPAT_SAFETY h^2 (1 + max|S|), for every experiment."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_forms_the_gate_passes_but_no_map_carries_exit_1(self, tmp_path, capsys, n):
        """On 4x4 to 7x7 the Gauss-Codazzi gate's 10 h^2 tolerance exceeds the
        Gauss defect of sphere-incompatible, so the gate passes and the march
        runs; the run used to exit 0 with pullback_max_error 3.67 to 2.71."""
        pre = get_preset("sphere-incompatible")
        grid = pre.grid((n, n))
        assert gauss_codazzi_residual(pre.g, pre.shape_field(grid), grid).passed
        out = tmp_path / "out"
        assert cli_main(["reconstruct", "--preset", "sphere-incompatible", "--grid", str(n),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error: the march misses its forms: pullback")
        assert len(err.splitlines()) == 1 and "10 h^2 max|g|" in err
        assert not out.exists()

    def test_energy_on_a_custom_problem_shares_the_rule(self, tmp_path, capsys):
        """energy marches a custom problem with no reference through the same
        check: the round metric with S = 0 at 9x9 passes the gate and used
        to exit 0 with the energy (10.68) of a march that misses g by 24.95."""
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "energy", "preset": "custom", "grid": [9, 9],
            "custom": {"g": "sphere", "s": [[0, 0], [0, 0]], "box": [[0.5, 2.5], [0, 3]]}}))
        out = tmp_path / "out"
        assert cli_main(["energy", "--config", str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error: the march misses its forms: pullback")
        assert not out.exists()

    @staticmethod
    def _diverging(tmp_path, experiment, n, **fields):
        """A config whose forms pass the gate and whose march diverges: the
        hyperbolic chart with S = 0 out to x = 14.4, where 10 h^2 >= 1."""
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": experiment, "preset": "custom", "grid": [n, n],
            "custom": {"g": "hyperbolic", "s": [[0, 0], [0, 0]],
                       "box": [[0.5, 14.4], [0, 1]]}, **fields}))
        return str(cfgpath)

    @pytest.mark.parametrize("n", [5, 9, 17, 33])
    def test_a_march_that_diverges_exits_1_with_one_line(self, tmp_path, capsys, n):
        """The run used to print up to seven RuntimeWarnings and exit on
        "differential is rank deficient" or "immersion values must be finite"."""
        out = tmp_path / "out"
        assert cli_main(["reconstruct", "--config", self._diverging(tmp_path, "reconstruct", n),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error: the march does not build an immersion: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_minimize_starts_from_the_flat_graph_when_the_march_diverges(self, tmp_path,
                                                                         monkeypatch):
        starts = []

        def flat(x):
            starts.append(x.shape)
            return presets._flat_reference(x)

        monkeypatch.setattr(harness, "_flat_reference", flat)
        cfgpath = self._diverging(tmp_path, "minimize", 9, optimizer={"max_iters": 3})
        out = tmp_path / "out"
        assert cli_main(["minimize", "--config", cfgpath, "--out", str(out)]) == 0
        assert starts == [(9, 9, 2)]
        assert json.loads((out / "minimize_report.json").read_text())["iterations"] == 3

    @pytest.mark.parametrize("name", ["flat", "cylinder", "sphere-cap"])
    def test_compatible_presets_on_the_coarsest_grid_exit_0(self, tmp_path, name):
        out = tmp_path / "out"
        assert cli_main(["reconstruct", "--preset", name, "--grid", "4", "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        h = max(report["grid_meta"]["extents"]) / 3
        assert max(report["pullback_max_error"],
                   report["shape_operator_max_error"]) <= 10.0 * h * h / 15

    @pytest.mark.parametrize("n", [5, 9, 17])
    def test_a_large_flat_metric_exits_0(self, tmp_path, n):
        """The polar chart with S = 0 on r in [1, 7] is a flat annulus, whose
        reconstruction misses g_22 = r^2 by r^2 h^2 / 3 to 2 r^2 h^2 / 3 from the
        stencils alone: above 10 h^2, which it used to fail, but at least 8 times
        below 10 h^2 max|g| = 490 h^2."""
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "reconstruct", "preset": "custom", "grid": n,
            "custom": {"g": "polar", "s": [[0, 0], [0, 0]], "box": [[1, 7], [0, 6]]}}))
        out = tmp_path / "out"
        assert cli_main(["reconstruct", "--config", str(cfgpath), "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        h2 = (6.0 / (n - 1)) ** 2
        assert 10.0 * h2 < report["pullback_max_error"] <= 490.0 * h2 / 8
        assert report["shape_operator_max_error"] <= 1e-12


class TestReconstructReport:
    """run_reconstruct reports the errors of the check its march passed."""

    def test_one_node_evaluation_one_chart_pass_per_sweep_one_check(self, tmp_path,
                                                                     monkeypatch):
        """Sphere-cap 65x65: the chart is evaluated at the nodes once (the
        gate) and at each sweep's points once, its derivative once per sweep,
        and the built map's forms once; it used to be 8 evaluations and 2
        passes of _forms."""
        from imlab import immersion, reconstruct
        calls = {"eval": 0, "eval_deriv": 0, "_forms": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in ("eval", "eval_deriv"):
            monkeypatch.setattr(geometry.MetricChart, name,
                                counting(name, getattr(geometry.MetricChart, name)))
        monkeypatch.setattr(reconstruct, "_forms", counting("_forms", immersion._forms))
        cfg = ExperimentConfig(experiment="reconstruct", preset="sphere-cap", grid=(65, 65),
                               out=str(tmp_path))
        run_experiment(cfg)
        assert calls == {"eval": 3, "eval_deriv": 2, "_forms": 1}

    @pytest.mark.parametrize("preset, n", [("sphere-cap", 33), ("cylinder", 17), ("flat", 9)])
    def test_reported_errors_are_a_fresh_check_of_the_map(self, tmp_path, preset, n):
        from imlab.reconstruct import _form_errors
        cfg = ExperimentConfig(experiment="reconstruct", preset=preset, grid=(n, n),
                               out=str(tmp_path))
        report, _ = run_experiment(cfg)
        pre = get_preset(preset)
        grid = pre.grid((n, n))
        f = DiscreteImmersion(grid, load_binary(tmp_path / "reconstructed.bin"),
                              chart("euclidean", 3))
        want = _form_errors(f, pre.g, pre.shape_field(grid))[0]
        for key, value in want.items():
            assert np.float64(report[key]).tobytes() == np.float64(value).tobytes()


class TestOutputDirectory:
    """The writer makes the output directory with the first artifact."""

    def test_run_that_fails_before_writing_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "X" / "a" / "b"
        assert cli_main(["reconstruct", "--preset", "sphere-incompatible", "--grid", "9x9",
                         "--out", str(out)]) == 1
        assert "imlab: error:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("experiment", sorted(_ARTIFACTS))
    def test_nested_new_directory_gets_every_artifact(self, tmp_path, experiment):
        from imlab.optimize import OptimizeConfig
        out = tmp_path / "X" / "a" / "b"
        cfg = ExperimentConfig(experiment=experiment, preset="cylinder", grid=(9, 9),
                               amplitudes=(0.1, 0.05), num_random=1, out=str(out),
                               optimizer=OptimizeConfig(max_iters=3))
        run_experiment(cfg)
        assert sorted(os.listdir(out)) == _ARTIFACTS[experiment]


class TestCli:
    def test_check_exit_codes(self, tmp_path, capsys):
        rc = cli_main(["check", "--grid", "9x9", "--seed", "5",
                       "--out", str(tmp_path / "a")])
        assert rc == 0
        cfgpath = tmp_path / "bad.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "check", "grid": [9, 9],
            "s_override": [[0.0, 1.0], [0.0, 0.0]],
            "out": str(tmp_path / "b")}))
        rc = cli_main(["check", "--config", str(cfgpath)])
        assert rc == 2

    def test_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli_main(["energy", "--config", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{\"imlab_config\": 2}")
        assert cli_main(["energy", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("argv, name", [
        (["check", "--p", "abc"], "--p"), (["energy", "--seed", "x"], "--seed"),
        (["bogus"], "experiment"), (["check", "--grid", "9x"], "--grid")])
    def test_argument_errors_exit_1(self, argv, name, capsys):
        """A bad flag value or experiment name is an error (exit 1), not a
        failed check suite (exit 2), and the message names the argument."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        assert f"error: argument {name}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        assert "usage: imlab" in capsys.readouterr().out

    def test_non_finite_exponent_exits_1(self, tmp_path, capsys):
        assert cli_main(["energy", "--p", "nan", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "energy_report.json").exists()

    def test_minimize_warns_when_not_converged(self, tmp_path, capsys):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "minimize", "preset": "flat",
            "grid": [9, 9], "out": str(tmp_path / "out"),
            "optimizer": {"max_iters": 3}}))
        assert cli_main(["minimize", "--config", str(cfgpath)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "max_iters" in err
        report = json.loads((tmp_path / "out" / "minimize_report.json").read_text())
        assert report["termination"] == "max_iters"
        assert report["converged"] is False
        assert report["iterations"] == 3 and report["ngev"] == 4
        assert report["nfev"] == 4 + report["backtracks"]

    @pytest.mark.parametrize("start", ["immersion", "director"])
    def test_minimize_stall_diagnostics(self, tmp_path, capsys, start):
        """A run cut at max_iters=5 reports the residual gradient max-norm per
        field and component at its terminal state and the energy decrease
        over its trace, and its warning names the largest component."""
        out = tmp_path / "out"
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "minimize", "preset": "flat",
            "grid": [9, 9], "out": str(out), "start": start,
            "optimizer": {"max_iters": 5}}))
        assert cli_main(["minimize", "--config", str(cfgpath)]) == 0
        err = capsys.readouterr().err
        report = json.loads((out / "minimize_report.json").read_text())
        cfg = _load_config(cfgpath)
        g, grid, S, _ = harness._problem_context(cfg)
        E3 = chart("euclidean", 3)
        if start == "immersion":
            state = DiscreteImmersion(grid, load_binary(out / "terminal.bin"), E3)
            parts = {"values": energy_gradient(state, g, S, cfg.p)}
        else:
            state = DirectorField(grid, load_node_csv(out / "terminal_foot.csv"),
                                  load_node_csv(out / "terminal_vec.csv"), E3)
            parts = dict(zip(("foot", "vec"), energy_gradient(state, g, S, cfg.p)))
        maxes = report["residual_gradient_max"]
        assert sorted(maxes) == sorted(parts)
        for name, grad in parts.items():
            assert maxes[name] == np.max(np.abs(grad), axis=(0, 1)).tolist()
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        top = max(max(m) for m in maxes.values())
        assert top == trace[-1, 4]
        big = report["residual_gradient_largest"]
        assert big["max"] == top == maxes[big["field"]][big["component"]]
        assert f"largest residual gradient {big['field']}[{big['component']}]" in err
        assert report["recent_records"] == 6 == len(trace)
        assert report["recent_energy_decrease"] == trace[0, 1] - trace[-1, 1] > 0.0
        assert "over the last 6 trace records" in err

    def test_optimizer_memory_above_cap_exits_1(self, tmp_path, capsys):
        """An L-BFGS memory above MAX_MEMORY is a config error (exit 1 and
        one error line), not a history allocation that dies with a traceback."""
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "minimize", "preset": "flat",
            "grid": [9, 9], "out": str(tmp_path / "out"),
            "optimizer": {"memory": 100000000}}))
        assert cli_main(["minimize", "--config", str(cfgpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("imlab: error:") and f"<= {MAX_MEMORY}" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_converged_minimize_reports_no_stall(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "imlab_config": 1, "experiment": "minimize", "preset": "flat",
            "grid": [9, 9], "out": str(out), "start": "director",
            "optimizer": {"max_iters": 500, "grad_tol": 1e-6}}))
        assert cli_main(["minimize", "--config", str(cfgpath)]) == 0
        assert "warning" not in capsys.readouterr().err
        report = json.loads((out / "minimize_report.json").read_text())
        assert report["converged"] and "residual_gradient_max" not in report

    def test_non_finite_report_value_exits_1(self, tmp_path, monkeypatch, capsys):
        real = harness.en.total_energy
        monkeypatch.setattr(harness.en, "total_energy", lambda *a: dataclasses.replace(
            real(*a), stretch=float("nan")))
        out = tmp_path / "out"
        assert cli_main(["energy", "--preset", "flat", "--grid", "9x9",
                         "--out", str(out)]) == 1
        assert "energy_report.json" not in os.listdir(out)

    def test_flag_overrides(self, tmp_path, capsys):
        rc = cli_main(["energy", "--preset", "flat", "--grid", "9x9",
                       "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "energy_report.json").read_text())
        assert report["grid_meta"]["counts"] == [9, 9]


def test_write_json_rejects_non_finite_and_leaves_no_file(tmp_path):
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            write_json(tmp_path / "report.json", {"nested": [1.0, bad]})
    assert os.listdir(tmp_path) == []
    write_json(tmp_path / "report.json", {"total": 1.5})
    assert json.loads((tmp_path / "report.json").read_text()) == {"total": 1.5}


class TestDeterminism:
    def test_check_and_sweep_byte_identical(self, tmp_path):
        for sub in ("c1", "c2"):
            cfg = ExperimentConfig(experiment="check", grid=(9, 9), seed=11,
                                   num_random=2, out=str(tmp_path / sub))
            run_check(cfg)
        assert filecmp.cmp(tmp_path / "c1" / "check_report.json",
                           tmp_path / "c2" / "check_report.json", shallow=False)
        for sub in ("s1", "s2"):
            cfg = ExperimentConfig(experiment="stability-sweep", preset="cylinder",
                                   grid=(9, 9), amplitudes=(0.1, 0.05), seed=11,
                                   out=str(tmp_path / sub))
            run_stability_sweep(cfg)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for name in sorted(os.listdir(d1)):
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


@pytest.mark.parametrize("counts", [(9,), (9, 7)], ids=["curve", "surface"])
def test_random_states_on_either_grid_dimension(counts):
    """Graph-like immersions and directors into a constant (d+1)-dimensional
    target, for curves (d = 1) and surfaces (d = 2)."""
    grid = Grid(counts, (1.0,) * len(counts))
    m = grid.dim + 1
    target = harness.MetricChart(dim=m, domain=[[-np.inf, np.inf]] * m,
                                 constant=np.eye(m) + 0.1)
    rng = np.random.default_rng(5)
    graph = np.concatenate([grid.nodes(), np.zeros(counts + (1,))], axis=-1)
    field = harness.random_smooth_field(grid, m, copy.deepcopy(rng))
    f = harness.random_surface_immersion(grid, rng, amplitude=0.1)
    assert np.array_equal(f.values, graph + 0.1 * field) and f.target.dim == m
    xi = harness.random_director(grid, target, rng)
    assert xi.foot.shape == xi.vec.shape == counts + (m,) and xi.target is target


@pytest.mark.parametrize("grid", [Grid((13,), (2.5,), (-0.7,)), Grid((9, 12), (0.6, 3.0), (1.0, -2.0)),
                                  Grid((64,), (1.0,)), Grid((17, 17), (1.0, 1.0), (1.0, 0.0))],
                         ids=["curve", "surface", "curve64", "polar-box"])
def test_separable_fields_equal_the_tensor_product_reference(grid):
    """The per-axis sines and their outer product: the node-wise tensor
    modes bit for bit; and the scalar generator calls draw the numbers of
    the reference's per-mode array draws, leaving the generator in the same
    state after every call."""
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for ncomp in (1, 2, 3, 4):
            assert np.array_equal(harness.random_smooth_field(grid, ncomp, rng),
                                  helpers.random_smooth_field(grid, ncomp, ref))
            assert rng.bit_generator.state == ref.bit_generator.state
    for freqs in ((2, 4, 8), (1.5,), (3.0, 7.0)):
        assert np.array_equal(wrinkle_profile(grid, freqs), helpers.wrinkle_profile(grid, freqs))


@pytest.mark.parametrize("seed", range(5))
def test_batched_margin_sweep_matches_per_draw_loop(seed):
    """The same draws as one margin call per draw: the same applicable count,
    the minimum margin within 1e-14, and the generator left where the
    per-draw loop leaves it."""
    cfg = ExperimentConfig(experiment="check", grid=(9, 9), seed=seed)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    margin, applicable = harness._margin_sweep(cfg, rng, samples_needed=2000)
    want_margin, want_applicable = helpers.margin_sweep(ref, samples_needed=2000)
    assert applicable == want_applicable >= 4 * 2000
    assert 0.0 < want_margin and abs(margin - want_margin) <= 1e-14 * want_margin
    assert rng.random() == ref.random()


def test_wrinkle_profile_mixes_frequencies():
    grid = Grid((33, 33), (1.0, 1.0))
    w = wrinkle_profile(grid, (2, 4, 8))
    assert w.shape == grid.counts
    assert np.max(np.abs(w)) > 0.1
    assert np.allclose(w[0, :], 0.0, atol=1e-12)  # sine modes vanish at the edge


# ---------------------------------------------------------------------------
# the gradient check's estimator, sample counts, the number format, and
# property tests of config parsing


def _gradient_entry(report):
    return [c for c in report["checks"] if c["check"] == "gradient_fd"][0]


class TestGradientCheck:
    @pytest.mark.parametrize("seed", [76, 350])
    def test_seeds_with_small_gradient_entries_pass(self, tmp_path, seed):
        # central differences at a fixed step 1e-6 read 4.8e-5 and 1.4e-4 here
        cfg = ExperimentConfig(experiment="check", grid=(33, 33), seed=seed,
                               out=str(tmp_path))
        report, passed = run_check(cfg)
        entry = _gradient_entry(report)
        assert passed and entry["pass"], entry
        assert entry["tolerance"] == 1e-5 and entry["max_violation"] < 1e-6
        assert entry["n_samples"] == 48

    @pytest.mark.parametrize("kind", ["immersion", "director"])
    def test_gradient_corrupted_at_one_coordinate_fails(self, monkeypatch, kind):
        grid = Grid((9, 9), (1.0, 1.0))
        rng = np.random.default_rng(41)
        if kind == "immersion":
            state = harness.random_surface_immersion(grid, rng, amplitude=0.08)
        else:
            state = harness.random_director(grid, chart("euclidean", 3), rng)
        S = harness.ShapeField(grid, 0.4 * harness._sym_field(grid, rng))
        g = get_preset("flat").g
        true_gradient = harness._Evaluator.gradient

        # the sampled coordinate with the largest gradient entry
        x = harness.pack_state(state)
        idx = copy.deepcopy(rng).choice(x.size, size=8, replace=False)
        grad = harness._Evaluator(state, g, S, 2.0).gradient(x)
        i = idx[np.argmax(np.abs(grad[idx]))]

        def corrupted(self, x):
            grad = true_gradient(self, x)
            grad[i] *= 1.0 + 1e-4
            return grad

        clean = harness._fd_vs_analytic(state, g, S, 2.0, copy.deepcopy(rng), 8)
        monkeypatch.setattr(harness._Evaluator, "gradient", corrupted)
        bad = harness._fd_vs_analytic(state, g, S, 2.0, rng, 8)
        assert clean < 1e-7 and 5e-5 < bad < 2e-4

    @pytest.mark.parametrize("kind", ["immersion", "director"])
    def test_differences_the_objective_from_one_core(self, monkeypatch, kind):
        """The function the check differences, the minimizer's energy, equals
        the library energy bit for bit at perturbed states, and a whole check
        of one state builds one Integrands for it."""
        grid = Grid((9, 9), (1.0, 1.0))
        rng = np.random.default_rng(43)
        if kind == "immersion":
            state = harness.random_surface_immersion(grid, rng, amplitude=0.08)
        else:
            state = harness.random_director(grid, chart("euclidean", 3), rng)
        S = harness.ShapeField(grid, 0.4 * harness._sym_field(grid, rng))
        g = get_preset("flat").g
        x = harness.pack_state(state)
        library = total_energy if kind == "immersion" else relaxed_total
        for p in (2.0, 3.0):
            ev = harness._Evaluator(state, g, S, p)
            for i, t in ((0, 0.0), (7, 1e-4), (x.size - 1, -3e-3)):
                e = np.zeros_like(x)
                e[i] = t
                assert ev.energy(x + e)[0] == library(unpack_like(x + e, state), g, S, p).total

        built = []
        real = optimize_module.Integrands
        monkeypatch.setattr(optimize_module, "Integrands",
                            lambda *a: built.append(1) or real(*a))
        harness._fd_vs_analytic(state, g, S, 2.0, rng, 4)
        assert len(built) == 1

    @staticmethod
    def _problem(seed, kind):
        grid = Grid((9, 9), (1.0, 1.0))
        rng = np.random.default_rng(seed)
        if kind == "immersion":
            state = harness.random_surface_immersion(grid, rng, amplitude=0.08)
        else:
            state = harness.random_director(grid, chart("euclidean", 3), rng)
        return state, harness.ShapeField(grid, 0.4 * harness._sym_field(grid, rng)), rng

    @pytest.mark.parametrize("kind", ["immersion", "director"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_lockstep_check_evaluates_the_one_coordinate_points(self, monkeypatch, kind, p):
        """The lockstep tableaus evaluate, per coordinate, the points of the
        one-coordinate-at-a-time loop, and leave the generator where it does;
        on immersion states they return its value bit for bit."""
        g = get_preset("flat").g
        batched = harness._Evaluator.energies
        for seed in range(10):
            state, S, rng = self._problem(seed, kind)
            ref_rng, x = copy.deepcopy(rng), harness.pack_state(state)
            want_points, points = {}, {}

            def recording(self, X):
                for row in X:
                    (i,) = np.flatnonzero(row != x)
                    points.setdefault(int(i), []).append(row[i])
                return batched(self, X)

            want = helpers.fd_vs_analytic(state, g, S, p, ref_rng, 8, want_points)
            with monkeypatch.context() as m:
                m.setattr(harness._Evaluator, "energies", recording)
                got = harness._fd_vs_analytic(state, g, S, p, rng, 8)
            assert points == want_points and len(points) == 8
            assert rng.random() == ref_rng.random()
            # director energies agree within 1e-14 only (see the next test)
            assert got == want if kind == "immersion" else abs(got - want) <= 1e-9

    @pytest.mark.parametrize("kind", ["immersion", "director"])
    def test_batched_energies_match_one_state_energies(self, monkeypatch, kind):
        """One batched forward gives each state's energy within 1e-14 of
        the one-state forward (the Newton polar iteration runs until every row
        of the batch has converged), and a state below the gradient guard
        reads +inf without touching the others.  The director states have
        frames [Jx | v] with det < 0 at many nodes, which take the closed-form
        reflection branch of the rotation kernel."""
        flipped = []
        real = geometry._flip_smallest
        monkeypatch.setattr(geometry, "_flip_smallest",
                            lambda b, *a: flipped.append(b.shape[1]) or real(b, *a))
        g = get_preset("flat").g
        for seed in range(5):
            state, S, rng = self._problem(seed, kind)
            x = harness.pack_state(state)
            X = x + 1e-3 * rng.normal(size=(12, x.size))
            for p in (2.0, 3.0):
                ev = harness._Evaluator(state, g, S, p)
                want = np.array([ev.energy(row)[0] for row in X])
                flipped.clear()
                got = ev.energies(X)
                assert got.shape == (12,)
                assert np.all(np.abs(got - want) <= 1e-14 * want)
                assert (sum(flipped) >= 12 * 10) == (kind == "director")
                guarded = X.copy()
                guarded[5] = 0.0
                got = ev.energies(guarded)
                assert got[5] == np.inf == ev.energy(guarded[5])[0]
                assert np.array_equal(np.delete(got, 5), np.delete(want, 5))

    def test_ridders_extrapolates_past_round_off(self):
        # f(t) = exp(3 t) / 3 + 1e3 has f'(0) = 1; round-off in f is about
        # 1e-13, which a central difference with step 1e-6 divides by 1e-6
        calls = []

        def energies(X):
            calls.extend(X[:, 0])
            return np.exp(3.0 * X[:, 0]) / 3.0 + 1e3

        central = (energies(np.array([[1e-6]]))[0] - energies(np.array([[-1e-6]]))[0]) / 2e-6
        calls.clear()
        fd = harness._ridders(energies, np.zeros(1), np.array([0]), [1e-2], [1e-13])[0]
        assert abs(fd - 1.0) < 1e-9 < abs(central - 1.0)
        assert len(calls) <= 2 * 10


class TestCheckSamples:
    def test_every_entry_counts_its_samples(self, tmp_path):
        cfg = ExperimentConfig(experiment="check", grid=(9, 9), seed=5, num_random=2,
                               out=str(tmp_path))
        report, passed = run_check(cfg)
        assert passed
        saved = json.loads((tmp_path / "check_report.json").read_text())
        for entry in saved["checks"]:
            assert isinstance(entry["n_samples"], int) and entry["n_samples"] >= 1, entry
        margin = [c for c in saved["checks"] if c["check"] == "sasaki_bound_margin"][0]
        assert margin["applicable_samples"] == margin["n_samples"] >= 2000

    def test_check_on_zero_samples_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_margin_sweep",
                            lambda cfg, rng, samples_needed: (np.inf, 0))
        cfg = ExperimentConfig(experiment="check", grid=(9, 9), seed=5, num_random=2,
                               out=str(tmp_path))
        report, passed = run_check(cfg)
        margin = [c for c in report["checks"] if c["check"] == "sasaki_bound_margin"][0]
        assert not passed and not margin["pass"]
        assert margin["n_samples"] == 0 and margin["max_violation"] == 0.0

    def test_skipped_gradient_check_reports_no_samples(self, tmp_path):
        cfg = ExperimentConfig(experiment="check", grid=(9, 9), seed=3, num_random=2,
                               p=1.5, out=str(tmp_path))
        report, _ = run_check(cfg)
        entry = _gradient_entry(report)
        assert entry["n_samples"] == 0 and entry["status"] == "skipped: p<2"


def test_number_format_is_the_17_digit_repr_of_every_writer(tmp_path):
    values = np.array([0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308,
                       np.pi, 1.0 / 3.0, 123456789012345678.0, 0.1 + 0.2])
    assert [fmt17(v) for v in values] == [format(float(v), ".17g") for v in values]
    assert fmt17(np.float32(0.1)) == format(float(np.float32(0.1)), ".17g")
    grid = Grid((4,), (1.0,))
    data = np.stack([values[:4], values[4:8], values[7:11]], axis=-1)
    save_node_csv(tmp_path / "t.csv", grid, data)
    expect = ["i0,c0,c1,c2"] + [",".join([str(k)] + [format(float(v), ".17g")
                                                     for v in row])
                                for k, row in enumerate(data)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expect) + "\n"


_NAMES = set(harness.EXPERIMENTS) | set(PRESETS) | {"immersion", "director"}
_FLOATS = st.floats(-1e3, 1e3)


@st.composite
def _valid_configs(draw):
    d = {"imlab_config": 1, "experiment": draw(st.sampled_from(harness.EXPERIMENTS))}
    # a sweep needs a positive amplitude and positive frequencies
    sweep = d["experiment"] in ("stability-sweep", "ratio-study")
    optional = {
        "preset": st.sampled_from(sorted(PRESETS)),
        "grid": st.one_of(st.integers(4, 65),
                          st.lists(st.integers(4, 65), min_size=1, max_size=2)),
        "p": st.floats(1.0, 8.0),
        "frequencies": st.lists(st.floats(1e-3, 1e3) if sweep else _FLOATS,
                                min_size=int(sweep), max_size=4),
        "amplitudes": st.lists(st.floats(0.0, 1.0), unique=True, min_size=int(sweep),
                               max_size=4).map(lambda a: sorted(a, reverse=True)).filter(
            lambda a: not sweep or a[0] > 0),
        "seed": st.integers(0, 2 ** 63),
        "out": st.text(max_size=8),
        "start": st.sampled_from(["immersion", "director"]),
        "start_amplitude": _FLOATS, "director_scale": _FLOATS,
        "num_random": st.integers(1, 50),
        "s_override": st.one_of(st.none(), st.lists(st.lists(_FLOATS, min_size=2,
                                                             max_size=2),
                                                    min_size=2, max_size=2)),
        "optimizer": st.one_of(st.none(), st.fixed_dictionaries({}, optional={
            "max_iters": st.integers(1, 10 ** 6), "memory": st.integers(1, 100),
            "grad_tol": st.floats(1e-300, 1e3),
            "step_tol": st.floats(1e-300, 1e3)})),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        d[key] = draw(optional[key])
    # and a wrinkle that does not vanish at every node of the grid, as
    # frequencies that are multiples of n - 1 do (1000 on 5 nodes)
    assume(not sweep or np.max(np.abs(wrinkle_profile(
        get_preset("flat").grid(d.get("grid", 33)), d.get("frequencies", (2,))))) > 1e-12)
    return d


_WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=5).filter(
    lambda v: v not in _NAMES), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.dictionaries(st.text(max_size=3), st.integers(), min_size=1, max_size=2),
    st.lists(st.text(max_size=3), min_size=1, max_size=2))


_CUSTOM = {"g": "sphere", "s": [[0.0, 0.0], [0.0, 0.0]],
           "box": [[0.5, 1.5], [0.0, 1.0]]}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WRONG_INNER = {
    "g": st.one_of(_WRONG.filter(lambda v: v not in harness.CHART_NAMES),
                   st.sampled_from([5, {"path": "m.csv"}, {"csv": 1},
                                    {"csv": "m.csv", "x": 1}])),
    "s": st.one_of(_WRONG, st.sampled_from([{"file": 1}, {"csv": None}]),
                   st.lists(st.lists(_FINITE, max_size=3), max_size=3).filter(
                       lambda m: [len(r) for r in m] != [2, 2]),
                   st.sampled_from([[[0.0, float(x)], [0.0, 0.0]]
                                    for x in ("nan", "inf", "-inf")] + [[[0.0, True], [0.0, 0.0]]])),
    "box": st.one_of(_WRONG, st.just(3), st.lists(st.tuples(_FINITE, _FINITE).map(list),
                                                   max_size=3).filter(
        lambda b: len(b) != 2 or any(lo >= hi for lo, hi in b)),
        st.sampled_from([[[0, None], [0.0, 1.0]], [[0.0, 1.0], [0.0, float("inf")]],
                         [[0.0, 1.0, 2.0], [0.0, 1.0]]])),
}


@st.composite
def _wrong_custom(draw):
    """A custom section with one wrong inner value, or a key too many or few."""
    d = copy.deepcopy(_CUSTOM)
    what = draw(st.sampled_from(sorted(_WRONG_INNER) + ["extra", "missing"]))
    if what == "extra":
        d[draw(st.text(max_size=3).filter(lambda k: k not in d))] = 1
    elif what == "missing":
        del d[draw(st.sampled_from(sorted(d)))]
    else:
        d[what] = draw(_WRONG_INNER[what])
    return d


def _wrong_for(key):
    """Values of a wrong type (or non-finite) for a config key; for custom,
    also objects with wrong inner values."""
    if key == "out":
        return _WRONG.filter(lambda v: not isinstance(v, str))
    if key == "imlab_config":
        # 1.0 and True compare equal to the version 1
        return st.one_of(_WRONG, st.sampled_from([1.0, True, 2, 0, "1", [1]]))
    if key == "custom":
        return st.one_of(_WRONG.filter(lambda v: v is not None and not isinstance(v, dict)),
                         _wrong_custom())
    if key in ("s_override", "optimizer"):
        return _WRONG.filter(lambda v: v is not None
                             and not (key != "s_override" and isinstance(v, dict)))
    return _WRONG


class TestConfigParsing:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=_valid_configs())
    def test_valid_configs_round_trip(self, tmp_path, d):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        cfg = _load_config(path)
        for key, value in d.items():
            if key == "imlab_config":
                continue
            got = getattr(cfg, key)
            if key == "optimizer":
                assert all(getattr(got, k) == v for k, v in (value or {}).items())
            elif key == "grid":
                assert got == tuple(np.atleast_1d(value))
            elif isinstance(value, list):
                assert got == tuple(tuple(v) if isinstance(v, list) else v for v in value)
            else:
                assert got == value
        again = dict(dataclasses.asdict(cfg), imlab_config=1)
        path.write_text(json.dumps(again))
        assert _load_config(path) == cfg

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__) + ["imlab_config"]),
           data=st.data())
    def test_wrong_types_and_non_finite_values_raise_bad_config(self, key, data):
        d = {"imlab_config": 1, "experiment": "check", key: data.draw(_wrong_for(key))}
        with pytest.raises(BadConfig):
            config_from_dict(d)

    @settings(max_examples=200, deadline=None)
    @given(custom=_wrong_custom(), preset=st.sampled_from(["custom", "cylinder"]))
    def test_malformed_custom_sections_raise_bad_config(self, custom, preset):
        with pytest.raises(BadConfig):
            config_from_dict({"imlab_config": 1, "experiment": "energy",
                              "preset": preset, "custom": custom})

    @pytest.mark.parametrize("inner", [
        {"g": {"path": "metric.csv"}}, {"g": 5}, {"s": {"file": 1}}, {"box": 3},
        {"box": [[0, None], [0.0, 1.0]]}, {"s": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        {"s": [[0.0, 0.0]]}])
    def test_custom_sections_that_crashed_raise_bad_config(self, inner):
        with pytest.raises(BadConfig, match="custom"):
            config_from_dict({"imlab_config": 1, "experiment": "energy",
                              "preset": "custom", "custom": dict(_CUSTOM, **inner)})

    def test_well_formed_custom_sections_are_accepted(self):
        for g in harness.CHART_NAMES + ({"csv": "metric.csv"},):
            for s in (_CUSTOM["s"], {"csv": "shape.csv"}):
                cfg = config_from_dict({"imlab_config": 1, "experiment": "energy",
                                        "preset": "custom",
                                        "custom": dict(_CUSTOM, g=g, s=s)})
                assert cfg.custom["g"] == g and cfg.custom["s"] == s

    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(sorted(harness.OptimizeConfig.__dataclass_fields__)),
           value=_WRONG.filter(lambda v: not isinstance(v, dict)))
    def test_wrong_optimizer_values_raise_bad_config(self, key, value):
        with pytest.raises(BadConfig):
            config_from_dict({"imlab_config": 1, "experiment": "check",
                              "optimizer": {key: value}})

    @settings(max_examples=100, deadline=None)
    @given(key=st.text(min_size=1, max_size=12), nested=st.booleans())
    def test_unknown_keys_are_rejected(self, key, nested):
        fields = (harness.OptimizeConfig if nested else ExperimentConfig).__dataclass_fields__
        assume(key not in fields and key != "imlab_config")
        d = {"imlab_config": 1, "experiment": "check"}
        if nested:
            d["optimizer"] = {key: 1}
        else:
            d[key] = 1
        with pytest.raises(BadConfig, match="unknown config keys"):
            config_from_dict(d)

    def test_optimizer_seed_is_an_unknown_key(self):
        # the minimizer is deterministic and has no seed
        with pytest.raises(BadConfig, match=r"unknown config keys: \['optimizer.seed'\]"):
            config_from_dict({"imlab_config": 1, "experiment": "minimize",
                              "optimizer": {"seed": 0}})
        with pytest.raises(TypeError):
            harness.OptimizeConfig(seed=0)

    @pytest.mark.parametrize("doc", [[], "check", 1, None, {"experiment": "check"},
                                     {"imlab_config": 2, "experiment": "check"},
                                     {"imlab_config": 1.0, "experiment": "check"},
                                     {"imlab_config": True, "experiment": "check"},
                                     {"imlab_config": 1}])
    def test_documents_that_are_not_configs_raise_bad_config(self, doc):
        with pytest.raises(BadConfig):
            config_from_dict(doc)
