"""Experiment drivers, configuration validation, CLI, reproducibility."""

import dataclasses
import filecmp
import json
import os

import numpy as np
import pytest

from imlab.cli import main as cli_main
from imlab.energy import total_energy
from imlab.errors import BadConfig
from imlab.fields import DiscreteImmersion, Grid, load_binary, save_node_csv
from imlab.geometry import chart
from imlab import harness
from imlab.harness import (ExperimentConfig, config_from_dict, load_config,
                           run_check, run_minimize, run_experiment,
                           run_stability_sweep, wrinkle_profile, write_json)
from imlab.presets import get_preset


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

    @pytest.mark.parametrize("key,value", [
        ("p", float("nan")), ("p", float("inf")), ("p", "2"),
        ("start_amplitude", float("nan")),
        ("director_scale", float("inf")), ("amplitudes", (0.1, float("nan"))),
        ("num_random", 0)])
    def test_rejects_non_finite_and_empty_values(self, key, value):
        with pytest.raises(BadConfig):
            ExperimentConfig(experiment="check", **{key: value})

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"imlab_config": 1, "experiment": "energy",
                                    "preset": "flat", "grid": [9, 9],
                                    "p": 3.0, "seed": 4}))
        cfg = load_config(path)
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


def test_wrinkle_profile_mixes_frequencies():
    grid = Grid((33, 33), (1.0, 1.0))
    w = wrinkle_profile(grid, (2, 4, 8))
    assert w.shape == grid.counts
    assert np.max(np.abs(w)) > 0.1
    assert np.allclose(w[0, :], 0.0, atol=1e-12)  # sine modes vanish at the edge
