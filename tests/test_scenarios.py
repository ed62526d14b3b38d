import json
from pathlib import Path

import numpy as np
import pytest

import slowdrive.sweeps
from slowdrive.cli import main
from slowdrive.operators import operator_norm, pauli
from slowdrive.propagation import PropagationError, PropagatorResult, evolve
from slowdrive.scenarios import (
    ConfigError,
    ScenarioConfig,
    build_scenario,
    list_scenarios,
)
from slowdrive.sweeps import SweepExecutionError, run_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_config(**overrides):
    doc = {
        "scenario": "embedded_eigenvalue",
        "params": {"grid_points": 11, "multiplicity": 1, "kappa": 1.0},
        "taus": [5.0, 50.0],
        "s_grid": {"points": 5},
        "metrics": ["heisenberg_sot:p_embedded"],
        "seed": 7,
    }
    doc.update(overrides)
    return ScenarioConfig.from_mapping(doc)


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScenarioConfig.from_mapping({"scenario": "swap_sequence", "tau": [1]})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ScenarioConfig.from_mapping({"scenario": "nope"})

    def test_unknown_scenario_param_rejected(self):
        cfg = make_config(params={"grid_points": 11, "bogus": 1})
        with pytest.raises(ConfigError, match="unknown scenario params"):
            build_scenario(cfg)

    def test_taus_positive_distinct(self):
        with pytest.raises(ConfigError, match="positive"):
            make_config(taus=[-1.0])
        with pytest.raises(ConfigError, match="distinct"):
            make_config(taus=[1.0, 1.0])

    def test_grid_must_include_zero(self):
        with pytest.raises(ConfigError, match="include 0"):
            make_config(s_grid={"values": [0.5, 1.0]})

    def test_unknown_metric_rejected(self):
        cfg = make_config(metrics=["nonsense"])
        with pytest.raises(ConfigError, match="unknown metric"):
            run_sweep(cfg)

    def test_unknown_metric_param_rejected(self):
        cfg = make_config(metric_params={"heisenberg_sot:p_embedded": {"huh": 1}})
        with pytest.raises(ConfigError, match="unknown metric_params"):
            run_sweep(cfg)

    def test_from_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"scenario": "swap_sequence", "taus": [2], "metrics": ["swap_norm_shift"]}))
        cfg = ScenarioConfig.from_file(p)
        assert cfg.scenario == "swap_sequence"


class TestBuilders:
    def test_direct_sum_two_blocks_diagonal(self):
        cfg = ScenarioConfig(
            scenario="direct_sum_counterexample", params={"blocks": 2}, taus=(1.0,),
            s_grid=(0.0, 1.0), metrics=(),
        )
        inst = build_scenario(cfg)
        assert np.allclose(np.diag(inst.h_o.matrix).real, [1.0, -1.0, 0.5, -0.5])
        lam = inst.path.sampler(0.3)
        assert np.allclose(lam[:2, :2], pauli("x"))
        assert np.allclose(lam[2:, 2:], pauli("x"))

    def test_swap_shift_norm_is_inverse_n(self):
        cfg = ScenarioConfig(
            scenario="swap_sequence", params={"half_width": 8}, taus=(3.0,),
            s_grid=(0.0, 1.0), metrics=(),
        )
        inst = build_scenario(cfg)
        v3 = inst.static_family(3)
        shift = v3 @ inst.h_o.matrix @ v3.conj().T - inst.h_o.matrix
        assert operator_norm(shift) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_embedded_level_count(self):
        cfg = ScenarioConfig(
            scenario="embedded_eigenvalue", params={"grid_points": 63, "multiplicity": 1},
            taus=(1.0,), s_grid=(0.0, 1.0), metrics=(),
        )
        inst = build_scenario(cfg)
        assert len(inst.decomposition.levels) == 64
        assert inst.h_o.dim == 64
        # the embedded level itself exists with the requested multiplicity
        level = [lv for lv in inst.decomposition.levels if abs(lv.eigenvalue) < 1e-12]
        assert len(level) == 1 and level[0].multiplicity == 1

    def test_embedded_multiplicity(self):
        cfg = ScenarioConfig(
            scenario="embedded_eigenvalue", params={"grid_points": 12, "multiplicity": 3},
            taus=(1.0,), s_grid=(0.0, 1.0), metrics=(),
        )
        inst = build_scenario(cfg)
        assert len(inst.decomposition.levels) == 13
        level = [lv for lv in inst.decomposition.levels if abs(lv.eigenvalue) < 1e-12]
        assert level[0].multiplicity == 3

    def test_two_level_reference_matches_evolution(self):
        cfg = ScenarioConfig(
            scenario="two_level_rotating", params={}, taus=(9.0,), s_grid=(0.0, 0.5, 1.0),
            metrics=(),
        )
        inst = build_scenario(cfg)
        res = evolve(inst.h_o, inst.path, 9.0, np.array([0.0, 0.5, 1.0]))
        ref = inst.reference["propagator"]
        for s in (0.5, 1.0):
            assert operator_norm(res.at(s) - ref(9.0, s)) <= 1e-8

    def test_pure_point_spectrum_distinct(self):
        cfg = ScenarioConfig(
            scenario="pure_point_omega", params={"dim": 16}, taus=(1.0,),
            s_grid=(0.0, 1.0), metrics=(), seed=0,
        )
        inst = build_scenario(cfg)
        assert len(inst.decomposition.levels) == 16

    def test_pure_point_degenerate_pairs(self):
        cfg = ScenarioConfig(
            scenario="pure_point_omega", params={"dim": 8, "degenerate_pairs": 2},
            taus=(1.0,), s_grid=(0.0, 1.0), metrics=(), seed=0,
        )
        inst = build_scenario(cfg)
        assert len(inst.decomposition.levels) == 6
        mults = sorted(lv.multiplicity for lv in inst.decomposition.levels)
        assert mults == [1, 1, 1, 1, 2, 2]

    def test_fermi_observables_present(self):
        cfg = ScenarioConfig(
            scenario="fermi_observable", params={"grid_points": 11, "beta": 5.0},
            taus=(1.0,), s_grid=(0.0, 1.0), metrics=(),
        )
        inst = build_scenario(cfg)
        labels = [l for l, _ in inst.observables]
        assert labels == ["p_embedded", "fermi", "filled_below_mu"]

    def test_list_scenarios_catalog(self):
        entries = list_scenarios()
        names = [n for n, _, _ in entries]
        assert "direct_sum_counterexample" in names
        assert "embedded_eigenvalue" in names
        assert all(desc and anchor for _, desc, anchor in entries)


class TestRunSweep:
    def test_zero_drive_all_quiet_pass(self, tmp_path):
        cfg = make_config(
            params={"grid_points": 11, "multiplicity": 1, "kappa": 0.0},
            metrics=["heisenberg_norm:p_embedded", "heisenberg_sot:p_embedded", "resolvent"],
            out_dir=str(tmp_path),
        )
        res = run_sweep(cfg)
        assert res.all_pass
        for o in res.outcomes:
            assert o.checks["quiet"] is True

    def test_csv_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_sweep(make_config(out_dir=str(out1)))
        r2 = run_sweep(make_config(out_dir=str(out2)))
        for p1, p2 in zip(r1.csv_paths, r2.csv_paths):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_threaded_matches_serial(self, tmp_path):
        out1, out2 = tmp_path / "s", tmp_path / "t"
        r1 = run_sweep(make_config(out_dir=str(out1)))
        r2 = run_sweep(make_config(out_dir=str(out2), threads=2))
        for p1, p2 in zip(r1.csv_paths, r2.csv_paths):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_summary_shape(self, tmp_path):
        res = run_sweep(make_config(out_dir=str(tmp_path)))
        doc = json.loads(open(res.summary_path).read())
        assert doc["scenario"] == "embedded_eigenvalue"
        entry = doc["results"][0]
        assert set(entry) >= {"scenario", "metric", "slope", "constant", "verdict"}

    def test_save_propagators(self, tmp_path):
        cfg = make_config(out_dir=str(tmp_path), save_propagators=True, taus=[5.0])
        run_sweep(cfg)
        p = tmp_path / "run_embedded_eigenvalue_5.prop"
        assert p.exists()
        back = PropagatorResult.load(p)
        assert back.tau == 5.0

    def test_failing_ceiling_gives_fail(self, tmp_path):
        cfg = make_config(
            metric_params={"heisenberg_sot:p_embedded": {"ceiling": {"tau": 5.0, "max_value": 1e-12}}},
            out_dir=str(tmp_path),
        )
        res = run_sweep(cfg)
        assert not res.all_pass

    def test_single_mode_runs_first_tau_only(self):
        res = run_sweep(make_config(), single=True)
        taus = {r.tau for o in res.outcomes for r in o.rows}
        assert taus == {5.0}

    def test_swap_scenario_requires_integer_indices(self):
        cfg = ScenarioConfig.from_mapping({
            "scenario": "swap_sequence", "params": {"half_width": 4},
            "taus": [2.5], "metrics": ["swap_norm_shift"],
        })
        from slowdrive.sweeps import SweepExecutionError
        with pytest.raises(SweepExecutionError, match="integer"):
            run_sweep(cfg)

    def test_partial_results_flushed_before_abort(self, tmp_path):
        # second tau fails (non-integer swap index): the first tau's rows
        # land in the CSV and the summary records the error before the raise
        cfg = ScenarioConfig.from_mapping({
            "scenario": "swap_sequence", "params": {"half_width": 4},
            "taus": [2, 3.5], "metrics": ["swap_norm_shift"],
            "out_dir": str(tmp_path),
        })
        from slowdrive.sweeps import SweepExecutionError
        with pytest.raises(SweepExecutionError, match="tau=3.5"):
            run_sweep(cfg)
        csv = (tmp_path / "swap_sequence_swap_norm_shift.csv").read_text().splitlines()
        assert len(csv) == 2 and csv[1].startswith("swap_sequence,swap_norm_shift,2,")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "tau=3.5" in summary["error"]

    def test_failure_at_last_tau_writes_summary_then_raises(self, tmp_path, monkeypatch):
        # the ceiling references the tau that fails: its check is skipped,
        # the finished taus are written, and the propagation error surfaces
        real_evolve = slowdrive.sweeps.evolve

        def failing_evolve(h_o, path, tau, s_grid, step=None):
            if tau == 64.0:
                raise PropagationError("injected failure")
            return real_evolve(h_o, path, tau, s_grid, step=step)

        monkeypatch.setattr(slowdrive.sweeps, "evolve", failing_evolve)
        cfg = ScenarioConfig.from_mapping(
            dict(json.loads((CONFIGS / "direct_sum_demo.json").read_text()), out_dir=str(tmp_path))
        )
        with pytest.raises(SweepExecutionError, match="tau=64.0: injected failure"):
            run_sweep(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "injected failure" in summary["error"]
        assert summary["taus"] == [8.0, 16.0, 32.0]
        checks = {r["metric"]: r["checks"] for r in summary["results"]}
        assert "tau=64" in checks["heisenberg_sot:negative_energies"]["ceiling_skipped"]
        assert checks["heisenberg_norm:negative_energies"]["floor_ok"] is True

    def test_floor_tau_not_evaluated_is_skipped(self):
        cfg = make_config(
            metrics=["heisenberg_norm:p_embedded"],
            metric_params={
                "heisenberg_norm:p_embedded": {"floor": {"s": 0.5, "min_value": 0.0, "taus": [5.0, 50.0]}}
            },
        )
        res = run_sweep(cfg, single=True)
        checks = res.outcomes[0].checks
        assert checks["floor_skipped"] == {50.0: "tau=50 was not evaluated in this run"}
        assert checks["floor_ok"] is True

    def test_fermi_observable_sweep(self, tmp_path):
        # occupation-function observables at mu = 0 (an eigenvalue) still
        # converge per vector: both the smooth and the filled-sea observable
        cfg = ScenarioConfig.from_mapping({
            "scenario": "fermi_observable",
            "params": {"grid_points": 15, "multiplicity": 1, "beta": 10.0},
            "taus": [10.0, 300.0],
            "s_grid": {"points": 7},
            "metrics": ["heisenberg_sot:fermi", "heisenberg_sot:filled_below_mu"],
            "metric_params": {
                "heisenberg_sot:fermi": {"decay_factor": 0.6},
                "heisenberg_sot:filled_below_mu": {"decay_factor": 0.6},
            },
            "out_dir": str(tmp_path),
            "seed": 5,
        })
        res = run_sweep(cfg)
        assert res.all_pass, [o.checks for o in res.outcomes]

    def test_direct_sum_sweep_floor_and_ceiling(self, tmp_path):
        # scaled-down counterexample sweep: the norm metric keeps a floor at
        # the resonant s=0.5 while the block-1 vector's SOT metric stays small
        cfg = ScenarioConfig.from_mapping({
            "scenario": "direct_sum_counterexample",
            "params": {"blocks": 16},
            "taus": [4, 8, 16],
            "s_grid": {"values": [0.0, 0.5, 1.0]},
            "metrics": ["heisenberg_norm:negative_energies", "heisenberg_sot:negative_energies"],
            "metric_params": {
                "heisenberg_norm:negative_energies": {
                    "floor": {"s": 0.5, "min_value": 0.45}
                },
                "heisenberg_sot:negative_energies": {
                    "ceiling": {"tau": 16, "max_value": 0.08, "vectors": ["block1_up"]}
                },
            },
            "out_dir": str(tmp_path),
            "seed": 2,
        })
        res = run_sweep(cfg)
        assert res.all_pass, [o.checks for o in res.outcomes]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "direct_sum_counterexample" in out
        assert "embedded_eigenvalue" in out

    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "swap_sequence",
            "params": {"half_width": 8},
            "taus": [2, 4, 8],
            "s_grid": {"points": 2},
            "metrics": ["swap_norm_shift", "swap_sot_projection"],
            "metric_params": {
                "swap_norm_shift": {"exact_inverse_n_tol": 1e-12},
                "swap_sot_projection": {"constant_vector": "e0", "constant_value": 1.0},
            },
        }))
        code = main(["sweep", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "swap_demo.json"],
            ["sweep", "direct_sum_demo.json"],
            ["run", "direct_sum_demo.json"],
        ],
    )
    def test_documented_commands(self, argv, tmp_path, capsys):
        # every invocation the README shows finishes with exit code 0
        command, config = argv
        assert main([command, str(CONFIGS / config), "--out", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "error" not in summary
        assert all(r["verdict"] == "PASS" for r in summary["results"])

    def test_exit_2_on_fail(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "swap_sequence",
            "params": {"half_width": 8},
            "taus": [2, 4],
            "s_grid": {"points": 2},
            "metrics": ["swap_sot_projection"],
            "metric_params": {
                "swap_sot_projection": {"constant_vector": "e0", "constant_value": 0.5}
            },
        }))
        assert main(["sweep", str(cfg_path)]) == 2

    def test_exit_1_on_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "no_such"}))
        assert main(["run", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_exit_1_on_missing_file(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 1

    def test_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "swap_sequence", "params": {"half_width": 4},
            "taus": [2], "metrics": ["swap_norm_shift"],
        }))
        out = tmp_path / "cli_out"
        assert main(["run", str(cfg_path), "--out", str(out), "--seed", "3"]) == 0
        assert (out / "summary.json").exists()
        assert json.loads((out / "summary.json").read_text())["seed"] == 3
