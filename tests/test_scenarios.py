import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slowdrive.sweeps
from slowdrive.cli import main
from slowdrive.diagnostics import embedded_eigenprojection_decay, schrodinger_limit_distance
from slowdrive.operators import EigensolverError, operator_norm, pauli
from slowdrive.propagation import PropagationError, PropagatorResult, evolve, omega_infinity
from slowdrive.scenarios import (
    ConfigError,
    ScenarioConfig,
    build_scenario,
    list_scenarios,
)
from slowdrive.sweeps import SweepExecutionError, run_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CONFIG_KEYS = (
    "params", "taus", "s_grid", "step", "metrics", "metric_params",
    "out_dir", "seed", "threads", "save_propagators",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["points", "values", "x"]) | st.text(max_size=6), inner, max_size=4
    ),
    max_leaves=12,
)


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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"taus": 5}, "wrong JSON type: ['taus']"),
            ({"metrics": "heisenberg_sot:p_embedded"}, "wrong JSON type: ['metrics']"),
            ({"metric_params": {"heisenberg_sot:p_embedded": 5}}, "must be an object"),
            ({"s_grid": {"points": 200_001}}, "s_grid.points must lie in"),
            ({"taus": [5.0, "ten"]}, "malformed config"),
            ({"taus": [5.0, math.nan]}, "tau values must be finite"),
            ({"taus": [math.inf]}, "tau values must be finite"),
            ({"s_grid": {"values": [0.0, math.nan, 1.0]}}, "s_grid must increase"),
            ({"s_grid": [0.0, 0.5, math.inf]}, "s_grid must increase"),
            ({"step": math.nan}, "step must be finite and positive"),
            ({"step": 0.0}, "step must be finite and positive"),
            # the number rule: a number, not a bool or a string; counts whole
            ({"threads": True}, "threads must be a number, got True"),
            ({"seed": True}, "seed must be a number, got True"),
            ({"step": True}, "step must be a number, got True"),
            ({"taus": [True]}, "taus must be a number, got True"),
            ({"taus": ["5"]}, "taus must be a number, got '5'"),
            ({"s_grid": {"points": "21"}}, "s_grid.points must be a number, got '21'"),
            ({"s_grid": {"points": 2.7}}, "s_grid.points must be a whole number, got 2.7"),
            ({"s_grid": {"values": ["0", "1"]}}, "s_grid must be a number, got '0'"),
            # seeds are u64
            ({"seed": -1}, "seed must lie in [0, 2**64 - 1], got -1"),
            ({"seed": 2**64}, "seed must lie in [0, 2**64 - 1], got 18446744073709551616"),
        ],
    )
    def test_malformed_fields_rejected(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            make_config(**overrides)
        assert message in str(info.value)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            JSON_VALUES,
            st.fixed_dictionaries(
                {"scenario": st.sampled_from([n for n, _, _ in list_scenarios()]) | JSON_VALUES},
                optional={key: JSON_VALUES for key in CONFIG_KEYS},
            ),
        )
    )
    def test_from_mapping_raises_only_config_error(self, doc):
        try:
            cfg = ScenarioConfig.from_mapping(doc)
        except ConfigError:
            return
        assert isinstance(cfg, ScenarioConfig)

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
        assert len(inst.h_o.decomposition.levels) == 64
        assert inst.h_o.dim == 64
        # the embedded level itself exists with the requested multiplicity
        level = [lv for lv in inst.h_o.decomposition.levels if abs(lv.eigenvalue) < 1e-12]
        assert len(level) == 1 and level[0].multiplicity == 1

    def test_embedded_multiplicity(self):
        cfg = ScenarioConfig(
            scenario="embedded_eigenvalue", params={"grid_points": 12, "multiplicity": 3},
            taus=(1.0,), s_grid=(0.0, 1.0), metrics=(),
        )
        inst = build_scenario(cfg)
        assert len(inst.h_o.decomposition.levels) == 13
        level = [lv for lv in inst.h_o.decomposition.levels if abs(lv.eigenvalue) < 1e-12]
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
        assert len(inst.h_o.decomposition.levels) == 16

    def test_pure_point_degenerate_pairs(self):
        cfg = ScenarioConfig(
            scenario="pure_point_omega", params={"dim": 8, "degenerate_pairs": 2},
            taus=(1.0,), s_grid=(0.0, 1.0), metrics=(), seed=0,
        )
        inst = build_scenario(cfg)
        assert len(inst.h_o.decomposition.levels) == 6
        mults = sorted(lv.multiplicity for lv in inst.h_o.decomposition.levels)
        assert mults == [1, 1, 1, 1, 2, 2]

    def test_fermi_beta_defaults_to_10(self):
        def fermi(**beta):
            cfg = make_config(scenario="fermi_observable", params={"grid_points": 11, **beta})
            return build_scenario(cfg).observable("fermi").matrix

        assert np.array_equal(fermi(), fermi(beta=10.0))
        assert not np.allclose(fermi(), fermi(beta=5.0))

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

    def test_summary_records_propagation(self, tmp_path):
        res = run_sweep(make_config(out_dir=str(tmp_path / "emb")))
        records = json.loads(open(res.summary_path).read())["propagation"]
        assert [r["tau"] for r in records] == [5.0, 50.0]
        for r in records:
            assert set(r) == {"tau", "scheme", "steps", "step", "max_drift"}
            assert r["scheme"] == "magnus-filon" and r["steps"] >= 20
            assert 0 < r["step"] <= 0.05 and 0 <= r["max_drift"] <= 1e-8
        doc = dict(DIRECT_SUM, metrics=["heisenberg_norm"], out_dir=str(tmp_path / "sum"))
        res = run_sweep(ScenarioConfig.from_mapping(doc))
        records = json.loads(open(res.summary_path).read())["propagation"]
        assert [(r["scheme"], r["steps"], r["step"]) for r in records] == [
            ("exact-constant", 0, 0.5), ("exact-constant", 0, 0.5)
        ]
        doc = dict(SWAP, metrics=["swap_norm_shift"], out_dir=str(tmp_path / "swap"))
        res = run_sweep(ScenarioConfig.from_mapping(doc))
        assert json.loads(open(res.summary_path).read())["propagation"] == []

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

    def test_rows_in_csv_order(self):
        # rows come sorted by tau, s and vector label whatever the tau order
        res = run_sweep(make_config(taus=[50.0, 5.0]))
        keys = [(r.tau, r.s, r.vector_id) for r in res.outcomes[0].rows]
        assert keys == sorted(keys) and {k[0] for k in keys} == {5.0, 50.0}

    def test_negative_metric_value_fails_the_sweep(self, monkeypatch):
        # metric values are distances: a negative one is an execution error
        real = slowdrive.sweeps.heisenberg_distance_norm

        def negative(h_o, result, a):
            values, extra = real(h_o, result, a)
            return values - 1.0, extra

        monkeypatch.setattr(slowdrive.sweeps, "heisenberg_distance_norm", negative)
        cfg = make_config(metrics=["heisenberg_norm:p_embedded"])
        with pytest.raises(SweepExecutionError, match="must be >= 0"):
            run_sweep(cfg)

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


SWAP = {"scenario": "swap_sequence", "params": {"half_width": 4}, "taus": [2, 3]}
DIRECT_SUM = {
    "scenario": "direct_sum_counterexample", "params": {"blocks": 4}, "taus": [4, 8],
    "s_grid": {"values": [0.0, 0.5, 1.0]},
}
EMBEDDED = {
    "scenario": "embedded_eigenvalue", "params": {"grid_points": 11}, "taus": [5, 50],
    "s_grid": {"points": 5},
}
PURE_POINT = {"scenario": "pure_point_omega", "params": {"dim": 6}, "taus": [5, 50]}


class TestLoadChecks:
    """Every reference a config makes is checked before the first tau runs."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                dict(SWAP, metrics=["swap_sot_projection"],
                     metric_params={"swap_sot_projection": {"constant_vector": "nope"}}),
                "no probe vector ['nope']",
            ),
            (
                dict(DIRECT_SUM, metrics=["heisenberg_sot"], metric_params={"heisenberg_sot": {
                    "ceiling": {"tau": 8, "max_value": 1, "vectors": ["nope"]}}}),
                "no probe vector ['nope']",
            ),
            (
                dict(DIRECT_SUM, metrics=["heisenberg_sot"], metric_params={
                    "heisenberg_sot": {"ceiling": {"tau": 64, "max_value": 1}}}),
                "no tau [64]",
            ),
            (
                dict(DIRECT_SUM, metrics=["heisenberg_norm"], metric_params={
                    "heisenberg_norm": {"floor": {"s": 0.3, "min_value": 0.1}}}),
                "no s [0.3]",
            ),
            (
                dict(DIRECT_SUM, metrics=["heisenberg_norm"], metric_params={
                    "heisenberg_norm": {"floor": {"s": 0.5, "min_value": 0.1, "taus": [16]}}}),
                "no tau [16]",
            ),
            (
                dict(DIRECT_SUM, metrics=["heisenberg_norm"],
                     metric_params={"heisenberg_norm": {"floor": {"s": 0.5}}}),
                "floor takes ['min_value', 's']",
            ),
            (dict(EMBEDDED, metrics=["heisenberg_sot:nope"]), "no observable 'nope'"),
            (
                dict(EMBEDDED, metrics=["offdiag_low_high"],
                     metric_params={"offdiag_low_high": {"t": 0.33}}),
                "no s [0.33]",
            ),
            (
                dict(EMBEDDED, metrics=["offdiag_high_low"],
                     metric_params={"offdiag_high_low": {"s": 0.6}}),
                "no s [0.6]",
            ),
            (
                dict(EMBEDDED, metrics=["resolvent"], metric_params={"resolvent": {"z_imag": "i"}}),
                "z_imag must be a number",
            ),
            (dict(EMBEDDED, metrics=["swap_norm_shift"]), "needs a static scenario"),
            (dict(SWAP, metrics=["heisenberg_norm"]), "needs a time-dependent scenario"),
            (dict(DIRECT_SUM, metrics=["offdiag_low_high"]), "need e1 < e2"),
            (dict(PURE_POINT, metrics=["embedded_offblock"]), "no embedded level"),
            (
                dict(EMBEDDED, metrics=["resolvent"], metric_params={"heisenberg_norm": {}}),
                "not in the metrics list",
            ),
            (
                dict(SWAP, metrics=["swap_sot_projection"], metric_params={"swap_sot_projection": {
                    "constant_vector": "e0", "constant_value": 0.5, "constant_tol": math.nan}}),
                "non-finite number: NaN",
            ),
            (
                dict(DIRECT_SUM, metrics=["heisenberg_norm", "heisenberg_sot"], metric_params={
                    "heisenberg_norm": {"floor": {"s": 0.5, "min_value": math.nan}},
                    "heisenberg_sot": {"ceiling": {"tau": 8, "max_value": math.nan}}}),
                "non-finite number: NaN",
            ),
            (dict(EMBEDDED, metrics=["resolvent"], taus=[5, math.nan]), "non-finite number: NaN"),
            (dict(EMBEDDED, metrics=["resolvent"], taus=[5, math.inf]), "number: Infinity"),
            (dict(EMBEDDED, metrics=["resolvent"], step=-math.inf), "number: -Infinity"),
            (
                dict(EMBEDDED, metrics=["resolvent"], metric_params={"resolvent": {
                    "z_imag": 10**400}}),
                "z_imag must be finite",
            ),
            (
                dict(PURE_POINT, metrics=["heisenberg_norm"], params={"dim": 6, "kappa": 10**400}),
                "scenario param kappa must be finite",
            ),
            (
                dict(PURE_POINT, metrics=["heisenberg_norm"], params={"dim": 6.5}),
                "scenario param dim must be a whole number <= 4096",
            ),
            (
                dict(PURE_POINT, metrics=["heisenberg_norm"],
                     params={"dim": 6, "degenerate_pairs": 4097}),
                "scenario param degenerate_pairs must be a whole number <= 4096",
            ),
            (
                dict(PURE_POINT, metrics=["heisenberg_norm"], params={"dim": "6"}),
                "scenario param dim must be a number, got '6'",
            ),
            (
                dict(PURE_POINT, metrics=["heisenberg_norm"], params={"dim": 6, "kappa": -1.0}),
                "kappa must be >= 0",
            ),
            (
                dict(EMBEDDED, metrics=["resolvent"], params={"grid_points": 11, "kappa": -1.0}),
                "kappa must be >= 0",
            ),
            (
                dict(EMBEDDED, scenario="fermi_observable", metrics=["resolvent"],
                     params={"grid_points": 11, "kappa": -0.5}),
                "kappa must be >= 0",
            ),
            (
                # beta sets the Fermi observable, which only fermi_observable has
                dict(EMBEDDED, metrics=["resolvent"], params={"grid_points": 11, "beta": 5.0}),
                "unknown scenario params: ['beta']",
            ),
        ],
    )
    def test_bad_reference_exits_1_before_any_tau(
        self, doc, message, tmp_path, capsys, monkeypatch
    ):
        calls = []
        real_evolve = slowdrive.sweeps.evolve

        def counting_evolve(*args, **kwargs):
            calls.append(args[2])
            return real_evolve(*args, **kwargs)

        monkeypatch.setattr(slowdrive.sweeps, "evolve", counting_evolve)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert calls == []


class TestLibraryAgreement:
    """The sweep and the library functions share one implementation of each
    per-vector metric."""

    @staticmethod
    def sweep_sups(outcome):
        sups: dict = {}
        for r in outcome.rows:
            key = (r.tau, r.vector_id)
            sups[key] = max(sups.get(key, 0.0), r.value)
        return sups

    def test_embedded_offblock_matches_library(self):
        cfg = ScenarioConfig.from_mapping(dict(EMBEDDED, metrics=["embedded_offblock"], seed=3))
        sups = self.sweep_sups(run_sweep(cfg).outcomes[0])
        inst = build_scenario(cfg)
        for tau in cfg.taus:
            result = evolve(inst.h_o, inst.path, tau, np.asarray(cfg.s_grid))
            recs = embedded_eigenprojection_decay(
                inst.h_o, result, inst.embedded_level, inst.vectors
            )
            assert len(recs) == len(inst.vectors)
            for rec in recs:
                want = rec.offblock_sup
                assert sups[(tau, rec.vector_id)] == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_schrodinger_limit_matches_library(self):
        cfg = ScenarioConfig.from_mapping(dict(PURE_POINT, metrics=["schrodinger_limit"], seed=4))
        sups = self.sweep_sups(run_sweep(cfg).outcomes[0])
        inst = build_scenario(cfg)
        grid = np.asarray(cfg.s_grid)
        limit = omega_infinity(inst.h_o.decomposition, inst.path, grid)
        for tau in cfg.taus:
            result = evolve(inst.h_o, inst.path, tau, grid)
            recs = schrodinger_limit_distance(
                inst.h_o, result, limit, inst.vectors, inst.path
            )
            assert len(recs) == len(inst.vectors)
            for rec in recs:
                want = rec.distance_sup
                assert sups[(tau, rec.vector_id)] == pytest.approx(want, rel=1e-14, abs=1e-14)


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

    def test_exit_1_on_directory_config(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_exit_1_when_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", str(CONFIGS / "swap_demo.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("config", ["swap_demo.json", "embedded_resolvent.json"])
    def test_exit_1_on_seed_outside_u64(self, config, tmp_path, capsys):
        # rejected at load, before any scenario is built or output written
        out = tmp_path / "out"
        assert main(["run", str(CONFIGS / config), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must lie in [0, 2**64 - 1], got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change",
        [{"step": 5e-324}, {"step": 1e-300}, {"params": {"dim": 6, "kappa": 1e300}}],
    )
    def test_exit_1_when_steps_cannot_finish(self, change, tmp_path, capsys):
        # an overflowing or astronomically large step count is refused before stepping
        doc = json.loads((CONFIGS / "pure_point_limit.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, **change, "out_dir": str(tmp_path / "out")}))
        assert main(["sweep", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "10000000 steps" in err

    @pytest.mark.parametrize(
        "amplitude, code, eigensolver",
        [
            pytest.param(1e300, 1, "failing", id="1e+300-1"),
            pytest.param(1e160, 0, "numpy", id="1e+160-0"),
            pytest.param(1e300, 0, "numpy", id="1e+300-0"),
            pytest.param(1.7e308, 0, "numpy", id="1.7e+308-0"),
        ],
    )
    def test_exit_1_when_the_scenario_cannot_be_diagonalised(
        self, amplitude, code, eigensolver, monkeypatch, tmp_path, capsys
    ):
        # The reconstruction residual is relative to ||H_o||, so amplitudes up
        # to 1.7e308 build and sweep: H_o is symmetrised as A/2 + A†/2, which
        # cannot overflow. An eigensolver that fails exits 1.
        if eigensolver == "failing":
            def fail(*args, **kwargs):
                raise EigensolverError("eigenvectors are not orthonormal")

            monkeypatch.setattr(slowdrive.scenarios, "hermitian_eigendecomposition", fail)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "two_level_rotating",
            "params": {"amplitude": amplitude},
            "taus": [1],
            "s_grid": {"points": 3},
            "metrics": ["heisenberg_norm"],
        }))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "two_level_rotating cannot be built" in err
        else:
            assert err == ""

    def test_exit_1_on_a_nan_propagator(self, tmp_path, capsys):
        # tau H_o overflows, so the exact constant propagator is NaN after
        # s = 0: its drift is NaN, which is refused rather than passed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "two_level_rotating",
            "params": {"amplitude": 1e300},
            "taus": [1e10],
            "s_grid": {"points": 3},
            "metrics": ["heisenberg_norm"],
        }))
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("execution error: ") and captured.err.count("\n") == 1
        assert "unitarity drift nan" in captured.err and "at s=0.5" in captured.err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "change, argv, message",
        [
            ({"threads": 65}, [], "threads must lie in [1, 64], got 65"),
            ({}, ["--threads", "65"], "threads must lie in [1, 64], got 65"),
            (
                {"s_grid": {"values": np.linspace(0.0, 1.0, 100_001).tolist()}},
                [],
                "s_grid.values holds more than 100000 points",
            ),
        ],
    )
    def test_exit_1_on_bounds_at_load(self, change, argv, message, tmp_path, capsys, monkeypatch):
        # refused when the config loads: no tau is evolved and no thread pool starts
        calls = []
        monkeypatch.setattr(slowdrive.sweeps, "evolve", lambda *a, **k: calls.append(1))
        monkeypatch.setattr(slowdrive.sweeps, "ThreadPoolExecutor", lambda **k: calls.append(1))
        doc = json.loads((CONFIGS / "pure_point_limit.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, **change}))
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_path), "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == [] and not out.exists()

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
