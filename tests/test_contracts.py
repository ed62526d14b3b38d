"""Cost and tooling contracts: the library diagnostics reuse the scenario's
one decomposition of H_o, a sweep forms Omega_tau only for the limit
comparison, the norm metrics take no full SVD and form no projection, every
name the benchmark's tracer rebinds is still bound where it looks for it, and
the code-line counter, the norm-kernel table and the parity check run."""

import dataclasses
import importlib.util
import json
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import slowdrive.scenarios
import slowdrive.sweeps
from slowdrive.diagnostics import (
    embedded_eigenprojection_decay,
    offdiagonal_block_decay,
    schrodinger_limit_distance,
)
from slowdrive.operators import SpectralDecomposition
from slowdrive.propagation import (
    PropagatorResult,
    default_step,
    evolve,
    interaction_frame,
    omega_infinity,
)
from slowdrive.scenarios import ScenarioConfig, build_scenario
from slowdrive.sweeps import run_sweep

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_module(path: Path):
    """Import the module at ``path`` by path, without touching the file."""
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACING = load_module(PERFBENCH / "tracing.py")
WORKLOADS = load_module(PERFBENCH / "workloads.py").WORKLOADS


def scenario(doc):
    return build_scenario(ScenarioConfig.from_mapping(doc))


class TestEighBudget:
    def test_library_diagnostics_reuse_the_scenario_decomposition(self, monkeypatch):
        grid = np.linspace(0.0, 1.0, 5)
        pure = scenario({"scenario": "pure_point_omega", "params": {"dim": 6}, "taus": [20]})
        emb = scenario(
            {"scenario": "embedded_eigenvalue", "params": {"grid_points": 11}, "taus": [20]}
        )
        pure_run = evolve(pure.h_o, pure.path, 20.0, grid)
        emb_run = evolve(emb.h_o, emb.path, 20.0, grid)
        limit = omega_infinity(pure.h_o.decomposition, pure.path, grid)

        calls = {"eigh": 0, "decompositions": 0}
        eigh = np.linalg.eigh
        post_init = SpectralDecomposition.__post_init__

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counted_post_init(self):
            calls["decompositions"] += 1
            post_init(self)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(SpectralDecomposition, "__post_init__", counted_post_init)
        schrodinger_limit_distance(pure.h_o, pure_run, limit, pure.vectors, pure.path)
        offdiagonal_block_decay(pure.h_o, pure_run, -0.25, 0.25, 1.0, 0.0)
        embedded_eigenprojection_decay(emb.h_o, emb_run, 0.0, emb.vectors)
        assert calls == {"eigh": 0, "decompositions": 0}

    def test_sampler_paths_step_without_eigh(self, monkeypatch):
        grid = np.linspace(0.0, 1.0, 5)
        pure = scenario({"scenario": "pure_point_omega", "params": {"dim": 6}, "taus": [20]})
        emb = scenario(
            {"scenario": "embedded_eigenvalue", "params": {"grid_points": 11}, "taus": [20]}
        )
        # the default steps, passed explicitly so every run keeps the midpoint rule
        steps = [default_step(20.0, inst.h_o.norm(), inst.path.kappa) for inst in (pure, emb)]
        limit_step = default_step(1.0, 0.0, pure.path.kappa)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        runs = [
            evolve(pure.h_o, pure.path, 20.0, grid, step=steps[0]),
            evolve(emb.h_o, emb.path, 20.0, grid, step=steps[1]),
            omega_infinity(pure.h_o.decomposition, pure.path, grid, step=limit_step),
        ]
        assert all(r.scheme.endswith("midpoint-exponential") for r in runs)
        assert calls == []

    def test_magnus_filon_steps_without_eigh(self, monkeypatch):
        # H_o owns its decomposition from the build, and H_o = 0 needs none
        grid = np.linspace(0.0, 1.0, 5)
        pure = scenario({"scenario": "pure_point_omega", "params": {"dim": 6}, "taus": [20]})
        emb = scenario(
            {"scenario": "embedded_eigenvalue", "params": {"grid_points": 11}, "taus": [20]}
        )
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        runs = [
            evolve(pure.h_o, pure.path, 20.0, grid),
            evolve(emb.h_o, emb.path, 20.0, grid),
            omega_infinity(pure.h_o.decomposition, pure.path, grid),
            interaction_frame(pure.path, grid),
        ]
        assert [r.scheme for r in runs] == [
            "magnus-filon", "magnus-filon", "limit-magnus-filon", "frame-magnus-filon"
        ]
        assert calls == []


class TestTraceContract:
    def test_every_target_is_bound(self):
        for module_name, attr, _span, _counts in TRACING.TARGETS:
            assert callable(getattr(import_module(module_name), attr, None)), (module_name, attr)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_build_decomposes_once(self, name, monkeypatch):
        # The tracer times operators.decomp on this one call, so the build
        # must make it exactly once and the decomposition must be new there.
        calls = []
        real = slowdrive.scenarios.hermitian_eigendecomposition

        def counted(h, *args, **kwargs):
            calls.append((h, "decomposition" in vars(h)))
            return real(h, *args, **kwargs)

        monkeypatch.setattr(slowdrive.scenarios, "hermitian_eigendecomposition", counted)
        inst = scenario(WORKLOADS[name].make_config(0))
        assert len(calls) == 1
        h, already_built = calls[0]
        assert h is inst.h_o and not already_built


class TestOmegaOnlyForTheLimit:
    """Omega_tau is formed (through the sweep's comparison_family) only by
    schrodinger_limit; the projection metrics read the frames V† W V."""

    @staticmethod
    def count_comparisons(config, monkeypatch):
        calls = []
        real = slowdrive.sweeps.comparison_family

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(slowdrive.sweeps, "comparison_family", counted)
        result = run_sweep(dataclasses.replace(config, out_dir=None))
        assert result.all_pass
        return len(calls)

    def test_embedded_resolvent_config(self, monkeypatch):
        config = ScenarioConfig.from_file(ROOT / "configs" / "embedded_resolvent.json")
        assert "embedded_offblock" in config.metrics
        assert self.count_comparisons(config, monkeypatch) == 0

    def test_fermi_projection_metrics(self, monkeypatch):
        config = ScenarioConfig.from_mapping(
            {
                "scenario": "fermi_observable",
                "params": {"grid_points": 15, "multiplicity": 3},
                "taus": [10.0, 20.0],
                "s_grid": {"points": 5},
                "metrics": ["embedded_offblock", "offdiag_low_high", "offdiag_high_low"],
                "seed": 11,
            }
        )
        assert self.count_comparisons(config, monkeypatch) == 0

    def test_pure_point_limit_config(self, monkeypatch):
        config = ScenarioConfig.from_file(ROOT / "configs" / "pure_point_limit.json")
        assert self.count_comparisons(config, monkeypatch) == len(config.taus)


class TestFramesOnly:
    """A sweep reads each propagator's frames U = V† W V in the eigenbasis of
    H_o, where evolve stored them, and never forms W for a propagated
    metric: W would sit beside the frames, and the benchmark's peak_rss_mb
    would count both. A saved result still holds W, and loaded back (in the
    standard basis, so every metric rotates it on entry) it gives the values
    of the evolved one."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_sweep_never_forms_w(self, name, monkeypatch):
        evolved, formed = [], []
        real_evolve = slowdrive.sweeps.evolve
        unitaries = PropagatorResult.unitaries

        def recorded_evolve(*args, **kwargs):
            evolved.append(real_evolve(*args, **kwargs))
            return evolved[-1]

        def counted_unitaries(self):
            formed.append(self)
            return unitaries.func(self)

        monkeypatch.setattr(slowdrive.sweeps, "evolve", recorded_evolve)
        monkeypatch.setattr(PropagatorResult, "unitaries", property(counted_unitaries))
        config = ScenarioConfig.from_mapping(WORKLOADS[name].make_config(0))
        assert run_sweep(dataclasses.replace(config, out_dir=None)).all_pass
        assert len(evolved) == len(config.taus)
        assert not [r for r in formed if any(r is e for e in evolved)]

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": "fermi_observable", "params": {"grid_points": 15, "multiplicity": 3},
             "seed": 11, "metrics": [
                 "resolvent", "heisenberg_norm:fermi", "heisenberg_norm:filled_below_mu",
                 "heisenberg_sot:p_embedded", "embedded_offblock", "offdiag_low_high",
                 "offdiag_high_low"]},
            {"scenario": "pure_point_omega", "params": {"dim": 8, "degenerate_pairs": 2},
             "seed": 0, "metrics": ["schrodinger_limit", "heisenberg_norm:lower_half"]},
        ],
        ids=["fermi", "pure_point"],
    )
    def test_loaded_result_gives_the_evolved_values(self, doc, tmp_path, monkeypatch):
        config = ScenarioConfig.from_mapping(dict(doc, taus=[10.0, 20.0], s_grid={"points": 5}))
        real_evolve = slowdrive.sweeps.evolve
        loaded = []

        def through_a_file(*args, **kwargs):
            res = real_evolve(*args, **kwargs)
            path = tmp_path / f"run_{res.tau:g}.prop"
            res.save(path)
            # save rotates the frames for the file and keeps no W on the result
            assert "unitaries" not in vars(res)
            back = PropagatorResult.load(path)
            # the file holds W itself, and the loaded result holds it as is
            assert back.basis is None and np.array_equal(back.frames, res.unitaries)
            loaded.append(back)
            return back

        want = run_sweep(config).outcomes
        monkeypatch.setattr(slowdrive.sweeps, "evolve", through_a_file)
        got = run_sweep(config).outcomes
        assert len(loaded) == 2
        for w, g in zip(want, got):
            assert [(r.tau, r.s, r.vector_id) for r in g.rows] == [
                (r.tau, r.s, r.vector_id) for r in w.rows
            ]
            assert max(abs(a.value - b.value) for a, b in zip(g.rows, w.rows)) <= 1e-13


FERMI_SMALL = {
    "scenario": "fermi_observable",
    "params": {"grid_points": 15, "multiplicity": 3},
    "taus": [10.0, 20.0],
    "s_grid": {"points": 5},
    "seed": 11,
}


class TestNormMetricCosts:
    """The norm metrics take no full SVD, and the off-diagonal metrics form
    no projection."""

    def test_fermi_norm_metrics_take_no_dense_svd(self, monkeypatch):
        config = ScenarioConfig.from_mapping(dict(FERMI_SMALL, metrics=[
            "heisenberg_norm:filled_below_mu", "heisenberg_norm:fermi", "resolvent"]))
        calls = {"dense_svd": 0, "eigh": 0}
        dim = build_scenario(config).h_o.dim
        svd, eigh = np.linalg.svd, np.linalg.eigh

        def counted_svd(a, *args, **kwargs):
            calls["dense_svd"] += np.shape(a)[-2:] == (dim, dim)
            return svd(a, *args, **kwargs)

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        # np.linalg.norm(a, 2) calls svd through the module that defines it
        linalg = import_module(np.linalg.norm.__wrapped__.__module__)
        monkeypatch.setattr(linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        assert run_sweep(config).all_pass
        # the one eigh is the build's decomposition of H_o
        assert calls == {"dense_svd": 0, "eigh": 1}

    def test_offdiag_metrics_form_no_projection(self, monkeypatch):
        # every spectral projection is formed by SpectralDecomposition.compose;
        # counted after the build, a two-tau sweep forms none, where the dense
        # form P1 M P2 would form 8 (P1 and P2 per metric and tau)
        config = ScenarioConfig.from_mapping(
            dict(FERMI_SMALL, metrics=["offdiag_low_high", "offdiag_high_low"])
        )
        composed = []
        compose = SpectralDecomposition.compose
        build = slowdrive.sweeps.build_scenario

        def counted_compose(self, coefficients):
            composed.append(1)
            return compose(self, coefficients)

        def build_then_count(config):
            inst = build(config)
            composed.clear()
            return inst

        monkeypatch.setattr(SpectralDecomposition, "compose", counted_compose)
        monkeypatch.setattr(slowdrive.sweeps, "build_scenario", build_then_count)
        assert run_sweep(config).all_pass
        assert composed == []


class TestNormKernelsTool:
    TOOL = load_module(ROOT / "tools" / "norm_kernels.py")

    @pytest.mark.parametrize("dim", [6, 10])
    def test_every_route_matches_the_svd(self, dim):
        rows = self.TOOL.measure(dim, points=4, repeat=1)
        assert [r[0] for r in rows] == list(self.TOOL.ROUTES)
        for _route, svd_us, kernel_us, deviation in rows:
            assert svd_us > 0 and kernel_us > 0
            assert deviation <= 1e-12

    @pytest.mark.parametrize("dim", [6, 10])
    def test_drift_lies_between_the_svd_norm_and_sqrt_dim_times_it(self, dim):
        svd_us, drift_us, ratio = self.TOOL.measure_drift(dim, points=4, repeat=1)
        assert svd_us > 0 and drift_us > 0
        assert 1.0 <= ratio <= np.sqrt(dim)

    def test_prints_one_line_per_dim_and_route(self, capsys):
        assert self.TOOL.main(["--dims", "6,8", "--points", "3", "--repeat", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        routes = len(self.TOOL.ROUTES)
        assert len(lines) == 1 + 2 * routes + 1 + 2
        assert lines[0].split() == ["dim", "route", "svd_us", "kernel_us", "max_rel_dev"]
        assert lines[1 + 2 * routes].split() == [
            "dim", "route", "svd_us", "drift_us", "max_ratio", "sqrt_dim"
        ]
        assert [line.split()[:2] for line in lines[-2:]] == [["6", "drift"], ["8", "drift"]]


class TestParityTool:
    TOOL = load_module(ROOT / "tools" / "parity.py")

    @staticmethod
    def outputs(root, csv_text, timestamp):
        (root / "demo").mkdir(parents=True)
        (root / "demo" / "demo_metric.csv").write_text(csv_text)
        summary = {"scenario": "demo", "timestamp": timestamp, "results": []}
        (root / "demo" / "summary.json").write_text(json.dumps(summary))

    def test_compare(self, tmp_path, capsys):
        # the timestamp is ignored; one changed CSV byte is a difference
        a, b, c = (tmp_path / x for x in "abc")
        self.outputs(a, "scenario,metric\n1.5\n", "2026-01-01")
        self.outputs(b, "scenario,metric\n1.5\n", "2026-01-02")
        self.outputs(c, "scenario,metric\n1.6\n", "2026-01-01")
        assert self.TOOL.main(["compare", str(a), str(b)]) == 0
        assert capsys.readouterr().out == (
            "0 of 2 files differ; over all CSVs max abs deviation 0.000e+00, "
            "max rel deviation 0.000e+00\n"
        )
        assert self.TOOL.main(["compare", str(a), str(c)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: demo/demo_metric.csv",
            "  max abs deviation 1.000e-01, max rel deviation 6.250e-02",
            "1 of 2 files differ; over all CSVs max abs deviation 1.000e-01, "
            "max rel deviation 6.250e-02",
        ]

    def test_compare_reports_csv_deviations(self, tmp_path, capsys):
        # numeric fields give the largest deviations; the first differing
        # text field is named; a file that is byte-identical says nothing
        a, b = tmp_path / "a", tmp_path / "b"
        self.outputs(a, "s,vector_id,value\n0,g0,2.0\n0.5,g1,-1e-3\n", "t")
        self.outputs(b, "s,vector_id,value\n0,g0,2.0000001\n0.5,g2,-1.5e-3\n1,g3,0\n", "t")
        (a / "same.csv").write_text("x\n1\n")
        (b / "same.csv").write_text("x\n1\n")
        assert self.TOOL.main(["compare", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: demo/demo_metric.csv",
            "  max abs deviation 5.000e-04, max rel deviation 3.333e-01",
            "  first non-numeric difference: line 3: 'g1' != 'g2'",
            "1 of 3 files differ; over all CSVs max abs deviation 5.000e-04, "
            "max rel deviation 3.333e-01",
        ]

    def test_compare_counts_a_nan_as_an_infinite_deviation(self, tmp_path, capsys):
        # max() drops a NaN deviation, which would read as 0
        a, b = tmp_path / "a", tmp_path / "b"
        self.outputs(a, "s,value\n0,0.0\n0.5,0.5\n", "t")
        self.outputs(b, "s,value\n0,0.0\n0.5,nan\n", "t")
        assert self.TOOL.main(["compare", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: demo/demo_metric.csv",
            "  max abs deviation inf, max rel deviation inf",
            "1 of 2 files differ; over all CSVs max abs deviation inf, max rel deviation inf",
        ]

    def test_compare_reports_summary_deviations(self, tmp_path, capsys):
        # differing summary keys are named; propagation records give the
        # largest max_drift per side and whether scheme and steps match
        def record(tau, drift, steps=200):
            return {"tau": tau, "scheme": "magnus-filon", "steps": steps, "step": 0.005,
                    "max_drift": drift}

        a, b, c = (tmp_path / x for x in "abc")
        for root in (a, b, c):
            self.outputs(root, "x\n1\n", "t")
        summaries = {
            a: {"seed": 0, "propagation": [record(10.0, 2e-14), record(100.0, 3e-14)]},
            b: {"seed": 0, "propagation": [record(10.0, 2e-14), record(100.0, 1.25e-13)]},
            c: {"seed": 1, "propagation": [record(10.0, 2e-14), record(100.0, 3e-14, 201)]},
        }
        for root, doc in summaries.items():
            path = root / "demo" / "summary.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), **doc}))
        assert self.TOOL.main(["compare", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: demo/summary.json",
            "  differing keys: propagation",
            "  propagation: largest max_drift 3.000e-14 / 1.250e-13; scheme match, steps match",
            "1 of 2 files differ; over all CSVs max abs deviation 0.000e+00, "
            "max rel deviation 0.000e+00",
        ]
        assert self.TOOL.main(["compare", str(a), str(c)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: demo/summary.json",
            "  differing keys: propagation, seed",
            "  propagation: largest max_drift 3.000e-14 / 3.000e-14; scheme match, steps differ",
            "1 of 2 files differ; over all CSVs max abs deviation 0.000e+00, "
            "max rel deviation 0.000e+00",
        ]

    def test_compare_names_scheme_changes(self, tmp_path, capsys):
        # each record whose scheme differs gives its tau and both schemes
        def record(tau, scheme, steps):
            return {"tau": tau, "scheme": scheme, "steps": steps, "step": 0.0009,
                    "max_drift": 2e-14}

        a, b = tmp_path / "a", tmp_path / "b"
        schemes = {a: "midpoint-exponential", b: "magnus-filon"}
        for root, scheme in schemes.items():
            self.outputs(root, "x\n1\n", "t")
            path = root / "demo" / "summary.json"
            doc = {"propagation": [record(10.0, "magnus-filon", 200), record(31.6, scheme, 300)]}
            path.write_text(json.dumps({**json.loads(path.read_text()), **doc}))
        assert self.TOOL.main(["compare", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: demo/summary.json",
            "  differing keys: propagation",
            "  propagation: largest max_drift 2.000e-14 / 2.000e-14; scheme differ, steps match",
            "    tau 31.6: midpoint-exponential -> magnus-filon",
            "1 of 2 files differ; over all CSVs max abs deviation 0.000e+00, "
            "max rel deviation 0.000e+00",
        ]

    def test_lists_the_eight_parity_configs(self):
        names = list(self.TOOL.configs())
        assert names[:4] == [p.stem for p in sorted((ROOT / "configs").glob("*.json"))]
        assert sorted(names[4:]) == sorted(WORKLOADS)


class TestCodeLineCount:
    COUNTER = load_module(ROOT / "tools" / "count_code_lines.py")

    def test_docstring_module_counts_nothing(self, tmp_path):
        path = tmp_path / "doc.py"
        path.write_text('"""Only a docstring,\nover two lines."""\n\n# and a comment\n')
        assert self.COUNTER.code_lines(str(path)) == 0

    def test_statement_with_comment_counts_one(self, tmp_path):
        path = tmp_path / "one.py"
        path.write_text("x = 1  # c\n")
        assert self.COUNTER.code_lines(str(path)) == 1
