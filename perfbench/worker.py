"""One workload in one fresh process: host probe, set-up builds and sweeps
with correctness checks, or (with ``--trace 1``) untraced and traced sweeps.

Started by ``run.py``; writes its record as JSON to ``--record``. BLAS
threads are pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import sys
import time

import numpy as np

from checks import csv_digests, max_relative_deviation, read_sups, verdicts
from tracing import Tracer, installed, self_seconds
from workloads import ACCURACY_TOL, WORKLOADS

from slowdrive import cli
from slowdrive.propagation import default_step
from slowdrive.scenarios import ScenarioConfig, build_scenario

PROBE_DIM = 64
PROBE_CALLS = 300
MIN_SWEEPS = 3
# No new sweep starts after this many seconds of measuring, so that a run
# ends well within its 180 s even when sweeps are far slower than today.
HARD_LIMIT_S = 100.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def host_probe() -> float:
    """Seconds for a fixed batch of dim-64 eigh calls: a host-speed record,
    never used to rescale a metric."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((PROBE_DIM, PROBE_DIM))
    a = a + a.T
    t0 = time.perf_counter()
    for _ in range(PROBE_CALLS):
        np.linalg.eigh(a)
    return time.perf_counter() - t0


def time_setup(cfg: str) -> float:
    t0 = time.perf_counter()
    build_scenario(ScenarioConfig.from_file(cfg))
    return time.perf_counter() - t0


def coarse_config(cfg: str, factor: float, work: str) -> tuple[str, float]:
    """A copy of the config with a fixed step of ``factor`` times the
    program's default step at the largest tau, used at every tau."""
    with open(cfg, encoding="utf-8") as fh:
        doc = json.load(fh)
    inst = build_scenario(ScenarioConfig.from_mapping(doc))
    doc["step"] = factor * default_step(max(doc["taus"]), inst.h_o.norm(), inst.path.kappa)
    path = os.path.join(work, "coarse.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path, doc["step"]


class Sweeper:
    """Runs ``slowdrive sweep`` in-process and checks every result: exit code,
    all-PASS verdicts, the accuracy gate, and identical CSVs across repeats."""

    def __init__(self, cfg: str, out_dir: str, metrics: list[str], reference: dict):
        self.cfg = cfg
        self.out_dir = out_dir
        self.metrics = metrics
        self.reference = reference
        self.digests: dict[str, str] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.max_rel_dev = 0.0
        self.csv_rows = 0
        self.summary_bytes = 0

    def run(self, tracer: Tracer | None = None) -> float | None:
        """One sweep; its wall time, or None when it failed."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        argv = ["sweep", self.cfg, "--out", self.out_dir]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.sweep():
                        rc = cli.main(argv)
                seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a raising sweep is counted, not fatal
            self.failures.append(f"raised {type(exc).__name__}: {exc}")
            return None
        problem = self._check(rc)
        if problem:
            self.failures.append(problem)
            return None
        return seconds

    def _check(self, rc: int) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = verdicts(self.out_dir)
        if sorted(got) != sorted(self.metrics) or set(got.values()) != {"PASS"}:
            return f"verdicts {got}"
        sups, self.csv_rows = read_sups(self.out_dir)
        self.summary_bytes = os.path.getsize(os.path.join(self.out_dir, "summary.json"))
        dev = max_relative_deviation(sups, self.reference)
        self.max_rel_dev = max(self.max_rel_dev, dev)
        if dev > ACCURACY_TOL:
            return f"sup deviation {dev:.3e} > {ACCURACY_TOL:.0e}"
        digests = csv_digests(self.out_dir)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            return "CSV bytes differ between repeats"
        return None


def layer_metrics(tracer: Tracer) -> list[dict]:
    """Per-layer figures for each traced sweep."""
    selfs = self_seconds(tracer.spans)
    per_sweep: dict[int, dict] = {}
    for s in tracer.spans:
        m = per_sweep.setdefault(s.sweep, {"eigh": 0, "time": {}, "self": {}, "counts": {}})
        m["eigh"] += s.eigh_calls
        m["time"][s.name] = m["time"].get(s.name, 0.0) + s.seconds
        m["self"][s.name] = m["self"].get(s.name, 0.0) + selfs[s.id]
        for key, value in s.counts.items():
            bucket = m["counts"].setdefault(f"{s.name}.{key}", [])
            bucket.append(value)
    out = []
    for m in per_sweep.values():
        t, c = m["time"], m["counts"]

        def tot(name):
            return t.get(name, 0.0)

        steps = sum(c.get("propagation.evolve.steps", []))
        figures = {
            "scenarios.build_s": tot("scenarios.build"),
            "operators.decomp_s": tot("operators.decomp"),
            "operators.levels": max(c.get("operators.decomp.levels", [0])),
            "spectral.projection_s": tot("spectral.projection"),
            "propagation.evolve_s": tot("propagation.evolve"),
            "propagation.steps": steps,
            "propagation.us_per_step": 1e6 * tot("propagation.evolve") / steps if steps else 0.0,
            "propagation.max_drift": max(c.get("propagation.evolve.max_drift", [0.0])),
            "propagation.comparison_family_s": tot("propagation.comparison_family"),
            "propagation.omega_inf_s": tot("propagation.omega_inf"),
            "linalg.eigh_calls": m["eigh"],
            "diagnostics.heisenberg_norm_s": tot("diagnostics.heisenberg_norm"),
            "diagnostics.heisenberg_sot_s": tot("diagnostics.heisenberg_sot"),
            "diagnostics.resolvent_s": tot("diagnostics.resolvent"),
            "diagnostics.offdiag_s": tot("diagnostics.offdiag"),
            "diagnostics.rate_fit_s": tot("diagnostics.rate_fit"),
            "diagnostics.csv_s": tot("diagnostics.csv"),
            "diagnostics.csv_rows": sum(c.get("diagnostics.csv.rows", [])),
            "diagnostics.csv_bytes": sum(c.get("diagnostics.csv.bytes", [])),
            "sweeps.self_s": m["self"].get("sweeps.run_sweep", 0.0),
            "cli.self_s": m["self"].get("cli.main", 0.0),
        }
        # Disjoint shares of the traced sweep, for the dominant-layer check.
        metrics_time = (
            tot("sweeps.run_sweep")
            - tot("scenarios.build")
            - tot("propagation.evolve")
            - tot("propagation.omega_inf")
            - tot("diagnostics.csv")
        )
        groups = {
            "operators.decomp": tot("operators.decomp"),
            "scenarios.build_rest": tot("scenarios.build") - tot("operators.decomp"),
            "propagation.evolve": tot("propagation.evolve"),
            "propagation.omega_inf": tot("propagation.omega_inf"),
            "metrics": metrics_time,
            "output": tot("diagnostics.csv"),
            "cli": m["self"].get("cli.main", 0.0),
        }
        out.append({"figures": figures, "groups": groups})
    return out


def dominant(groups: dict[str, float], expected: tuple[str, ...]) -> dict:
    total = sum(groups.values())
    shares = {k: v / total for k, v in groups.items()}
    ours = sum(shares[k] for k in expected)
    others = max(v for k, v in shares.items() if k not in expected)
    return {"shares": shares, "expected": list(expected), "ok": ours > others}


def measure(sweeper: Sweeper, seconds: float, tracer: Tracer | None):
    """Sweep for ``seconds`` (at least MIN_SWEEPS timings of each kind).
    Without a tracer, each sweep is preceded by one timed scenario build, so
    set-up and sweeps are sampled over the same stretch of host time; with a
    tracer, untraced and traced sweeps alternate. No round starts that would
    end past ``seconds`` by the median round so far. Returns the wall times
    of the set-up builds, the untraced and the traced sweeps that passed."""
    setup: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    rounds: list[float] = []
    start = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S:
            return False
        if len(untraced) < MIN_SWEEPS or (tracer is not None and len(traced) < MIN_SWEEPS):
            return True
        return elapsed + statistics.median(rounds) <= seconds

    while more():
        t0 = time.perf_counter()
        if tracer is not None and len(traced) < len(untraced):
            with installed(tracer):
                took = sweeper.run(tracer)
            target = traced
        else:
            if tracer is None:
                setup.append(time_setup(sweeper.cfg))
            took = sweeper.run()
            target = untraced
        rounds.append(time.perf_counter() - t0)
        if took is not None:
            target.append(took)
        elif len(sweeper.failures) > 2 * MIN_SWEEPS:
            break
    return setup, untraced, traced


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--config", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reference", required=True, help="JSON file of reference per-tau sups")
    p.add_argument("--once", action="store_true", help="one checked sweep, no timing")
    p.add_argument("--step-factor", type=float,
                   help="with --once: sweep at this multiple of the default step at the largest tau")
    p.add_argument("--record", required=True)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    with open(args.config, encoding="utf-8") as fh:
        metrics = json.load(fh)["metrics"]
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    record: dict = {"workload": wl.name, "why": wl.why, "environment": environment()}
    cfg = args.config
    if args.step_factor is not None:
        cfg, record["step"] = coarse_config(cfg, args.step_factor, args.work)
    sweeper = Sweeper(cfg, os.path.join(args.work, "out"), metrics, reference)

    if args.once:
        sweeper.run()
    else:
        record["probe_s"] = host_probe()
        sweeper.run()  # warm-up, discarded
        tracer = Tracer() if args.trace else None
        setup, untraced, traced = measure(sweeper, args.seconds, tracer)
        if not args.trace:
            record["setup_samples_s"] = setup
        record["sweep_samples_s"] = untraced
        record["probe_after_s"] = host_probe()
        if tracer is not None:
            layers = layer_metrics(tracer)
            record["traced_sweep_samples_s"] = traced
            record["layers"] = layers
            if layers:
                groups = {k: statistics.median(x["groups"][k] for x in layers)
                          for k in layers[0]["groups"]}
                record["dominant"] = dominant(groups, wl.dominant)
            spans_path = os.path.splitext(args.record)[0] + "-spans.json"
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.to_json(), fh)

    record.update(
        attempted=sweeper.attempted,
        failures=sweeper.failures,
        sup_max_rel_dev=sweeper.max_rel_dev,
        csv_rows=sweeper.csv_rows,
        summary_bytes=sweeper.summary_bytes,
        csv_digests=sweeper.digests,
    )
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
