"""slowdrive sweep benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --gate-self-check [--seed N]

Runs from the root of a slowdrive source tree (the program is imported from
``src/``). Each run generates the workload's config from the seed, then runs
it in one fresh child process with one BLAS thread: a host-speed probe, a
discarded warm-up sweep, then for ``--seconds`` seconds rounds of one timed
scenario build and one ``slowdrive sweep``. ``setup_s`` is the median build
and ``sweep_s`` the mean sweep over the run. Every sweep is
checked: exit code 0, all verdicts PASS, per-tau sups within
``ACCURACY_TOL`` of the stored fine-step reference, and CSV bytes identical
across repeats. ``--trace 1`` alternates untraced and traced sweeps and
reports the per-layer figures instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The full record (environment, probe, samples, spans) is written under
``.perfbench_out/``.

``--gate-self-check`` shows the accuracy gate at work on
``embedded_long_tau``: the default step and a fixed step of 10x the default
step at the largest tau pass; 100x it is counted as failed.
"""

from __future__ import annotations

import os

INHERITED_OPENBLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

from workloads import ACCURACY_TOL, POOL, WORKLOADS  # noqa: E402

# A run must end within 180 s; the child gets what is left of this.
RUN_LIMIT_S = 170.0


def _declared_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _reference(name: str, seed: int, config_seed: int) -> dict:
    with open(os.path.join(HERE, "reference", f"{name}.json"), encoding="utf-8") as fh:
        draw = json.load(fh)["draws"][str(seed % POOL)]
    if draw["config_seed"] != config_seed:
        raise SystemExit(f"reference for {name} was made for seed {draw['config_seed']}")
    return draw["sups"]


def _run_worker(name: str, doc: dict, reference: dict, work: str, record: str,
                seconds: float, trace: int, once: bool, deadline: float,
                step_factor: float | None = None) -> dict | None:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name,
        "--config", _write_json(os.path.join(work, "config.json"), doc),
        "--reference", _write_json(os.path.join(work, "reference.json"), reference),
        "--work", work,
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--record", record,
    ]
    if once:
        argv.append("--once")
    if step_factor is not None:
        argv += ["--step-factor", str(step_factor)]
    try:
        proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: {name} worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {name} worker exited {proc.returncode}", file=sys.stderr)
        return None
    with open(record, encoding="utf-8") as fh:
        return json.load(fh)


def _median_figures(layers: list[dict]) -> dict[str, float]:
    names = layers[0]["figures"]
    return {k: statistics.median(x["figures"][k] for x in layers) for k in names}


def _metrics(rec: dict, trace: int) -> dict[str, float]:
    # Sweep times are averaged, not taken as a median: a shared host can
    # switch between a fast and a ~1.5x slower speed for seconds at a time,
    # and the median of one run's sweeps then jumps to whichever speed held
    # most of the run, while the mean moves in proportion to the time spent
    # slow.
    if not trace:
        return {
            "sweep_s": statistics.fmean(rec["sweep_samples_s"]),
            "setup_s": statistics.median(rec["setup_samples_s"]),
            # ru_maxrss is in KiB on Linux: the largest child reaped so far,
            # and this process reaps exactly one.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    figures = _median_figures(rec["layers"])
    figures["diagnostics.sup_max_rel_dev"] = rec["sup_max_rel_dev"]
    figures["sweeps.summary_bytes"] = rec["summary_bytes"]
    figures["bench.tracing_overhead_s"] = statistics.fmean(
        rec["traced_sweep_samples_s"]
    ) - statistics.fmean(rec["sweep_samples_s"])
    return figures


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    started = time.monotonic()
    wl = WORKLOADS[name]
    units = _declared_units(trace)
    doc = wl.make_config(seed)
    reference = _reference(name, seed, doc["seed"])
    record_path = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json")
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        rec = _run_worker(name, doc, reference, work, record_path, seconds, trace,
                          once=False, deadline=started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rec is None:
        return 1
    if not rec["sweep_samples_s"] or (trace and not rec["traced_sweep_samples_s"]):
        print(f"error: no sweep of {name} succeeded: {rec['failures'][:3]}", file=sys.stderr)
        return 1
    metrics = _metrics(rec, trace)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": not rec["failures"],
        "attempted": rec["attempted"],
        "failed": len(rec["failures"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    rec["seed"], rec["config"], rec["result"] = seed, doc, result
    rec["environment"]["OPENBLAS_NUM_THREADS_inherited"] = INHERITED_OPENBLAS_THREADS
    _write_json(record_path, rec)

    env = rec["environment"]
    print(f"# {name} seed={seed} (config seed {doc['seed']}): {wl.why}")
    print(f"# python {env['python']} numpy {env['numpy']} blas {env['blas']} "
          f"nproc {env['nproc']} cpu '{env['cpu_model']}' "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}")
    sweeps = rec["sweep_samples_s"]
    print(f"# host probe {rec['probe_s']:.4f} s before, {rec['probe_after_s']:.4f} s after; "
          f"untraced sweeps: {len(sweeps)}, mean {statistics.fmean(sweeps):.4f} s, "
          f"median {statistics.median(sweeps):.4f} s, max {max(sweeps):.4f} s"
          + (f"; traced sweeps: {len(rec['traced_sweep_samples_s'])}" if trace else ""))
    for failure in rec["failures"]:
        print(f"# FAILED: {failure}")
    if trace and rec.get("dominant"):
        dom = rec["dominant"]
        shares = ", ".join(f"{k} {v:.0%}" for k, v in sorted(dom["shares"].items(),
                                                              key=lambda kv: -kv[1]))
        print(f"# shares: {shares}; expected dominant {dom['expected']}: "
              f"{'confirmed' if dom['ok'] else 'NOT confirmed'}")
    for k, v in result["metrics"].items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


def gate_self_check(seed: int) -> int:
    """One checked sweep each at the default step and at a fixed step of 10x
    and 100x the default step at the largest tau (used at every tau)."""
    started = time.monotonic()
    name = "embedded_long_tau"
    doc = WORKLOADS[name].make_config(seed)
    reference = _reference(name, seed, doc["seed"])
    expected = {None: True, 10: True, 100: False}
    ok = True
    for factor, should_pass in expected.items():
        work = tempfile.mkdtemp(prefix="gate-", dir=OUT)
        try:
            rec = _run_worker(name, doc, reference, work, os.path.join(work, "record.json"),
                              0.0, 0, once=True, deadline=started + RUN_LIMIT_S,
                              step_factor=factor)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if rec is None:
            return 1
        passed = not rec["failures"]
        label = ("default step" if factor is None else
                 f"step {rec['step']:.3g} ({factor}x the default at tau={max(doc['taus']):.3g})")
        print(f"{label}: sup_max_rel_dev {rec['sup_max_rel_dev']:.3e} "
              f"(tol {ACCURACY_TOL:.0e}) -> {'passed' if passed else 'counted as failed'}"
              + (f" [{'; '.join(rec['failures'])}]" if rec["failures"] else ""))
        ok &= passed == should_pass
    print("gate self-check " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="slowdrive sweep benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--gate-self-check", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slowdrive", "__init__.py")):
        print(f"error: no slowdrive sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.gate_self_check:
        return gate_self_check(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
