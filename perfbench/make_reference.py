"""Regenerate the fine-step reference sups used by the accuracy gate.

    python3 perfbench/make_reference.py

For every workload and every draw of the seed pool this

1. runs the benchmark's own config at the default step and requires exit
   code 0 (all verdicts PASS);
2. runs each tau on its own at the program's default step for that tau
   divided by ``REFERENCE_REFINE``, and stores the per-tau sup of every metric;
3. records how far the default-step sups sit from that reference.

Writes ``perfbench/reference/<workload>.json``. Draws run in parallel, one
single-BLAS-thread process per usable CPU. Takes several minutes.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import io
import json
import multiprocessing
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import max_relative_deviation, read_sups  # noqa: E402
from workloads import POOL, REFERENCE_REFINE, WORKLOADS  # noqa: E402

# Checks that reference a particular tau or pair of taus; a single-tau
# reference sweep drops them (it is read for its values only).
_CHECK_KEYS = {"floor", "ceiling", "decay_factor"}


def _sweep(doc: dict, work: str, tag: str) -> tuple[int, str]:
    from slowdrive import cli

    out_dir = os.path.join(work, tag)
    cfg = os.path.join(work, f"{tag}.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["sweep", cfg, "--out", out_dir])
    return rc, out_dir


def _draw(task: tuple[str, int]) -> tuple[str, int, dict]:
    from slowdrive.propagation import default_step
    from slowdrive.scenarios import ScenarioConfig, build_scenario

    name, k = task
    wl = WORKLOADS[name]
    doc = wl.make_config(k)
    inst = build_scenario(ScenarioConfig.from_mapping(doc))
    h_norm, kappa = inst.h_o.norm(), inst.path.kappa
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as work:
        rc, out_dir = _sweep(doc, work, "default")
        if rc != 0:
            raise RuntimeError(f"{name} draw {k}: default sweep exited {rc}")
        default_sups, _ = read_sups(out_dir)
        params = {
            m: {key: v for key, v in p.items() if key not in _CHECK_KEYS}
            for m, p in doc["metric_params"].items()
        }
        reference: dict[str, dict[str, float]] = {}
        for i, tau in enumerate(doc["taus"]):
            step = default_step(tau, h_norm, kappa) / REFERENCE_REFINE
            single = dict(doc, taus=[tau], step=step, metric_params=params)
            rc, out_dir = _sweep(single, work, f"ref{i}")
            if rc != 0:
                raise RuntimeError(f"{name} draw {k}: reference sweep tau={tau} exited {rc}")
            sups, _ = read_sups(out_dir)
            for metric, per_tau in sups.items():
                reference.setdefault(metric, {}).update(per_tau)
    return name, k, {
        "config_seed": doc["seed"],
        "sups": reference,
        "default_step_max_rel_dev": max_relative_deviation(default_sups, reference),
    }


def main() -> int:
    names = sorted(WORKLOADS)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    tasks = [(name, k) for name in names for k in range(POOL)]
    ctx = multiprocessing.get_context("spawn")
    results: dict[str, dict] = {name: {} for name in names}
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for name, k, rec in pool.imap_unordered(_draw, tasks):
            results[name][str(k)] = rec
            print(f"{name} draw {k}: default-step dev {rec['default_step_max_rel_dev']:.2e}",
                  flush=True)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name, draws in results.items():
        doc = {
            "workload": name,
            "refine": REFERENCE_REFINE,
            "draws": {str(k): draws[str(k)] for k in range(POOL)},
        }
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
