"""Output checks shared by the benchmark and the reference generator: per-tau
sups read back from a sweep's CSV files, CSV digests, verdicts from
``summary.json``, and the accuracy gate."""

from __future__ import annotations

import csv
import hashlib
import json
import os

from workloads import ABS_FLOOR


def csv_files(out_dir: str) -> list[str]:
    return sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))


def read_sups(out_dir: str) -> tuple[dict[str, dict[str, float]], int]:
    """{metric: {tau: sup over s and vectors}} and the number of data rows."""
    sups: dict[str, dict[str, float]] = {}
    rows = 0
    for name in csv_files(out_dir):
        with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                rows += 1
                per_tau = sups.setdefault(rec["metric"], {})
                value = float(rec["value"])
                if rec["tau"] not in per_tau or value > per_tau[rec["tau"]]:
                    per_tau[rec["tau"]] = value
    return sups, rows


def csv_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in csv_files(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def verdicts(out_dir: str) -> dict[str, str]:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return {r["metric"]: r["verdict"] for r in summary["results"]}


def max_relative_deviation(sups: dict, reference: dict) -> float:
    """Largest relative deviation of any per-tau sup from the reference; a
    (metric, tau) pair missing on either side counts as infinite."""
    keys = {(m, t) for m, per_tau in sups.items() for t in per_tau}
    ref_keys = {(m, t) for m, per_tau in reference.items() for t in per_tau}
    if keys != ref_keys:
        return float("inf")
    return max(
        abs(sups[m][t] - reference[m][t]) / max(abs(reference[m][t]), ABS_FLOOR)
        for m, t in ref_keys
    )
