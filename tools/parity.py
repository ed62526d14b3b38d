"""Output parity of slowdrive sweeps between two versions of the code.

``run OUT`` sweeps the four ``configs/*.json`` and the seed-0 config of each
workload in ``perfbench/workloads.py`` (read, never modified) with whichever
slowdrive is on the import path. Each config's CSVs and ``summary.json`` go
to ``OUT/<name>/``, and one line per config gives its exit code. It runs
every config and then exits 1 if any of them exited non-zero, else 0.

``compare A B`` checks every CSV under the two directories byte for byte and
every ``summary.json`` without its ``timestamp``. It prints one line per file
that differs or exists on one side only, and exits 1 if there is any such
file, else 0. Under a differing CSV it prints the largest absolute and
relative deviation over the fields that parse as numbers on both sides (a
field that differs and is NaN on either side counts as an infinite
deviation), and the first other field that differs, if any. Under a differing
``summary.json`` it prints the top-level keys that differ and, when the
``propagation`` records differ, the largest ``max_drift`` on each side,
whether the ``scheme`` and ``steps`` of every record match, and one line
``tau <tau>: <old scheme> -> <new scheme>`` per record whose scheme differs
(a record on one side only reads as None). The final line
counts the differing files and gives the largest absolute and relative
deviation over all CSVs.

Usage: PYTHONPATH=src python tools/parity.py run OUT
       python tools/parity.py compare A B
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads() -> dict:
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def configs() -> dict[str, dict]:
    """Every parity config by name: the demo configs, then the workloads."""
    found = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}
    found.update((name, w.make_config(0)) for name, w in sorted(_workloads().items()))
    return found


def run(out: Path) -> int:
    import slowdrive
    from slowdrive.cli import main as slowdrive_main

    print(f"slowdrive from {Path(slowdrive.__file__).parent}")
    failed = False
    for name, config in configs().items():
        target = out / name
        target.mkdir(parents=True, exist_ok=True)
        path = target / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = slowdrive_main(["sweep", str(path), "--out", str(target)])
        print(f"{name} exit {code}")
        failed = failed or code != 0
    return 1 if failed else 0


def _summary(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("timestamp", None)
    return doc


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _csv_deviations(left: Path, right: Path) -> tuple[float, float, list[str]]:
    """How two CSVs differ field by field: the largest absolute and relative
    (to the larger magnitude) deviation over the fields that are numbers on
    both sides, and the line naming the first other differing field, if any
    (a missing row or field reads as empty)."""
    rows = [list(csv.reader(p.read_text().splitlines())) for p in (left, right)]
    worst_abs = worst_rel = 0.0
    other = []
    for i, (row_a, row_b) in enumerate(itertools.zip_longest(*rows, fillvalue=[]), start=1):
        for x, y in itertools.zip_longest(row_a, row_b, fillvalue=""):
            u, v = _number(x), _number(y)
            if u is None or v is None:
                if x != y and not other:
                    other = [f"  first non-numeric difference: line {i}: {x!r} != {y!r}"]
            elif x != y and u != v:
                worst_abs = _worse(worst_abs, abs(u - v))
                worst_rel = _worse(worst_rel, abs(u - v) / max(abs(u), abs(v)))
    return worst_abs, worst_rel, other


def _worse(worst: float, deviation: float) -> float:
    """The larger of the two, with a NaN deviation (a NaN field, or inf
    against inf) counted as infinite: max() would drop it."""
    return math.inf if math.isnan(deviation) else max(worst, deviation)


def _deviation(worst_abs: float, worst_rel: float) -> str:
    return f"max abs deviation {worst_abs:.3e}, max rel deviation {worst_rel:.3e}"


def _summary_deviations(left: Path, right: Path) -> list[str]:
    """How two summaries differ: the top-level keys whose values differ (a
    key on one side only included) and, if the ``propagation`` records
    differ, their largest ``max_drift`` per side, whether ``scheme`` and
    ``steps`` match record by record, and each record whose scheme differs.
    Empty when the summaries are equal."""
    docs = _summary(left), _summary(right)
    keys = sorted(k for k in docs[0].keys() | docs[1].keys() if docs[0].get(k) != docs[1].get(k))
    if not keys:
        return []
    lines = [f"  differing keys: {', '.join(keys)}"]
    if "propagation" in keys:
        records = [doc.get("propagation", []) for doc in docs]
        drifts = [max((r["max_drift"] for r in rs), default=0.0) for rs in records]
        match = [
            "match" if [r.get(k) for r in records[0]] == [r.get(k) for r in records[1]] else "differ"
            for k in ("scheme", "steps")
        ]
        lines.append(
            f"  propagation: largest max_drift {drifts[0]:.3e} / {drifts[1]:.3e}; "
            f"scheme {match[0]}, steps {match[1]}"
        )
        lines.extend(
            f"    tau {(old or new)['tau']}: {old.get('scheme')} -> {new.get('scheme')}"
            for old, new in itertools.zip_longest(*records, fillvalue={})
            if old.get("scheme") != new.get("scheme")
        )
    return lines


def compare(a: Path, b: Path) -> int:
    def outputs(root: Path) -> set[Path]:
        return {
            p.relative_to(root)
            for p in root.rglob("*")
            if p.suffix == ".csv" or p.name == "summary.json"
        }

    files = sorted(outputs(a) | outputs(b))
    differing = 0
    worst_abs = worst_rel = 0.0
    for rel in files:
        left, right = a / rel, b / rel
        if not (left.exists() and right.exists()):
            line = f"only in {a if left.exists() else b}: {rel}"
        elif rel.name == "summary.json":
            deviations = _summary_deviations(left, right)
            line = "\n".join([f"differs: {rel}", *deviations]) if deviations else None
        elif left.read_bytes() != right.read_bytes():
            dev_abs, dev_rel, other = _csv_deviations(left, right)
            worst_abs, worst_rel = max(worst_abs, dev_abs), max(worst_rel, dev_rel)
            line = "\n".join([f"differs: {rel}", f"  {_deviation(dev_abs, dev_rel)}", *other])
        else:
            line = None
        if line is not None:
            differing += 1
            print(line)
    overall = _deviation(worst_abs, worst_rel)
    print(f"{differing} of {len(files)} files differ; over all CSVs {overall}")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("out", type=Path)
    cmp = sub.add_parser("compare")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
