"""Output parity of slowdrive sweeps between two versions of the code.

``run OUT`` sweeps the four ``configs/*.json`` and the seed-0 config of each
workload in ``perfbench/workloads.py`` (read, never modified) with whichever
slowdrive is on the import path. Each config's CSVs and ``summary.json`` go
to ``OUT/<name>/``, and one line per config gives its exit code.

``compare A B`` checks every CSV under the two directories byte for byte and
every ``summary.json`` without its ``timestamp``. It prints one line per file
that differs or exists on one side only, and exits 1 if there is any such
file, else 0.

Usage: PYTHONPATH=src python tools/parity.py run OUT
       python tools/parity.py compare A B
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
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
    for name, config in configs().items():
        target = out / name
        target.mkdir(parents=True, exist_ok=True)
        path = target / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = slowdrive_main(["sweep", str(path), "--out", str(target)])
        print(f"{name} exit {code}")
    return 0


def _summary(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("timestamp", None)
    return doc


def compare(a: Path, b: Path) -> int:
    def outputs(root: Path) -> set[Path]:
        return {
            p.relative_to(root)
            for p in root.rglob("*")
            if p.suffix == ".csv" or p.name == "summary.json"
        }

    files = sorted(outputs(a) | outputs(b))
    differing = 0
    for rel in files:
        left, right = a / rel, b / rel
        if not (left.exists() and right.exists()):
            line = f"only in {a if left.exists() else b}: {rel}"
        elif rel.name == "summary.json":
            line = None if _summary(left) == _summary(right) else f"differs: {rel}"
        else:
            line = None if left.read_bytes() == right.read_bytes() else f"differs: {rel}"
        if line is not None:
            differing += 1
            print(line)
    print(f"{differing} of {len(files)} files differ")
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
