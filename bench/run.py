#!/usr/bin/env python3
"""Benchmark of the sixjvol package.

    python3 bench/run.py --workload scan|geometry|cold --seed N
                         --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, not
from an installed copy.  With --trace 0 the last line of standard output
is a JSON object whose metrics are the end-to-end metrics named in
BENCHMARK.json; with --trace 1 they are the per-layer metrics.  The
lines before it are a run report: the figures by name and unit, the
failures by reason, the seed, the source revision and the versions of
the interpreter and libraries.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("scan", "geometry", "cold")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, names and contents."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sixjvol").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "mpmath": version("mpmath"),
    }


def declared(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sixjvol" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sixjvol'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    units = declared("per_layer" if args.trace else "end_to_end")
    if args.trace:
        res = workloads.run_traced(args.workload, args.seed, args.seconds)
        values = res.layers
    else:
        res = workloads.run_untraced(args.workload, args.seed, args.seconds)
        values = res.e2e
    if set(values) != set(units):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 3

    ledger = res.ledger
    for name, (value, unit) in res.figures.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# attempted {ledger.attempted}, failed {ledger.n_failed}: "
          f"{dict(ledger.failed)}")
    print(f"# known defects, not failures (bench/checks.py KNOWN): "
          f"{dict(ledger.known)}")
    print("# report " + json.dumps({
        "environment": environment(args), "notes": res.notes,
        "failed": dict(ledger.failed), "wrong": dict(ledger.wrong),
        "known": dict(ledger.known),
        "values": {"requested": ledger.requested,
                   "returned": ledger.returned}},
        default=str))
    print(json.dumps({
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.n_failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
