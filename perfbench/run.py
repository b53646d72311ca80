"""The repository's benchmark: churn, long-key, rollback and detection workloads.

Run one workload:

    python3 perfbench/run.py --workload churn_16k --seed 1 --seconds 20 --trace 0

or every workload, each in a fresh process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload prints its metrics by name and unit (and whether a timing is
raw or corrected to the nominal host speed), then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The program is imported from ``src`` next to this directory
and nowhere else; without it the run exits with code 2.  A failed output
check prints ``correct: false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# one thread per workload process, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("churn_16k", "churn_longkey", "churn_attacked", "detect")


def _import_program():
    """Import qgka from this checkout's ``src`` only."""
    if not os.path.isfile(os.path.join(SRC, "qgka", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qgka

    if os.path.dirname(os.path.dirname(os.path.abspath(qgka.__file__))) != SRC:
        print(f"perfbench: qgka imported from {qgka.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _fmt(name: str, value, unit: str) -> str:
    if hasattr(value, "raw"):
        return (
            f"  {name:<30} {value.value:>12.4f} {unit:<7} (corrected; raw {value.raw:.4f})"
        )
    return f"  {name:<30} {value:>12.4f} {unit}"


def _metrics(table: dict) -> dict:
    return {
        name: {"value": getattr(v, "value", v), "unit": unit}
        for name, (v, unit) in table.items()
    }


def _detail(table: dict) -> dict:
    out = {}
    for name, (v, unit) in table.items():
        if hasattr(v, "raw"):
            out[name] = {"raw": v.raw, "corrected": v.corrected, "used": "corrected", "unit": unit}
        else:
            out[name] = {"raw": v, "corrected": v, "used": "exact", "unit": unit}
    return out


def run_one(args) -> int:
    _import_program()
    import checks
    import workloads

    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    except checks.CheckError as err:
        print(f"perfbench: check failed on {args.workload}: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    print(f"workload {result.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  attempted {result.attempted}  failed {result.failed}  aborted {result.aborted}")
    if args.trace:
        print("  end to end, with tracing part of the run (not the metric figures):")
    for name, (value, unit) in result.printed.items():
        print(_fmt(name, value, unit))
    if args.trace:
        print("  per layer (traced phase):")
        for name, (value, unit) in result.per_layer.items():
            print(_fmt(name, value, unit))
    table = result.per_layer if args.trace else result.end_to_end
    record = {
        "workload": result.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result.attempted,
        "aborted": result.aborted,
        "metrics": _detail(result.end_to_end),
        "printed": _detail(result.printed),
        "per_layer": _detail(result.per_layer),
        "detail": result.detail,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{result.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print("detail " + json.dumps({"metrics": _detail(table), "aborted": result.aborted}))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": _metrics(table),
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, timeout=600)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
