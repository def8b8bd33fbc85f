"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-serial --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` gives the per-layer metrics of a traced run.  Every metric
is printed by name with its unit, then the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The full record (host block, extras, errors) is written to
``perfbench/results/``; a traced run also writes its spans there.

The program is imported from ``src/`` of the checkout the script lives
in; without it the script exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads are pinned before numpy loads: one client process, one
#: core's worth of BLAS, no oversubscription against process executors.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    from harness import run_workload
    from workloads import PAPER, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), PAPER,
        results_dir=results_dir, root=ROOT,
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    host = record["host"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    for name, value in record["metrics"].items():
        print(f"  {name:36s} {value:14.6g} {record['units'][name]}")
    extra = record["extra"]
    if not args.trace:
        print(f"  {'unit_s.tail percentile':36s} {extra['unit_s.tail_percentile']:14.6g} "
              f"(of {extra['units']} units, 10 beyond)")
        print(f"  {'error_rate':36s} {extra['error_rate']:14.6g} frac")
        if "attack_rate_drop" in extra:
            print(f"  {'attack_rate_drop':36s} {extra['attack_rate_drop']:14.6g} frac")
    print(f"  outcome digest {extra['outcome_digest']}  ({extra['units']} units)")
    for error in record["errors"][:10]:
        print(f"  ERROR {error}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": record["units"][name]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
