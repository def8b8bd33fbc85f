"""Multi-core scaling of shared-codebook fuzzing across ProcessExecutor.

Measures how one campaign — a K-member shared-codebook ensemble over a
rematerialized codebook — scales across
:class:`~repro.fuzz.executor.ProcessExecutor` worker counts, against the
single-process :class:`~repro.fuzz.executor.BatchedExecutor` baseline,
and records the broadcast cost each worker pays (the pickled target: a
rematerialized model ships a 64-bit seed where a materialized one ships
the ``(rows, D)`` codebook arrays).

The numbers motivated the defaults in
:func:`repro.fuzz.executor.default_pool_policy`: pools sized past
``n_inputs // MIN_INPUTS_PER_WORKER`` spend more wall-clock on process
start-up and broadcast than they recover, so small campaigns get small
pools.  Timing is reported, not asserted (CI core counts vary);
what *is* asserted is the executors' outcome contract — per-input
outcomes identical across every worker count and equal to the batched
baseline — plus the policy's sizing properties and the broadcast-bytes
ordering.

Run under pytest (paper scale)::

    pytest benchmarks/bench_executor_scaling.py --benchmark-only -s

or standalone for a quick smoke reading (used by CI)::

    python benchmarks/bench_executor_scaling.py --quick
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro.fuzz import BatchedExecutor, HDTestConfig, ProcessExecutor
from repro.fuzz.executor import (
    DEFAULT_BATCH_SIZE,
    MIN_INPUTS_PER_WORKER,
    default_pool_policy,
)
from repro.fuzz.oracle import CrossModelOracle
from repro.obs import CampaignTelemetry
from repro.utils import usable_cores

PAPER_DIMENSION = 10_000
SEED = 42
K_MEMBERS = 3
N_TRAIN = 300
FUZZ_INPUTS = 16
FUZZ_ITERS = 10


def _worker_counts() -> list[int]:
    cores = usable_cores()
    counts = [1]
    if cores >= 2:
        counts.append(2)
    if cores >= 4:
        counts.append(min(4, cores - 1))
    return counts


def _outcome_key(result):
    return [(o.success, o.iterations, o.reference_label) for o in result.outcomes]


def run_scaling(dimension, n_train, *, fuzz_iters=FUZZ_ITERS,
                n_inputs=FUZZ_INPUTS, seed=SEED):
    """Time the same campaign across executors; returns a result dict."""
    from bench_shared_codebook import build_shared_pair

    remat, materialized, images = build_shared_pair(
        dimension, n_train, k=K_MEMBERS, seed=seed
    )
    cfg = HDTestConfig(iter_times=fuzz_iters)
    inputs = list(images[:n_inputs])
    oracle = CrossModelOracle()

    timings: dict[str, float] = {}
    keys: dict[str, list] = {}

    start = time.perf_counter()
    batched = BatchedExecutor().run(
        remat, "gauss", inputs, config=cfg, oracle=oracle, rng=seed,
        telemetry=CampaignTelemetry(),
    )
    timings["batched"] = time.perf_counter() - start
    keys["batched"] = _outcome_key(batched)

    for workers in _worker_counts():
        with ProcessExecutor(n_workers=workers) as pool:
            start = time.perf_counter()
            result = pool.run(
                remat, "gauss", inputs, config=cfg, oracle=oracle, rng=seed
            )
            timings[f"process_w{workers}"] = time.perf_counter() - start
            keys[f"process_w{workers}"] = _outcome_key(result)

    # Policy-sized pool: whatever default_pool_policy grants this campaign.
    with ProcessExecutor() as pool:
        start = time.perf_counter()
        result = pool.run(
            remat, "gauss", inputs, config=cfg, oracle=oracle, rng=seed,
            telemetry=CampaignTelemetry(),
        )
        timings["process_policy"] = time.perf_counter() - start
        keys["process_policy"] = _outcome_key(result)
    policy_workers, policy_batch = default_pool_policy(len(inputs))

    # The crossover, re-derived from phase telemetry rather than bare
    # wall clocks: the process pool wins only once the engine-phase work
    # (worker busy_seconds, parallelisable) dominates the schedule
    # overhead (parent elapsed − busy/workers: broadcast, pickling, IPC).
    batched_phases = batched.telemetry["phase_seconds"]
    process_phases = result.telemetry["phase_seconds"]
    busy = result.telemetry["busy_seconds"]
    overhead = max(timings["process_policy"] - busy / max(policy_workers, 1), 0.0)

    return {
        "dimension": dimension,
        "k": K_MEMBERS,
        "n_inputs": len(inputs),
        "timings_s": timings,
        "batched_phase_seconds": batched_phases,
        "process_phase_seconds": process_phases,
        "process_busy_s": busy,
        "process_overhead_s": overhead,
        "outcomes_agree": all(k == keys["batched"] for k in keys.values()),
        "policy_workers": policy_workers,
        "policy_batch": policy_batch,
        "remat_broadcast_bytes": len(pickle.dumps(remat)),
        "materialized_broadcast_bytes": len(pickle.dumps(materialized)),
    }


def report(result) -> str:
    lines = [
        f"[executor-scaling] D={result['dimension']}, K={result['k']}, "
        f"{result['n_inputs']} inputs "
        f"(policy: {result['policy_workers']} workers, "
        f"batch {result['policy_batch']}):",
        f"{'schedule':18s} {'seconds':>10s} {'inputs/sec':>12s}",
    ]
    for name, seconds in result["timings_s"].items():
        lines.append(
            f"{name:18s} {seconds:10.2f} {result['n_inputs'] / seconds:12.2f}"
        )
    for label, phases in (
        ("batched phases", result["batched_phase_seconds"]),
        ("process phases", result["process_phase_seconds"]),
    ):
        split = "  ".join(
            f"{name} {seconds:.2f}s" for name, seconds in phases.items() if seconds
        )
        lines.append(f"{label:18s} {split or '-'}")
    lines.append(
        f"{'process crossover':18s} busy {result['process_busy_s']:.2f}s "
        f"across {result['policy_workers']} workers + "
        f"~{result['process_overhead_s']:.2f}s schedule overhead "
        f"= {result['timings_s']['process_policy']:.2f}s wall"
    )
    lines.append(
        f"{'broadcast bytes':18s} "
        f"remat {result['remat_broadcast_bytes']:,} vs materialized "
        f"{result['materialized_broadcast_bytes']:,}"
    )
    lines.append(f"{'outcomes agree':18s} {str(result['outcomes_agree']):>10s}")
    return "\n".join(lines)


def assert_acceptance(result) -> None:
    assert result["outcomes_agree"], (
        "per-input outcomes changed with the worker count — the executors' "
        "RNG discipline is broken"
    )
    assert result["remat_broadcast_bytes"] < result["materialized_broadcast_bytes"]
    # The policy's shape, independent of this machine's core count.
    workers, batch = default_pool_policy(MIN_INPUTS_PER_WORKER - 1)
    assert workers == 1 and batch == MIN_INPUTS_PER_WORKER - 1
    _, big_batch = default_pool_policy(100_000)
    assert big_batch == DEFAULT_BATCH_SIZE


def _record(result) -> None:
    from conftest import write_bench_record

    write_bench_record(
        "bench_executor_scaling",
        metrics={
            **{f"{k}_s": v for k, v in result["timings_s"].items()},
            **{
                f"batched_phase_{k}_s": round(v, 4)
                for k, v in result["batched_phase_seconds"].items()
            },
            **{
                f"process_phase_{k}_s": round(v, 4)
                for k, v in result["process_phase_seconds"].items()
            },
            "process_busy_s": result["process_busy_s"],
            "process_overhead_s": result["process_overhead_s"],
            "outcomes_agree": result["outcomes_agree"],
            "remat_broadcast_bytes": result["remat_broadcast_bytes"],
            "materialized_broadcast_bytes": result["materialized_broadcast_bytes"],
        },
        config={
            "dimension": result["dimension"],
            "k": result["k"],
            "n_inputs": result["n_inputs"],
            "policy_workers": result["policy_workers"],
            "policy_batch": result["policy_batch"],
        },
    )


def test_executor_scaling(benchmark):
    """Worker-count sweep at paper scale; outcome contract asserted."""
    from conftest import run_once

    result = run_once(benchmark, lambda: run_scaling(PAPER_DIMENSION, N_TRAIN))
    print("\n" + report(result))
    _record(result)
    assert_acceptance(result)


def test_policy_quick_properties():
    """Cheap guard (runs without --benchmark-only): policy sizing laws."""
    workers, batch = default_pool_policy(2 * MIN_INPUTS_PER_WORKER)
    assert workers <= 2
    assert batch <= DEFAULT_BATCH_SIZE
    explicit = default_pool_policy(5, n_workers=7, batch_size=3)
    assert explicit == (7, 3)


def _smoke_main(argv=None):  # pragma: no cover - exercised by CI, not pytest
    """Standalone entry point: small-scale smoke reading without plugins."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller model + short loops (CI smoke)")
    args = parser.parse_args(argv)

    dimension = 2048 if args.quick else PAPER_DIMENSION
    n_train = 120 if args.quick else N_TRAIN
    result = run_scaling(
        dimension, n_train,
        fuzz_iters=5 if args.quick else FUZZ_ITERS,
        n_inputs=8 if args.quick else FUZZ_INPUTS,
    )
    print(report(result))
    _record(result)
    assert_acceptance(result)
    print("[executor-scaling] outcome contract + policy shape OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke_main())
