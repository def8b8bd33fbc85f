"""Member-sharded execution vs input sharding on member-bound campaigns.

The campaign shape that motivates :class:`~repro.fuzz.executor.
MemberShardedExecutor`: a K ≥ 5 ensemble fuzzed over *few* inputs.
Input sharding cannot fill two workers (``n_inputs //
MIN_INPUTS_PER_WORKER < 2``) and replicates all K members into every
process it does start; member sharding gives each of the K members a
whole worker and ships it only its own shard — the full member model
for independent ensembles, just the associative memory for
shared-codebook ones.

Three properties are asserted on every run (they are deterministic):

* **Outcome contract** — member-sharded campaigns (both transports)
  are bit-identical to the batched and process schedules.
* **Retained memory** — the pickled shard a member worker holds is
  ~1/K of the broadcast-everything payload an input-shard worker gets.
* **Zero-copy broadcast** — steady-state per-iteration IPC bytes over
  shared memory are ≥ 5× smaller than the pickled-array transport.

The ≥ 1.5× wall-clock speed-up over input sharding needs real
parallelism and paper-scale work per iteration, so it is asserted only
at paper scale (the pytest leg) on hosts with ≥ 2 cores; the
``--quick`` smoke and single-core hosts print the reading.

Run under pytest (paper scale)::

    pytest benchmarks/bench_member_sharding.py --benchmark-only -s

or standalone for a quick smoke reading (used by CI)::

    python benchmarks/bench_member_sharding.py --quick
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np

from repro.datasets import load_digits
from repro.fuzz import BatchedExecutor, HDTestConfig, ProcessExecutor
from repro.fuzz.executor import (
    WORKER_COUNT_ENV,
    MemberShardedExecutor,
    default_schedule_policy,
)
from repro.fuzz.oracle import CrossModelOracle
from repro.fuzz.targets import ModelEnsembleTarget, SharedCodebookEnsembleTarget
from repro.hdc import HDCClassifier, PixelEncoder
from repro.obs import CampaignTelemetry

PAPER_DIMENSION = 10_000
SEED = 42
K_MEMBERS = 5
N_TRAIN = 300
FUZZ_INPUTS = 6  # member-bound on purpose: < 2 input shards
FUZZ_ITERS = 10

#: The acceptance bars (see ISSUE/ROADMAP): wall-clock vs input
#: sharding (multi-core only) and steady-state IPC bytes shm vs pickle.
SPEEDUP_BAR = 1.5
IPC_RATIO_BAR = 5.0


def _outcome_key(result):
    return [(o.success, o.iterations, o.reference_label) for o in result.outcomes]


def build_targets(dimension, n_train, *, k=K_MEMBERS, seed=SEED):
    """An independent-codebook and a shared-codebook K-ensemble pair."""
    train, test = load_digits(n_train=n_train, n_test=64, seed=seed)
    base = HDCClassifier(PixelEncoder(dimension=dimension, rng=seed), 10)
    base.fit(train.images, train.labels)
    independent = ModelEnsembleTarget.trained_like(
        base, k, train.images, train.labels, rng=seed + 1
    )
    shared = SharedCodebookEnsembleTarget.trained_shared(
        base, k, train.images, train.labels, rng=seed + 2
    )
    return independent, shared, test.images.astype(np.float64)


def _shard_bytes(target) -> dict:
    """Pickled footprint: whole target vs the largest single member shard."""
    total = len(pickle.dumps(target))
    shards = [len(pickle.dumps(shard)) for shard in target.member_shards()]
    return {"target_bytes": total, "max_shard_bytes": max(shards)}


def _steady_state_broadcast_bytes(target, inputs, cfg, oracle, transport) -> int:
    """Per-iteration IPC bytes once the worker group is warm.

    The first run pays the one-off member broadcast; the second reuses
    the group, so its ``broadcast_bytes`` counter is pure per-iteration
    traffic — the number the transport choice actually moves.
    """
    executor = MemberShardedExecutor(transport=transport)
    try:
        executor.run(target, "gauss", inputs, config=cfg, oracle=oracle, rng=SEED)
        obs = CampaignTelemetry()
        executor.run(
            target, "gauss", inputs, config=cfg, oracle=oracle, rng=SEED,
            telemetry=obs,
        )
    finally:
        executor.close()
    return int(obs.snapshot()["counters"].get("broadcast_bytes", 0))


def run_member_sharding(dimension, n_train, *, fuzz_iters=FUZZ_ITERS,
                        n_inputs=FUZZ_INPUTS, seed=SEED):
    """Time the same member-bound campaign across schedules → result dict."""
    independent, shared, images = build_targets(dimension, n_train, seed=seed)
    cfg = HDTestConfig(iter_times=fuzz_iters)
    inputs = list(images[:n_inputs])
    oracle = CrossModelOracle()

    timings: dict[str, float] = {}
    keys: dict[str, list] = {}

    start = time.perf_counter()
    batched = BatchedExecutor().run(
        independent, "gauss", inputs, config=cfg, oracle=oracle, rng=seed
    )
    timings["batched"] = time.perf_counter() - start
    keys["batched"] = _outcome_key(batched)

    # Input sharding at its policy size — on a member-bound campaign the
    # policy can grant at most one worker, which is exactly the problem.
    with ProcessExecutor() as pool:
        start = time.perf_counter()
        result = pool.run(
            independent, "gauss", inputs, config=cfg, oracle=oracle, rng=seed
        )
        timings["process_policy"] = time.perf_counter() - start
        keys["process_policy"] = _outcome_key(result)

    member_telemetry = CampaignTelemetry()
    with MemberShardedExecutor() as sharded:
        start = time.perf_counter()
        result = sharded.run(
            independent, "gauss", inputs, config=cfg, oracle=oracle, rng=seed,
            telemetry=member_telemetry,
        )
        timings["member_sharded"] = time.perf_counter() - start
        keys["member_sharded"] = _outcome_key(result)

    with MemberShardedExecutor(transport="pickle") as sharded:
        start = time.perf_counter()
        result = sharded.run(
            independent, "gauss", inputs, config=cfg, oracle=oracle, rng=seed
        )
        timings["member_sharded_pickle"] = time.perf_counter() - start
        keys["member_sharded_pickle"] = _outcome_key(result)

    # Steady-state per-iteration IPC, shared-codebook mode: the parent
    # broadcasts encoded hypervector blocks (D floats per child), which
    # is where the shm handles pay off hardest.
    ipc = {
        transport: _steady_state_broadcast_bytes(
            shared, inputs, cfg, oracle, transport
        )
        for transport in ("shm", "pickle")
    }

    return {
        "dimension": dimension,
        "k": K_MEMBERS,
        "n_inputs": len(inputs),
        "cores": os.cpu_count() or 1,
        "timings_s": timings,
        "outcomes_agree": all(k == keys["batched"] for k in keys.values()),
        "member_phase_seconds": member_telemetry.snapshot()["phase_seconds"],
        "independent_footprint": _shard_bytes(independent),
        "shared_footprint": _shard_bytes(shared),
        "steady_ipc_bytes": ipc,
        "speedup_vs_process": (
            timings["process_policy"] / timings["member_sharded"]
        ),
    }


def _wall_clock_asserted(result, quick: bool) -> bool:
    """The wall-clock bar needs ≥ 2 cores and paper-scale work."""
    return not quick and result["cores"] >= 2


def report(result, *, quick: bool = False) -> str:
    lines = [
        f"[member-sharding] D={result['dimension']}, K={result['k']}, "
        f"{result['n_inputs']} inputs on {result['cores']} core(s):",
        f"{'schedule':24s} {'seconds':>10s}",
    ]
    for name, seconds in result["timings_s"].items():
        lines.append(f"{name:24s} {seconds:10.2f}")
    lines.append(
        f"{'speedup vs process':24s} {result['speedup_vs_process']:10.2f}x"
        + (
            ""
            if _wall_clock_asserted(result, quick)
            else f"  (bar {SPEEDUP_BAR}x not asserted: "
            + ("quick scale)" if quick else "1 core)")
        )
    )
    phases = "  ".join(
        f"{name} {seconds:.2f}s"
        for name, seconds in result["member_phase_seconds"].items()
        if seconds
    )
    lines.append(f"{'member phases':24s} {phases or '-'}")
    for label in ("independent", "shared"):
        footprint = result[f"{label}_footprint"]
        lines.append(
            f"{label + ' shard bytes':24s} "
            f"{footprint['max_shard_bytes']:,} of "
            f"{footprint['target_bytes']:,} total "
            f"(1/{footprint['target_bytes'] / footprint['max_shard_bytes']:.1f})"
        )
    ipc = result["steady_ipc_bytes"]
    lines.append(
        f"{'steady IPC bytes':24s} shm {ipc['shm']:,} vs pickle "
        f"{ipc['pickle']:,} ({ipc['pickle'] / max(ipc['shm'], 1):.0f}x)"
    )
    lines.append(f"{'outcomes agree':24s} {str(result['outcomes_agree']):>10s}")
    return "\n".join(lines)


def assert_acceptance(result, *, quick: bool = False) -> None:
    assert result["outcomes_agree"], (
        "member-sharded outcomes diverged from the batched schedule — "
        "the parent-side oracle/fitness/survival contract is broken"
    )
    # A member worker retains ~1/K of the broadcast-everything payload.
    independent = result["independent_footprint"]
    assert independent["max_shard_bytes"] * result["k"] <= (
        1.5 * independent["target_bytes"]
    )
    # Shared-codebook shards are AM-only: far below even the 1/K bar.
    shared = result["shared_footprint"]
    assert shared["max_shard_bytes"] * result["k"] <= shared["target_bytes"]
    # Zero-copy broadcast: handles, not arrays, on the wire.
    ipc = result["steady_ipc_bytes"]
    assert ipc["pickle"] >= IPC_RATIO_BAR * ipc["shm"], (
        f"shm transport saved only {ipc['pickle'] / max(ipc['shm'], 1):.1f}x "
        f"over pickle (bar: {IPC_RATIO_BAR}x)"
    )
    # The schedule policy routes this exact shape to member sharding
    # (pinned worker count *and* core count: the policy must not depend
    # on this host — a real one-core host would be routed to `batched`
    # unconditionally, which is the policy's own 1-core guard, not what
    # this bar measures).
    os.environ[WORKER_COUNT_ENV] = "8"
    real_cpu_count = os.cpu_count
    os.cpu_count = lambda: 8
    try:
        assert default_schedule_policy(
            result["n_inputs"], n_members=result["k"]
        ) == "member-sharded"
        assert default_schedule_policy(64 * result["k"]) == "process"
    finally:
        os.cpu_count = real_cpu_count
        del os.environ[WORKER_COUNT_ENV]
    # Wall clock needs real cores and paper-scale iterations: quick
    # smokes and single-core hosts report it, paper scale enforces it.
    if _wall_clock_asserted(result, quick):
        assert result["speedup_vs_process"] >= SPEEDUP_BAR, (
            f"member sharding {result['speedup_vs_process']:.2f}x vs input "
            f"sharding on a member-bound campaign (bar: {SPEEDUP_BAR}x)"
        )


def _record(result) -> None:
    from conftest import write_bench_record

    write_bench_record(
        "bench_member_sharding",
        metrics={
            **{f"{k}_s": round(v, 4) for k, v in result["timings_s"].items()},
            **{
                f"member_phase_{k}_s": round(v, 4)
                for k, v in result["member_phase_seconds"].items()
            },
            "speedup_vs_process": round(result["speedup_vs_process"], 3),
            "outcomes_agree": result["outcomes_agree"],
            "independent_max_shard_bytes":
                result["independent_footprint"]["max_shard_bytes"],
            "independent_target_bytes":
                result["independent_footprint"]["target_bytes"],
            "shared_max_shard_bytes":
                result["shared_footprint"]["max_shard_bytes"],
            "shared_target_bytes":
                result["shared_footprint"]["target_bytes"],
            "steady_ipc_shm_bytes": result["steady_ipc_bytes"]["shm"],
            "steady_ipc_pickle_bytes": result["steady_ipc_bytes"]["pickle"],
        },
        config={
            "dimension": result["dimension"],
            "k": result["k"],
            "n_inputs": result["n_inputs"],
            "cores": result["cores"],
            "speedup_bar": SPEEDUP_BAR,
            "ipc_ratio_bar": IPC_RATIO_BAR,
        },
    )


def test_member_sharding(benchmark):
    """Member-bound campaign across schedules; contract + bars asserted."""
    from conftest import run_once

    result = run_once(
        benchmark, lambda: run_member_sharding(PAPER_DIMENSION, N_TRAIN)
    )
    print("\n" + report(result))
    _record(result)
    assert_acceptance(result)


def test_schedule_policy_quick_properties():
    """Cheap guard (runs without --benchmark-only): routing shape."""
    os.environ[WORKER_COUNT_ENV] = "8"
    try:
        assert default_schedule_policy(6, n_members=5) == "member-sharded"
        assert default_schedule_policy(640) == "process"
        assert default_schedule_policy(6) == "batched"
    finally:
        del os.environ[WORKER_COUNT_ENV]


def _smoke_main(argv=None):  # pragma: no cover - exercised by CI, not pytest
    """Standalone entry point: small-scale smoke reading without plugins."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller model + short loops (CI smoke)")
    args = parser.parse_args(argv)

    dimension = 1024 if args.quick else PAPER_DIMENSION
    n_train = 120 if args.quick else N_TRAIN
    result = run_member_sharding(
        dimension, n_train,
        fuzz_iters=4 if args.quick else FUZZ_ITERS,
    )
    print(report(result, quick=args.quick))
    _record(result)
    assert_acceptance(result, quick=args.quick)
    print("[member-sharding] outcome contract + memory + IPC bars OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke_main())
