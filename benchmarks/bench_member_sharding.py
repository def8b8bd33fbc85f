"""Member-sharded execution vs the batched engine on member-bound campaigns.

The campaign shape that motivates :class:`~repro.fuzz.executor.
MemberShardedExecutor`: a K ≥ 5 independent-codebook ensemble (the
HDXplore setting) fuzzed over *few* inputs.  Input sharding cannot fill
two workers (``n_inputs // MIN_INPUTS_PER_WORKER < 2``) — on a 2-core
host its policy-sized pool is one worker, i.e. the batched engine plus
pool start-up — and replicates all K members into every process it
does start; member sharding gives each of the K members a whole worker
and ships it only its own shard — the full member model for
independent ensembles, just the associative memory for shared-codebook
ones.

Two properties are asserted on every run (they are deterministic):

* **Outcome contract** — member-sharded campaigns are bit-identical to
  the batched and process schedules.
* **Retained memory** — the pickled shard a member worker holds is
  ~1/K of the broadcast-everything payload an input-shard worker gets.

The wall-clock bar compares a *warm* worker group (built once, as in
wave-mode campaigns) with the in-process batched engine over the same
distinct campaigns, run interleaved so host drift lands on both arms.
Each timed campaign draws a fresh mutation stream, so the samples
are independent; dedupe caches live for one run, so a warm group
gains nothing from having seen a campaign before.  The bar needs real parallelism and
paper-scale work per iteration, so it is asserted only at paper scale
(the pytest leg) on hosts with ≥ 2 cores; the ``--quick`` smoke and
single-core hosts print the reading.

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
from repro.fuzz import executor as executor_module
from repro.fuzz.executor import (
    WORKER_COUNT_ENV,
    MemberShardedExecutor,
    default_schedule_policy,
)
from repro.fuzz.oracle import CrossModelOracle
from repro.fuzz.targets import ModelEnsembleTarget, SharedCodebookEnsembleTarget
from repro.hdc import HDCClassifier, PixelEncoder
from repro.obs import CampaignTelemetry
from repro.utils import usable_cores

PAPER_DIMENSION = 10_000
SEED = 42
K_MEMBERS = 5
N_TRAIN = 300
FUZZ_INPUTS = 6  # member-bound on purpose: < 2 input shards
FUZZ_ITERS = 50

#: Warm member-sharded vs batched wall clock (paper scale, >= 2 cores):
#: measured 1.62-1.90x on a 2-core host with BLAS pinned to one thread.
#: Since the batched engine runs large encode-kernel calls on two cores,
#: a 2-core AMD EPYC host reads 1.00-1.18x, below this bar.
SPEEDUP_BAR = 1.4
#: Distinct timed campaigns per arm (the bar compares their totals).
TIMED_CAMPAIGNS = 5


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


def run_member_sharding(dimension, n_train, *, fuzz_iters=FUZZ_ITERS,
                        n_inputs=FUZZ_INPUTS, seed=SEED, campaigns=TIMED_CAMPAIGNS):
    """Time the same member-bound campaigns across schedules → result dict."""
    independent, shared, images = build_targets(dimension, n_train, seed=seed)
    cfg = HDTestConfig(iter_times=fuzz_iters)
    inputs = list(images[:n_inputs])
    oracle = CrossModelOracle()

    def run(executor, rng, **kwargs):
        return executor.run(
            independent, "gauss", inputs, config=cfg, oracle=oracle, rng=rng,
            **kwargs,
        )

    timings = {"batched": 0.0, "member_sharded": 0.0}
    ratios = []
    member_telemetry = CampaignTelemetry()
    batched = BatchedExecutor()
    with ProcessExecutor() as pool, MemberShardedExecutor() as sharded:
        # The outcome contract across all three schedules; the member run
        # also builds the worker group (process start-up and the one-off
        # member broadcast).  Then one warm run records the phase split.
        keys = [_outcome_key(run(e, seed)) for e in (batched, pool, sharded)]
        run(sharded, seed + 1, telemetry=member_telemetry)
        for c in range(campaigns):
            arms = [("batched", batched), ("member_sharded", sharded)]
            seconds = {}
            for name, executor in arms[:: 1 if c % 2 else -1]:
                start = time.perf_counter()
                result = run(executor, seed + 2 + c)
                seconds[name] = time.perf_counter() - start
                timings[name] += seconds[name]
                keys.append(_outcome_key(result))
            ratios.append(seconds["batched"] / seconds["member_sharded"])
        # Within each timed campaign both arms must agree too.
        agree = keys[0] == keys[1] == keys[2] and all(
            keys[i] == keys[i + 1] for i in range(3, len(keys), 2)
        )

    return {
        "dimension": dimension,
        "k": K_MEMBERS,
        "n_inputs": len(inputs),
        "iter_times": fuzz_iters,
        "campaigns": campaigns,
        "cores": usable_cores(),
        "timings_s": timings,
        "campaign_speedups": ratios,
        "outcomes_agree": agree,
        "member_phase_seconds": member_telemetry.snapshot()["phase_seconds"],
        "independent_footprint": _shard_bytes(independent),
        "shared_footprint": _shard_bytes(shared),
        "speedup_vs_batched": timings["batched"] / timings["member_sharded"],
    }


def _wall_clock_asserted(result, quick: bool) -> bool:
    """The wall-clock bar needs ≥ 2 cores and paper-scale work."""
    return not quick and result["cores"] >= 2


def report(result, *, quick: bool = False) -> str:
    lines = [
        f"[member-sharding] D={result['dimension']}, K={result['k']}, "
        f"{result['n_inputs']} inputs, iter_times {result['iter_times']} on "
        f"{result['cores']} core(s); {result['campaigns']} distinct campaigns "
        f"per arm, warm worker group:",
        f"{'schedule':24s} {'seconds':>10s}",
    ]
    for name, seconds in result["timings_s"].items():
        lines.append(f"{name:24s} {seconds:10.2f}")
    ratios = result["campaign_speedups"]
    lines.append(
        f"{'per-campaign speedup':24s} {min(ratios):.2f}x - {max(ratios):.2f}x"
    )
    lines.append(
        f"{'speedup vs batched':24s} {result['speedup_vs_batched']:10.2f}x"
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
    lines.append(f"{'outcomes agree':24s} {str(result['outcomes_agree']):>10s}")
    return "\n".join(lines)


def assert_acceptance(result, *, quick: bool = False) -> None:
    assert result["outcomes_agree"], (
        "member-sharded outcomes diverged from the batched/process schedules — "
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
    # The schedule policy routes this exact shape to member sharding
    # (pinned worker count *and* core count: the policy must not depend
    # on this host — a real one-core host would be routed to `batched`
    # unconditionally, which is the policy's own 1-core guard, not what
    # this bar measures).
    os.environ[WORKER_COUNT_ENV] = "8"
    executor_module.usable_cores = lambda: 8
    try:
        assert default_schedule_policy(
            result["n_inputs"], n_members=result["k"]
        ) == "member-sharded"
        assert default_schedule_policy(64 * result["k"]) == "process"
    finally:
        executor_module.usable_cores = usable_cores
        del os.environ[WORKER_COUNT_ENV]
    # Wall clock needs real cores and paper-scale iterations: quick
    # smokes and single-core hosts report it, paper scale enforces it.
    if _wall_clock_asserted(result, quick):
        assert result["speedup_vs_batched"] >= SPEEDUP_BAR, (
            f"warm member sharding {result['speedup_vs_batched']:.2f}x vs the "
            f"batched engine on a member-bound campaign (bar: {SPEEDUP_BAR}x)"
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
            "speedup_vs_batched": round(result["speedup_vs_batched"], 3),
            "outcomes_agree": result["outcomes_agree"],
            "independent_max_shard_bytes":
                result["independent_footprint"]["max_shard_bytes"],
            "independent_target_bytes":
                result["independent_footprint"]["target_bytes"],
            "shared_max_shard_bytes":
                result["shared_footprint"]["max_shard_bytes"],
            "shared_target_bytes":
                result["shared_footprint"]["target_bytes"],
        },
        config={
            "dimension": result["dimension"],
            "k": result["k"],
            "n_inputs": result["n_inputs"],
            "iter_times": result["iter_times"],
            "campaigns": result["campaigns"],
            "cores": result["cores"],
            "speedup_bar": SPEEDUP_BAR,
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
    print("[member-sharding] outcome contract + memory bars OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke_main())
