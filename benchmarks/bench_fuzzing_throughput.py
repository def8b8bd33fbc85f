"""Campaign throughput: scratch-serial vs delta-serial vs batched vs process.

The engines' claim is end-to-end inputs/sec on the paper's Table II
campaign (four strategies over the same seeded digits pool,
D = 10 000).  This bench times the *same* campaign under each executor
and prints an inputs/sec table.  The baseline is the **scratch-encode
serial loop** — the paper-literal implementation that re-encodes every
child from its pixels (the state of the sequential engine before delta
encoding landed); the acceptance bar asserts the batched *and* the
modern (delta) serial engines at ≥ 3× that baseline, so regressions in
the incremental encode path fail loudly whichever engine they hit.

The table also carries a **pre-fusion delta-serial** arm — the serial
engine exactly as it stood before the fused encode kernels landed
(per-child gather/multiply/reduce, ``np.where`` thresholding) — the
rebaseline for this PR's encode fusion.  The asserted rebaseline bar
is on *encode throughput*: the batched engine's telemetry-measured
``encodes_per_second`` must stay ≥ 1.25× that arm's.  A campaign-level
1.5× does not materialise on a single-core memory-bound host: once the
encode phase is fused it stops dominating wall time (~50% here, not
the ~90% the issue premise measured), the modern serial engine shares
the same fused kernels, and the four-strategy mix includes ``gauss``,
whose per-child loop was already bound on the same codebook gathers —
the per-strategy ≥2× encode-phase bars live in
``bench_encode_kernels.py`` where the phase is isolated.

Where the speedup comes from (measured on one core):

* incremental (delta) encoding from parent accumulators — huge for
  sparse mutators (``rand`` ~17×, ``row_col_rand`` ~12×), ~2.7× for
  ``gauss``, which re-levels about half the pixels per child.  The
  serial schedule runs the same loop one input at a time, which is
  why delta-serial sits at batched-level throughput on one core;
* one fused predict per iteration across every active input (the
  batched engine's remaining edge, which grows with model/query cost);
* each input's dedupe cache of one iteration's children (what keeps
  ``shift`` cheap: most of its children repeat within an iteration).

``ProcessExecutor`` adds pool startup and model broadcast, so on a
single core it trails the batched engine; it is reported here to track
the crossover as soon as multi-core runners appear.

Run under pytest (full scale)::

    pytest benchmarks/bench_fuzzing_throughput.py --benchmark-only -s

or standalone for a quick smoke reading (used by CI)::

    python benchmarks/bench_fuzzing_throughput.py --quick
"""

from __future__ import annotations

import time

import numpy as np

from repro.fuzz import (
    BatchedExecutor,
    HDTest,
    HDTestConfig,
    ProcessExecutor,
    SerialExecutor,
    compare_strategies,
)

STRATEGIES = ("gauss", "rand", "row_col_rand", "shift")
N_IMAGES = 16
ITER_TIMES = 50
SEED = 29

#: The acceptance bar: engine inputs/sec over the scratch-encode serial
#: baseline's inputs/sec.
MIN_BATCHED_SPEEDUP = 3.0

#: Encode-throughput rebaseline bar: the batched engine's
#: telemetry-measured encodes/sec over the pre-fusion delta-serial
#: engine's, on the same four-strategy campaign (measured ~1.46× on a
#: single core; see the module docstring for why the campaign-level
#: inputs/sec ratio is smaller).
MIN_ENCODE_THROUGHPUT_SPEEDUP = 1.25
ENCODE_REBASELINE_REPEATS = 2

#: Telemetry acceptance bar: instrumented batched campaign may cost at
#: most this fraction over the uninstrumented one (min-of-N, interleaved
#: so thermal/cache drift hits both arms equally).
MAX_TELEMETRY_OVERHEAD = 0.05
TELEMETRY_TIMING_REPEATS = 3


class _PreFusionSerialExecutor(SerialExecutor):
    """The delta-serial engine as it stood before the fused kernels.

    Wraps the target's delta surface with the verbatim pre-fusion
    per-child kernel and ``np.where`` thresholding
    (:class:`bench_encode_kernels._PreFusionSurface`), keeping every
    other phase modern — the rebaseline arm for the encode fusion.
    """

    def run(self, model, strategy, inputs, *, domain=None, config=None,
            constraint=None, fitness=None, oracle=None, rng=None,
            telemetry=None):
        from bench_encode_kernels import _PreFusionSurface

        fuzzer = HDTest(
            model, strategy, domain=domain,
            config=config, constraint=constraint,
            fitness=fitness, oracle=oracle, rng=rng, telemetry=telemetry,
        )
        target = fuzzer._target  # noqa: SLF001 - bench baseline
        surface = target.delta_surface
        target.delta_surface = (
            lambda encoder: _PreFusionSurface(surface(encoder), model.encoder)
        )
        result = fuzzer.fuzz(inputs)
        result.executor = "serial-prefusion"
        return result


class _ScratchSerialExecutor(SerialExecutor):
    """The pre-delta sequential engine: every child encoded from scratch.

    Disables the incremental path (exactly what `HDTest.fuzz_one` did
    before parent accumulators rode the seed pool) so the bench keeps
    an honest historical baseline to measure both modern engines
    against.
    """

    def run(self, model, strategy, inputs, *, domain=None, config=None,
            constraint=None, fitness=None, oracle=None, rng=None,
            telemetry=None):
        fuzzer = HDTest(
            model, strategy, domain=domain,
            config=config, constraint=constraint,
            fitness=fitness, oracle=oracle, rng=rng, telemetry=telemetry,
        )
        fuzzer._delta_encoder = lambda: None  # noqa: SLF001 - bench baseline
        result = fuzzer.fuzz(inputs)
        result.executor = "serial-scratch"
        return result


def _campaign_inputs_per_second(model, images, executor, *, iter_times=ITER_TIMES):
    """Wall-clock inputs/sec of the four-strategy campaign under *executor*."""
    config = HDTestConfig(iter_times=iter_times)
    start = time.perf_counter()
    results = compare_strategies(
        model, images, STRATEGIES, config=config, rng=SEED, executor=executor,
    )
    elapsed = time.perf_counter() - start
    processed = sum(result.n_inputs for result in results.values())
    return processed / elapsed, elapsed, results


def _report(rows):
    serial_ips = rows[0][1]
    lines = [
        "[fuzzing-throughput] four-strategy campaign "
        f"({STRATEGIES}):",
        f"{'executor':12s} {'inputs/sec':>10s} {'elapsed':>9s} {'speedup':>8s}",
    ]
    for name, ips, elapsed in rows:
        lines.append(
            f"{name:12s} {ips:10.2f} {elapsed:8.1f}s {ips / serial_ips:7.2f}x"
        )
    return "\n".join(lines)


def run_throughput_comparison(model, images, *, iter_times=ITER_TIMES,
                              batch_size=64, n_workers=2):
    """Time the campaign under every engine; returns report rows."""
    rows = []
    for name, executor in (
        ("serial-scratch", _ScratchSerialExecutor()),
        ("serial-prefusion", _PreFusionSerialExecutor()),
        ("serial", SerialExecutor()),
        ("batched", BatchedExecutor(batch_size=batch_size)),
        ("process", ProcessExecutor(n_workers=n_workers, batch_size=batch_size)),
    ):
        ips, elapsed, _ = _campaign_inputs_per_second(
            model, images, executor, iter_times=iter_times
        )
        rows.append((name, ips, elapsed))
    return rows


def run_telemetry_overhead(model, images, *, iter_times=ITER_TIMES,
                           batch_size=64, repeats=TELEMETRY_TIMING_REPEATS):
    """Relative cost of telemetry on the batched paper-scale campaign.

    Times the four-strategy batched campaign with telemetry off and on,
    interleaved, and compares the min-of-*repeats* wall clocks (min is
    the standard noise-robust estimator for same-work timing).  Returns
    ``(overhead_fraction, off_seconds, on_seconds, counters)``.
    """
    from repro.obs import CampaignTelemetry

    config = HDTestConfig(iter_times=iter_times)
    off_times, on_times = [], []
    counters = {}
    executor = BatchedExecutor(batch_size=batch_size)
    for _ in range(repeats):
        start = time.perf_counter()
        compare_strategies(
            model, images, STRATEGIES, config=config, rng=SEED,
            executor=executor,
        )
        off_times.append(time.perf_counter() - start)
        obs = CampaignTelemetry()
        start = time.perf_counter()
        compare_strategies(
            model, images, STRATEGIES, config=config, rng=SEED,
            executor=executor, telemetry=obs,
        )
        on_times.append(time.perf_counter() - start)
        counters = dict(obs.counters)
    off, on = min(off_times), min(on_times)
    return (on - off) / off, off, on, counters


def run_encode_rebaseline(model, images, *, iter_times=ITER_TIMES,
                          batch_size=64, repeats=ENCODE_REBASELINE_REPEATS):
    """Telemetry-measured encode throughput, fused batched vs pre-fusion serial.

    Runs the four-strategy campaign under each arm with phase telemetry
    and returns ``{arm: (encode_seconds, encodes, encodes_per_second)}``
    (min-of-*repeats* encode seconds, with that run's encode count).
    The instrumented runs are separate from the timed table so the
    headline inputs/sec stays uninstrumented.
    """
    from repro.obs import CampaignTelemetry

    config = HDTestConfig(iter_times=iter_times)
    stats = {}
    arms = (
        ("batched", BatchedExecutor(batch_size=batch_size)),
        ("serial-prefusion", _PreFusionSerialExecutor()),
    )
    for _ in range(repeats):
        for name, executor in arms:
            obs = CampaignTelemetry()
            compare_strategies(
                model, images, STRATEGIES, config=config, rng=SEED,
                executor=executor, telemetry=obs,
            )
            seconds = obs.phase_seconds["encode"]
            if name not in stats or seconds < stats[name][0]:
                encodes = int(obs.counters.get("encodes", 0))
                stats[name] = (seconds, encodes, encodes / seconds)
    return stats


def _report_rebaseline(stats):
    batched = stats["batched"]
    prefusion = stats["serial-prefusion"]
    return (
        "[fuzzing-throughput] encode throughput: batched "
        f"{batched[2]:.0f} encodes/s ({batched[0]:.2f}s phase) vs "
        f"pre-fusion serial {prefusion[2]:.0f} encodes/s "
        f"({prefusion[0]:.2f}s phase) -> {batched[2] / prefusion[2]:.2f}x"
    )


def _check_rebaseline_bar(stats, *, bar=MIN_ENCODE_THROUGHPUT_SPEEDUP):
    batched, prefusion = stats["batched"], stats["serial-prefusion"]
    assert batched[2] >= bar * prefusion[2], (
        f"batched encode throughput {batched[2]:.0f} encodes/s is below "
        f"{bar}x the pre-fusion delta-serial baseline "
        f"({prefusion[2]:.0f} encodes/s)"
    )


def _record_rebaseline(stats) -> None:
    from conftest import write_bench_record

    batched, prefusion = stats["batched"], stats["serial-prefusion"]
    write_bench_record(
        "bench_fuzzing_throughput",
        metrics={
            "encode_phase_seconds": batched[0],
            "encodes_per_second": batched[2],
            "prefusion_encodes_per_second": prefusion[2],
        },
        config={"rebaseline_repeats": ENCODE_REBASELINE_REPEATS},
    )


def _record_rows(rows, *, n_images, iter_times) -> None:
    from conftest import write_bench_record

    write_bench_record(
        "bench_fuzzing_throughput",
        metrics={f"{name}_inputs_per_s": ips for name, ips, _ in rows},
        config={"n_images": n_images, "iter_times": iter_times},
    )


def test_engine_speedups(benchmark, paper_model, fuzz_images):
    """Batched AND delta-serial must clear 3× the scratch baseline."""
    from conftest import run_once

    images = fuzz_images[:N_IMAGES]
    rows = run_once(benchmark, lambda: run_throughput_comparison(paper_model, images))
    print("\n" + _report(rows))
    _record_rows(rows, n_images=len(images), iter_times=ITER_TIMES)
    by_name = {name: ips for name, ips, _ in rows}
    baseline = by_name["serial-scratch"]
    for engine in ("batched", "serial"):
        assert by_name[engine] >= MIN_BATCHED_SPEEDUP * baseline, (
            f"{engine} executor {by_name[engine]:.2f} in/s is below "
            f"{MIN_BATCHED_SPEEDUP}x the scratch baseline ({baseline:.2f} in/s)"
        )


def test_encode_throughput_rebaseline(paper_model, fuzz_images):
    """Batched encode throughput ≥ 1.25× the pre-fusion delta-serial arm."""
    images = fuzz_images[:N_IMAGES]
    stats = run_encode_rebaseline(paper_model, images)
    print("\n" + _report_rebaseline(stats))
    _record_rebaseline(stats)
    _check_rebaseline_bar(stats)


def test_telemetry_overhead_within_budget(paper_model, fuzz_images):
    """Instrumentation must cost ≤ 5% on the paper-scale batched campaign."""
    from conftest import write_bench_record

    images = fuzz_images[:N_IMAGES]
    overhead, off, on, counters = run_telemetry_overhead(paper_model, images)
    print(f"\n[fuzzing-throughput] telemetry overhead: off {off:.2f}s, "
          f"on {on:.2f}s -> {100 * overhead:+.1f}% "
          f"(bar: {100 * MAX_TELEMETRY_OVERHEAD:.0f}%)")
    write_bench_record(
        "bench_fuzzing_throughput",
        metrics={
            "telemetry_overhead_frac": overhead,
            "telemetry_encodes": counters.get("encodes", 0),
            "telemetry_encode_requests": counters.get("encode_requests", 0),
            "telemetry_retired": counters.get("retired", 0),
        },
        config={"telemetry_repeats": TELEMETRY_TIMING_REPEATS},
    )
    assert overhead <= MAX_TELEMETRY_OVERHEAD, (
        f"telemetry costs {100 * overhead:.1f}% on the batched campaign, "
        f"over the {100 * MAX_TELEMETRY_OVERHEAD:.0f}% budget"
    )


def test_batched_outcomes_match_serial_shape(paper_model, fuzz_images):
    """Throughput must not change the campaign's scientific content."""
    images = fuzz_images[:6]
    config = HDTestConfig(iter_times=25)
    serial = compare_strategies(
        paper_model, images, ("gauss",), config=config, rng=3, executor="serial"
    )["gauss"]
    batched = compare_strategies(
        paper_model, images, ("gauss",), config=config, rng=3, executor="batched"
    )["gauss"]
    assert serial.n_inputs == batched.n_inputs
    # Same RNG root, same decision rule: success sets should be close;
    # identical per-input outcomes are covered by tests/fuzz/test_batch.py
    # under the shared RNG discipline.
    assert abs(serial.n_success - batched.n_success) <= 2


def _smoke_main(argv=None):  # pragma: no cover - exercised by CI, not pytest
    """Standalone entry point: small-scale smoke reading without plugins."""
    import argparse

    from repro.datasets import load_digits
    from repro.hdc import HDCClassifier, PixelEncoder

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny model + short loops (CI smoke)")
    parser.add_argument("--n-images", type=int, default=None)
    args = parser.parse_args(argv)

    dimension = 2048 if args.quick else 10_000
    n_train = 400 if args.quick else 1500
    n_images = args.n_images or (8 if args.quick else N_IMAGES)
    iter_times = 15 if args.quick else ITER_TIMES

    train, test = load_digits(n_train=n_train, n_test=max(n_images, 32), seed=42)
    model = HDCClassifier(PixelEncoder(dimension=dimension, rng=42), 10).fit(
        train.images, train.labels
    )
    images = test.images[:n_images].astype(np.float64)
    rows = run_throughput_comparison(model, images, iter_times=iter_times)
    print(_report(rows))
    _record_rows(rows, n_images=n_images, iter_times=iter_times)
    by_name = {name: ips for name, ips, _ in rows}
    baseline = by_name["serial-scratch"]
    print(f"[fuzzing-throughput] vs scratch baseline: "
          f"batched {by_name['batched'] / baseline:.2f}x, "
          f"delta-serial {by_name['serial'] / baseline:.2f}x "
          f"(bar: {MIN_BATCHED_SPEEDUP}x at paper scale)")
    overhead, off, on, _ = run_telemetry_overhead(
        model, images, iter_times=iter_times,
        repeats=1 if args.quick else TELEMETRY_TIMING_REPEATS,
    )
    print(f"[fuzzing-throughput] telemetry overhead: off {off:.2f}s, "
          f"on {on:.2f}s -> {100 * overhead:+.1f}% "
          f"(assertion bar at paper scale: "
          f"{100 * MAX_TELEMETRY_OVERHEAD:.0f}%)")
    stats = run_encode_rebaseline(
        model, images, iter_times=iter_times,
        repeats=1 if args.quick else ENCODE_REBASELINE_REPEATS,
    )
    print(_report_rebaseline(stats) + (
        f" (assertion bar at paper scale: {MIN_ENCODE_THROUGHPUT_SPEEDUP}x)"
    ))
    _record_rebaseline(stats)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke_main())
