"""Text-campaign throughput: scratch-serial vs delta-serial vs batched.

The domain layer's performance claim: fuzzing *strings* through the
lock-step batched engine — with children represented as uint8 code rows
and encoded incrementally from their parents' n-gram accumulators — is
at least **3×** the paper-literal sequential loop that re-encodes every
child from scratch.  This bench times the same two-strategy text
campaign (``char_sub`` + ``char_swap`` over the synthetic language
pool, D = 10 000, length-120 strings) under each engine and asserts
that bar.

Where the speedup comes from:

* incremental (delta) n-gram encoding — a k-character substitution
  touches at most ``k·n`` n-grams of the ~118 per string, so a child's
  accumulator costs a handful of codebook gathers instead of a full
  ``(n_grams, D)`` product-and-sum;
* one fused predict per iteration across every active input (the
  batched engine's schedule);
* each input's dedupe cache of one iteration's children
  (``char_swap`` children collapse onto few distinct transpositions).

Run under pytest (full scale)::

    pytest benchmarks/bench_text_fuzzing.py --benchmark-only -s

or standalone for a quick smoke reading (used by CI)::

    python benchmarks/bench_text_fuzzing.py --quick
"""

from __future__ import annotations

import time

from repro.fuzz import (
    BatchedExecutor,
    HDTest,
    HDTestConfig,
    SerialExecutor,
    compare_strategies,
)

STRATEGIES = ("char_sub", "char_swap")
N_TEXTS = 16
ITER_TIMES = 50
SEED = 29

#: The acceptance bar: batched inputs/sec over the scratch-encode
#: serial baseline's inputs/sec.
MIN_BATCHED_SPEEDUP = 3.0


class _ScratchSerialExecutor(SerialExecutor):
    """The pre-delta sequential engine: every child encoded from scratch.

    Disables the incremental path so the bench keeps an honest
    paper-literal baseline (one full n-gram encode per child) to
    measure both modern engines against.
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


def _campaign_inputs_per_second(model, texts, executor, *, iter_times=ITER_TIMES):
    """Wall-clock inputs/sec of the two-strategy text campaign."""
    config = HDTestConfig(iter_times=iter_times)
    start = time.perf_counter()
    results = compare_strategies(
        model, texts, STRATEGIES, config=config, rng=SEED, executor=executor,
    )
    elapsed = time.perf_counter() - start
    processed = sum(result.n_inputs for result in results.values())
    return processed / elapsed, elapsed, results


def _report(rows):
    serial_ips = rows[0][1]
    lines = [
        f"[text-fuzzing] two-strategy text campaign ({STRATEGIES}):",
        f"{'executor':16s} {'inputs/sec':>10s} {'elapsed':>9s} {'speedup':>8s}",
    ]
    for name, ips, elapsed in rows:
        lines.append(
            f"{name:16s} {ips:10.2f} {elapsed:8.1f}s {ips / serial_ips:7.2f}x"
        )
    return "\n".join(lines)


def run_text_throughput_comparison(model, texts, *, iter_times=ITER_TIMES,
                                   batch_size=64):
    """Time the campaign under every engine; returns report rows."""
    rows = []
    for name, executor in (
        ("serial-scratch", _ScratchSerialExecutor()),
        ("serial-delta", SerialExecutor()),
        ("batched", BatchedExecutor(batch_size=batch_size)),
    ):
        ips, elapsed, _ = _campaign_inputs_per_second(
            model, texts, executor, iter_times=iter_times
        )
        rows.append((name, ips, elapsed))
    return rows


def _record_rows(rows, *, n_texts, iter_times) -> None:
    from conftest import write_bench_record

    write_bench_record(
        "bench_text_fuzzing",
        metrics={f"{name}_inputs_per_s": ips for name, ips, _ in rows},
        config={"n_texts": n_texts, "iter_times": iter_times},
    )


def test_batched_text_speedup(benchmark, text_model, fuzz_texts):
    """Batched text fuzzing must clear 3x the scratch-encode baseline."""
    from conftest import run_once

    texts = fuzz_texts[:N_TEXTS]
    rows = run_once(
        benchmark, lambda: run_text_throughput_comparison(text_model, texts)
    )
    print("\n" + _report(rows))
    _record_rows(rows, n_texts=len(texts), iter_times=ITER_TIMES)
    by_name = {name: ips for name, ips, _ in rows}
    baseline = by_name["serial-scratch"]
    assert by_name["batched"] >= MIN_BATCHED_SPEEDUP * baseline, (
        f"batched text engine {by_name['batched']:.2f} in/s is below "
        f"{MIN_BATCHED_SPEEDUP}x the scratch baseline ({baseline:.2f} in/s)"
    )


def test_batched_text_outcomes_match_serial_content(text_model, fuzz_texts):
    """Throughput must not change the campaign's scientific content."""
    texts = fuzz_texts[:6]
    config = HDTestConfig(iter_times=25)
    serial = compare_strategies(
        text_model, texts, ("char_sub",), config=config, rng=3, executor="serial"
    )["char_sub"]
    batched = compare_strategies(
        text_model, texts, ("char_sub",), config=config, rng=3, executor="batched"
    )["char_sub"]
    assert serial.n_inputs == batched.n_inputs
    # Same decision rule; per-input bit-identity under the shared RNG
    # discipline is covered by tests/fuzz/test_cross_modality.py.
    assert abs(serial.n_success - batched.n_success) <= 2


def _smoke_main(argv=None):  # pragma: no cover - exercised by CI, not pytest
    """Standalone entry point: small-scale smoke reading without plugins."""
    import argparse

    from repro.datasets import make_language_dataset
    from repro.hdc import HDCClassifier, NgramEncoder

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny model + short loops (CI smoke)")
    parser.add_argument("--n-texts", type=int, default=None)
    args = parser.parse_args(argv)

    dimension = 2048 if args.quick else 10_000
    length = 60 if args.quick else 120
    n_texts = args.n_texts or (8 if args.quick else N_TEXTS)
    iter_times = 15 if args.quick else ITER_TIMES

    corpus = make_language_dataset(
        n_per_class=max(12, (n_texts * 2) // 4), n_languages=4, length=length,
        seed=42,
    )
    train, test = corpus.split(0.7, rng=0)
    model = HDCClassifier(
        NgramEncoder(n=3, dimension=dimension, rng=42), corpus.n_classes
    ).fit(list(train.texts), train.labels)
    texts = list(test.texts)[:n_texts]
    rows = run_text_throughput_comparison(model, texts, iter_times=iter_times)
    print(_report(rows))
    _record_rows(rows, n_texts=n_texts, iter_times=iter_times)
    by_name = {name: ips for name, ips, _ in rows}
    baseline = by_name["serial-scratch"]
    print(f"[text-fuzzing] vs scratch baseline: "
          f"batched {by_name['batched'] / baseline:.2f}x, "
          f"delta-serial {by_name['serial-delta'] / baseline:.2f}x "
          f"(bar: {MIN_BATCHED_SPEEDUP}x at paper scale)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke_main())
