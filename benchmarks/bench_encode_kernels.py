"""Fused encode kernels vs the per-child kernel loop they replaced.

Encoding is ~90% of campaign wall clock (PR-7 phase telemetry).  Before
the fused path landed it was paid twice over in Python scheduling: the
engine looped over *plans* (re-hashing cache keys, delta-encoding, and
rebuilding hypervectors once per input), and inside each call the
encoder looped over *children* (one gather/multiply/reduce per row).
The fused path — blocked kernels in
:mod:`repro.hdc.encoders._blocked` plus the hoisted schedule of
:class:`repro.fuzz.predictor.ChildBlock` — runs the same exact integer
algebra in O(1) kernel calls per iteration stage.

Two measurements, two claims:

* **Engine encode phase** (the headline): a real batched campaign with
  phase telemetry, fused kernels vs the pre-fusion per-child kernel
  loop and thresholding, reconstructed verbatim from the pre-PR source
  and run under the current schedule (the per-plan schedule went with
  the predictor hook it overrode, when iterations began encoding in
  stages).  Asserted per strategy at paper scale:
  ``rand`` — the paper's canonical sparse mutator, where the deleted
  per-child dispatch dominated — must clear 2×; ``gauss`` — a dense
  mutator whose per-child loop was already bound on the same codebook
  gathers the fused kernel performs — must hold parity.  Campaign
  outcomes are checked bit-identical between the two schedules while
  we're at it.
* **Kernel microbench** (diagnostics): ``accumulate_delta`` on one
  already-assembled block vs one call per child, per delta family.
  Sparse blocks win on deleted per-call overhead; dense blocks are
  memory-bound on the codebook gathers either way, so the fused kernel
  is held to parity there.  The per-child arm here reuses the *new*
  kernel row-by-row (it has no old-style inner loop to fall back to),
  so these ratios understate the engine-level win — the bars reflect
  that.

Results are bit-identical by construction
(``tests/hdc/test_fused_kernels.py`` pins the kernels; the outcome
check below pins the schedule), so this file only has to defend speed.

Run under pytest (full scale)::

    pytest benchmarks/bench_encode_kernels.py --benchmark-only -s

or standalone for a quick smoke reading (used by CI)::

    python benchmarks/bench_encode_kernels.py --quick
"""

from __future__ import annotations

import time

import numpy as np

from repro.fuzz import HDTestConfig
from repro.fuzz.batch import BatchedHDTest
from repro.fuzz.predictor import LocalPredictor
from repro.hdc import PixelEncoder
from repro.hdc.encoders.ngram import NgramEncoder
from repro.hdc.encoders.record import RecordEncoder

SEED = 37
N_CHILDREN = 256
TIMING_REPEATS = 5
ENGINE_TIMING_REPEATS = 2
#: Per-strategy engine bars: the batched campaign's telemetry-measured
#: encode phase under the fused schedule vs the pre-fusion schedule.
#: ``rand`` changes a handful of pixels per child, so the pre-fusion
#: cost was almost all per-child Python dispatch — the fused schedule
#: must clear the issue's 2× bar there.  ``gauss`` re-quantises most of
#: the image, so both schedules are bound on the same codebook-gather
#: traffic and the fused path is held to parity (≥ 0.9× under timer
#: noise).  Quick (CI smoke) campaigns finish in tens of milliseconds —
#: fixed per-iteration overhead and timer noise dominate — so the smoke
#: leg only asserts the fused path still wins / holds parity; the 2×
#: claim itself is asserted at paper scale.
MIN_ENCODE_PHASE_SPEEDUP = 2.0
ENGINE_BARS = {"rand": MIN_ENCODE_PHASE_SPEEDUP, "gauss": 0.9}
ENGINE_BARS_QUICK = {"rand": 1.2, "gauss": 0.8}
ENGINE_STRATEGIES = tuple(ENGINE_BARS)

#: Kernel-microbench bars.  The per-child arm re-enters the *fused*
#: kernel once per row, so the only difference is per-call overhead —
#: a thin margin at D = 10 000 where one row is already 10 000 wide.
#: Sparse blocks must still win it outright; dense (``gauss``-like)
#: blocks are gather-bound and held to parity.
MIN_SPARSE_SPEEDUP = 1.2
MIN_SPARSE_SPEEDUP_QUICK = 1.5  # overhead share grows as D shrinks
MIN_DENSE_SPEEDUP = 0.8


# ---------------------------------------------------------------------------
# Engine encode phase: fused schedule vs the pre-fusion schedule
# ---------------------------------------------------------------------------
class _PreFusionSurface:
    """The pre-fusion pixel delta kernel, verbatim, behind a modern surface.

    ``accumulate_delta`` is the exact per-child loop the encoder shipped
    before the blocked kernels: one ``flatnonzero``, three codebook
    ``take`` gathers, one multiply, and one reduction *per child*.
    ``query_blocks`` is likewise the pre-fusion
    ``np.where(…, 1, -1).astype(int8)`` thresholding, which the memory
    checks and packs at query time (the fused path builds the sign
    words straight from the accumulators).  Remaining surface calls
    delegate, so the baseline engine differs from the fused one only in
    its encode phase and that pack.
    """

    def __init__(self, surface, encoder):
        self._surface = surface
        self._encoder = encoder

    def child_levels(self, batch):
        return self._surface.child_levels(batch)

    def seed_side_data(self, stacked):
        return self._surface.seed_side_data(stacked)

    def query_blocks(self, accs):
        return (np.where(np.asarray(accs) >= 0, 1, -1).astype(np.int8),)

    def accumulate_delta(self, levels, parents, parent_accs):
        enc = self._encoder
        pos, val = enc.position_memory, enc.value_memory
        out = parent_accs.astype(np.int64, copy=True)
        int16_safe = np.iinfo(np.int16).max // 2
        for i in range(levels.shape[0]):
            changed = np.flatnonzero(levels[i] != parents[i])
            if changed.size == 0:
                continue
            dval = val.take(levels[i, changed]) - val.take(parents[i, changed])
            np.multiply(pos.take(changed), dval, out=dval)
            sum_dtype = np.int16 if changed.size <= int16_safe else np.int64
            out[i] += dval.sum(axis=0, dtype=sum_dtype)
        return out.astype(parent_accs.dtype)


class _PreFusionPredictor(LocalPredictor):
    """The in-process predictor with the pre-fusion encode reinstated.

    Its delta surface is :class:`_PreFusionSurface`: every
    ``accumulate_delta`` call of an iteration's stage runs the per-child
    kernel loop, and hypervectors are thresholded the pre-fusion way.
    The schedule around it (cache lookups, stages, one predict per
    stage) is the current one, so the two arms differ in their encode
    kernels alone.
    """

    def __init__(self, *args, encoder, **kwargs):
        super().__init__(*args, **kwargs)
        self._surface = _PreFusionSurface(self._surface, encoder)


class _PreFusionEngine(BatchedHDTest):
    """BatchedHDTest encoding through :class:`_PreFusionPredictor`."""

    def _predictor(self):
        cfg = self._config
        surface = self._target.delta_surface(self._delta_encoder())
        return _PreFusionPredictor(
            self._target, surface, cfg.top_n * cfg.children_per_seed,
            self._obs, self._constraint.perturbation_sizes,
            encoder=self.model.encoder,
        )


def _campaign_encode_seconds(engine_cls, model, images, *, strategy,
                             iter_times):
    """Telemetry-measured encode-phase seconds of one campaign."""
    from repro.obs import CampaignTelemetry

    obs = CampaignTelemetry()
    config = HDTestConfig(iter_times=iter_times)
    engine = engine_cls(model, strategy, config=config, rng=SEED, telemetry=obs)
    result = engine.fuzz(images)
    outcomes = [(o.success, o.iterations) for o in result.outcomes]
    return obs.phase_seconds["encode"], obs.phase_seconds, outcomes


def run_engine_encode_phase(model, images, *, iter_times,
                            repeats=ENGINE_TIMING_REPEATS):
    """Per-strategy encode-phase seconds, fused vs pre-fusion schedule.

    Returns ``{strategy: (fused_s, prefusion_s, fused_phase_seconds)}``,
    min-of-*repeats* per arm.  The two engines are timed interleaved so
    clock drift on shared runners lands on both arms of the ratio
    equally; campaign outcomes are asserted identical between the
    schedules (same RNG, bit-identical encodes ⇒ bit-identical campaign
    decisions).
    """
    results = {}
    for strategy in ENGINE_STRATEGIES:
        fused = prefusion = float("inf")
        phases = {}
        for _ in range(repeats):
            seconds, phase_seconds, fused_outcomes = _campaign_encode_seconds(
                BatchedHDTest, model, images, strategy=strategy,
                iter_times=iter_times,
            )
            if seconds < fused:
                fused, phases = seconds, phase_seconds
            seconds, _, legacy_outcomes = _campaign_encode_seconds(
                _PreFusionEngine, model, images, strategy=strategy,
                iter_times=iter_times,
            )
            prefusion = min(prefusion, seconds)
            assert fused_outcomes == legacy_outcomes, (
                f"fused and pre-fusion schedules disagreed on {strategy} "
                "campaign outcomes"
            )
        results[strategy] = (fused, prefusion, phases)
    return results


# ---------------------------------------------------------------------------
# Kernel microbench: one fused block vs one call per child
# ---------------------------------------------------------------------------
def _per_row_delta(encoder, levels, parents, accs):
    """One ``accumulate_delta`` call per child (the pre-fusion granularity)."""
    out = np.empty((levels.shape[0], encoder.dimension), dtype=np.int64)
    for i in range(levels.shape[0]):
        out[i] = encoder.accumulate_delta(
            levels[i : i + 1], parents[i : i + 1], accs[i : i + 1]
        )[0]
    return out


def _mutate(levels, n_levels, n_changed, rng):
    children = levels.copy()
    for i in range(children.shape[0]):
        idx = rng.choice(children.shape[1], size=n_changed, replace=False)
        children[i, idx] = rng.integers(0, n_levels, n_changed)
    return children


def _delta_workloads(dimension, n_children):
    """(label, encoder, child_levels, parent_levels, parent_accs) cases."""
    rng = np.random.default_rng(SEED)
    cases = []

    pixel = PixelEncoder(shape=(28, 28), dimension=dimension, rng=SEED)
    parents = rng.integers(0, 256, (n_children, 784))
    accs = pixel.accumulate_batch(
        parents.reshape(n_children, 28, 28).astype(np.float64)
    )
    for label, n_changed in (("pixel-sparse", 6), ("pixel-dense", 400)):
        cases.append(
            (label, pixel, _mutate(parents, 256, n_changed, rng), parents, accs)
        )

    record = RecordEncoder(617, levels=64, dimension=dimension, rng=SEED)
    records = rng.random((n_children, 617))
    rec_parents = record.quantize(records)
    rec_accs = record.accumulate_batch(records)
    cases.append(
        ("record-sparse", record, _mutate(rec_parents, 64, 4, rng),
         rec_parents, rec_accs)
    )

    ngram = NgramEncoder(3, dimension=dimension, rng=SEED)
    n_alpha = ngram.item_memory.size
    ng_parents = rng.integers(0, n_alpha, (n_children, 64))
    ng_accs = ngram.accumulate_batch(ng_parents)
    cases.append(
        ("ngram-sparse", ngram, _mutate(ng_parents, n_alpha, 3, rng),
         ng_parents, ng_accs)
    )
    return cases


def run_kernel_comparison(dimension, n_children):
    """Time fused vs per-child on every workload; returns report rows.

    The two schedules are timed interleaved (min-of-N each) so clock
    drift on shared runners lands on both arms of the ratio equally.
    """
    rows = []
    for label, enc, children, parents, accs in _delta_workloads(
        dimension, n_children
    ):
        fused = looped = float("inf")
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            enc.accumulate_delta(children, parents, accs)
            fused = min(fused, time.perf_counter() - start)
            start = time.perf_counter()
            _per_row_delta(enc, children, parents, accs)
            looped = min(looped, time.perf_counter() - start)
        rows.append((label, fused, looped, looped / fused))
    return rows


# ---------------------------------------------------------------------------
# Reporting, recording, bars
# ---------------------------------------------------------------------------
def _report(rows, dimension, n_children):
    lines = [
        f"[encode-kernels] fused block vs per-child calls "
        f"(D={dimension}, {n_children} children):",
        f"{'workload':14s} {'fused':>9s} {'per-child':>10s} {'speedup':>8s}",
    ]
    for label, fused, looped, speedup in rows:
        lines.append(
            f"{label:14s} {1e3 * fused:8.1f}ms {1e3 * looped:9.1f}ms "
            f"{speedup:7.2f}x"
        )
    return "\n".join(lines)


def _report_engine(engine_results):
    lines = []
    for strategy, (fused, prefusion, phases) in engine_results.items():
        encode_share = fused / max(sum(phases.values()), 1e-12)
        lines.append(
            f"[encode-kernels] campaign encode phase ({strategy}): "
            f"fused {fused:.2f}s vs pre-fusion {prefusion:.2f}s "
            f"-> {prefusion / fused:.2f}x "
            f"(encode share of fused campaign: {100 * encode_share:.0f}%)"
        )
    return "\n".join(lines)


def _record_rows(rows, *, dimension, n_children, engine=None):
    from conftest import write_bench_record

    metrics = {f"{label}_speedup": speedup for label, _, _, speedup in rows}
    if engine is not None:
        for strategy, (fused, prefusion, _) in engine.items():
            metrics[f"encode_phase_seconds_{strategy}"] = fused
            metrics[f"encode_phase_speedup_{strategy}"] = prefusion / fused
    write_bench_record(
        "bench_encode_kernels",
        metrics=metrics,
        config={"dimension": dimension, "n_children": n_children},
    )


def _check_bars(rows, *, sparse_bar, dense_bar):
    for label, _, _, speedup in rows:
        bar = dense_bar if label.endswith("dense") else sparse_bar
        assert speedup >= bar, (
            f"{label}: fused kernel at {speedup:.2f}x the per-child "
            f"schedule, below the {bar}x bar"
        )


def _check_engine_bars(engine_results, bars=ENGINE_BARS):
    for strategy, (fused, prefusion, _) in engine_results.items():
        bar = bars[strategy]
        assert prefusion >= bar * fused, (
            f"{strategy}: fused encode phase at {prefusion / fused:.2f}x "
            f"the pre-fusion schedule, below the {bar}x bar"
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def test_fused_kernels_never_lose_to_per_child_calls(benchmark):
    """Paper scale: every sparse family wins, dense holds parity."""
    from conftest import PAPER_DIMENSION, run_once

    rows = run_once(
        benchmark, lambda: run_kernel_comparison(PAPER_DIMENSION, N_CHILDREN)
    )
    print("\n" + _report(rows, PAPER_DIMENSION, N_CHILDREN))
    _record_rows(rows, dimension=PAPER_DIMENSION, n_children=N_CHILDREN)
    _check_bars(
        rows, sparse_bar=MIN_SPARSE_SPEEDUP, dense_bar=MIN_DENSE_SPEEDUP
    )


def test_encode_phase_speedup(benchmark, paper_model, fuzz_images):
    """Paper scale: sparse campaigns clear 2×, dense hold parity."""
    from conftest import run_once

    images = fuzz_images[:12]
    engine_results = run_once(
        benchmark,
        lambda: run_engine_encode_phase(paper_model, images, iter_times=50),
    )
    print("\n" + _report_engine(engine_results))
    _record_rows(
        [], dimension=paper_model.encoder.dimension, n_children=N_CHILDREN,
        engine=engine_results,
    )
    _check_engine_bars(engine_results)


def _smoke_main(argv=None):  # pragma: no cover - exercised by CI, not pytest
    """Standalone entry point: small-scale smoke reading without plugins."""
    import argparse

    from repro.datasets import load_digits
    from repro.hdc import HDCClassifier

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small dimension + short loops (CI smoke)")
    args = parser.parse_args(argv)

    dimension = 2048 if args.quick else 10_000
    n_children = 64 if args.quick else N_CHILDREN
    n_train = 400 if args.quick else 1500
    n_images = 8 if args.quick else 12
    iter_times = 15 if args.quick else 50

    rows = run_kernel_comparison(dimension, n_children)
    print(_report(rows, dimension, n_children))

    train, test = load_digits(n_train=n_train, n_test=max(n_images, 32), seed=42)
    model = HDCClassifier(PixelEncoder(dimension=dimension, rng=42), 10).fit(
        train.images, train.labels
    )
    images = test.images[:n_images].astype(np.float64)
    engine_results = run_engine_encode_phase(
        model, images, iter_times=iter_times
    )
    print(_report_engine(engine_results))
    _record_rows(
        rows, dimension=dimension, n_children=n_children,
        engine=engine_results,
    )
    _check_bars(
        rows,
        sparse_bar=MIN_SPARSE_SPEEDUP_QUICK if args.quick else MIN_SPARSE_SPEEDUP,
        dense_bar=MIN_DENSE_SPEEDUP,
    )
    _check_engine_bars(
        engine_results, ENGINE_BARS_QUICK if args.quick else ENGINE_BARS
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke_main())
