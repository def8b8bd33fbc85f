"""Run one workload: set up, measure units, check them, derive metrics.

Units run back to back in a closed loop from this one process.  Each run
first sets the workload up ``scale.setups`` times (``setup_s`` is the
median) and measures with the last set-up.

* Untraced runs (``trace=False``) give the end-to-end metrics over the
  first ``round(seconds / workload.nominal_unit_s)`` units (at least
  ``MIN_UNITS``).  The count follows from the run's seconds alone, so
  every run of a given length fuzzes the same slices, whatever the host
  or commit; the nominal unit time makes the run last about that long.
  Campaign outcomes vary from unit to unit far more than the host's
  timing noise does, so the whole budget goes to distinct units rather
  than to repeating them.
* Traced runs (``trace=True``) give the per-layer metrics.  The first
  ``scale.trace_units`` units run in ``scale.setups`` rounds of one
  untraced and one traced pass, each round on a fresh set-up.  Traced
  passes wrap every layer entry point (:mod:`spans`) and attach a
  ``CampaignTelemetry`` recorder.  Every pass re-runs the same units on
  the same random streams against an identically rebuilt model, so all
  passes must produce the same outcome digest; the ratio of the traced
  and untraced min-of-N unit walls is the tracing overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.obs.recorder import CampaignTelemetry

from checker import outcome_digest
from spans import SpanRecorder, traced_layers
from workloads import WORKLOADS, Scale, UnitSummary, ensemble_executor, is_multiprocess, unit_rng

__all__ = ["END_TO_END", "PER_LAYER", "MIN_UNITS", "run_workload"]

#: Fewest units an untraced run measures (the tail needs ten beyond it).
MIN_UNITS = 11
#: Hard cap on an untraced run's measuring time (a much slower program).
MAX_MEASURE_S = 90.0

#: End-to-end metric → unit (the ``metrics`` of an untraced run).
END_TO_END = {
    "setup_s": "s",
    "inputs_per_s": "1/s",
    "adversarials_per_s": "1/s",
    "unit_s.p50": "s",
    "unit_s.tail": "s",
    "success_rate": "frac",
    "mean_l2": "l2",
    "peak_rss_mb": "MB",
}

_SELF = "s/unit"
#: Per-layer metric → unit (the ``metrics`` of a traced run).
PER_LAYER = {
    "encoders.delta.rows": "rows/unit",
    "encoders.delta.self_s": _SELF,
    "encoders.delta.rows_per_s": "1/s",
    "encoders.scratch.rows": "rows/unit",
    "encoders.scratch.self_s": _SELF,
    "encoders.binarize.self_s": _SELF,
    "am.query.rows": "rows/unit",
    "am.query.self_s": _SELF,
    "am.query.rows_per_s": "1/s",
    "packed.query.rows": "rows/unit",
    "packed.query.self_s": _SELF,
    "packed.update.rows": "rows/unit",
    "packed.update.self_s": _SELF,
    "model.retrain.rows": "rows/unit",
    "model.retrain.self_s": _SELF,
    "mutations.children": "children/unit",
    "mutations.self_s": _SELF,
    "constraints.self_s": _SELF,
    "constraints.rejected_frac": "frac",
    "fitness.self_s": _SELF,
    "oracle.self_s": _SELF,
    "seeds.self_s": _SELF,
    "engine.self_s": _SELF,
    "engine.iterations": "iters/unit",
    "engine.cache_hit_rate": "frac",
    "engine.retired_per_1k_encodes": "1/1k",
    "targets.self_s": _SELF,
    "executor.self_s": _SELF,
    "campaign.waves": "waves/unit",
    "campaign.attempts_per_adversarial": "ratio",
    "defense.self_s": _SELF,
    "trace.overhead_frac": "frac",
    "trace.residual_frac": "frac",
}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its waited-for children."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` (no subprocess), else ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_block(root: Path, seed: int, scale: Scale) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "seed": seed,
        "ensemble_executor": ensemble_executor(scale),
    }


class _Pass:
    """Walls and checked summaries of one pass over the units."""

    def __init__(self, workload, data, scale: Scale, seed: int) -> None:
        self._context = (workload, data, scale, seed)
        self.walls: list[float] = []
        self.summaries: list[Optional[UnitSummary]] = []
        self.errors: list[str] = []

    def run(self, index: int, *, telemetry=None, recorder=None) -> None:
        workload, data, scale, seed = self._context
        rng = unit_rng(seed, index)
        wall = 0.0
        try:
            if recorder is None:
                start = time.perf_counter()
                raw = workload.unit(data, scale, index, rng, telemetry)
                wall = time.perf_counter() - start
            else:
                with traced_layers(recorder), recorder.span("unit"):
                    start = time.perf_counter()
                    raw = workload.unit(data, scale, index, rng, telemetry)
                    wall = time.perf_counter() - start
            summary = workload.summarise(data, raw)
        except Exception:  # a unit that raises counts as failed; the run goes on
            self.errors.append(f"unit {index}: {traceback.format_exc()}")
            summary = None
        if summary is not None:
            self.errors += [f"unit {index}: {p}" for p in summary.problems]
        self.walls.append(wall)
        self.summaries.append(summary)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.summaries if s is None or s.problems)

    def digest(self) -> str:
        return outcome_digest(
            o for s in self.summaries if s is not None for o in s.outcomes
        )


class _Passes:
    """Several passes over the same units; per-unit walls are min-of-N."""

    def __init__(self, passes: list[_Pass]) -> None:
        self.passes = passes
        self.walls = [min(w) for w in zip(*(p.walls for p in passes))]
        self.summaries = passes[0].summaries
        self.errors = [e for p in passes for e in p.errors]
        digests = {p.digest() for p in passes}
        if len(digests) > 1:
            self.errors.append(f"passes disagree on the outcome digest: {sorted(digests)}")
        self.deterministic = len(digests) == 1

    @property
    def attempted(self) -> int:
        return sum(len(p.walls) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    @property
    def correct(self) -> bool:
        return self.deterministic and self.failed == 0

    def ok(self) -> list[UnitSummary]:
        return [s for s in self.summaries if s is not None]


def _set_up(workload, scale: Scale, seed: int) -> tuple[Any, float]:
    """One timed set-up: build the workload and run its warm-up unit."""
    start = time.perf_counter()
    data = workload.setup(scale)
    warm = workload.unit(data, scale, -1, unit_rng(seed, -1))
    seconds = time.perf_counter() - start
    problems = workload.summarise(data, warm).problems
    if problems:
        raise RuntimeError(f"warm-up unit failed its checks: {problems[:3]}")
    return data, seconds


def _measure(workload, scale: Scale, seed: int, seconds: float):
    setup_times, data = [], None
    for _ in range(scale.setups):
        data = None  # release the previous set-up before building the next
        data, setup_s = _set_up(workload, scale, seed)
        setup_times.append(setup_s)
    run = _Pass(workload, data, scale, seed)
    start = time.perf_counter()
    for index in range(max(MIN_UNITS, round(seconds / workload.nominal_unit_s))):
        run.run(index)
        if time.perf_counter() - start >= MAX_MEASURE_S:
            break
    return _Passes([run]), setup_times


def _end_to_end(units: _Passes, setup_times: list[float]) -> tuple[dict, dict]:
    ok = units.ok()
    wall = sum(units.walls)
    inputs = sum(s.inputs for s in ok)
    found = sum(s.adversarials for s in ok)
    l2 = [v for s in ok for v in s.l2]
    ordered = sorted(units.walls)
    n = len(ordered)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "inputs_per_s": inputs / wall if wall else 0.0,
        "adversarials_per_s": found / wall if wall else 0.0,
        "unit_s.p50": statistics.median(ordered),
        # The slowest unit with ten units beyond it.
        "unit_s.tail": ordered[max(n - 11, 0)],
        "success_rate": found / inputs if inputs else 0.0,
        "mean_l2": float(np.mean(l2)) if l2 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "units": n,
        "unit_s.tail_percentile": 100.0 * max(n - 10, 0) / n,
        "error_rate": units.failed / units.attempted,
        "setup_s.samples": setup_times,
        "inputs": inputs,
        "adversarials": found,
        "unit_walls_s": units.walls,
        "outcome_digest": units.passes[0].digest(),
    }
    n_attack = sum(s.extra.get("n_attack", 0) for s in ok)
    if n_attack:
        fooled_before = sum(s.extra["fooled_before"] for s in ok)
        fooled_after = sum(s.extra["fooled_after"] for s in ok)
        extra["attack_rate_drop"] = (fooled_before - fooled_after) / n_attack
    return metrics, extra


def _per_layer(rec: SpanRecorder, telemetry: dict, n_units: int, overhead: float) -> dict:
    """Per-layer metrics of the traced passes; sums are per traced unit."""
    self_times = rec.self_times()
    self_s: dict[str, float] = defaultdict(float)
    rows: dict[str, int] = defaultdict(int)
    aux: dict[str, int] = defaultdict(int)
    unit_wall = 0.0
    waves = attempts = found = 0
    for index, name in enumerate(rec.names):
        self_s[name] += self_times[index]
        rows[name] += rec.rows[index]
        aux[name] += rec.aux[index]
        if name == "unit":
            unit_wall += rec.ends[index] - rec.starts[index]
        parent = rec.parents[index]
        if name == "executor" and parent >= 0 and rec.names[parent].startswith("campaign"):
            attempts += rec.rows[index]
            found += rec.aux[index]
            waves += rec.names[parent] == "campaign.generate"
    counters = telemetry.get("counters", {})
    requests = counters.get("encode_requests", 0)
    encodes = counters.get("encodes", 0)

    def rate(layer: str) -> float:
        return rows[layer] / self_s[layer] if self_s[layer] > 0 else 0.0

    out = {
        metric: self_s[metric[: -len(".self_s")]] / n_units
        for metric in PER_LAYER
        if metric.endswith(".self_s")
    }
    for layer in ("encoders.delta", "encoders.scratch", "am.query", "packed.query",
                  "packed.update", "model.retrain"):
        out[f"{layer}.rows"] = rows[layer] / n_units
    out.update({
        "encoders.delta.rows_per_s": rate("encoders.delta"),
        "am.query.rows_per_s": rate("am.query"),
        "mutations.children": rows["mutations"] / n_units,
        "constraints.rejected_frac": (
            aux["constraints"] / rows["constraints"] if rows["constraints"] else 0.0
        ),
        "engine.iterations": counters.get("iterations", 0) / n_units,
        "engine.cache_hit_rate": telemetry.get("cache_hits", 0) / requests if requests else 0.0,
        "engine.retired_per_1k_encodes": (
            1000.0 * counters.get("retired", 0) / encodes if encodes else 0.0
        ),
        "campaign.waves": waves / n_units,
        "campaign.attempts_per_adversarial": attempts / found if found else 0.0,
        "trace.overhead_frac": overhead,
        "trace.residual_frac": self_s["unit"] / unit_wall if unit_wall else 0.0,
    })
    return {metric: out[metric] for metric in PER_LAYER}


def _trace(workload, scale: Scale, seed: int, results_dir: Optional[Path]):
    recorder = SpanRecorder()
    telemetry = CampaignTelemetry()
    plain, traced = [], []
    traced_hooks = {"telemetry": telemetry, "recorder": recorder}
    for _ in range(scale.setups):
        data, _ = _set_up(workload, scale, seed)
        for passes, hooks in ((plain, {}), (traced, traced_hooks)):
            run = _Pass(workload, data, scale, seed)
            for index in range(scale.trace_units):
                run.run(index, **hooks)
            passes.append(run)
        data = None
    plain_wall = sum(_Passes(plain).walls)
    overhead = sum(_Passes(traced).walls) / plain_wall - 1.0 if plain_wall else 0.0
    n_traced = len(traced) * scale.trace_units
    metrics = _per_layer(recorder, telemetry.snapshot(), n_traced, overhead)
    if results_dir is not None:
        recorder.dump(results_dir / f"{workload.name}-seed{seed}-spans.json")
    multiprocess = workload.name == "ensemble-shared-k5" and is_multiprocess(
        ensemble_executor(scale)
    )
    extra = {
        "units": scale.trace_units,
        "outcome_digest": plain[0].digest(),
        "traced_outcome_digest": traced[0].digest(),
        "spans": len(recorder),
        "span_scope": "parent process only" if multiprocess else "whole campaign",
        "telemetry_counters": telemetry.snapshot()["counters"],
    }
    return _Passes(plain + traced), metrics, extra


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale,
    results_dir: Optional[Path] = None,
    root: Optional[Path] = None,
) -> dict:
    """Run workload *name* once; returns the full result record."""
    workload = WORKLOADS[name]
    if trace:
        units, metrics, extra = _trace(workload, scale, seed, results_dir)
        unit_names = PER_LAYER
    else:
        units, setup_times = _measure(workload, scale, seed, seconds)
        metrics, extra = _end_to_end(units, setup_times)
        unit_names = END_TO_END
    return {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "setups": scale.setups,
        "host": host_block(root or Path.cwd(), seed, scale),
        "metrics": metrics,
        "units": unit_names,
        "extra": extra,
        "attempted": units.attempted,
        "failed": units.failed,
        "correct": units.correct,
        "errors": units.errors,
    }
