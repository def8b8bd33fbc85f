"""In-memory span recorder and the layer wrappers of the traced run.

Tracing lives entirely in the benchmark: :func:`traced_layers` wraps the
*public* entry points of each layer of ``repro`` (class methods and
module functions) for the duration of a ``with`` block and restores the
originals on exit.  Every wrapped call records one span — layer name,
start, end, parent span, plus a row count where the layer has one — in
flat in-memory lists; :meth:`SpanRecorder.dump` writes them out once,
when the run ends.

A layer's *self time* is its span time minus the time its child spans
cover.  Spans nest strictly (one thread), so the children's durations
simply add up.  A call that re-enters the layer it is already in (an
``encode_batch`` that calls ``accumulate_batch``, a ``predict`` that
calls ``similarities``) records no second span, so rows are counted
once per public call.

Only the calling process is traced: process-pool executors run their
engines in workers whose spans are not collected.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

__all__ = ["SpanRecorder", "traced_layers"]


def _n(x: Any) -> int:
    """Row count of an array-like argument (a 1-D vector is one row)."""
    shape = getattr(x, "shape", None)
    if shape is not None:
        return 1 if len(shape) <= 1 else int(shape[0])
    return len(x)


# Row counters: ``(args, result) -> (rows, aux)``; ``args[0]`` is ``self``.
def _rows_arg1(args, result):
    return _n(args[1]), 0


def _rows_result(args, result):
    return _n(result), 0


def _accept_rows(args, result):
    rows = _n(args[2])
    return rows, rows - int(result.sum())


def _executor_rows(args, result):
    # rows = inputs scheduled (``run(model, strategy, inputs, ...)``),
    # aux = discrepancies the run found.
    return len(result.outcomes), int(result.n_success)


class SpanRecorder:
    """Spans of one traced run, kept in flat parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.aux: list[int] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rows.append(0)
        self.aux.append(0)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def current(self) -> Optional[str]:
        return self.names[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, fn: Callable, layer: str, count: Optional[Callable] = None) -> Callable:
        """*fn* recording one *layer* span per call (none when re-entered)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current() == layer:
                return fn(*args, **kwargs)
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                self.rows[index], self.aux[index] = count(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per-span duration minus the duration of its direct children."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[index] - self.starts[index]
        return out

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent, rows, aux]``."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [n, round(s - t0, 9), round(e - t0, 9), p, r, a]
            for n, s, e, p, r, a in zip(
                self.names, self.starts, self.ends, self.parents, self.rows, self.aux
            )
        ]
        fields = ["name", "start_s", "end_s", "parent", "rows", "aux"]
        path.write_text(json.dumps({"fields": fields, "spans": rows}))


def _layer_table() -> list[tuple[list[type], str, str, Optional[Callable]]]:
    """``(classes, method, layer, row counter)`` for every wrapped method."""
    from repro.fuzz.batch import BatchedHDTest
    from repro.fuzz.constraints import Constraint
    from repro.fuzz.executor import CampaignExecutor
    from repro.fuzz.fitness import FitnessFunction
    from repro.fuzz.fuzzer import HDTest
    from repro.fuzz.mutations import MutationStrategy
    from repro.fuzz.oracle import DifferentialOracle
    from repro.fuzz.seeds import SeedPool, SeedPoolBatch
    from repro.fuzz.targets import PredictionTarget
    from repro.hdc.associative_memory import AssociativeMemory
    from repro.hdc.backends.binary import PackedAssociativeMemory
    from repro.hdc.backends.bipolar import PackedBipolarAssociativeMemory
    from repro.hdc.binary_model import BinaryAssociativeMemory, BinaryHDCClassifier
    from repro.hdc.encoders.base import Encoder
    from repro.hdc.model import HDCClassifier

    dense_am = [AssociativeMemory, BinaryAssociativeMemory]
    packed_am = [PackedBipolarAssociativeMemory, PackedAssociativeMemory]
    models = [HDCClassifier, BinaryHDCClassifier]
    return [
        ([Encoder], "accumulate_delta", "encoders.delta", _rows_arg1),
        ([Encoder], "accumulate_batch", "encoders.scratch", _rows_arg1),
        ([Encoder], "encode_batch", "encoders.scratch", _rows_arg1),
        ([Encoder], "hvs_from_accumulators", "encoders.binarize", _rows_arg1),
        (dense_am, "similarities", "am.query", _rows_arg1),
        (dense_am, "predict", "am.query", _rows_arg1),
        (packed_am, "similarities", "packed.query", _rows_arg1),
        (packed_am, "predict", "packed.query", _rows_arg1),
        (packed_am, "add", "packed.update", _rows_arg1),
        (packed_am, "subtract", "packed.update", _rows_arg1),
        (models, "retrain", "model.retrain", _rows_arg1),
        (models, "score", "model.score", _rows_arg1),
        ([MutationStrategy], "mutate", "mutations", _rows_result),
        ([Constraint], "clip", "constraints", None),
        ([Constraint], "accept", "constraints", _accept_rows),
        ([FitnessFunction], "scores", "fitness", None),
        ([FitnessFunction], "scores_ensemble", "fitness", None),
        ([DifferentialOracle], "discrepancies", "oracle", None),
        ([DifferentialOracle], "discrepancies_ensemble", "oracle", None),
        ([DifferentialOracle], "reference_discrepancy", "oracle", None),
        ([SeedPool, SeedPoolBatch], "update", "seeds", None),
        ([PredictionTarget], "predict_hvs", "targets", None),
        ([HDTest], "fuzz_one", "engine", None),
        ([BatchedHDTest], "fuzz_outcomes", "engine", None),
        ([CampaignExecutor], "run", "executor", _executor_rows),
    ]


#: Module-level entry points: ``(module, function, layer)``.
_FUNCTIONS = (
    ("repro.fuzz.campaign", "compare_strategies", "campaign"),
    ("repro.fuzz.campaign", "generate_adversarial_set", "campaign.generate"),
    ("repro.defense", "run_defense", "defense"),
)


def _hierarchy(roots: list[type]) -> list[type]:
    seen: list[type] = []
    todo = list(roots)
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


@contextmanager
def traced_layers(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point into *recorder*; restore them on exit."""
    import importlib

    undo: list[tuple[Any, str, Any]] = []
    try:
        for roots, method, layer, count in _layer_table():
            for cls in _hierarchy(roots):
                original = cls.__dict__.get(method)
                if original is None or not callable(original):
                    continue
                undo.append((cls, method, original))
                setattr(cls, method, recorder.wrap(original, layer, count))
        for module_name, name, layer in _FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            undo.append((module, name, original))
            setattr(module, name, recorder.wrap(original, layer))
        yield recorder
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
