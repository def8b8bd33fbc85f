"""The loop's "children → predictions" step, run in this process.

Every Alg. 1 iteration encodes the in-budget children of every active
input and asks the target for its predictions.  :class:`LocalPredictor`
does that for every schedule: the serial and batched engines run it
in the calling process, and each process-pool worker runs its own.
It owns what the encode needs between iterations:

* one LRU dedupe cache per input of the run, keyed by child bytes,
  ``top_n × children_per_seed`` entries deep (one iteration's children)
  and dropped with the run.  Repeats are local in time: 72–74 % of
  ``shift``'s encode requests at D = 10 000 repeat a child of the same
  iteration, and every repeat across iterations is two iterations old,
  while ``gauss``/``rand``-style children almost never repeat, so a
  deeper or longer-lived cache holds rows that are never read again;
* on the incremental path, every input's survivor accumulators and
  quantised levels, replaced from the survivor order that
  :meth:`repro.fuzz.seeds.SeedPoolBatch.update` returns.

Two encode paths, picked by whether the target hands out a delta
surface:

* **incremental (delta)** — when the encoder exposes the
  :data:`~repro.fuzz.domains.DELTA_ENCODER_API` (the pixel, n-gram and
  record encoders do), children are encoded from their *parent seed's*
  accumulator, touching only the components the mutation changed.  The
  integer algebra is exact, so hypervectors are bit-identical to a full
  encode at a fraction of the work.  Ensemble targets stack one
  accumulator per member along a member axis.
* **direct** — any other encoder: the iteration's cache-missing
  children of every input are stacked into a single ``encode_batch``
  call.

Both paths hoist every per-child step to the iteration's concatenated
child block: quantisation (``child_levels``) runs once over the block,
cache keys come from one ``tobytes`` of the block sliced per row, the
cache-missing rows of *all* inputs go to one ragged
``accumulate_delta`` (or one ``encode_batch``) call, and one
``hvs_from_accumulators`` converts the assembled block.  Inside the
encoders the delta kernels of :mod:`repro.hdc.encoders._blocked`
scatter all children's changed components as one flat block, so an
iteration issues O(1) kernel calls per member however many inputs,
seeds or children are in flight.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.fuzz.targets import PredictionTarget, TargetPredictions
from repro.utils.cache import LRUCache

__all__ = ["LocalPredictor"]

#: One plan: ``(input index, in-budget children, parent seed per child)``.
Plan = tuple[int, np.ndarray, np.ndarray]


def _concat(blocks: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate``, handing a lone block back uncopied (one input)."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _child_keys(children: np.ndarray) -> list[bytes]:
    """Dedupe-cache keys of a child block: one ``tobytes``, sliced per row."""
    block = np.ascontiguousarray(children)
    blob = block.tobytes()
    row_nbytes = block[0].nbytes
    return [blob[j * row_nbytes : (j + 1) * row_nbytes] for j in range(len(block))]


class LocalPredictor:
    """Encode + predict children in this process, one engine run at a time.

    :meth:`seed` starts a run over its stacked originals; every
    :meth:`predict` then covers one iteration's plans, and :meth:`commit`
    keeps the survivors' side data for the next one.

    Parameters
    ----------
    target:
        The :class:`~repro.fuzz.targets.PredictionTarget` to query.
    surface:
        The target's delta surface (``target.delta_surface(...)``), or
        ``None`` to scratch-encode.
    cache_entries:
        Depth of each input's dedupe cache: the engine passes
        ``top_n × children_per_seed``, one iteration's children.
    telemetry:
        Recorder of the ``encode``/``query`` phases and encode counters.
    """

    def __init__(
        self,
        target: PredictionTarget,
        surface: Any,
        cache_entries: int,
        telemetry: Any,
    ) -> None:
        self._target = target
        self._surface = surface
        self._cache_entries = cache_entries
        self._obs = telemetry
        self._caches: list[LRUCache[bytes, Any]] = []
        # Delta path: each input's live seeds as (accumulators, levels),
        # fittest first, and this iteration's rows of each input's children.
        self._parents: list[tuple[np.ndarray, np.ndarray]] = []
        self._staged: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def seed(self, originals: np.ndarray) -> TargetPredictions:
        """Encode + predict the stacked originals, starting a run over them.

        Each original gets a fresh dedupe cache, replacing the previous
        run's caches.
        """
        obs, surface = self._obs, self._surface
        n = len(originals)
        self._caches = [LRUCache(self._cache_entries) for _ in range(n)]
        with obs.phase("encode"):
            if surface is not None:
                accs, levels = surface.seed_side_data(originals)
                bundle = surface.hvs_from_accumulators(accs)
                self._parents = [(accs[i : i + 1], levels[i : i + 1]) for i in range(n)]
            else:
                bundle = self._target.encode_batch(originals)
        with obs.phase("query"):
            return self._target.predict_hvs(bundle)

    def predict(
        self, plans: Sequence[Plan], with_similarities: bool = False
    ) -> tuple[TargetPredictions, tuple[np.ndarray, ...]]:
        """Predictions and hypervector bundle of every plan's children.

        Both cover the plans' concatenated children, in plan order.
        """
        with self._obs.phase("encode"):
            if self._surface is not None:
                bundle = self._encode_delta(plans)
            else:
                bundle = self._encode_direct(plans)
        with self._obs.phase("query"):
            predictions = self._target.predict_hvs(
                bundle, with_similarities=with_similarities
            )
        return predictions, bundle

    def commit(self, orders: Sequence[tuple[int, np.ndarray]]) -> None:
        """Keep each ``(input index, survivor order)``'s side data."""
        for index, order in orders:
            staged = self._staged.get(index)
            if staged is not None:
                accs, levels = staged
                self._parents[index] = (accs[order], levels[order])

    # -- encode paths -------------------------------------------------------
    def _count_encodes(self, n_children: int) -> None:
        """Count *n_children* actually-encoded rows (cache misses)."""
        self._obs.count("encoded_children", n_children)
        self._obs.count("encodes", n_children * self._target.n_encode_blocks)

    def _lookup(self, plans: Sequence[Plan], all_keys: list[bytes], bounds):
        """Look every plan's children up in its input's dedupe cache.

        Returns each plan's ``(keys, pinned)``, each plan's miss
        positions, and one ``(pinned, cache, key)`` slot per miss, in
        order.  Values are pinned in one dict per plan, so a child that
        repeats within the iteration is encoded once, and LRU eviction
        cannot drop an entry between its lookup and its use.
        """
        views, misses_by_plan, slots = [], [], []
        for p, (index, _, _) in enumerate(plans):
            cache = self._caches[index]
            pinned: dict[bytes, Any] = {}
            keys = all_keys[int(bounds[p]) : int(bounds[p + 1])]
            misses = []
            for j, key in enumerate(keys):
                if key not in pinned:
                    pinned[key] = cache.get(key)
                    if pinned[key] is None:
                        misses.append(j)
                        slots.append((pinned, cache, key))
            views.append((keys, pinned))
            misses_by_plan.append(misses)
        return views, misses_by_plan, slots

    @staticmethod
    def _store(slots, values) -> None:
        for value, (pinned, cache, key) in zip(values, slots):
            pinned[key] = value
            cache.put(key, value)

    def _encode_delta(self, plans: Sequence[Plan]) -> tuple[np.ndarray, ...]:
        """Incremental path: children encoded from parent accumulators.

        Cache entries hold compact integer accumulators (exact: the
        hypervector is a deterministic function of them), so a hit
        skips even the delta work.
        """
        surface = self._surface
        bounds = np.cumsum([0] + [len(children) for _, children, _ in plans])
        all_children = _concat([children for _, children, _ in plans])
        all_levels = surface.child_levels(all_children)
        all_keys = _child_keys(all_children)
        views, misses_by_plan, slots = self._lookup(plans, all_keys, bounds)
        if slots:
            rows, parent_levels, parent_accs = [], [], []
            for p, misses in enumerate(misses_by_plan):
                if misses:
                    index, _, parent_ids = plans[p]
                    positions = np.asarray(misses, dtype=np.int64)
                    rows.append(bounds[p] + positions)
                    accs, levels = self._parents[index]
                    parents = parent_ids[positions]
                    parent_levels.append(levels[parents])
                    parent_accs.append(accs[parents])
            global_rows = _concat(rows)
            self._count_encodes(len(global_rows))
            fresh = surface.accumulate_delta(
                all_levels[global_rows], _concat(parent_levels), _concat(parent_accs)
            )
            self._store(slots, fresh)
        if len(slots) == len(all_keys):
            # Every child missed and no key repeated: ``fresh`` is already
            # the block in order (the common case while caches are cold).
            all_accs = fresh
        else:
            all_accs = np.stack([pinned[key] for keys, pinned in views for key in keys])
        self._staged = {
            index: (all_accs[lo:hi], all_levels[lo:hi])
            for (index, _, _), lo, hi in zip(plans, bounds[:-1], bounds[1:])
        }
        return surface.hvs_from_accumulators(all_accs)

    def _encode_direct(self, plans: Sequence[Plan]) -> tuple[np.ndarray, ...]:
        """Scratch path: one fused ``encode_batch`` for all cache misses.

        Cache entries hold one row per encode block, so mixed-width
        ensembles share the machinery and shared-codebook ensembles
        cache a single row.
        """
        bounds = np.cumsum([0] + [len(children) for _, children, _ in plans])
        all_children = _concat([children for _, children, _ in plans])
        all_keys = _child_keys(all_children)
        views, misses_by_plan, slots = self._lookup(plans, all_keys, bounds)
        if slots:
            global_rows = _concat([
                bounds[p] + np.asarray(misses, dtype=np.int64)
                for p, misses in enumerate(misses_by_plan)
                if misses
            ])
            self._count_encodes(len(global_rows))
            fresh = self._target.encode_batch(all_children[global_rows])
            rows = [tuple(block[j] for block in fresh) for j in range(len(slots))]
            self._store(slots, rows)
            if len(slots) == len(all_keys):
                return fresh
        rows = [pinned[key] for keys, pinned in views for key in keys]
        return tuple(
            np.stack([row[m] for row in rows])
            for m in range(self._target.n_encode_blocks)
        )
