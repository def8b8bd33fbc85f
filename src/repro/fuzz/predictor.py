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
``accumulate_delta`` (or one ``encode_batch``) call per stage, and the
surface's ``query_blocks`` turns each stage's accumulators into what
the members query (packed sign words for bipolar popcount memories,
see :mod:`repro.fuzz.targets`).  Inside the encoders the delta kernels
of :mod:`repro.hdc.encoders._blocked` scatter all children's changed
components as one flat block, so an iteration issues O(1) kernel calls
per member and stage however many inputs, seeds or children are in
flight.

One query per distinct row.  Each stage queries the target once
(``predict_hvs``) over the rows it brings into the block — encoded
cache misses and cache hits — and a repeat of a row (``shift``'s
children collapse onto a few translations) copies that row's labels
and similarities; ``am_queries`` counts the rows queried, times the
members.  The oracle and the fitness both read the resulting
:class:`~repro.fuzz.targets.TargetPredictions`.

Nearest children first.  Alg. 1 stops an input at its first
discrepancy and reports the least-perturbed flipped child, so the
iteration that retires an input need not encode all its children.
:meth:`LocalPredictor.predict` returns the iteration's
:class:`ChildBlock`, which encodes and predicts in stages, each fused
across every active input.  On the delta path an input whose children
change at least :data:`~repro.hdc.encoders._blocked.SPLIT_ENTRIES`
entries per encode block (the kernel's two-core threshold) ranks them
by perturbation size, smallest first, ties to the lower index, and
runs in three stages: its nearest children whose changed entries reach
``SPLIT_ENTRIES``, then twice as many, then the rest.  Every other
input, and every input on the direct path, runs whole in the first
stage.  The engine retires an input at the first stage that shows a
discrepancy, with that stage's nearest flipped child; every child left
unencoded ranks after it, so the example is the one a whole-iteration
encode picks.  Rows land at their plan positions, so fitness, survivor
side data and cache stores see the children in their original order:
outcomes are bit-identical to encoding every child.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.fuzz.targets import PredictionTarget, TargetPredictions
from repro.hdc.encoders import _blocked
from repro.utils.cache import LRUCache

__all__ = ["ChildBlock", "LocalPredictor"]

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
        Recorder of the ``encode``/``query`` phases and the encode and
        AM-query counters.
    sizes:
        ``(original, children) → (n,)`` perturbation sizes that rank an
        input's children, nearest first: the engine passes its
        constraint's
        :meth:`~repro.fuzz.constraints.Constraint.perturbation_sizes`.
    """

    def __init__(
        self,
        target: PredictionTarget,
        surface: Any,
        cache_entries: int,
        telemetry: Any,
        sizes: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> None:
        self._target = target
        self._surface = surface
        self._cache_entries = cache_entries
        self._obs = telemetry
        self._sizes = sizes
        self._originals: Optional[np.ndarray] = None
        self._caches: list[LRUCache[bytes, Any]] = []
        # Delta path: each input's live seeds as (accumulators, levels),
        # fittest first.
        self._parents: list[tuple[np.ndarray, np.ndarray]] = []
        self._block: Optional[ChildBlock] = None

    def seed(self, originals: np.ndarray) -> TargetPredictions:
        """Encode + predict the stacked originals, starting a run over them.

        Each original gets a fresh dedupe cache, replacing the previous
        run's caches.
        """
        obs, surface = self._obs, self._surface
        n = len(originals)
        self._originals = originals
        self._caches = [LRUCache(self._cache_entries) for _ in range(n)]
        with obs.phase("encode"):
            if surface is not None:
                accs, levels = surface.seed_side_data(originals)
                bundle = surface.query_blocks(accs)
                self._parents = [(accs[i : i + 1], levels[i : i + 1]) for i in range(n)]
            else:
                bundle = self._target.encode_batch(originals)
        return self._query(bundle)

    def predict(self, plans: Sequence[Plan]) -> "ChildBlock":
        """The iteration's :class:`ChildBlock` over *plans*.

        Nothing is encoded until its :meth:`ChildBlock.stages` run.
        """
        self._block = ChildBlock(self, plans)
        return self._block

    def commit(self, orders: Sequence[tuple[int, np.ndarray]]) -> None:
        """Cache the iteration's encodes and keep the survivors' side data.

        *orders* holds ``(input index, survivor order)`` per surviving
        input.
        """
        # The block refers back to this predictor; dropping it here
        # breaks that cycle, so a finished run frees its rows at once.
        block, self._block = self._block, None
        block.store()
        if self._surface is not None:
            position = {plan[0]: p for p, plan in enumerate(block._plans)}
            for index, order in orders:
                accs, levels = block.side_data(position[index])
                self._parents[index] = (accs[order], levels[order])

    def _count_encodes(self, n_children: int) -> None:
        """Count *n_children* actually-encoded rows (cache misses)."""
        self._obs.count("encoded_children", n_children)
        self._obs.count("encodes", n_children * self._target.n_encode_blocks)

    def _query(self, bundle: tuple[np.ndarray, ...]) -> TargetPredictions:
        """The target's predictions over *bundle*'s rows, one query per row and member."""
        with self._obs.phase("query"):
            predictions = self._target.predict_hvs(bundle)
        self._obs.count("am_queries", len(predictions) * self._target.n_members)
        return predictions


class ChildBlock:
    """One iteration's children, encoded and predicted stage by stage.

    Rows are the plans' children concatenated in plan order: plan *p*
    holds rows ``bounds[p]:bounds[p + 1]``.  :attr:`labels` and
    :attr:`similarities` are filled at those rows as the stages reach
    them; a retired plan's later rows stay unset.
    Every child is looked up in its input's dedupe cache up front, in
    plan order, exactly as a whole-iteration encode does, and the
    encodes are stored back at :meth:`LocalPredictor.commit` in that
    order too, so caches evolve identically however an iteration is
    staged.

    Attributes
    ----------
    bounds:
        The ``n_plans + 1`` row offsets of the plans.
    retired:
        Plan positions the engine retired; they get no further stage.
    labels, similarities:
        ``(K, n)`` member labels and ``(K, n, C)`` similarities, one
        row per child.
    """

    def __init__(self, predictor: LocalPredictor, plans: Sequence[Plan]) -> None:
        self._predictor = predictor
        self._plans = plans
        self.bounds = [0]
        for _, children, _ in plans:
            self.bounds.append(self.bounds[-1] + len(children))
        self.retired: set[int] = set()
        self.labels: Optional[np.ndarray] = None
        self.similarities: Optional[np.ndarray] = None
        self._children = _concat([children for _, children, _ in plans])
        self._sizes: dict[int, np.ndarray] = {}
        # Delta path: accumulators at every reached row; direct path:
        # each encoded row's hypervectors, for the cache.
        self._accs: Optional[np.ndarray] = None
        self._encodes: dict[int, tuple[np.ndarray, ...]] = {}
        surface = predictor._surface
        with predictor._obs.phase("encode"):
            if surface is not None:
                self._levels = surface.child_levels(self._children)
                self._parent_levels = _concat([
                    predictor._parents[index][1][parent_ids]
                    for index, _, parent_ids in plans
                ])
            self._lookup()

    # -- set-up -------------------------------------------------------------
    def _lookup(self) -> None:
        """Find every child in its input's dedupe cache, in plan order.

        A repeat is served by the first row of its plan with the same
        bytes (``_source``, ``None`` when nothing repeats), whose cache
        hit (``_hits``) or encode serves it.  First rows that miss are
        ``_misses``; ``_ready`` marks the rows whose value is in the
        block (encoded misses and written hits).
        """
        keys = _child_keys(self._children)
        caches = self._predictor._caches
        source: Optional[np.ndarray] = None
        hits: dict[int, Any] = {}
        misses: list[list[int]] = []
        for p, (index, _, _) in enumerate(self._plans):
            cache = caches[index]
            first: dict[bytes, int] = {}
            plan_misses: list[int] = []
            for r in range(self.bounds[p], self.bounds[p + 1]):
                key = keys[r]
                if key in first:
                    if source is None:
                        source = np.arange(len(keys))
                    source[r] = first[key]
                    continue
                first[key] = r
                value = cache.get(key)
                if value is None:
                    plan_misses.append(r)
                else:
                    hits[r] = value
            misses.append(plan_misses)
        self._keys, self._source, self._hits, self._misses = keys, source, hits, misses
        self._ready = np.zeros(len(keys), dtype=bool)
        self._encoded = 0

    def sizes(self, p: int) -> np.ndarray:
        """Perturbation sizes of plan *p*'s children (computed once)."""
        if p not in self._sizes:
            index, children, _ = self._plans[p]
            predictor = self._predictor
            self._sizes[p] = predictor._sizes(predictor._originals[index], children)
        return self._sizes[p]

    def _stage_rows(self, p: int) -> list[np.ndarray]:
        """Plan *p*'s rows per stage, each stage's rows ascending."""
        lo, hi = self.bounds[p], self.bounds[p + 1]
        rows = np.arange(lo, hi)
        if self._predictor._surface is None:
            return [rows]
        # Only cache misses reach the kernel; hits and repeats cost nothing.
        misses = self._misses[p]
        encoded = slice(lo, hi) if len(misses) == hi - lo else misses
        changed = self._levels[encoded] != self._parent_levels[encoded]
        threshold = _blocked.SPLIT_ENTRIES * self._predictor._target.n_encode_blocks
        if np.count_nonzero(changed) < threshold:
            return [rows]
        entries = np.zeros(hi - lo, dtype=np.int64)
        entries[np.asarray(misses) - lo] = np.count_nonzero(
            changed.reshape(len(misses), -1), axis=1
        )
        order = np.argsort(self.sizes(p), kind="stable")
        first = int(np.searchsorted(np.cumsum(entries[order]), threshold)) + 1
        return [
            lo + np.sort(part)
            for part in np.split(order, [first, 3 * first])
            if part.size
        ]

    # -- stages ------------------------------------------------------------
    def stages(self) -> Iterator[list[tuple[int, np.ndarray]]]:
        """Encode + predict stage by stage; yields each stage's ``(plan, rows)``.

        A plan the engine adds to :attr:`retired` after a stage gets no
        later one.  Once the stages run out, the cache misses never
        encoded count as ``children_skipped``.
        """
        schedule = [self._stage_rows(p) for p in range(len(self._plans))]
        for s in range(max(len(stages) for stages in schedule)):
            work = [
                (p, stages[s])
                for p, stages in enumerate(schedule)
                if s < len(stages) and p not in self.retired
            ]
            if not work:
                break
            self._run(_concat([rows for _, rows in work]))
            yield work
        n_misses = sum(len(plan_misses) for plan_misses in self._misses)
        self._predictor._obs.count("children_skipped", n_misses - self._encoded)

    def _run(self, rows: np.ndarray) -> None:
        """Encode and predict *rows*, writing them into the block.

        Only the rows the block does not hold yet are brought in —
        encoded if they missed the cache, read from it if they hit —
        and queried; a repeat copies its first row's results.
        """
        predictor = self._predictor
        n = len(self._keys)
        sources = rows if self._source is None else self._source[rows]
        if self._hits or self._source is not None:
            # The first rows this stage needs that are not in the block yet.
            needed = np.unique(sources)
            pending = needed[~self._ready[needed]]
            hit = np.fromiter(
                (r in self._hits for r in pending.tolist()), bool, pending.size
            )
            encode, hits = pending[~hit], pending[hit]
        else:  # every row its own miss, and no stage reaches a row twice
            pending = encode = rows
            hits = rows[:0]
        with predictor._obs.phase("encode"):
            if predictor._surface is None:
                blocks = self._encode_direct(pending, encode)
            else:
                blocks = self._encode_delta(rows, sources, pending, encode, hits)
        self._ready[pending] = True
        self._encoded += encode.size
        if pending.size == n:  # the whole block, every row distinct
            predictions = predictor._query(blocks)
            self.labels, self.similarities = predictions.labels, predictions.similarities
            return
        if pending.size:
            predictions = predictor._query(blocks)
            if self.labels is None:
                k, _, c = predictions.similarities.shape
                self.labels = np.empty((k, n), np.int64)
                self.similarities = np.empty((k, n, c))
            self.labels[:, pending] = predictions.labels
            self.similarities[:, pending] = predictions.similarities
        if self._source is not None:
            repeat = sources != rows
            self.labels[:, rows[repeat]] = self.labels[:, sources[repeat]]
            self.similarities[:, rows[repeat]] = self.similarities[:, sources[repeat]]

    def _encode_delta(self, rows, sources, pending, encode, hits):
        """Incremental path: the query blocks of *pending*'s rows.

        *encode*'s rows are delta-encoded from their parents'
        accumulators.  Accumulators land in the block at their rows, as
        do the cached ones of *hits* (cache entries are compact integer
        accumulators, exact: the query is a deterministic function of
        them), and repeats copy their first row's, so every row of the
        stage has its side data.
        """
        predictor = self._predictor
        surface = predictor._surface
        fresh = None
        if encode.size:
            predictor._count_encodes(encode.size)
            # A whole block of misses passes its level blocks uncopied.
            take = slice(None) if encode.size == len(self._keys) else encode
            fresh = surface.accumulate_delta(
                self._levels[take], self._parent_levels[take],
                self._parent_accs(encode),
            )
        if encode.size == len(self._keys):
            # Every child missed and no key repeated: ``fresh`` is
            # already the block in order (the common whole iteration).
            self._accs = fresh
            return surface.query_blocks(fresh)
        if self._accs is None:
            template = predictor._parents[self._plans[0][0]][0]
            self._accs = np.empty((len(self._keys),) + template.shape[1:], template.dtype)
        accs = self._accs
        if fresh is not None:
            accs[encode] = fresh
        for r in hits.tolist():
            accs[r] = self._hits[r]
        if self._source is not None:
            repeat = sources != rows
            accs[rows[repeat]] = accs[sources[repeat]]
        if not pending.size:
            return ()
        return surface.query_blocks(fresh if not hits.size else accs[pending])

    def _parent_accs(self, rows: np.ndarray) -> np.ndarray:
        """Parent accumulators of ascending *rows*, gathered plan by plan."""
        parents = self._predictor._parents
        if rows.size == len(self._keys):
            return _concat([
                parents[index][0][parent_ids] for index, _, parent_ids in self._plans
            ])
        cuts = np.searchsorted(rows, self.bounds)
        blocks = []
        for p, (index, _, parent_ids) in enumerate(self._plans):
            part = rows[cuts[p] : cuts[p + 1]]
            if part.size:
                blocks.append(parents[index][0][parent_ids[part - self.bounds[p]]])
        return _concat(blocks)

    def _encode_direct(self, pending, encode) -> tuple[np.ndarray, ...]:
        """Scratch path: one fused ``encode_batch`` for every cache miss.

        It runs whole, in one stage, and returns the hypervector blocks
        of *pending*'s rows.  Cache entries hold one row per encode
        block, so mixed-width ensembles share the machinery and
        shared-codebook ensembles cache a single row.
        """
        predictor = self._predictor
        target = predictor._target
        fresh: tuple[np.ndarray, ...] = ()
        if encode.size:
            predictor._count_encodes(encode.size)
            fresh = target.encode_batch(self._children[encode])
        self._encodes = {
            r: tuple(block[j] for block in fresh) for j, r in enumerate(encode.tolist())
        }
        if encode.size == pending.size:  # no cache hits: the encodes are the rows
            return fresh
        values = {**self._hits, **self._encodes}
        return tuple(
            np.stack([values[r][m] for r in pending.tolist()])
            for m in range(target.n_encode_blocks)
        )

    # -- results -------------------------------------------------------------
    def predictions(self, rows) -> TargetPredictions:
        """Member predictions at *rows* (an index array or a slice)."""
        return TargetPredictions(self.labels[:, rows], self.similarities[:, rows])

    def side_data(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Accumulators + levels of plan *p*'s children, in plan order."""
        lo, hi = self.bounds[p], self.bounds[p + 1]
        return self._accs[lo:hi], self._levels[lo:hi]

    def store(self) -> None:
        """Put every encoded child in its input's cache, in plan order."""
        caches = self._predictor._caches
        values = self._accs if self._predictor._surface is not None else self._encodes
        encoded = self._ready.tolist()
        for (index, _, _), plan_misses in zip(self._plans, self._misses):
            cache = caches[index]
            for r in plan_misses:
                if encoded[r]:
                    cache.put(self._keys[r], values[r])
