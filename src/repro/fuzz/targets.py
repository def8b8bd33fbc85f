"""Prediction targets: the model-interaction surface of the fuzzing engines.

HDTest's oracle (Sec. IV) is *self*-differential: one model, compared
against its own prediction on the unmutated input.  HDXplore (Thapa et
al., 2021) showed the stronger form for HDC — run K independently-seeded
models on the same input and hunt for *cross-model* discrepancies, then
feed them back to retrain and harden the members.  Both engines now
talk to the system under test exclusively through a
:class:`PredictionTarget`:

* :class:`SingleModelTarget` — one classifier, today's behaviour.  Every
  call is a pass-through to the wrapped model, so K = 1 campaigns are
  **bit-identical** to the pre-abstraction engines (property-tested in
  ``tests/fuzz/test_targets.py``).
* :class:`ModelEnsembleTarget` — K ≥ 2 members with independently-spawned
  item memories (mixed families welcome: dense bipolar next to packed
  binary).  Batched ``predict`` / ``similarities`` run every member
  lock-step over the same child block — one fused call per member per
  iteration, with per-member delta encoding riding the seed pools — so
  K-model fuzzing costs roughly K single-model iterations rather than a
  serial re-fuzz per member (``benchmarks/bench_ensemble_fuzzing.py``).

The ensemble's oracles (:class:`~repro.fuzz.oracle.CrossModelOracle`,
:class:`~repro.fuzz.oracle.MajorityOracle`) and guidance signal
(:class:`~repro.fuzz.fitness.AgreementMarginFitness`) consume the
:class:`TargetPredictions` bundles produced here; the discrepancy
*debugging* loop that retrains members on what the fuzzer finds lives
in :func:`repro.defense.retrain.debug_ensemble`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, NotTrainedError
from repro.hdc.associative_memory import AssociativeMemory, check_am_shape
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import check_labels, open_npz

__all__ = [
    "TargetPredictions",
    "TargetReference",
    "MemberShard",
    "PredictionTarget",
    "SingleModelTarget",
    "ModelEnsembleTarget",
    "SharedCodebookEnsembleTarget",
    "resolve_target",
    "vote_counts",
    "majority_vote",
]

#: Methods every fuzzable member must expose (the Sec. IV grey-box API).
GREYBOX_API = ("encode", "encode_batch", "predict_hv", "reference_hv")


# -- ensemble voting helpers ------------------------------------------------
def vote_counts(member_labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class vote counts of a ``(K, n)`` member-label block → ``(n, C)``."""
    labels = np.atleast_2d(np.asarray(member_labels, dtype=np.int64))
    counts = np.zeros((labels.shape[1], int(n_classes)), dtype=np.int64)
    rows = np.arange(labels.shape[1])
    for member in labels:
        counts[rows, member] += 1
    return counts

def majority_vote(member_labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Majority label per column of a ``(K, n)`` block (ties → lowest label)."""
    return vote_counts(member_labels, n_classes).argmax(axis=1).astype(np.int64)


class TargetPredictions:
    """Lock-step member predictions over one child block.

    Attributes
    ----------
    labels:
        ``(K, n)`` int64 — member *m*'s predicted class for child *j*.
    similarities:
        ``(K, n, C)`` float64 per-class similarities, or ``None`` when
        the consumer (oracle + fitness) only needs labels.
    """

    __slots__ = ("labels", "similarities")

    def __init__(self, labels: np.ndarray, similarities: Optional[np.ndarray] = None):
        self.labels = labels
        self.similarities = similarities

    @property
    def n_members(self) -> int:
        return int(self.labels.shape[0])

    def __len__(self) -> int:
        return int(self.labels.shape[1])

    def slice(self, lo: int, hi: int) -> "TargetPredictions":
        """Column slice ``[lo, hi)`` — one plan's children out of a fused block."""
        return TargetPredictions(
            self.labels[:, lo:hi],
            None if self.similarities is None else self.similarities[:, lo:hi],
        )


class TargetReference:
    """Per-input reference data: what "unchanged behaviour" means.

    Attributes
    ----------
    label:
        The scalar reference label reported in outcomes — the model's
        prediction for a single model, the (deterministic) majority
        vote for an ensemble.
    votes:
        ``(K,)`` member labels on the original input.
    fitness_hv:
        ``AM[label]`` of a single model (what the cosine fitnesses
        score against); ``None`` for ensembles, whose fitness consumes
        :class:`TargetPredictions` instead.
    """

    __slots__ = ("label", "votes", "fitness_hv")

    def __init__(self, label: int, votes: np.ndarray, fitness_hv: Optional[np.ndarray]):
        self.label = label
        self.votes = votes
        self.fitness_hv = fitness_hv


# -- delta (incremental encoding) surfaces ---------------------------------
def _acc_dtype(component_count: int) -> type:
    """Accumulator storage dtype: exact at paper scale, widens as needed."""
    return np.int16 if component_count <= np.iinfo(np.int16).max else np.int32


def _levels_dtype(encoder: Any) -> type:
    return (
        np.int16
        if getattr(encoder, "levels", 256) <= np.iinfo(np.int16).max
        else np.int64
    )


class _SingleDeltaSurface:
    """Incremental-encoding algebra of one model's encoder.

    Exact port of the pre-abstraction engine helpers (same operations,
    same compact dtypes), so the single-model delta path stays
    bit-identical to scratch re-encoding *and* to the historical
    implementation.
    """

    __slots__ = ("_encoder",)

    def __init__(self, encoder: Any) -> None:
        self._encoder = encoder

    def child_levels(self, batch: np.ndarray) -> np.ndarray:
        """Quantised levels of *batch*, flattened per item, compact dtype."""
        levels = self._encoder.quantize(batch).reshape(batch.shape[0], -1)
        return levels.astype(_levels_dtype(self._encoder))

    def seed_side_data(self, stacked: np.ndarray):
        """Accumulators + levels of generation-0 inputs, compact dtypes."""
        accs = self._encoder.accumulate_batch(stacked).astype(
            _acc_dtype(stacked[0].size)
        )
        return accs, self.child_levels(stacked)

    def accumulate_delta(self, child_levels, parent_levels, parent_accs):
        # Children obey the same |acc| ≤ component-count bound as the
        # parents, so the pool's compact dtype is exact end-to-end — no
        # int64 round-trip (~4× less memory traffic per block).
        return self._encoder.accumulate_delta(
            child_levels, parent_levels, parent_accs,
            result_dtype=parent_accs.dtype,
        )

    def hvs_from_accumulators(self, accs: np.ndarray) -> tuple[np.ndarray, ...]:
        return (self._encoder.hvs_from_accumulators(accs),)


class _EnsembleDeltaSurface:
    """Per-member delta algebra, stacked along a member axis.

    Side arrays carry one extra leading "member" axis per seed —
    accumulators ``(K, D)`` and levels ``(K, P)`` — so each surviving
    seed can parent member *m*'s children from member *m*'s own
    accumulator.  Quantisation can differ across members (mixed
    families), hence per-member level rows too.
    """

    __slots__ = ("_members",)

    def __init__(self, encoders: Sequence[Any]) -> None:
        self._members = [_SingleDeltaSurface(e) for e in encoders]

    def child_levels(self, batch: np.ndarray) -> np.ndarray:
        return np.stack([m.child_levels(batch) for m in self._members], axis=1)

    def seed_side_data(self, stacked: np.ndarray):
        pairs = [m.seed_side_data(stacked) for m in self._members]
        accs = np.stack([acc for acc, _ in pairs], axis=1)
        levels = np.stack([lvl for _, lvl in pairs], axis=1)
        return accs, levels

    def accumulate_delta(self, child_levels, parent_levels, parent_accs):
        return np.stack(
            [
                m.accumulate_delta(
                    child_levels[:, i], parent_levels[:, i], parent_accs[:, i]
                )
                for i, m in enumerate(self._members)
            ],
            axis=1,
        )

    def hvs_from_accumulators(self, accs: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(
            m.hvs_from_accumulators(accs[:, i])[0]
            for i, m in enumerate(self._members)
        )


# -- targets ----------------------------------------------------------------
@dataclass(frozen=True)
class MemberShard:
    """What one member-sharded worker owns: a single member's compute state.

    The member-sharded executor splits a target by *member* rather than
    by input: worker *m* receives exactly one shard and never sees the
    other K−1 members.  ``payload`` is deliberately the **smallest**
    object that can answer that member's queries — the full classifier
    when the member encodes its own hypervector block
    (``encodes_locally=True``, independent codebooks), but only the
    member's :class:`~repro.hdc.associative_memory.AssociativeMemory`
    for shared-codebook ensembles, where the parent encodes once and the
    (possibly large, possibly rematerialized) codebook never crosses the
    process boundary at all.
    """

    member_index: int
    payload: Any
    encodes_locally: bool

    def predict_block(self, hvs: np.ndarray, *, with_similarities: bool = False):
        """This member's ``(labels, sims-or-None)`` rows over *hvs*.

        Mirrors the corresponding rows of the parent target's
        ``predict_hvs`` exactly (same argmax, same dtypes): a model's
        ``predict_hv`` is its AM's ``predict`` in every family (asserted
        by the conformance suite), so querying the AM reproduces the
        lock-step rows bit for bit.
        """
        am = self.payload.associative_memory if self.encodes_locally else self.payload
        if with_similarities:
            sims = am.similarities(hvs)
            return sims.argmax(axis=1).astype(np.int64), sims
        return np.asarray(am.predict(hvs), dtype=np.int64), None


class PredictionTarget(ABC):
    """What the fuzzing engines interrogate: one model, or K in lock-step.

    Hypervectors cross the interface as *bundles* — one array per
    member, because members encode through independent (and possibly
    differently-packed) codebooks.  Everything else is stacked along a
    leading member axis.
    """

    # -- composition -------------------------------------------------------
    @property
    @abstractmethod
    def members(self) -> tuple[Any, ...]:
        """The underlying classifiers, primary first."""

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def n_encode_blocks(self) -> int:
        """How many hypervector blocks :meth:`encode_batch` emits.

        One per member by default (independent codebooks encode
        independently); a shared-codebook ensemble emits a single block
        that all K associative memories query — the engines size their
        fused encode work off this, not off ``n_members``.
        """
        return self.n_members

    @property
    def primary(self) -> Any:
        """The member that anchors domain resolution and reporting."""
        return self.members[0]

    @property
    def n_classes(self) -> int:
        return int(self.primary.n_classes)

    # -- validation --------------------------------------------------------
    @staticmethod
    def check_member(model: Any) -> None:
        """Reject models lacking the grey-box fuzzing API (Sec. IV)."""
        missing = [n for n in GREYBOX_API if not callable(getattr(model, n, None))]
        if missing or not hasattr(model, "is_trained"):
            raise ConfigurationError(
                f"model {type(model).__name__} lacks the grey-box fuzzing API "
                f"(missing: {missing if missing else ['is_trained']})"
            )
        if not model.is_trained:
            raise NotTrainedError("cannot fuzz an untrained model")

    def training_counts(self) -> bytes:
        """Per-class training counts of every member, as bytes.

        Campaign schedulers (the process executor's broadcast-reuse
        check) use this to detect in-place retraining of any member.
        """
        chunks = []
        for member in self.members:
            am = getattr(member, "associative_memory", None)
            chunks.append(am.counts.tobytes() if am is not None else b"")
        return b"|".join(chunks)

    # -- member sharding ----------------------------------------------------
    def member_shards(self) -> tuple[MemberShard, ...]:
        """Split this target into one self-contained shard per member.

        Default: each shard carries the full member classifier and
        encodes its own hypervector block (independent codebooks).
        Shared-codebook targets override this to ship only each
        member's associative memory.
        """
        return tuple(
            MemberShard(i, member, True) for i, member in enumerate(self.members)
        )

    # -- encode / predict surface ------------------------------------------
    @abstractmethod
    def encode_batch(self, children: np.ndarray) -> tuple[np.ndarray, ...]:
        """Scratch-encode *children* once per member → per-member bundle."""

    @abstractmethod
    def predict_hvs(
        self, bundle: tuple[np.ndarray, ...], *, with_similarities: bool = False
    ) -> TargetPredictions:
        """Predict every member's labels over its bundle entry, lock-step."""

    @abstractmethod
    def reference(self, predictions: TargetPredictions, index: int = 0) -> TargetReference:
        """Reference data for input *index* of a prediction block."""

    # -- incremental encoding ----------------------------------------------
    @abstractmethod
    def delta_encoder(self, domain: Any) -> Any:
        """Opaque delta-capable encoder handle, or ``None`` for scratch.

        The engines route this through an overridable hook
        (``HDTest._delta_encoder``) so tests and benchmarks can force
        the scratch path; pass the result to :meth:`delta_surface`.
        """

    @abstractmethod
    def delta_surface(self, encoder_handle: Any):
        """Wrap :meth:`delta_encoder`'s result into a delta surface."""

    # -- convenience (raw inputs) ------------------------------------------
    def predict(self, inputs: Sequence[Any]) -> np.ndarray:
        """Member predictions on raw inputs → ``(K, n)`` int64."""
        return self.predict_hvs(self.encode_batch(inputs)).labels

    def similarities(self, inputs: Sequence[Any]) -> np.ndarray:
        """Member per-class similarities on raw inputs → ``(K, n, C)``."""
        return self.predict_hvs(
            self.encode_batch(inputs), with_similarities=True
        ).similarities

    # -- re-targeting -------------------------------------------------------
    def with_backend(self, backend: Optional[str]) -> "PredictionTarget":
        """Re-target every member for a compute *backend* (exact)."""
        if backend is None or backend == "dense":
            return self
        from repro.hdc.backends.dispatch import resolve_model_backend

        return type(self)(*[resolve_model_backend(m, backend) for m in self.members])

    def __repr__(self) -> str:
        names = ", ".join(type(m).__name__ for m in self.members)
        return f"{type(self).__name__}({names})"


class SingleModelTarget(PredictionTarget):
    """The paper's setting: one classifier under self-differential test.

    Every method is a pass-through to the wrapped model, so engines
    built on a :class:`SingleModelTarget` behave bit-identically to the
    pre-abstraction engines (same calls, same arrays, same dtypes).
    """

    def __init__(self, model: Any) -> None:
        self.check_member(model)
        self._model = model

    @property
    def members(self) -> tuple[Any, ...]:
        return (self._model,)

    def encode_batch(self, children: np.ndarray) -> tuple[np.ndarray, ...]:
        return (self._model.encode_batch(children),)

    def predict_hvs(self, bundle, *, with_similarities: bool = False):
        if with_similarities:
            sims = self._model.associative_memory.similarities(bundle[0])
            return TargetPredictions(
                sims.argmax(axis=1).astype(np.int64)[None], sims[None]
            )
        return TargetPredictions(np.asarray(self._model.predict_hv(bundle[0]))[None])

    def reference(self, predictions: TargetPredictions, index: int = 0):
        label = int(predictions.labels[0, index])
        return TargetReference(
            label, predictions.labels[:, index], self._model.reference_hv(label)
        )

    def delta_encoder(self, domain: Any) -> Any:
        """The model's encoder when it supports incremental encoding."""
        return domain.delta_encoder(self._model)

    def delta_surface(self, encoder_handle: Any):
        return None if encoder_handle is None else _SingleDeltaSurface(encoder_handle)


class ModelEnsembleTarget(PredictionTarget):
    """K ≥ 2 independently-seeded classifiers fuzzed in lock-step.

    Members must agree on ``n_classes`` and accept the same raw inputs;
    everything else — family, packing, hypervector dimension — may
    differ per member (mixed-family ensembles are first-class).  The
    fuzzing engines pair an ensemble with the cross-model oracles and
    the agreement-margin fitness by default.

    Parameters
    ----------
    *members:
        Trained classifiers (or one iterable of them), primary first.

    Examples
    --------
    >>> from repro.datasets import load_digits
    >>> from repro.fuzz.targets import ModelEnsembleTarget
    >>> from repro.hdc import HDCClassifier, PixelEncoder
    >>> train, _ = load_digits(n_train=200, n_test=10, seed=3)
    >>> members = [
    ...     HDCClassifier(PixelEncoder(dimension=1024, rng=s), 10).fit(
    ...         train.images, train.labels)
    ...     for s in (0, 1, 2)
    ... ]
    >>> target = ModelEnsembleTarget(*members)
    >>> target.n_members
    3
    """

    def __init__(self, *members: Any) -> None:
        if len(members) == 1 and isinstance(members[0], (list, tuple)):
            members = tuple(members[0])
        if len(members) < 2:
            raise ConfigurationError(
                f"a model ensemble needs at least 2 members, got {len(members)} "
                "(fuzz a single model directly, or via SingleModelTarget)"
            )
        for member in members:
            self.check_member(member)
            if not hasattr(member, "associative_memory"):
                raise ConfigurationError(
                    f"ensemble member {type(member).__name__} lacks an "
                    "associative_memory; cross-model similarities need one"
                )
        classes = {int(m.n_classes) for m in members}
        if len(classes) > 1:
            raise ConfigurationError(
                f"ensemble members disagree on n_classes: {sorted(classes)}"
            )
        self._members = tuple(members)

    # -- construction helpers ----------------------------------------------
    @classmethod
    def trained_like(
        cls,
        model: Any,
        k: int,
        inputs: Sequence[Any],
        labels: Sequence[int],
        *,
        rng: RngLike = None,
        include_base: bool = True,
    ) -> "ModelEnsembleTarget":
        """Spawn a K-member ensemble architecturally matching *model*.

        Fresh members share the base model's architecture (encoder
        family, shape, levels, dimension, class count) but draw their
        item memories from independently-spawned generators, then train
        on ``(inputs, labels)`` — HDXplore's "K independently-seeded
        models".  With *include_base* the given model is member 0 and
        ``k − 1`` fresh members join it; otherwise all *k* are fresh.
        Re-target the result with :meth:`with_backend`.
        """
        if k < 2:
            raise ConfigurationError(f"ensemble size must be >= 2, got {k}")
        n_fresh = k - 1 if include_base else k
        members: list[Any] = [model] if include_base else []
        for child_rng in spawn(ensure_rng(rng), n_fresh):
            member = clone_architecture(model, rng=child_rng)
            member.fit(inputs, labels)
            members.append(member)
        return cls(*members)

    @property
    def members(self) -> tuple[Any, ...]:
        return self._members

    def copy(self) -> "ModelEnsembleTarget":
        """Independent clone of every member (for retraining loops)."""
        return ModelEnsembleTarget(*[m.copy() for m in self._members])

    # -- lock-step encode / predict ----------------------------------------
    def encode_batch(self, children: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(m.encode_batch(children) for m in self._members)

    def predict_hvs(self, bundle, *, with_similarities: bool = False):
        if len(bundle) != self.n_members:
            raise ConfigurationError(
                f"{len(bundle)} hypervector blocks for {self.n_members} members"
            )
        if with_similarities:
            sims = np.stack(
                [
                    m.associative_memory.similarities(hvs)
                    for m, hvs in zip(self._members, bundle)
                ]
            )
            # predict == argmax over similarities in every family, so
            # labels come free once the similarity block exists.
            return TargetPredictions(sims.argmax(axis=2).astype(np.int64), sims)
        labels = np.stack(
            [m.predict_hv(hvs) for m, hvs in zip(self._members, bundle)]
        )
        return TargetPredictions(labels.astype(np.int64))

    def reference(self, predictions: TargetPredictions, index: int = 0):
        votes = predictions.labels[:, index]
        label = int(majority_vote(votes[:, None], self.n_classes)[0])
        return TargetReference(label, votes, None)

    def majority_predict(self, inputs: Sequence[Any]) -> np.ndarray:
        """The ensemble's majority-vote prediction on raw inputs → ``(n,)``."""
        return majority_vote(self.predict(inputs), self.n_classes)

    def agreement(self, inputs: Sequence[Any]) -> float:
        """Fraction of raw *inputs* on which every member agrees."""
        labels = self.predict(inputs)
        return float(np.mean((labels == labels[0]).all(axis=0)))

    # -- incremental encoding ----------------------------------------------
    def delta_encoder(self, domain: Any) -> Any:
        """Tuple of member encoders when *every* member supports delta.

        Mixed-width ensembles (members with different hypervector
        dimensions) fall back to scratch encoding: seed-pool side
        arrays stack per-member accumulators, which requires one shared
        accumulator width.
        """
        encoders = [domain.delta_encoder(m) for m in self._members]
        if any(e is None for e in encoders):
            return None
        widths = {int(m.dimension) for m in self._members}
        if len(widths) > 1:
            return None
        return tuple(encoders)

    def delta_surface(self, encoder_handle: Any):
        return (
            None
            if encoder_handle is None
            else _EnsembleDeltaSurface(encoder_handle)
        )


def _fresh_member_like(model: Any) -> Any:
    """An untrained classifier of *model*'s class sharing its encoder.

    The complement of :func:`clone_architecture`: same family, class
    count and memory configuration, but the codebooks are *the same
    object* — only the associative memory is fresh.  Used to build
    shared-codebook ensemble members that diverge solely through their
    training splits.
    """
    if not hasattr(model, "untrained"):
        raise ConfigurationError(
            f"cannot spawn a shared-codebook member from {type(model).__name__}; "
            "construct members sharing one encoder explicitly and pass them to "
            "SharedCodebookEnsembleTarget"
        )
    return model.untrained()


class SharedCodebookEnsembleTarget(ModelEnsembleTarget):
    """K ≥ 2 members sharing one encoder: encode once, query K memories.

    The per-member cost of :class:`ModelEnsembleTarget` is dominated by
    its K independent encodes (every member owns its own item memory).
    When members instead share a single codebook — diverging only
    through bagged associative-memory training splits — every child
    block is encoded **once** and all K AMs query the same hypervector
    block, so encode cost and seed-pool accumulator memory become
    K-independent (``n_encode_blocks == 1``; the engines' delta side
    arrays drop their member axis).  ``benchmarks/bench_shared_codebook
    .py`` pins the speedup; ``bench_ensemble_fuzzing.py`` measures the
    diversity this trades away.

    Parameters
    ----------
    *members:
        Trained classifiers (or one iterable of them) whose ``encoder``
        is the *same object*; build them with :meth:`trained_shared`.
    """

    def __init__(self, *members: Any) -> None:
        super().__init__(*members)
        shared = self._members[0].encoder
        for member in self._members[1:]:
            if member.encoder is not shared:
                raise ConfigurationError(
                    "SharedCodebookEnsembleTarget members must share one "
                    "encoder object (use trained_shared(), or pass the same "
                    "encoder instance to every member); got distinct "
                    f"encoders on {type(member).__name__}"
                )

    # -- construction helpers ----------------------------------------------
    @classmethod
    def trained_shared(
        cls,
        model: Any,
        k: int,
        inputs: Sequence[Any],
        labels: Sequence[int],
        *,
        rng: RngLike = None,
        include_base: bool = True,
    ) -> "SharedCodebookEnsembleTarget":
        """Spawn K members around *model*'s encoder on bagged splits.

        Each fresh member reuses the base model's encoder (and therefore
        its codebooks) but trains its associative memory on an
        independent bootstrap resample of ``(inputs, labels)`` —
        decision boundaries decorrelate through the data, not the
        codebooks.  With *include_base* the given (already trained)
        model is member 0 and ``k − 1`` bagged members join it.

        The pool is encoded once through the shared encoder; members
        differ only in which of its rows they add to their memories.
        Encoding is row-independent, so every member equals one ``fit``
        on its own bag.
        """
        if k < 2:
            raise ConfigurationError(f"ensemble size must be >= 2, got {k}")
        base = [model] if include_base else []
        fresh = [_fresh_member_like(model) for _ in range(k - len(base))]
        hvs = fresh[0].encode_batch(inputs)
        n = int(hvs.shape[0])
        labels_arr = check_labels(labels, n)
        if n == 0:
            raise ConfigurationError("cannot bag an empty training set")
        for member, child_rng in zip(fresh, spawn(ensure_rng(rng), len(fresh))):
            bag = child_rng.integers(0, n, size=n)
            member.associative_memory.add(hvs[bag], labels_arr[bag])
        return cls(*base, *fresh)

    # -- encode-once surface -----------------------------------------------
    @property
    def n_encode_blocks(self) -> int:
        return 1

    def member_shards(self) -> tuple[MemberShard, ...]:
        """AM-only shards: the shared codebook never leaves the parent.

        The parent encodes each child block once (delta or scratch) and
        broadcasts hypervectors; a worker holding just its member's
        associative memory can answer every query the lock-step path
        would ask of that member.
        """
        return tuple(
            MemberShard(i, member.associative_memory, False)
            for i, member in enumerate(self._members)
        )

    def encode_batch(self, children: np.ndarray) -> tuple[np.ndarray, ...]:
        """One fused encode through the shared encoder → a 1-tuple."""
        return (self.primary.encode_batch(children),)

    def predict_hvs(self, bundle, *, with_similarities: bool = False):
        """Every member's predictions over the one shared block.

        Dense bipolar members answer ±1 blocks by popcount, so the block
        is checked and packed once here and all of them query the same
        sign words; other members get the block as encoded.
        """
        if len(bundle) != 1:
            raise ConfigurationError(
                f"{len(bundle)} hypervector blocks for a shared-codebook "
                "ensemble (expected 1)"
            )
        hvs = bundle[0]
        ams = [m.associative_memory for m in self._members]
        packs = [isinstance(am, AssociativeMemory) and am.bipolar for am in ams]
        # Members share one encoder, so one dense bipolar AM's check and
        # pack serves them all (None: the block is not all ±1).
        words = ams[packs.index(True)].query_words(hvs) if any(packs) else None
        blocks = tuple(
            words if pack and words is not None else hvs for pack in packs
        )
        return super().predict_hvs(blocks, with_similarities=with_similarities)

    # -- incremental encoding: single-surface, no member axis ----------------
    def delta_encoder(self, domain: Any) -> Any:
        """The shared encoder's delta handle (one surface for all K)."""
        return domain.delta_encoder(self.primary)

    def delta_surface(self, encoder_handle: Any):
        return None if encoder_handle is None else _SingleDeltaSurface(encoder_handle)

    # -- persistence ---------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Serialise to one ``.npz`` without duplicating the codebook.

        The file is the primary member's own payload — codebooks stored
        once, as PRF seeds when rematerialized — extended with the K−1
        other members' associative-memory arrays under ``member<i>_am_*``
        keys and an ``ensemble_size`` tag.  Plain single-model loaders
        ignore the extra keys, so the file doubles as the primary's
        checkpoint.
        """
        payload = self.primary.save_payload()
        payload["ensemble_size"] = np.asarray(self.n_members)
        for i, member in enumerate(self._members[1:], start=1):
            for key, value in member.associative_memory.state_dict().items():
                payload[f"member{i}_am_{key}"] = np.asarray(value)
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SharedCodebookEnsembleTarget":
        """Inverse of :meth:`save`.

        Members come back in the dense family of the stored ``kind``
        (the same save-dense/repackage-later contract as the model
        classes); re-target with :meth:`with_backend` if needed.
        """
        from repro.hdc.archive import load_model

        with open_npz(path) as data:
            if "ensemble_size" not in data:
                raise ConfigurationError(
                    f"{path} is a single-model checkpoint, not a "
                    "shared-codebook ensemble (no ensemble_size tag)"
                )
            primary = load_model(path)
            am_type = type(primary.associative_memory)
            am_fields = primary.associative_memory.state_dict()
            members = [primary]
            for i in range(1, int(data["ensemble_size"])):
                member = _fresh_member_like(primary)
                member._am = am_type.from_state_dict(  # noqa: SLF001
                    {key: data[f"member{i}_am_{key}"] for key in am_fields}
                )
                check_am_shape(
                    member._am, primary.n_classes, primary.dimension, field=f"member{i}_am"
                )
                members.append(member)
        return cls(*members)

    # -- re-targeting --------------------------------------------------------
    def copy(self) -> "SharedCodebookEnsembleTarget":
        """Clone every member's AM; the encoder object stays shared."""
        return SharedCodebookEnsembleTarget(*[m.copy() for m in self._members])

    def with_backend(self, backend: Optional[str]) -> "SharedCodebookEnsembleTarget":
        """Re-target for *backend*, re-pointing members at one encoder.

        Per-member conversion would wrap the shared codebooks in K
        equivalent-but-distinct packed encoders; since all K started
        from the same object, sharing the first conversion is exact.
        """
        if backend is None or backend == "dense":
            return self
        from repro.hdc.backends.dispatch import resolve_model_backend

        resolved = [resolve_model_backend(m, backend) for m in self._members]
        shared = resolved[0].encoder
        for member in resolved[1:]:
            member._encoder = shared  # noqa: SLF001 - exact re-share, see docstring
        return type(self)(*resolved)


def resolve_target(model: Any) -> PredictionTarget:
    """Normalise a ``model`` argument into a :class:`PredictionTarget`."""
    if isinstance(model, PredictionTarget):
        return model
    return SingleModelTarget(model)


def clone_architecture(model: Any, *, rng: RngLike = None) -> Any:
    """An untrained classifier matching *model*'s architecture.

    Codebooks (item memories) are freshly drawn from *rng* — that
    independence is what gives ensemble members decorrelated decision
    boundaries.  The encoder reports its own architecture
    (:meth:`~repro.hdc.encoders.base.Encoder.architecture`); encoders
    that do not raise :class:`~repro.errors.ConfigurationError` (build
    members by hand and pass them to :class:`ModelEnsembleTarget`
    directly).  Clones are always drawn materialized.
    """
    encoder = getattr(model, "encoder", None)
    if encoder is None or not hasattr(model, "untrained"):
        raise ConfigurationError(
            f"cannot clone the architecture of {type(model).__name__}: no "
            "encoder/untrained surface; construct ensemble members "
            "explicitly and pass them to ModelEnsembleTarget"
        )
    return model.untrained(type(encoder)(**encoder.architecture(), rng=rng))
