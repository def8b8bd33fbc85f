"""Cross-family differential conformance suite (HDXplore on ourselves).

One parametrized matrix runs the model/AM/encoder equivalence
properties across *all* model families — dense bipolar, dense binary,
packed binary, packed bipolar, each with materialized and
rematerialized (seed-only) codebooks.  Three kinds of checks:

* **pairwise equivalence** — each packed family against its dense
  counterpart, built from the same seed: encodings, class HVs,
  similarities, predictions, margins, retraining, save/load
  round-trips, and copies must agree bit for bit (packing is pure
  representation);
* **per-family self-consistency** — every family round-trips through
  its accumulator surface, its persistence format, and ``copy()``
  without drifting;
* **reference semantics** — every associative memory's bundling rule
  and similarity against a numpy sum and mismatch count on unpacked
  components.

A final HDXplore-style differential check trains all four families on
one dataset and asserts the two *semantic* classes (bipolar, binary)
agree internally while every family clears the same accuracy floor —
cross-semantics disagreement is the expected differential signal, not
a bug.
"""

import re

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotTrainedError
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    BinarySpace,
    BipolarSpace,
    HDCClassifier,
    PackedBinaryHDCClassifier,
    PackedBinarySpace,
    PackedBipolarAssociativeMemory,
    PackedBipolarEncoder,
    PackedBipolarHDCClassifier,
    PackedBipolarSpace,
    PackedPixelEncoder,
    PixelEncoder,
)

DIM = 520  # deliberately not a multiple of 64 (tail-word masking live)
SHAPE = (8, 8)
LEVELS = 16
SEED = 4
N_CLASSES = 3


def _dense_bipolar(codebook="materialized"):
    return HDCClassifier(
        PixelEncoder(
            shape=SHAPE, levels=LEVELS, dimension=DIM, rng=SEED, codebook=codebook
        ),
        N_CLASSES,
    )


def _packed_bipolar(codebook="materialized"):
    return PackedBipolarHDCClassifier(
        PackedBipolarEncoder(
            shape=SHAPE, levels=LEVELS, dimension=DIM, rng=SEED, codebook=codebook
        ),
        N_CLASSES,
    )


def _dense_binary(codebook="materialized"):
    return BinaryHDCClassifier(
        BinaryPixelEncoder(
            shape=SHAPE, levels=LEVELS, dimension=DIM, rng=SEED, codebook=codebook
        ),
        N_CLASSES,
    )


def _packed_binary(codebook="materialized"):
    return PackedBinaryHDCClassifier(
        PackedPixelEncoder(
            shape=SHAPE, levels=LEVELS, dimension=DIM, rng=SEED, codebook=codebook
        ),
        N_CLASSES,
    )


def _remat(builder):
    return lambda: builder(codebook="rematerialized")


def _identity(model, hvs):
    return np.asarray(hvs)


def _unpack_encoder(model, hvs):
    return model.encoder.unpack(hvs)


#: name → (builder, hvs-to-dense canonicaliser, semantic class, loader)
#:
#: The ``remat-*`` rows run the whole matrix again with rematerialized
#: (seed-only, PRF-backed) codebooks.  At a shared ``rng`` the dense and
#: packed remat encoders draw the *same* codebook seeds, so each remat
#: pair is bit-identical exactly like the materialized pairs — but a
#: remat family's codebook *content* differs from its materialized
#: sibling's (a 64-bit seed draw replaces the space's row draws), which
#: is why the cross-semantics check groups by codebook kind too.
FAMILIES = {
    "dense-bipolar": (_dense_bipolar, _identity, "bipolar", HDCClassifier.load),
    "packed-bipolar": (
        _packed_bipolar,
        _unpack_encoder,
        "bipolar",
        PackedBipolarHDCClassifier.load,
    ),
    "dense-binary": (_dense_binary, _identity, "binary", BinaryHDCClassifier.load),
    "packed-binary": (
        _packed_binary,
        _unpack_encoder,
        "binary",
        PackedBinaryHDCClassifier.load,
    ),
    "remat-bipolar": (
        _remat(_dense_bipolar),
        _identity,
        "bipolar",
        HDCClassifier.load,
    ),
    "remat-packed-bipolar": (
        _remat(_packed_bipolar),
        _unpack_encoder,
        "bipolar",
        PackedBipolarHDCClassifier.load,
    ),
    "remat-binary": (
        _remat(_dense_binary),
        _identity,
        "binary",
        BinaryHDCClassifier.load,
    ),
    "remat-packed-binary": (
        _remat(_packed_binary),
        _unpack_encoder,
        "binary",
        PackedBinaryHDCClassifier.load,
    ),
}

#: (dense, packed) pairs sharing one semantic class — the equivalence axes.
PAIRS = [
    ("dense-bipolar", "packed-bipolar"),
    ("dense-binary", "packed-binary"),
    ("remat-bipolar", "remat-packed-bipolar"),
    ("remat-binary", "remat-packed-binary"),
]


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(9).integers(0, 256, size=(12,) + SHAPE).astype(float)


@pytest.fixture(scope="module")
def labels():
    return np.arange(12) % N_CLASSES


@pytest.fixture(scope="module")
def trained(images, labels):
    """All four families trained identically on one dataset."""
    return {
        name: spec[0]().fit(images, labels) for name, spec in FAMILIES.items()
    }


def _canonical(name, model, hvs):
    return FAMILIES[name][1](model, hvs)


class TestPairwiseEquivalence:
    """Packed vs dense, same seed: bit-identical everywhere it counts."""

    @pytest.mark.parametrize("dense_name,packed_name", PAIRS)
    def test_encoders_emit_equal_components(self, trained, images, dense_name, packed_name):
        dense, packed = trained[dense_name], trained[packed_name]
        np.testing.assert_array_equal(
            _canonical(packed_name, packed, packed.encode_batch(images)),
            dense.encode_batch(images),
        )

    @pytest.mark.parametrize("dense_name,packed_name", PAIRS)
    def test_predictions_similarities_margins(self, trained, images, dense_name, packed_name):
        dense, packed = trained[dense_name], trained[packed_name]
        np.testing.assert_array_equal(dense.predict(images), packed.predict(images))
        np.testing.assert_array_equal(
            dense.similarities(images), packed.similarities(images)
        )
        np.testing.assert_array_equal(dense.margins(images), packed.margins(images))
        assert dense.score(images, packed.predict(images)) == 1.0

    @pytest.mark.parametrize("dense_name,packed_name", PAIRS)
    def test_class_hvs_match(self, trained, images, dense_name, packed_name):
        dense, packed = trained[dense_name], trained[packed_name]
        np.testing.assert_array_equal(
            _canonical(packed_name, packed, packed.associative_memory.class_hvs),
            dense.associative_memory.class_hvs,
        )

    @pytest.mark.parametrize("dense_name,packed_name", PAIRS)
    @pytest.mark.parametrize("mode", ["additive", "adaptive"])
    def test_retrain_agreement(self, trained, images, labels, dense_name, packed_name, mode):
        dense, packed = trained[dense_name], trained[packed_name]
        flipped = (labels + 1) % N_CLASSES
        hardened_d = dense.copy().retrain(images, flipped, mode=mode, epochs=2)
        hardened_p = packed.copy().retrain(images, flipped, mode=mode, epochs=2)
        np.testing.assert_array_equal(
            hardened_d.predict(images), hardened_p.predict(images)
        )
        # Retraining the copies never leaks back into the originals.
        np.testing.assert_array_equal(dense.predict(images), packed.predict(images))

    @pytest.mark.parametrize("dense_name,packed_name", PAIRS)
    def test_save_load_crosses_representations(
        self, trained, images, tmp_path, dense_name, packed_name
    ):
        """Either family saves; the loaded dense model repackages exactly."""
        dense, packed = trained[dense_name], trained[packed_name]
        loader = FAMILIES[dense_name][3]
        repackage = type(trained[packed_name])
        convert = (
            repackage.from_dense
            if hasattr(repackage, "from_dense")
            else repackage.from_binary
        )
        for source in (dense, packed):
            path = tmp_path / f"{dense_name}-{type(source).__name__}.npz"
            source.save(path)
            loaded = loader(path)
            np.testing.assert_array_equal(
                loaded.predict(images), dense.predict(images)
            )
            np.testing.assert_array_equal(
                convert(loaded).predict(images), packed.predict(images)
            )

    @pytest.mark.parametrize("dense_name,packed_name", PAIRS)
    def test_round_trip_conversions(self, trained, images, dense_name, packed_name):
        """packed → dense → packed is the identity on behaviour."""
        packed = trained[packed_name]
        to_dense = getattr(packed, "to_dense", None) or packed.to_binary
        dense_view = to_dense()
        np.testing.assert_array_equal(
            dense_view.predict(images), packed.predict(images)
        )
        repackage = type(packed)
        convert = (
            repackage.from_dense
            if hasattr(repackage, "from_dense")
            else repackage.from_binary
        )
        np.testing.assert_array_equal(
            convert(dense_view).predict(images), packed.predict(images)
        )


class TestPerFamilyConsistency:
    """Each family alone: accumulator surface, persistence, copies."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_encode_batch_equals_accumulator_path(self, trained, images, name):
        model = trained[name]
        encoder = model.encoder
        np.testing.assert_array_equal(
            encoder.hvs_from_accumulators(encoder.accumulate_batch(images)),
            model.encode_batch(images),
        )

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_accumulate_delta_matches_scratch(self, trained, images, name):
        encoder = trained[name].encoder
        rng = np.random.default_rng(31)
        children = np.clip(images + rng.normal(0, 40, images.shape), 0, 255)
        levels_c = encoder.quantize(children).reshape(len(images), -1)
        levels_p = encoder.quantize(images).reshape(len(images), -1)
        got = encoder.accumulate_delta(
            levels_c, levels_p, encoder.accumulate_batch(images)
        )
        np.testing.assert_array_equal(got, encoder.accumulate_batch(children))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_save_load_roundtrip(self, trained, images, tmp_path, name):
        model = trained[name]
        loader = FAMILIES[name][3]
        path = tmp_path / f"{name}.npz"
        model.save(path)
        loaded = loader(path)
        assert type(loaded) is type(model)
        assert type(loaded.encoder) is type(model.encoder)
        assert type(loaded.associative_memory) is type(model.associative_memory)
        np.testing.assert_array_equal(loaded.predict(images), model.predict(images))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize(
        "corruption",
        [
            "truncated-counts",
            "missing-class-row",
            "short-position-codebook",
            "levels-disagree-with-value-rows",
            "codebook-width-differs-from-dimension",
        ],
    )
    def test_corrupt_checkpoint_raises_typed_error(self, trained, tmp_path, name, corruption):
        model = trained[name]
        path = tmp_path / f"{name}.npz"
        model.save(path)
        with np.load(path) as data:
            payload = dict(data)
        matrix = "am_accumulators" if "am_accumulators" in payload else "am_ones"

        def stored_rows(codebook):
            # Seed-only files get the same rows stored, so every family
            # exercises the stored-codebook checks.
            payload.pop(f"{codebook}_seed", None)
            return getattr(model.encoder, f"{codebook}_memory").vectors

        if corruption == "truncated-counts":
            payload["am_counts"] = payload["am_counts"][:1]
            field = "counts"
        elif corruption == "missing-class-row":
            # Internally consistent, but fewer rows than n_classes.
            payload[matrix] = payload[matrix][:-1]
            payload["am_counts"] = payload["am_counts"][:-1]
            field = matrix
        elif corruption == "short-position-codebook":
            payload["position_vectors"] = stored_rows("position")[:-1]
            field = "position_memory"
        elif corruption == "levels-disagree-with-value-rows":
            payload["value_vectors"] = stored_rows("value")
            payload["levels"] = np.asarray(LEVELS + 1)
            field = f"value_memory has {LEVELS} rows, expected.*{LEVELS + 1}"
        else:
            payload["position_vectors"] = stored_rows("position")[:, :-1]
            field = "position_vectors"
        np.savez_compressed(path, **payload)
        with pytest.raises(ConfigurationError, match=f"{re.escape(str(path))}: .*{field}"):
            FAMILIES[name][3](path)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_copy_is_independent(self, trained, images, labels, name):
        model = trained[name]
        before = model.predict(images)
        clone = model.copy()
        clone.retrain(images, (labels + 1) % N_CLASSES, epochs=3)
        np.testing.assert_array_equal(model.predict(images), before)
        assert type(clone) is type(model)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_untrained_model_raises(self, name):
        model = FAMILIES[name][0]()
        assert not model.is_trained
        with pytest.raises(NotTrainedError):
            model.predict(np.zeros((1,) + SHAPE))


class TestPackedSpacesDrawDenseBitStreams:
    """Packed spaces must emit exactly the dense spaces' draws, packed."""

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, DIM])
    def test_bipolar_random_matches_dense_seed_for_seed(self, dim):
        space = PackedBipolarSpace(dim)
        dense = BipolarSpace(dim).random(5, rng=3)
        np.testing.assert_array_equal(
            space.unpack(space.random(5, rng=3)), dense
        )
        # Single-vector form follows the same stream.
        np.testing.assert_array_equal(
            space.unpack(space.random(rng=3)), BipolarSpace(dim).random(rng=3)
        )

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, DIM])
    def test_binary_random_matches_dense_seed_for_seed(self, dim):
        space = PackedBinarySpace(dim)
        np.testing.assert_array_equal(
            space.unpack(space.random(5, rng=3)), BinarySpace(dim).random(5, rng=3)
        )


class TestCrossSemanticsDifferential:
    """HDXplore-style: compare the two semantic classes on shared inputs."""

    def test_semantic_classes_agree_internally(self, trained, images):
        # Group by (semantic class, codebook kind): remat and materialized
        # codebooks hold *different* random rows at the same rng, so only
        # families sharing both axes are predicted to agree bit for bit.
        by_class = {}
        for name, model in trained.items():
            key = (FAMILIES[name][2], model.encoder.codebook)
            by_class.setdefault(key, []).append(model.predict(images))
        assert len(by_class) == 4  # {bipolar, binary} × {materialized, remat}
        for (semantic, kind), predictions in by_class.items():
            assert len(predictions) == 2
            np.testing.assert_array_equal(
                predictions[0], predictions[1],
                err_msg=f"{semantic}/{kind} families diverged on identical seeds",
            )

    def test_all_families_clear_the_training_floor(self, trained, images, labels):
        # Training accuracy — deterministic, and high at this easy scale.
        for name, model in trained.items():
            assert model.score(images, labels) >= 0.9, name

    def test_bipolar_ablation_has_no_packed_form(self):
        am_state = {
            "accumulators": np.zeros((2, DIM), dtype=np.int64),
            "counts": np.zeros(2, dtype=np.int64),
            "bipolar": np.asarray(False),
        }
        with pytest.raises(ConfigurationError, match="no packed"):
            PackedBipolarAssociativeMemory.from_state_dict(am_state)
        dense = HDCClassifier(
            PixelEncoder(shape=SHAPE, levels=LEVELS, dimension=DIM, rng=0),
            N_CLASSES,
            bipolar_am=False,
        )
        with pytest.raises(ConfigurationError, match="no.*packed"):
            PackedBipolarHDCClassifier.from_dense(dense)


class TestWordLevelAMUpdates:
    """`add`/`subtract` stay word-level (bit-sliced) yet exactly dense.

    Duplicate labels inside one update batch are the sharp edge: the
    dense memories accumulate them row by row (`np.add.at` semantics),
    the packed memories now group rows per class and column-sum each
    group with the bit-sliced carry-save kernel — the results must be
    identical, including the binary family's clamp at zero.
    """

    DIMS = (1, 63, 64, 65, 520)

    @pytest.mark.parametrize("dimension", DIMS)
    def test_packed_binary_matches_dense_updates(self, dimension):
        from repro.hdc.backends.binary import PackedAssociativeMemory
        from repro.hdc.backends.packed import pack_bits
        from repro.hdc.binary_model import BinaryAssociativeMemory

        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=(12, dimension)).astype(np.int8)
        labels = rng.integers(0, 3, size=12)
        packed = PackedAssociativeMemory(3, dimension)
        dense = BinaryAssociativeMemory(3, dimension)
        packed.add(pack_bits(bits), labels)
        dense.add(bits, labels)
        np.testing.assert_array_equal(
            packed.state_dict()["ones"], dense.state_dict()["ones"]
        )
        # Over-subtract one class so the zero clamp is exercised.
        packed.subtract(pack_bits(bits), labels)
        dense.subtract(bits, labels)
        extra = np.ones((2, dimension), dtype=np.int8)
        packed.subtract(pack_bits(extra), [0, 0])
        dense.subtract(extra, [0, 0])
        np.testing.assert_array_equal(
            packed.state_dict()["ones"], dense.state_dict()["ones"]
        )
        assert packed.state_dict()["ones"].min() >= 0

    @pytest.mark.parametrize("dimension", DIMS)
    def test_packed_bipolar_matches_dense_updates(self, dimension):
        from repro.hdc.associative_memory import AssociativeMemory
        from repro.hdc.backends.packed import pack_signs

        rng = np.random.default_rng(11)
        signs = (2 * rng.integers(0, 2, size=(12, dimension)) - 1).astype(np.int8)
        labels = rng.integers(0, 3, size=12)
        packed = PackedBipolarAssociativeMemory(3, dimension)
        dense = AssociativeMemory(3, dimension, bipolar=True)
        packed.add(pack_signs(signs), labels)
        dense.add(signs, labels)
        np.testing.assert_array_equal(
            packed.state_dict()["accumulators"], dense.state_dict()["accumulators"]
        )
        packed.subtract(pack_signs(signs[:5]), labels[:5])
        dense.subtract(signs[:5], labels[:5])
        np.testing.assert_array_equal(
            packed.state_dict()["accumulators"], dense.state_dict()["accumulators"]
        )

    def test_single_row_and_empty_batches(self):
        from repro.hdc.backends.binary import PackedAssociativeMemory
        from repro.hdc.backends.packed import pack_bits

        am = PackedAssociativeMemory(2, 70)
        one = pack_bits(np.ones((1, 70), dtype=np.int8))
        am.add(one[0], [1])  # 1-D single-vector form
        assert am.state_dict()["ones"][1].sum() == 70
        am.add(one[:0], np.zeros(0, dtype=np.int64))  # empty batch no-op
        assert am.state_dict()["ones"][0].sum() == 0


def _memories():
    """name -> (new 2-class memory of dimension d, store rows, read class HVs)."""
    from repro.hdc.associative_memory import AssociativeMemory
    from repro.hdc.backends.binary import PackedAssociativeMemory
    from repro.hdc.backends.packed import pack_bits, pack_signs, unpack_bits, unpack_signs
    from repro.hdc.binary_model import BinaryAssociativeMemory

    def dense(hvs, dim):
        return hvs

    return {
        "dense-bipolar": (lambda d: AssociativeMemory(2, d), np.asarray, dense),
        "packed-bipolar": (lambda d: PackedBipolarAssociativeMemory(2, d),
                           pack_signs, unpack_signs),
        "dense-binary": (lambda d: BinaryAssociativeMemory(2, d), np.asarray, dense),
        "packed-binary": (lambda d: PackedAssociativeMemory(2, d),
                          pack_bits, unpack_bits),
    }


class TestBundlingRules:
    """Each memory bundles (⨁) a class as the quantised sum of its rows.

    A bipolar class HV is the sign of the summed ±1 rows with 0 → +1
    (Eq. 1); a binary one is the bitwise majority with ties → 1.  Both
    are pinned per memory against a numpy sum on unpacked components,
    over the word-tail matrix, with n = 4 rows (ties occur) and n = 1, 5
    (they cannot).  Queries are pinned against mismatch counts taken on
    unpacked components, so neither side goes through a popcount kernel
    the other one shares.
    """

    TAIL_DIMS = (1, 63, 64, 65, 10000)
    MEMORIES = _memories()

    @staticmethod
    def _draw(name, rng, n, dim):
        bits = rng.integers(0, 2, size=(n, dim)).astype(np.int8)
        return 2 * bits - 1 if name.endswith("bipolar") else bits

    @staticmethod
    def _bundle(name, rows):
        if name.endswith("bipolar"):
            return np.where(rows.sum(axis=0) >= 0, 1, -1).astype(np.int8)
        return (2 * rows.sum(axis=0, dtype=np.int64) >= len(rows)).astype(np.int8)

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    @pytest.mark.parametrize("n", [1, 4, 5])
    @pytest.mark.parametrize("name", sorted(MEMORIES))
    def test_class_hv_is_the_quantised_sum(self, name, n, dim):
        make, store, read = self.MEMORIES[name]
        rng = np.random.default_rng(1000 * n + dim)
        rows = self._draw(name, rng, n, dim)
        other = self._draw(name, rng, 1, dim)
        am = make(dim)
        am.add(store(rows), np.zeros(n, dtype=np.int64))
        am.add(store(other), [1])
        class_hvs = read(am.class_hvs, dim)
        np.testing.assert_array_equal(class_hvs[0], self._bundle(name, rows))
        np.testing.assert_array_equal(class_hvs[1], other[0])

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    @pytest.mark.parametrize("name", sorted(MEMORIES))
    def test_similarities_count_mismatches(self, name, dim):
        make, store, _ = self.MEMORIES[name]
        rng = np.random.default_rng(dim)
        rows = self._draw(name, rng, 6, dim)
        queries = self._draw(name, rng, 5, dim)
        am = make(dim)
        am.add(store(rows), [0, 1, 0, 1, 0, 1])
        class_hvs = np.stack([self._bundle(name, rows[c::2]) for c in (0, 1)])
        mismatches = (queries[:, None, :] != class_hvs[None, :, :]).sum(axis=2)
        # ±1 rows: cosine = 1 − 2·(mismatch fraction); {0, 1} rows: 1 − fraction.
        scale = 2.0 if name.endswith("bipolar") else 1.0
        np.testing.assert_allclose(
            am.similarities(store(queries)), 1.0 - scale * mismatches / dim,
            rtol=0, atol=1e-12,
        )


REMAT_NAMES = sorted(name for name in FAMILIES if name.startswith("remat-"))

#: remat family → its materialized sibling (same semantics and packing).
REMAT_SIBLING = {
    "remat-bipolar": "dense-bipolar",
    "remat-packed-bipolar": "packed-bipolar",
    "remat-binary": "dense-binary",
    "remat-packed-binary": "packed-binary",
}


class TestRematerializedCodebooks:
    """Seed-only codebooks: rows from a PRF, behaviour from nowhere else.

    The remat rows already run the full matrix above; these tests pin
    the properties unique to rematerialization — a ``materialize()``d
    twin is bit-identical, persistence stores the 64-bit seed instead of
    ``(n, D)`` rows, the PRF's packed words *are* the packed dense rows,
    and the shared-codebook ensemble target is a pure optimisation of
    the independent one over the same members.
    """

    @pytest.mark.parametrize("name", REMAT_NAMES)
    def test_materialize_twin_is_bit_identical(self, trained, images, labels, name):
        """Injecting materialize()d memories reproduces the remat model."""
        model = trained[name]
        enc = model.encoder
        assert enc.codebook == "rematerialized"
        twin_encoder = type(enc)(
            shape=SHAPE,
            levels=LEVELS,
            dimension=DIM,
            rng=SEED,
            position_memory=enc.position_memory.materialize(),
            value_memory=enc.value_memory.materialize(),
        )
        assert twin_encoder.codebook == "materialized"
        twin = type(model)(twin_encoder, N_CLASSES).fit(images, labels)
        np.testing.assert_array_equal(
            twin.encode_batch(images), model.encode_batch(images)
        )
        np.testing.assert_array_equal(
            twin.similarities(images), model.similarities(images)
        )
        np.testing.assert_array_equal(twin.predict(images), model.predict(images))

    @pytest.mark.parametrize("name", REMAT_NAMES)
    def test_persistence_stores_only_the_seed(self, trained, images, tmp_path, name):
        from repro.hdc.item_memory import RematerializedItemMemory

        model = trained[name]
        path = tmp_path / f"{name}.npz"
        model.save(path)
        with np.load(path) as data:
            assert "position_seed" in data.files
            assert "value_seed" in data.files
            assert "position_vectors" not in data.files
            assert "value_vectors" not in data.files
        sibling_path = tmp_path / f"{name}-sibling.npz"
        trained[REMAT_SIBLING[name]].save(sibling_path)
        assert path.stat().st_size < sibling_path.stat().st_size

        loaded = FAMILIES[name][3](path)
        assert isinstance(
            loaded.encoder.position_memory, RematerializedItemMemory
        )
        assert loaded.encoder.codebook == "rematerialized"
        np.testing.assert_array_equal(
            loaded.predict(images), model.predict(images)
        )

    def test_prf_words_are_the_packed_dense_rows(self, trained):
        """``take_words`` must equal packing ``take``'s dense rows."""
        from repro.hdc.backends.packed import pack_bits, pack_signs

        idx = np.arange(SHAPE[0] * SHAPE[1])
        bipolar = trained["remat-packed-bipolar"].encoder.position_memory
        np.testing.assert_array_equal(
            bipolar.take_words(idx), pack_signs(bipolar.take(idx))
        )
        binary = trained["remat-packed-binary"].encoder.position_memory
        np.testing.assert_array_equal(
            binary.take_words(idx), pack_bits(binary.take(idx))
        )

    def test_remat_encoder_state_is_near_zero(self, trained):
        """No (n, D) arrays hide inside a remat model's encoder."""
        for name in REMAT_NAMES:
            enc = trained[name].encoder
            for memory in (enc.position_memory, enc.value_memory):
                retained = sum(
                    v.nbytes
                    for v in vars(memory).values()
                    if isinstance(v, np.ndarray)
                )
                assert retained == 0, f"{name} retains {retained} codebook bytes"

    @pytest.mark.parametrize("name", ["remat-bipolar", "remat-packed-binary"])
    def test_shared_ensemble_is_pure_optimisation(self, trained, images, labels, name):
        """Shared-codebook target == independent target over the same members."""
        from repro.fuzz import (
            BatchedHDTest,
            CrossModelOracle,
            HDTestConfig,
            ModelEnsembleTarget,
            SharedCodebookEnsembleTarget,
        )

        shared = SharedCodebookEnsembleTarget.trained_shared(
            trained[name], 3, images, labels, rng=7
        )
        independent = ModelEnsembleTarget(*shared.members)
        inputs = list(images[:4])
        np.testing.assert_array_equal(
            shared.predict(inputs), independent.predict(inputs)
        )

        config = HDTestConfig(iter_times=8)
        outcomes = {}
        for label, target in (("shared", shared), ("independent", independent)):
            engine = BatchedHDTest(
                target, "gauss", config=config, oracle=CrossModelOracle()
            )
            outcomes[label] = [
                (o.success, o.iterations, o.reference_label)
                for o in engine.fuzz_outcomes(inputs, rng=11)
            ]
        assert outcomes["shared"] == outcomes["independent"]
