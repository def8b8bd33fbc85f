"""The in-process children → predictions step and its cache lifetimes.

:class:`~repro.fuzz.predictor.LocalPredictor` is what every in-process
schedule — and every member worker — encodes through, so its survivor
side data must follow the seed pool's selection exactly, both encode
paths must reproduce a scratch encode bit for bit (cache hits
included), and each input's dedupe cache must hold one iteration's
children and die with its run (so peak memory stays flat).
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.datasets import make_language_dataset
from repro.fuzz import BatchedHDTest, HDTest, HDTestConfig
from repro.fuzz.oracle import DifferentialOracle
from repro.fuzz.predictor import ChildBlock, LocalPredictor, _child_keys, _concat
from repro.fuzz.targets import (
    ModelEnsembleTarget,
    SharedCodebookEnsembleTarget,
    resolve_target,
)
from repro.hdc import BinaryPixelEncoder, HDCClassifier, NgramEncoder, PixelEncoder
from repro.obs import CampaignTelemetry
from repro.utils.cache import LRUCache

PATHS = ["delta", "scratch"]


def _make_predictor(model, path="delta", *, strategy="gauss", config=None,
                    telemetry=None):
    """A fresh engine's predictor, forced onto *path*."""
    engine = BatchedHDTest(model, strategy, config=config, telemetry=telemetry)
    if path == "scratch":
        engine._delta_encoder = lambda: None  # noqa: SLF001 - test hook
    predictor = engine._predictor()  # noqa: SLF001 - engine hook
    assert (predictor._surface is None) == (path == "scratch")  # noqa: SLF001
    return predictor


def _parents(n):
    return np.zeros(n, dtype=np.int64)


def _predict(predictor, plans):
    """Run every stage of one iteration; its predictions (plan order) and block."""
    block = predictor.predict(plans)
    for _ in block.stages():
        pass
    return block.predictions(slice(None)), block


def _assert_scratch_queries(model, predictions, children):
    """*predictions* are *model*'s on a scratch encode of *children*, bit for bit."""
    target = resolve_target(model)
    want = target.predict_hvs(target.encode_batch(children))
    np.testing.assert_array_equal(predictions.labels, want.labels)
    np.testing.assert_array_equal(predictions.similarities, want.similarities)


@pytest.fixture(scope="module")
def ensemble_targets(trained_model, digit_data):
    train, _ = digit_data
    images, labels = train.images[:200], train.labels[:200]
    return {
        "independent": ModelEnsembleTarget.trained_like(
            trained_model, 3, images, labels, rng=5
        ),
        "shared": SharedCodebookEnsembleTarget.trained_shared(
            trained_model, 3, images, labels, rng=11
        ),
    }


class TestLocalPredictor:
    def test_commit_keeps_survivor_side_data(self, trained_model, test_images):
        """Survivor accumulators + levels follow SeedPoolBatch's order."""
        engine = BatchedHDTest(trained_model, "gauss")
        predictor = engine._predictor()  # noqa: SLF001 - engine hook
        assert isinstance(predictor, LocalPredictor)
        surface = predictor._surface  # noqa: SLF001
        predictor.seed(test_images[:1])
        children = test_images[1:4]
        _predict(predictor, [(0, children, np.zeros(3, dtype=np.int64))])
        predictor.commit([(0, np.array([2, 0]))])
        # Delta-encoding from the original is exact, so each survivor's
        # side data equals its scratch accumulator and levels.
        accs, levels = surface.seed_side_data(children)
        kept_accs, kept_levels = predictor._parents[0]  # noqa: SLF001
        np.testing.assert_array_equal(kept_accs, accs[[2, 0]])
        np.testing.assert_array_equal(kept_levels, levels[[2, 0]])

    def test_prediction_matches_scratch_encode(self, trained_model, test_images):
        engine = BatchedHDTest(trained_model, "gauss")
        predictor = engine._predictor()  # noqa: SLF001 - engine hook
        predictor.seed(test_images[:2])
        plans = [
            (0, test_images[2:5], np.zeros(3, dtype=np.int64)),
            (1, test_images[5:7], np.zeros(2, dtype=np.int64)),
        ]
        predictions, block = _predict(predictor, plans)
        expected = trained_model.encode_batch(test_images[2:7])
        accs = np.concatenate([block.side_data(p)[0] for p in range(2)])
        np.testing.assert_array_equal(
            trained_model.encoder.hvs_from_accumulators(accs), expected
        )
        np.testing.assert_array_equal(
            predictions.labels[0], trained_model.predict_hv(expected)
        )
        _assert_scratch_queries(trained_model, predictions, test_images[2:7])

    def test_scratch_path_matches_encode_batch(self, trained_model, test_images):
        predictor = _make_predictor(trained_model, "scratch")
        predictor.seed(test_images[:2])
        plans = [(0, test_images[2:5], _parents(3)), (1, test_images[5:7], _parents(2))]
        predictions, _ = _predict(predictor, plans)
        expected = trained_model.encode_batch(test_images[2:7])
        np.testing.assert_array_equal(
            predictions.labels[0], trained_model.predict_hv(expected)
        )
        _assert_scratch_queries(trained_model, predictions, test_images[2:7])

    @pytest.mark.parametrize("path", PATHS)
    def test_seed_predicts_the_originals(self, trained_model, test_images, path):
        predictor = _make_predictor(trained_model, path)
        predictions = predictor.seed(test_images[:3])
        np.testing.assert_array_equal(
            predictions.labels[0], trained_model.predict(test_images[:3])
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_repeated_children_hit_the_cache(self, trained_model, test_images, path):
        obs = CampaignTelemetry()
        predictor = _make_predictor(trained_model, path, telemetry=obs)
        predictor.seed(test_images[:1])
        plans = [(0, test_images[1:4], _parents(3))]
        first, _ = _predict(predictor, plans)
        predictor.commit([])  # the iteration's encodes go to the cache
        assert obs.counters["encoded_children"] == 3
        second, _ = _predict(predictor, plans)
        assert obs.counters["encoded_children"] == 3  # every row a hit
        np.testing.assert_array_equal(second.labels, first.labels)
        _assert_scratch_queries(trained_model, second, test_images[1:4])

    @pytest.mark.parametrize("path", PATHS)
    def test_duplicate_rows_in_a_block_encode_once(
        self, trained_model, test_images, path
    ):
        obs = CampaignTelemetry()
        predictor = _make_predictor(trained_model, path, telemetry=obs)
        predictor.seed(test_images[:1])
        children = test_images[[1, 2, 1, 1]]
        predictions, _ = _predict(predictor, [(0, children, _parents(4))])
        assert obs.counters["encoded_children"] == 2
        assert obs.counters["am_queries"] == 1 + 2  # the seed, then each row once
        _assert_scratch_queries(trained_model, predictions, children)

    def test_inputs_with_equal_content_keep_their_own_caches(
        self, trained_model, test_images
    ):
        """Caches belong to input positions, so counts never depend on batching."""
        obs = CampaignTelemetry()
        predictor = _make_predictor(trained_model, telemetry=obs)
        predictor.seed(np.stack([test_images[0], test_images[0]]))
        children = test_images[1:3]
        plans = [(0, children, _parents(2)), (1, children, _parents(2))]
        predictions, _ = _predict(predictor, plans)
        assert obs.counters["encoded_children"] == 4
        _assert_scratch_queries(
            trained_model, predictions, np.concatenate([children, children])
        )

    def test_next_generation_encodes_from_survivors(self, trained_model, test_images):
        predictor = _make_predictor(trained_model)
        predictor.seed(test_images[:1])
        _predict(predictor, [(0, test_images[1:4], _parents(3))])
        predictor.commit([(0, np.array([2, 0]))])
        # Generation 2 parents from both survivors (pool rows 0 and 1).
        children = test_images[4:7]
        predictions, _ = _predict(predictor, [(0, children, np.array([0, 1, 1]))])
        _assert_scratch_queries(trained_model, predictions, children)

    def test_input_sitting_out_keeps_its_survivors(self, trained_model, test_images):
        """An input whose children all blew the budget keeps its seeds."""
        predictor = _make_predictor(trained_model)
        predictor.seed(test_images[:2])
        _predict(
            predictor,
            [(0, test_images[2:4], _parents(2)), (1, test_images[4:6], _parents(2))]
        )
        predictor.commit([(0, np.array([1])), (1, np.array([0]))])
        kept = predictor._parents[1]  # noqa: SLF001
        _predict(predictor, [(0, test_images[6:8], _parents(2))])
        predictor.commit([(0, np.array([0]))])
        assert predictor._parents[1] is kept  # noqa: SLF001
        predictions, _ = _predict(predictor, [(1, test_images[8:9], _parents(1))])
        _assert_scratch_queries(trained_model, predictions, test_images[8:9])

    def test_each_input_caches_one_iterations_children(
        self, trained_model, test_images
    ):
        config = HDTestConfig(top_n=2, children_per_seed=3)
        predictor = _make_predictor(trained_model, config=config)
        predictor.seed(test_images[:4])
        caches = predictor._caches  # noqa: SLF001
        assert len(caches) == 4
        assert {cache.max_entries for cache in caches} == {2 * 3}
        _predict(predictor, [(0, test_images[4:12], _parents(8))])
        predictor.commit([])
        assert len(caches[0]) == 6 and len(caches[1]) == 0
        predictor.seed(test_images[:1])  # a new run starts with new caches
        assert len(predictor._caches) == 1  # noqa: SLF001
        assert len(predictor._caches[0]) == 0  # noqa: SLF001

    def test_shift_child_from_two_iterations_back_is_a_hit(
        self, trained_model, test_images
    ):
        """Shifting back re-creates a child of two iterations ago: no new encode."""
        obs = CampaignTelemetry()
        predictor = _make_predictor(trained_model, strategy="shift", telemetry=obs)
        original = next(  # a digit with an empty border: shifts invert
            image for image in test_images
            if not (image[[0, -1]].any() or image[:, [0, -1]].any())
        )

        def children_of(seed):  # one pixel down, up, right, left; vacated lines 0
            children = []
            for axis in (0, 1):
                for delta in (1, -1):
                    child = np.roll(seed, delta, axis=axis)
                    np.moveaxis(child, axis, 0)[0 if delta > 0 else -1] = 0.0
                    children.append(child)
            return np.stack(children)

        first = children_of(original)
        predictor.seed(original[None])
        _predict(predictor, [(0, first, _parents(4))])
        predictor.commit([(0, np.array([0]))])  # keep D(original)
        second = children_of(first[0])
        _predict(predictor, [(0, second, _parents(4))])
        predictor.commit([(0, np.array([2]))])  # keep R(D(original))
        assert obs.counters["encoded_children"] == 8
        third = children_of(second[2])
        # U(R(D(o))) == R(o) and L(R(D(o))) == D(o): iteration 1's children.
        np.testing.assert_array_equal(third[1], first[2])
        np.testing.assert_array_equal(third[3], first[0])
        predictions, _ = _predict(predictor, [(0, third, _parents(4))])
        assert obs.counters["encoded_children"] == 8 + 2
        _assert_scratch_queries(trained_model, predictions, third)

    @pytest.mark.parametrize("kind", ["independent", "shared"])
    @pytest.mark.parametrize("path", PATHS)
    def test_ensemble_matches_member_encodes(
        self, ensemble_targets, test_images, kind, path
    ):
        """Every member's votes and similarities equal the target's own, hits too."""
        target = ensemble_targets[kind]
        obs = CampaignTelemetry()
        predictor = _make_predictor(target, path, telemetry=obs)
        predictor.seed(test_images[:2])
        plans = [(0, test_images[2:5], _parents(3)), (1, test_images[5:7], _parents(2))]
        for _ in range(2):  # cold, then every row from the caches
            predictions, _ = _predict(predictor, plans)
            predictor.commit([])
            _assert_scratch_queries(target, predictions, test_images[2:7])
        assert obs.counters["encoded_children"] == 5

    def test_binary_hvs_in_a_bipolar_memory_are_not_sign_words(
        self, digit_data, test_images
    ):
        """Sign words stand in for bipolar encoders' hypervectors only."""
        train, _ = digit_data
        model = HDCClassifier(BinaryPixelEncoder(dimension=512, rng=3), 10)
        model.fit(train.images[:200], train.labels[:200])
        predictor = _make_predictor(model)
        predictor.seed(test_images[:1])
        predictions, _ = _predict(predictor, [(0, test_images[1:4], _parents(3))])
        _assert_scratch_queries(model, predictions, test_images[1:4])

    def test_text_delta_matches_scratch(self):
        data = make_language_dataset(n_per_class=12, n_languages=3, length=40, seed=4)
        encoder = NgramEncoder(n=3, dimension=1024, rng=4)
        model = HDCClassifier(encoder, n_classes=3).fit(list(data.texts), data.labels)
        rows = BatchedHDTest(model, "char_sub").domain.stack(list(data.texts[:7]))
        for path in PATHS:
            predictor = _make_predictor(model, path, strategy="char_sub")
            predictor.seed(rows[:2])
            plans = [(0, rows[2:5], _parents(3)), (1, rows[5:7], _parents(2))]
            _assert_scratch_queries(model, _predict(predictor, plans)[0], rows[2:7])


class TestChildKeys:
    def test_keys_are_each_rows_bytes(self):
        children = np.arange(48, dtype=np.float64).reshape(4, 3, 4)[:, :, ::2]
        children[2] = children[0]
        keys = _child_keys(children)
        assert keys == [row.tobytes() for row in children]
        assert keys[0] == keys[2] and len(set(keys)) == 3

    def test_concat_hands_a_lone_block_back(self):
        block = np.ones((2, 3))
        assert _concat([block]) is block
        joined = _concat([block, np.zeros((1, 3))])
        np.testing.assert_array_equal(joined, np.vstack([block, np.zeros((1, 3))]))


class TestCacheLifetime:
    def test_serial_engine_holds_at_most_one_input_cache(
        self, trained_model, test_images, monkeypatch
    ):
        created = []
        init = LRUCache.__init__

        def tracking_init(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            created.append(weakref.ref(cache))

        monkeypatch.setattr(LRUCache, "__init__", tracking_init)
        config = HDTestConfig(iter_times=5)
        engine = HDTest(trained_model, "shift", config=config, rng=0)
        result = engine.fuzz(list(test_images[:4]))
        gc.collect()
        assert result.n_inputs == 4
        assert len(created) >= 2  # one cache per fuzzed input
        assert sum(ref() is not None for ref in created) <= 1

    def test_finished_run_frees_its_blocks_without_the_cycle_collector(
        self, trained_model, test_images, monkeypatch
    ):
        """No reference cycle keeps an iteration's rows alive after its run."""
        blocks = []
        init = ChildBlock.__init__

        def tracking_init(block, *args, **kwargs):
            init(block, *args, **kwargs)
            blocks.append(weakref.ref(block))

        monkeypatch.setattr(ChildBlock, "__init__", tracking_init)
        engine = HDTest(trained_model, "gauss", config=HDTestConfig(iter_times=5), rng=0)
        gc.collect()
        gc.disable()
        try:
            engine.fuzz(list(test_images[:3]))
            assert blocks
            assert all(ref() is None for ref in blocks)
        finally:
            gc.enable()

    def test_paper_scale_run_holds_one_iterations_rows(self, digit_data, test_images):
        # 50 row_col_rand iterations at D = 10 000 miss on nearly every
        # child; a cache deeper than one iteration filled with their
        # 20 kB int16 accumulator rows (512 rows: about 10 MB).
        class NeverFlips(DifferentialOracle):
            def discrepancies(self, reference_label, query_labels):
                return np.zeros(len(query_labels), dtype=bool)

        train, _ = digit_data
        model = HDCClassifier(PixelEncoder(dimension=10_000, rng=3), 10)
        model.fit(train.images, train.labels)
        engine = HDTest(model, "row_col_rand", oracle=NeverFlips(), rng=0)
        engine.fuzz_one(test_images[0])  # warm the kernel buffers
        tracemalloc.start()
        try:
            outcome = engine.fuzz_one(test_images[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome.iterations == engine.config.iter_times == 50
        cached = engine.config.top_n * engine.config.children_per_seed * 20_000
        # One iteration's encode + query transient measures about 2.2 MB.
        assert peak <= cached + 3_000_000, peak
