"""The in-process children → predictions step and its cache lifetimes.

:class:`~repro.fuzz.predictor.LocalPredictor` is what every in-process
schedule — and every member worker — encodes through, so its survivor
side data must follow the seed pool's selection exactly, both encode
paths must reproduce a scratch encode bit for bit (cache hits
included), and the serial engine must drop an input's dedupe cache
once that input is done (one cache per input keeps peak memory flat).
"""

import gc
import weakref

import numpy as np
import pytest

from repro.datasets import make_language_dataset
from repro.fuzz import BatchedHDTest, HDTest, HDTestConfig
from repro.fuzz.predictor import LocalPredictor, _CachePool, _child_keys, _concat
from repro.fuzz.targets import ModelEnsembleTarget, SharedCodebookEnsembleTarget
from repro.hdc import HDCClassifier, NgramEncoder
from repro.obs import CampaignTelemetry
from repro.utils.cache import LRUCache

PATHS = ["delta", "scratch"]


def _make_predictor(model, path="delta", *, strategy="gauss", config=None,
                    telemetry=None):
    """A fresh engine's predictor, forced onto *path*."""
    engine = BatchedHDTest(model, strategy, config=config, telemetry=telemetry)
    if path == "scratch":
        engine._delta_encoder = lambda: None  # noqa: SLF001 - test hook
    predictor = engine._predictor(_CachePool())  # noqa: SLF001 - engine hook
    assert (predictor._surface is None) == (path == "scratch")  # noqa: SLF001
    return predictor


def _parents(n):
    return np.zeros(n, dtype=np.int64)


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
        predictor = engine._predictor(_CachePool())  # noqa: SLF001 - engine hook
        assert isinstance(predictor, LocalPredictor)
        surface = predictor._surface  # noqa: SLF001
        predictor.seed(test_images[:1])
        children = test_images[1:4]
        predictor.predict([(0, children, np.zeros(3, dtype=np.int64))])
        predictor.commit([(0, np.array([2, 0]))])
        # Delta-encoding from the original is exact, so each survivor's
        # side data equals its scratch accumulator and levels.
        accs, levels = surface.seed_side_data(children)
        kept_accs, kept_levels = predictor._parents[0]  # noqa: SLF001
        np.testing.assert_array_equal(kept_accs, accs[[2, 0]])
        np.testing.assert_array_equal(kept_levels, levels[[2, 0]])

    def test_prediction_matches_scratch_encode(self, trained_model, test_images):
        engine = BatchedHDTest(trained_model, "gauss")
        predictor = engine._predictor(_CachePool())  # noqa: SLF001 - engine hook
        predictor.seed(test_images[:2])
        plans = [
            (0, test_images[2:5], np.zeros(3, dtype=np.int64)),
            (1, test_images[5:7], np.zeros(2, dtype=np.int64)),
        ]
        predictions, bundle = predictor.predict(plans)
        expected = trained_model.encode_batch(test_images[2:7])
        np.testing.assert_array_equal(bundle[0], expected)
        np.testing.assert_array_equal(
            predictions.labels[0], trained_model.predict_hv(expected)
        )

    def test_scratch_path_matches_encode_batch(self, trained_model, test_images):
        predictor = _make_predictor(trained_model, "scratch")
        predictor.seed(test_images[:2])
        plans = [(0, test_images[2:5], _parents(3)), (1, test_images[5:7], _parents(2))]
        predictions, bundle = predictor.predict(plans)
        expected = trained_model.encode_batch(test_images[2:7])
        np.testing.assert_array_equal(bundle[0], expected)
        np.testing.assert_array_equal(
            predictions.labels[0], trained_model.predict_hv(expected)
        )

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
        first, _ = predictor.predict(plans)
        assert obs.counters["encoded_children"] == 3
        second, bundle = predictor.predict(plans)
        assert obs.counters["encoded_children"] == 3  # every row a hit
        np.testing.assert_array_equal(second.labels, first.labels)
        np.testing.assert_array_equal(
            bundle[0], trained_model.encode_batch(test_images[1:4])
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_duplicate_rows_in_a_block_encode_once(
        self, trained_model, test_images, path
    ):
        obs = CampaignTelemetry()
        predictor = _make_predictor(trained_model, path, telemetry=obs)
        predictor.seed(test_images[:1])
        children = test_images[[1, 2, 1, 1]]
        _, bundle = predictor.predict([(0, children, _parents(4))])
        assert obs.counters["encoded_children"] == 2
        np.testing.assert_array_equal(bundle[0], trained_model.encode_batch(children))

    def test_inputs_with_equal_content_share_one_cache(
        self, trained_model, test_images
    ):
        obs = CampaignTelemetry()
        predictor = _make_predictor(trained_model, telemetry=obs)
        predictor.seed(np.stack([test_images[0], test_images[0]]))
        children = test_images[1:3]
        plans = [(0, children, _parents(2)), (1, children, _parents(2))]
        _, bundle = predictor.predict(plans)
        assert obs.counters["encoded_children"] == 2
        expected = trained_model.encode_batch(children)
        np.testing.assert_array_equal(bundle[0], np.concatenate([expected, expected]))

    def test_next_generation_encodes_from_survivors(self, trained_model, test_images):
        predictor = _make_predictor(trained_model)
        predictor.seed(test_images[:1])
        predictor.predict([(0, test_images[1:4], _parents(3))])
        predictor.commit([(0, np.array([2, 0]))])
        # Generation 2 parents from both survivors (pool rows 0 and 1).
        children = test_images[4:7]
        _, bundle = predictor.predict([(0, children, np.array([0, 1, 1]))])
        np.testing.assert_array_equal(bundle[0], trained_model.encode_batch(children))

    def test_input_sitting_out_keeps_its_survivors(self, trained_model, test_images):
        """An input whose children all blew the budget keeps its seeds."""
        predictor = _make_predictor(trained_model)
        predictor.seed(test_images[:2])
        predictor.predict(
            [(0, test_images[2:4], _parents(2)), (1, test_images[4:6], _parents(2))]
        )
        predictor.commit([(0, np.array([1])), (1, np.array([0]))])
        kept = predictor._parents[1]  # noqa: SLF001
        predictor.predict([(0, test_images[6:8], _parents(2))])
        predictor.commit([(0, np.array([0]))])
        assert predictor._parents[1] is kept  # noqa: SLF001
        _, bundle = predictor.predict([(1, test_images[8:9], _parents(1))])
        np.testing.assert_array_equal(
            bundle[0], trained_model.encode_batch(test_images[8:9])
        )

    def test_cache_capacity_is_shared_among_inputs(self, trained_model, test_images):
        config = HDTestConfig(cache_max_entries=1024)
        predictor = _make_predictor(trained_model, config=config)
        predictor.seed(test_images[:4])
        assert predictor._capacity == 256  # noqa: SLF001
        assert predictor._caches.entry_budget == 2 * 4 * 256  # noqa: SLF001
        predictor.seed(test_images[:64])
        # Many inputs: the share floors at 32 entries each.
        assert predictor._capacity == 32  # noqa: SLF001
        predictor.predict([(0, test_images[64:66], _parents(2))])
        cache = predictor._caches.get(test_images[0].tobytes(), 32)  # noqa: SLF001
        assert cache.max_entries == 32
        assert len(cache) == 2

    @pytest.mark.parametrize("kind", ["independent", "shared"])
    @pytest.mark.parametrize("path", PATHS)
    def test_ensemble_matches_member_encodes(
        self, ensemble_targets, test_images, kind, path
    ):
        """Every member's block and votes equal the target's own, hits too."""
        target = ensemble_targets[kind]
        obs = CampaignTelemetry()
        predictor = _make_predictor(target, path, telemetry=obs)
        predictor.seed(test_images[:2])
        plans = [(0, test_images[2:5], _parents(3)), (1, test_images[5:7], _parents(2))]
        expected = target.encode_batch(test_images[2:7])
        reference = target.predict_hvs(expected, with_similarities=True)
        for _ in range(2):  # cold, then every row from the caches
            predictions, bundle = predictor.predict(plans, with_similarities=True)
            assert len(bundle) == target.n_encode_blocks
            for block, want in zip(bundle, expected):
                np.testing.assert_array_equal(block, want)
            np.testing.assert_array_equal(predictions.labels, reference.labels)
            np.testing.assert_array_equal(
                predictions.similarities, reference.similarities
            )
        assert obs.counters["encoded_children"] == 5

    def test_text_delta_matches_scratch(self):
        data = make_language_dataset(n_per_class=12, n_languages=3, length=40, seed=4)
        encoder = NgramEncoder(n=3, dimension=1024, rng=4)
        model = HDCClassifier(encoder, n_classes=3).fit(list(data.texts), data.labels)
        rows = BatchedHDTest(model, "char_sub").domain.stack(list(data.texts[:7]))
        bundles = {}
        for path in PATHS:
            predictor = _make_predictor(model, path, strategy="char_sub")
            predictor.seed(rows[:2])
            plans = [(0, rows[2:5], _parents(3)), (1, rows[5:7], _parents(2))]
            bundles[path] = predictor.predict(plans)[1]
        np.testing.assert_array_equal(bundles["delta"][0], bundles["scratch"][0])


class TestCachePool:
    def test_reserve_keeps_the_largest_budget(self):
        pool = _CachePool()
        pool.reserve(4, 32)
        assert pool.entry_budget == 2 * 4 * 32
        pool.reserve(1, 32)
        assert pool.entry_budget == 2 * 4 * 32
        pool.reserve(8, 32)
        assert pool.entry_budget == 2 * 8 * 32

    def test_evicts_the_least_recently_fuzzed_cache(self):
        pool = _CachePool()
        pool.reserve(1, 10)
        first = pool.get(b"a", 10)
        pool.get(b"b", 10)
        assert pool.get(b"a", 10) is first  # refreshes "a"
        pool.get(b"c", 10)
        assert list(pool._caches) == [b"a", b"c"]  # noqa: SLF001

    def test_shrunk_cache_frees_its_budget(self):
        pool = _CachePool()
        pool.reserve(1, 10)
        first = pool.get(b"a", 100)
        pool.get(b"a", 10)
        assert first.max_entries == 10
        pool.get(b"b", 10)  # 10 + 10 fits the 20-entry budget
        assert list(pool._caches) == [b"a", b"b"]  # noqa: SLF001

    def test_keeps_the_newest_cache_over_budget(self):
        pool = _CachePool()  # nothing reserved: every cache is over budget
        cache = pool.get(b"a", 64)
        assert pool.get(b"a", 64) is cache
        pool.get(b"b", 64)
        assert list(pool._caches) == [b"b"]  # noqa: SLF001


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
