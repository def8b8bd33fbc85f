"""Tests for the sequential engine's incremental (delta) encode path.

`HDTest.fuzz_one` encodes children from their parent's accumulator
instead of from scratch.  The algebra is exact, so outcomes must be
bit-identical to the direct path — for the bipolar, binary, and packed
model families alike.
"""

import numpy as np
import pytest

from repro.fuzz import HDTest, HDTestConfig, predictor
from repro.utils.cache import LRUCache
from repro.utils.rng import spawn


def _key(outcomes):
    return [
        (
            o.success,
            o.iterations,
            o.reference_label,
            None
            if o.example is None
            else (o.example.adversarial_label, o.example.adversarial.tobytes()),
        )
        for o in outcomes
    ]


def _run(model, strategy, inputs, cfg, seed, *, force_direct=False):
    fuzzer = HDTest(model, strategy, config=cfg)
    if force_direct:
        fuzzer._delta_encoder = lambda: None  # noqa: SLF001 - test hook
    return [
        fuzzer.fuzz_one(x, rng=g) for x, g in zip(inputs, spawn(seed, len(inputs)))
    ]


class TestSequentialDeltaEquivalence:
    @pytest.mark.parametrize("strategy", ["gauss", "rand", "shift"])
    def test_bipolar_matches_direct(self, trained_model, test_images, strategy):
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=6)
        delta = _run(trained_model, strategy, inputs, cfg, 42)
        direct = _run(trained_model, strategy, inputs, cfg, 42, force_direct=True)
        assert _key(delta) == _key(direct)

    def test_gauss_matches_direct_at_default_config(self, trained_model, test_images):
        inputs = list(test_images[:3])
        cfg = HDTestConfig(iter_times=5)
        delta = _run(trained_model, "gauss", inputs, cfg, 8)
        direct = _run(trained_model, "gauss", inputs, cfg, 8, force_direct=True)
        assert _key(delta) == _key(direct)

    def test_binary_family_matches_direct(self, digit_data, test_images):
        from repro.hdc import BinaryHDCClassifier, BinaryPixelEncoder

        train, _ = digit_data
        model = BinaryHDCClassifier(
            BinaryPixelEncoder(dimension=512, rng=3), 10
        ).fit(train.images[:200], train.labels[:200])
        inputs = list(test_images[:3])
        cfg = HDTestConfig(iter_times=5)
        delta = _run(model, "gauss", inputs, cfg, 5)
        direct = _run(model, "gauss", inputs, cfg, 5, force_direct=True)
        assert _key(delta) == _key(direct)

    def test_delta_encoder_detected(self, trained_model):
        assert HDTest(trained_model, "gauss")._delta_encoder() is not None

    def test_delta_cache_still_bounded(self, trained_model, test_images, monkeypatch):
        """A pathologically small dedupe cache must not change results."""
        monkeypatch.setattr(predictor, "LRUCache", lambda _entries: LRUCache(2))
        inputs = list(test_images[:2])
        cfg = HDTestConfig(iter_times=5)
        delta = _run(trained_model, "gauss", inputs, cfg, 17)
        direct = _run(trained_model, "gauss", inputs, cfg, 17, force_direct=True)
        assert _key(delta) == _key(direct)
