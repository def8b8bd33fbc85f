"""Tests for the fuzzing-domain abstraction layer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fuzz import (
    HDTest,
    ImageConstraint,
    NullConstraint,
    RecordConstraint,
    TextConstraint,
)
from repro.fuzz.domains import (
    FuzzDomain,
    ImageDomain,
    RecordDomain,
    TextDomain,
    create_domain,
    get_domain_class,
    register_domain,
    resolve_domain,
)
from repro.fuzz.mutations import create_strategy


class TestRegistry:
    def test_voice_aliases_record(self):
        assert get_domain_class("voice") is RecordDomain
        assert isinstance(create_domain("voice"), RecordDomain)

    def test_unknown_name_rejected_naming_the_registered_domains(self):
        with pytest.raises(ConfigurationError) as info:
            create_domain("audio")
        assert str(info.value) == (
            "unknown fuzzing domain 'audio'; available: "
            "['image', 'record', 'text', 'voice']"
        )

    def test_nameless_domain_rejected(self):
        class Nameless(FuzzDomain):
            pass

        with pytest.raises(ConfigurationError, match="non-empty `name`"):
            register_domain(Nameless)

    def test_taken_name_rejected(self):
        class Impostor(ImageDomain):
            pass

        with pytest.raises(ConfigurationError, match="'image' is already registered"):
            register_domain(Impostor)
        assert get_domain_class("image") is ImageDomain

    def test_create_each(self):
        assert isinstance(create_domain("image"), ImageDomain)
        assert isinstance(create_domain("text"), TextDomain)
        assert isinstance(create_domain("record"), RecordDomain)

    def test_default_strategies_registered(self):
        for name in ("image", "text", "record"):
            domain = create_domain(name)
            assert domain.default_strategy in domain.strategy_names()


class TestInference:
    def test_resolve_from_strategy(self):
        assert resolve_domain(None, strategy=create_strategy("char_sub")).name == "text"
        assert resolve_domain(None, strategy=create_strategy("gauss")).name == "image"
        assert resolve_domain(None, strategy=create_strategy("record_rand")).name == "record"

    def test_resolve_passthrough_and_errors(self):
        domain = TextDomain()
        assert resolve_domain(domain) is domain
        with pytest.raises(ConfigurationError):
            resolve_domain(None)
        with pytest.raises(ConfigurationError):
            resolve_domain(3.14)


class TestImageDomain:
    def test_to_internal_validates(self):
        domain = ImageDomain()
        out = domain.to_internal(np.zeros((3, 3), dtype=np.uint8))
        assert out.dtype == np.float64
        with pytest.raises(ConfigurationError, match="array"):
            domain.to_internal("not an image")
        with pytest.raises(ConfigurationError, match="2-D"):
            domain.to_internal(np.zeros(5))

    def test_stack_requires_one_shape(self):
        domain = ImageDomain()
        with pytest.raises(ConfigurationError, match="shape"):
            domain.stack([np.zeros((3, 3)), np.zeros((2, 2))])

    def test_default_constraints(self):
        domain = ImageDomain()
        assert isinstance(domain.default_constraint(create_strategy("gauss")), ImageConstraint)
        assert isinstance(domain.default_constraint(create_strategy("shift")), NullConstraint)


class TestRecordDomain:
    def test_round_trip(self):
        domain = RecordDomain()
        rec = np.array([0.25, 0.5, 0.75])
        np.testing.assert_array_equal(domain.to_internal(rec), rec)
        out = domain.to_external(rec)
        assert out is not rec

    def test_default_constraints(self):
        domain = RecordDomain(value_range=(0.0, 2.0))
        constraint = domain.default_constraint(create_strategy("record_gauss"))
        assert isinstance(constraint, RecordConstraint)
        assert constraint.value_range == (0.0, 2.0)
        assert isinstance(
            domain.default_constraint(create_strategy("record_shift")), NullConstraint
        )

    @pytest.mark.parametrize("value_range", [(1.0, 1.0), (2.0, 0.0)])
    def test_empty_or_reversed_value_range_rejected(self, value_range):
        with pytest.raises(ConfigurationError, match="low < high"):
            RecordDomain(value_range=value_range)

    def test_rejects_non_records(self):
        with pytest.raises(ConfigurationError):
            RecordDomain().to_internal(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            RecordDomain().to_internal("text")


class TestTextDomain:
    def test_round_trip(self):
        domain = TextDomain("abc ")
        codes = domain.to_internal("a cab")
        assert codes.dtype == np.uint8
        assert domain.to_external(codes) == "a cab"

    def test_codes_pass_through(self):
        domain = TextDomain("abc")
        codes = np.array([0, 1, 2], dtype=np.int64)
        out = domain.to_internal(codes)
        assert out.dtype == np.uint8
        assert domain.to_external(out) == "abc"

    def test_out_of_alphabet_policies(self):
        with pytest.raises(ConfigurationError, match="not in the fuzzing alphabet"):
            TextDomain("abc").to_internal("abz")
        mapped = TextDomain("abc", unknown_policy="map").to_internal("abz")
        assert TextDomain("abc").to_external(mapped) == "abc"

    def test_stack_requires_equal_lengths(self):
        domain = TextDomain("abc")
        stacked = domain.stack(["abc", "cba"])
        assert stacked.shape == (2, 3)
        with pytest.raises(ConfigurationError, match="length"):
            domain.stack(["abc", "ab"])

    def test_invalid_constructions(self):
        with pytest.raises(ConfigurationError):
            TextDomain("")
        with pytest.raises(ConfigurationError):
            TextDomain("aa")
        with pytest.raises(ConfigurationError):
            TextDomain("abc", unknown_policy="skip")

    def test_alphabet_fills_the_uint8_code_range(self):
        alphabet = "".join(chr(0x100 + i) for i in range(256))
        domain = TextDomain(alphabet)
        codes = domain.to_internal(alphabet[::-1])
        assert codes.dtype == np.uint8 and codes[0] == 255
        assert domain.to_external(codes) == alphabet[::-1]
        with pytest.raises(ConfigurationError, match="at most 256"):
            TextDomain(alphabet + "!")

    @pytest.mark.parametrize(
        "codes", [np.array([0.0, 1.0]), np.array([[0, 1], [1, 0]])], ids=["float", "2-D"]
    )
    def test_malformed_code_arrays_rejected(self, codes):
        with pytest.raises(ConfigurationError, match="1-D integer"):
            TextDomain("abc").to_internal(codes)

    @pytest.mark.parametrize("item", [b"abc", ["a", "b"], 7], ids=["bytes", "list", "int"])
    def test_non_string_inputs_rejected(self, item):
        with pytest.raises(ConfigurationError, match="requires str inputs"):
            TextDomain("abc").to_internal(item)

    def test_empty_string_rejected(self):
        with pytest.raises(ConfigurationError):
            TextDomain("abc").to_internal("")

    def test_default_constraint(self):
        assert isinstance(
            TextDomain().default_constraint(create_strategy("char_sub")), TextConstraint
        )

    def test_for_model_reads_encoder(self):
        from repro.hdc.encoders.ngram import NgramEncoder

        class FakeModel:
            encoder = NgramEncoder(alphabet="xyz ", rng=0, unknown_policy="map")

        domain = TextDomain.for_model(FakeModel())
        assert domain.alphabet == "xyz "
        assert domain.unknown_policy == "map"
        # skip cannot be represented length-preservingly -> raise policy.
        class SkipModel:
            encoder = NgramEncoder(alphabet="xyz ", rng=0, unknown_policy="skip")

        assert TextDomain.for_model(SkipModel()).unknown_policy == "raise"


class TestEngineIntegration:
    def test_engine_exposes_domain(self, trained_model):
        fuzzer = HDTest(trained_model, "gauss", rng=0)
        assert isinstance(fuzzer.domain, FuzzDomain)
        assert fuzzer.domain.name == "image"

    def test_explicit_domain_instance(self, trained_model):
        domain = ImageDomain()
        fuzzer = HDTest(trained_model, "gauss", domain=domain, rng=0)
        assert fuzzer.domain is domain

    def test_delta_encoder_gating(self, trained_model):
        # The pixel encoder supports the full delta surface...
        assert ImageDomain().delta_encoder(trained_model) is trained_model.encoder

        # ...an encoder missing any part of the API falls back to scratch.
        class NoDelta:
            encoder = object()

        assert ImageDomain().delta_encoder(NoDelta()) is None


class TestReviewRegressions:
    """Fixes from the PR 3 review pass."""

    def test_negative_codes_rejected(self):
        # uint8 casting must not wrap negative codes to valid symbols.
        with pytest.raises(ConfigurationError, match="codes must lie"):
            TextDomain("abc").to_internal(np.array([-1, 0, 1], dtype=np.int64))

    def test_strategy_alphabet_mismatch_rejected_at_construction(self):
        from repro.datasets import make_language_dataset
        from repro.hdc import HDCClassifier, NgramEncoder

        data = make_language_dataset(
            n_per_class=8, n_languages=2, length=20, alphabet="abcd", seed=0
        )
        model = HDCClassifier(
            NgramEncoder(n=3, alphabet="abcd", dimension=256, rng=0), 2
        ).fit(list(data.texts), data.labels)
        # Default char_sub carries the 27-symbol alphabet -> caught early,
        # not as an EncodingError mid-campaign.
        with pytest.raises(ConfigurationError, match="alphabet"):
            HDTest(model, "char_sub", rng=0)
        # Matching the encoder's alphabet works end to end.
        fuzzer = HDTest(
            model, create_strategy("char_sub", alphabet="abcd"), rng=0
        )
        outcome = fuzzer.fuzz_one(data.texts[0])
        assert outcome.reference_label in (0, 1)

    def test_sample_seed_keeps_class_structure(self):
        from repro.datasets import make_language_dataset, make_voice_dataset

        base = make_language_dataset(n_per_class=4, n_languages=2, length=30, seed=9)
        fresh = make_language_dataset(
            n_per_class=4, n_languages=2, length=30, seed=9, sample_seed=10
        )
        assert fresh.texts != base.texts  # new samples...
        assert fresh.language_names == base.language_names
        # ...but an n-gram model trained on the base corpus still
        # classifies the fresh draw perfectly: same languages.
        from repro.hdc import HDCClassifier, NgramEncoder

        model = HDCClassifier(NgramEncoder(n=3, dimension=1024, rng=9), 2).fit(
            list(base.texts), base.labels
        )
        assert model.score(list(fresh.texts), fresh.labels) == 1.0

        voice_base = make_voice_dataset(n_per_class=3, n_classes=2, seed=9)
        voice_fresh = make_voice_dataset(
            n_per_class=3, n_classes=2, seed=9, sample_seed=10
        )
        assert not np.array_equal(voice_fresh.records, voice_base.records)
