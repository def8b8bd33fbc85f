"""Tests for the ``hdtest`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_args(self):
        args = build_parser().parse_args(
            ["train", "--out", "m.npz", "--n-train", "10", "--dimension", "512"]
        )
        assert args.command == "train"
        assert args.n_train == 10
        assert args.dimension == 512

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz", "--model", "m.npz"])
        assert args.strategies is None  # resolved to the domain default
        assert args.domain == "image"
        assert args.top_n == 3
        assert args.executor == "serial"
        assert args.batch_size is None
        assert args.workers is None

    def test_domain_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--model", "m.npz", "--domain", "text"]
        )
        assert args.domain == "text"
        args = build_parser().parse_args(
            ["train", "--out", "m.npz", "--domain", "voice"]
        )
        assert args.domain == "voice"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--model", "m.npz", "--domain", "audio"])

    def test_executor_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--model", "m.npz", "--executor", "batched",
             "--batch-size", "16"]
        )
        assert args.executor == "batched"
        assert args.batch_size == 16
        args = build_parser().parse_args(
            ["defend", "--model", "m.npz", "--executor", "process",
             "--workers", "2"]
        )
        assert args.executor == "process"
        assert args.workers == 2

    def test_family_and_backend_flags(self):
        args = build_parser().parse_args(
            ["train", "--out", "m.npz", "--family", "binary"]
        )
        assert args.family == "binary"
        args = build_parser().parse_args(
            ["fuzz", "--model", "m.npz", "--backend", "packed"]
        )
        assert args.backend == "packed"
        args = build_parser().parse_args(
            ["fuzz", "--model", "m.npz", "--backend", "packed-bipolar"]
        )
        assert args.backend == "packed-bipolar"
        args = build_parser().parse_args(["defend", "--model", "m.npz"])
        assert args.backend == "dense"
        for rejected in ("gpu", "torch"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(
                    ["fuzz", "--model", "m.npz", "--backend", rejected]
                )
            assert excinfo.value.code == 2

    def test_unknown_executor_rejected(self):
        for command in ("fuzz", "defend"):
            for executor in ("gpu", "member-sharded"):
                with pytest.raises(SystemExit) as excinfo:
                    build_parser().parse_args(
                        [command, "--model", "m.npz", "--executor", executor]
                    )
                assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "hdtest" in capsys.readouterr().out


class TestCountFlags:
    """Every count flag rejects 0 and −3 by name, before any file is read.

    The model paths below do not exist and the training sizes are small,
    so a check that ran late would fail on the missing file (or train a
    model) instead of raising the flag's ConfigurationError.
    """

    #: A sizing flag is only valid with the executor it sizes.
    EXECUTOR = {"--batch-size": ["--executor", "batched"],
                "--workers": ["--executor", "process"]}

    @staticmethod
    def _rejects(argv, flag, value, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            main(argv)
        assert str(excinfo.value) == f"{flag} must be >= 1, got {value}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--n-train", "--n-test", "--dimension"])
    @pytest.mark.parametrize("domain", ["image", "text", "voice"])
    def test_train(self, tmp_path, domain, flag, value, capsys):
        out = tmp_path / "model.npz"
        argv = ["train", "--out", str(out), "--domain", domain,
                "--n-train", "30", "--n-test", "10", "--dimension", "256"]
        argv[argv.index(flag) + 1] = value
        self._rejects(argv, flag, value, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "flag",
        ["--iter-times", "--top-n", "--children", "--ensemble", "--ensemble-train",
         "--n-adversarial", "--block-size", "--batch-size", "--workers"],
    )
    def test_fuzz(self, tmp_path, flag, value, capsys):
        argv = ["fuzz", "--model", str(tmp_path / "absent.npz"), "--n-images", "2",
                *self.EXECUTOR.get(flag, []), flag, value]
        self._rejects(argv, flag, value, capsys)

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--n-adversarial", "--batch-size", "--workers"])
    def test_defend(self, tmp_path, flag, value, capsys):
        argv = ["defend", "--model", str(tmp_path / "absent.npz"),
                *self.EXECUTOR.get(flag, []), flag, value]
        self._rejects(argv, flag, value, capsys)

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--n-fuzz", "--n-adversarial", "--n-images"])
    def test_report(self, tmp_path, flag, value, capsys):
        argv = ["report", "--model", str(tmp_path / "absent.npz"), flag, value]
        self._rejects(argv, flag, value, capsys)


class TestStrategiesCommand:
    def test_lists_domains(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "image:" in out and "text:" in out and "record:" in out
        assert "gauss" in out and "char_sub" in out and "record_gauss" in out


@pytest.mark.slow
class TestEndToEnd:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        code = main(
            [
                "train",
                "--out", str(path),
                "--n-train", "300",
                "--n-test", "60",
                "--dimension", "1024",
                "--seed", "7",
            ]
        )
        assert code == 0
        return path

    @pytest.fixture(scope="class")
    def binary_model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-binary") / "binary.npz"
        code = main(
            [
                "train",
                "--out", str(path),
                "--family", "binary",
                "--n-train", "200",
                "--n-test", "40",
                "--dimension", "512",
                "--seed", "7",
            ]
        )
        assert code == 0
        return path

    def test_train_reports_accuracy(self, model_path, capsys):
        assert model_path.exists()

    def test_fuzz_binary_with_packed_backend(self, binary_model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(binary_model_path),
                "--strategies", "gauss",
                "--n-images", "3",
                "--iter-times", "10",
                "--executor", "batched",
                "--backend", "packed",
                "--seed", "0",
            ]
        )
        assert code == 0
        assert "gauss" in capsys.readouterr().out

    def test_fuzz_bipolar_with_packed_bipolar_backend(self, model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(model_path),
                "--strategies", "gauss",
                "--n-images", "3",
                "--iter-times", "10",
                "--executor", "batched",
                "--backend", "packed-bipolar",
                "--seed", "0",
            ]
        )
        assert code == 0
        assert "gauss" in capsys.readouterr().out

    def test_packed_bipolar_backend_rejected_for_binary(self, binary_model_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="bipolar model"):
            main(
                [
                    "fuzz",
                    "--model", str(binary_model_path),
                    "--strategies", "gauss",
                    "--n-images", "2",
                    "--backend", "packed-bipolar",
                ]
            )

    def test_packed_backend_rejected_for_bipolar(self, model_path, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="dense-binary"):
            main(
                [
                    "fuzz",
                    "--model", str(model_path),
                    "--strategies", "gauss",
                    "--n-images", "2",
                    "--backend", "packed",
                ]
            )

    def test_fuzz_prints_table2(self, model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(model_path),
                "--strategies", "gauss",
                "--n-images", "5",
                "--seed", "0",
                "--per-class",
                "--show-example",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "gauss" in out
        assert "Fig. 7" in out

    def test_fuzz_batched_executor(self, model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(model_path),
                "--strategies", "gauss",
                "--n-images", "5",
                "--seed", "0",
                "--executor", "batched",
                "--batch-size", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "gauss" in out

    def test_defend_prints_report(self, model_path, capsys):
        code = main(
            [
                "defend",
                "--model", str(model_path),
                "--n-adversarial", "20",
                "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attack_rate_before" in out
        assert "attack-rate drop" in out

    def test_report_writes_markdown(self, model_path, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--model", str(model_path),
                "--out", str(out_path),
                "--n-fuzz", "4",
                "--n-adversarial", "8",
                "--n-images", "60",
                "--seed", "0",
            ]
        )
        assert code == 0
        report = out_path.read_text()
        assert "# HDTest experiment report" in report
        assert "## Table II" in report


class TestDomainEndToEnd:
    """`hdtest train/fuzz --domain text|voice` work end to end."""

    @pytest.fixture(scope="class")
    def text_model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-text") / "text.npz"
        code = main(
            [
                "train",
                "--out", str(path),
                "--domain", "text",
                "--n-train", "60",
                "--n-test", "20",
                "--dimension", "1024",
                "--seed", "3",
            ]
        )
        assert code == 0
        return path

    @pytest.fixture(scope="class")
    def voice_model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-voice") / "voice.npz"
        code = main(
            [
                "train",
                "--out", str(path),
                "--domain", "voice",
                "--n-train", "60",
                "--n-test", "30",
                "--dimension", "1024",
                "--seed", "3",
            ]
        )
        assert code == 0
        return path

    @pytest.fixture(scope="class")
    def image_model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-image") / "image.npz"
        code = main(
            [
                "train",
                "--out", str(path),
                "--n-train", "60",
                "--n-test", "20",
                "--dimension", "512",
                "--seed", "3",
            ]
        )
        assert code == 0
        return path

    @pytest.mark.parametrize("n_images", ["0", "-3"])
    @pytest.mark.parametrize("domain", ["image", "text", "voice"])
    def test_non_positive_n_images_rejected(self, domain, n_images, request, capsys):
        """No domain fuzzes an empty pool, nor slices one from the end."""
        from repro.errors import ConfigurationError

        model_path = request.getfixturevalue(f"{domain}_model_path")
        capsys.readouterr()  # the fixture's training report
        with pytest.raises(ConfigurationError, match="--n-images must be >= 1"):
            main(
                [
                    "fuzz",
                    "--model", str(model_path),
                    "--domain", domain,
                    "--n-images", n_images,
                    "--iter-times", "4",
                    "--seed", "3",
                ]
            )
        assert capsys.readouterr().out == ""

    def test_binary_family_image_only(self, tmp_path, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="image domain"):
            main(
                ["train", "--out", str(tmp_path / "x.npz"),
                 "--domain", "text", "--family", "binary"]
            )

    def test_voice_rejects_rematerialized_before_loading(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.errors import ConfigurationError

        def no_corpus(*args, **kwargs):
            raise AssertionError("the voice corpus was built")

        monkeypatch.setattr("repro.cli.make_voice_dataset", no_corpus)
        out = tmp_path / "v.npz"
        with pytest.raises(ConfigurationError) as excinfo:
            main(["train", "--out", str(out), "--domain", "voice",
                  "--codebook", "rematerialized", "--n-train", "30",
                  "--n-test", "10", "--dimension", "256"])
        assert "--domain voice" in str(excinfo.value)
        assert "--codebook rematerialized" in str(excinfo.value)
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_text_fuzz_batched(self, text_model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(text_model_path),
                "--domain", "text",
                "--n-images", "5",
                "--iter-times", "10",
                "--executor", "batched",
                "--show-example",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "char_sub" in out  # the text domain's default strategy
        assert "Success rate" in out

    def test_text_fuzz_explicit_strategies(self, text_model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(text_model_path),
                "--domain", "text",
                "--strategies", "char_sub", "char_swap",
                "--n-images", "4",
                "--iter-times", "6",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "char_swap" in out

    def test_voice_fuzz(self, voice_model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(voice_model_path),
                "--domain", "voice",
                "--n-images", "4",
                "--iter-times", "10",
                "--executor", "batched",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "record_gauss" in capsys.readouterr().out

    def test_wrong_namespace_rejected(self, text_model_path, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="namespace"):
            main(
                [
                    "fuzz",
                    "--model", str(text_model_path),
                    "--domain", "text",
                    "--strategies", "gauss",
                ]
            )


class TestAdaptiveCLI:
    """`hdtest fuzz --adaptive` end to end, plus its parser surface."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-adaptive") / "model.npz"
        code = main(
            [
                "train",
                "--out", str(path),
                "--n-train", "300",
                "--n-test", "60",
                "--dimension", "1024",
                "--seed", "7",
            ]
        )
        assert code == 0
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["fuzz", "--model", "m.npz", "--adaptive"]
        )
        assert args.adaptive is True
        assert args.n_adversarial == 20
        assert args.schedule == "thompson"
        assert args.block_size == 16
        assert args.static_corpus is False
        assert args.no_minimize is False

    def test_comma_separated_strategies(self):
        args = build_parser().parse_args(
            ["fuzz", "--model", "m.npz", "--adaptive",
             "--strategies", "gauss,rand,shift"]
        )
        assert args.strategies == ["gauss,rand,shift"]

    def test_adaptive_fuzz_end_to_end(self, model_path, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        code = main(
            [
                "fuzz",
                "--model", str(model_path),
                "--adaptive",
                "--strategies", "gauss,shift",
                "--n-images", "10",
                "--n-adversarial", "8",
                "--iter-times", "6",
                "--seed", "3",
                "--executor", "batched",
                "--telemetry", str(stream),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive campaign: schedule=thompson" in out
        assert "arms=gauss,shift" in out
        assert "discrepancies" in out and "best arm" in out
        assert "corpus:" in out
        # The stream renders the per-arm allocation table.
        report = main(["report", str(stream)])
        assert report == 0
        rendered = capsys.readouterr().out
        assert "Adaptive allocation by arm" in rendered

    def test_adaptive_uniform_static(self, model_path, capsys):
        code = main(
            [
                "fuzz",
                "--model", str(model_path),
                "--adaptive",
                "--strategies", "gauss",
                "--schedule", "uniform",
                "--static-corpus",
                "--no-minimize",
                "--n-images", "10",
                "--n-adversarial", "6",
                "--iter-times", "6",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule=uniform" in out
        assert "0 adversarial" in out  # static corpus never grew

    def test_executor_flag_honoured(self, model_path, capsys):
        # _executor_from_args returns None for the plain serial path;
        # the adaptive driver must still run the requested executor
        # rather than falling back to its own "batched" default.
        code = main(
            [
                "fuzz",
                "--model", str(model_path),
                "--adaptive",
                "--strategies", "gauss",
                "--n-images", "6",
                "--n-adversarial", "4",
                "--iter-times", "6",
                "--seed", "3",
                "--executor", "serial",
            ]
        )
        assert code == 0
        assert "executor=serial" in capsys.readouterr().out


class TestEnsembleCLI:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-ensemble") / "model.npz"
        assert main([
            "train", "--out", str(path), "--n-train", "300", "--n-test", "60",
            "--dimension", "1024", "--seed", "7",
        ]) == 0
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz", "--model", "m.npz"])
        assert args.ensemble == 1
        assert args.ensemble_train == 500
        assert args.oracle == "cross-model"

    def test_cross_model_fuzz(self, model_path, capsys):
        code = main([
            "fuzz", "--model", str(model_path), "--strategies", "gauss",
            "--n-images", "5", "--iter-times", "6",
            "--ensemble", "3", "--ensemble-train", "150",
            "--executor", "batched", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cross-model differential: 3 independent members" in out
        assert "Table II" in out

    def test_majority_oracle_and_packed_backend(self, model_path, capsys):
        code = main([
            "fuzz", "--model", str(model_path), "--strategies", "gauss",
            "--n-images", "4", "--iter-times", "6",
            "--ensemble", "2", "--ensemble-train", "150",
            "--oracle", "majority", "--backend", "packed-bipolar",
            "--executor", "batched", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "majority oracle" in out

    def test_ensemble_one_is_the_single_model_path(self, model_path, capsys):
        base = main([
            "fuzz", "--model", str(model_path), "--strategies", "gauss",
            "--n-images", "4", "--iter-times", "6", "--seed", "3",
        ])
        single_out = capsys.readouterr().out
        ens = main([
            "fuzz", "--model", str(model_path), "--strategies", "gauss",
            "--n-images", "4", "--iter-times", "6", "--seed", "3",
            "--ensemble", "1",
        ])
        ensemble_out = capsys.readouterr().out
        assert base == ens == 0

        def stable_lines(text):
            # Everything except the wall-clock row is deterministic.
            return [l for l in text.splitlines() if "Time Per-1K" not in l]

        assert stable_lines(single_out) == stable_lines(ensemble_out)

    def test_invalid_ensemble_size_rejected(self, model_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--ensemble"):
            main([
                "fuzz", "--model", str(model_path), "--ensemble", "0",
                "--n-images", "2",
            ])


class TestCodebookCLI:
    @pytest.fixture(scope="class")
    def remat_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-codebook") / "remat.npz"
        assert main([
            "train", "--out", str(path), "--n-train", "300", "--n-test", "60",
            "--dimension", "1024", "--seed", "7", "--codebook", "rematerialized",
        ]) == 0
        return path

    def test_train_stores_only_seeds(self, remat_path):
        import numpy as np

        with np.load(remat_path) as data:
            assert "position_seed" in data.files
            assert "value_seed" in data.files
            assert not any(k.endswith("_vectors") for k in data.files)

    def test_shared_codebook_fuzz(self, remat_path, capsys):
        code = main([
            "fuzz", "--model", str(remat_path), "--strategies", "gauss",
            "--n-images", "4", "--iter-times", "6",
            "--ensemble", "3", "--ensemble-train", "150",
            "--executor", "batched", "--seed", "0",
            "--codebook", "rematerialized", "--shared-codebook",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 shared-codebook members" in out

    def test_codebook_mismatch_rejected(self, remat_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="rematerialized model"):
            main([
                "fuzz", "--model", str(remat_path), "--n-images", "2",
                "--codebook", "materialized",
            ])

    def test_shared_codebook_needs_an_ensemble(self, remat_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--shared-codebook"):
            main([
                "fuzz", "--model", str(remat_path), "--n-images", "2",
                "--shared-codebook",
            ])
