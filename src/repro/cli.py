"""``hdtest`` command-line interface.

Subcommands mirror the paper's workflow, generalised over fuzzing
domains (Sec. V-E):

* ``hdtest train`` — train an HDC model for any ``--domain``: the
  Sec. III pixel model on (synthetic or real) MNIST digits, the
  Rahimi-style n-gram language model on the synthetic language corpus,
  or the VoiceHD-style record model on the synthetic voice features —
  and save it to a ``.npz`` file.
* ``hdtest fuzz`` — run Alg. 1 over domain-appropriate test inputs
  with one or more strategies and print the Table II-style summary;
  ``--domain image|text|voice`` drives the same engines and executors.
* ``hdtest defend`` — run the Sec. V-D retraining defense end to end
  (image domain).
* ``hdtest strategies`` — list registered mutation strategies.

Every subcommand takes ``--seed`` and is fully reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from repro._version import __version__
from repro.analysis.figures import adversarial_triptych
from repro.analysis.per_class import per_class_series, per_class_table
from repro.analysis.tables import table2
from repro.datasets.loaders import load_digits
from repro.datasets.text import make_language_dataset
from repro.datasets.voice import make_voice_dataset
from repro.defense.retrain import run_defense
from repro.errors import ConfigurationError
from repro.fuzz.campaign import compare_strategies, generate_adversarial_set
from repro.fuzz.domains import create_domain, get_domain_class
from repro.fuzz.executor import create_executor, executor_names
from repro.fuzz.fuzzer import HDTestConfig
from repro.fuzz.mutations import strategy_names
from repro.hdc.archive import load_model
from repro.hdc.backends.dispatch import MODEL_BACKEND_CHOICES
from repro.hdc.binary_model import BinaryHDCClassifier, BinaryPixelEncoder
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.encoders.ngram import NgramEncoder
from repro.hdc.encoders.record import RecordEncoder
from repro.hdc.item_memory import CODEBOOK_KINDS
from repro.hdc.model import HDCClassifier
from repro.utils.validation import check_positive_int

#: CLI domain choices; ``voice`` is the record domain's spoken-feature face.
DOMAIN_CHOICES = ("image", "text", "voice")

#: Each subcommand's count flags (argparse ``dest`` names).  :func:`main`
#: rejects a value below 1 before the subcommand loads or trains anything;
#: an unset optional flag (``None``) keeps its default.
COUNT_FLAGS = {
    "train": ("n_train", "n_test", "dimension"),
    "fuzz": ("n_images", "iter_times", "top_n", "children", "ensemble",
             "ensemble_train", "n_adversarial", "block_size", "batch_size",
             "workers"),
    "defend": ("n_adversarial", "batch_size", "workers"),
    "report": ("n_fuzz", "n_adversarial", "n_images"),
}

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="hdtest",
        description="Differential fuzz testing of HDC models (DAC'21 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"hdtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train an HDC classifier for any domain")
    train.add_argument("--out", type=Path, required=True, help="output model .npz path")
    train.add_argument("--domain", choices=DOMAIN_CHOICES, default="image",
                       help="input modality: MNIST-style digits (image), the "
                            "synthetic language corpus with the n-gram encoder "
                            "(text), or the synthetic VoiceHD features with the "
                            "record encoder (voice); default: image")
    train.add_argument("--family", choices=("bipolar", "binary"), default="bipolar",
                       help="model family: the paper's bipolar pixel model, or the "
                            "dense-binary (Rahimi-style) family that --backend "
                            "packed accelerates (image domain only; "
                            "default: bipolar)")
    train.add_argument("--codebook", choices=CODEBOOK_KINDS, default="materialized",
                       help="item-memory representation: 'materialized' stores "
                            "the random codebooks as arrays in RAM and in the "
                            ".npz; 'rematerialized' regenerates rows on demand "
                            "from a counter-based PRF seed — bit-identical "
                            "model, near-zero codebook memory, and the saved "
                            "file stores only the 64-bit seed; image and text "
                            "only, since voice records quantise with linear "
                            "level hypervectors that a seed cannot regenerate "
                            "(default: materialized)")
    train.add_argument("--n-train", type=int, default=2000)
    train.add_argument("--n-test", type=int, default=400)
    train.add_argument("--dimension", type=int, default=10000)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--data-dir", type=Path, default=None,
                       help="directory with real MNIST IDX files (optional)")

    fuzz = sub.add_parser("fuzz", help="fuzz a trained model (Table II workflow)")
    fuzz.add_argument("--model", type=Path, required=True, help="model .npz from `train`")
    fuzz.add_argument("--domain", choices=DOMAIN_CHOICES, default="image",
                      help="input modality fuzzed; must match the trained model "
                           "(default: image)")
    fuzz.add_argument("--strategies", nargs="+", default=None,
                      help="one or more strategies from the domain's namespace "
                           f"(image: {', '.join(strategy_names('image'))}; "
                           f"text: {', '.join(strategy_names('text'))}; "
                           f"voice: {', '.join(strategy_names('record'))}); "
                           "default: the domain's default strategy")
    fuzz.add_argument("--n-images", type=int, default=50,
                      help="number of inputs fuzzed (any domain)")
    fuzz.add_argument("--iter-times", type=int, default=50)
    fuzz.add_argument("--top-n", type=int, default=3)
    fuzz.add_argument("--children", type=int, default=8)
    fuzz.add_argument("--unguided", action="store_true",
                      help="disable distance-guided seed survival")
    fuzz.add_argument("--ensemble", type=int, default=1, metavar="K",
                      help="cross-model differential testing (HDXplore): fuzz "
                           "an ensemble of K models — the loaded model plus "
                           "K-1 architecture-matched members with freshly "
                           "spawned item memories, trained on regenerated "
                           "in-distribution data — hunting inputs the members "
                           "disagree on instead of self-flips (default: 1, "
                           "the paper's single-model oracle)")
    fuzz.add_argument("--ensemble-train", type=int, default=500, metavar="N",
                      help="training-pool size for the spawned ensemble "
                           "members (default: 500)")
    fuzz.add_argument("--shared-codebook", action="store_true",
                      help="with --ensemble K: members share the loaded "
                           "model's encoder (one item memory) and diverge "
                           "through bagged training resamples — the campaign "
                           "encodes each child once and queries K associative "
                           "memories, instead of K independent encodes")
    fuzz.add_argument("--codebook", choices=CODEBOOK_KINDS, default=None,
                      help="assert the loaded model uses this codebook "
                           "representation (a materialized model cannot be "
                           "converted to a seed, so this flag verifies the "
                           "intended hot path actually runs rather than "
                           "converting; default: accept either)")
    fuzz.add_argument("--oracle", choices=("cross-model", "majority"),
                      default="cross-model",
                      help="ensemble discrepancy rule: any pairwise member "
                           "disagreement (cross-model) or a flip of the "
                           "ensemble's majority vote (majority); ignored "
                           "without --ensemble (default: cross-model)")
    fuzz.add_argument("--adaptive", action="store_true",
                      help="adaptive campaign (repro.fuzz.adaptive): a "
                           "Thompson-sampling bandit splits each wave's "
                           "iteration blocks across --strategies, and retired "
                           "adversarials re-enter the evolving seed corpus "
                           "(deduped + L1-minimised); fuzzes until "
                           "--n-adversarial discrepancies instead of one "
                           "pass over the pool")
    fuzz.add_argument("--n-adversarial", type=int, default=20,
                      help="with --adaptive: discrepancies to collect "
                           "(default: 20)")
    fuzz.add_argument("--schedule", choices=("thompson", "uniform"),
                      default="thompson",
                      help="with --adaptive: block allocation rule — "
                           "Thompson sampling on observed retirement rates, "
                           "or a uniform round-robin baseline "
                           "(default: thompson)")
    fuzz.add_argument("--block-size", type=int, default=16,
                      help="with --adaptive: inputs per scheduled block, the "
                           "bandit's decision granularity (default: 16)")
    fuzz.add_argument("--static-corpus", action="store_true",
                      help="with --adaptive: keep the seed pool static "
                           "(disable adversarial re-entry)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="with --adaptive: re-enter adversarials without "
                           "greedy L1-minimisation")
    _add_executor_flags(fuzz)
    fuzz.add_argument("--seed", type=int, default=0,
                      help="root seed; for --domain text/voice use the same "
                           "seed as `train` so fuzzing inputs stay in the "
                           "model's distribution (default: 0)")
    fuzz.add_argument("--per-class", action="store_true", help="print Fig. 7 table")
    fuzz.add_argument("--show-example", action="store_true",
                      help="render one adversarial triptych as ASCII")
    fuzz.add_argument("--telemetry", type=Path, default=None, metavar="PATH",
                      help="write a structured JSONL telemetry stream "
                           "(campaign headers, periodic snapshots, final "
                           "summaries) to PATH; render it afterwards with "
                           "`hdtest report PATH`")
    fuzz.add_argument("--progress", action="store_true",
                      help="live single-line campaign progress on stderr "
                           "(inputs, discrepancies, encodes, cache hits, "
                           "throughput)")
    fuzz.add_argument("--profile", action="store_true",
                      help="run the campaign under cProfile and print the "
                           "top hotspots by cumulative time (recorded in "
                           "the --telemetry stream as a 'profile' event)")
    fuzz.add_argument("--data-dir", type=Path, default=None)

    defend = sub.add_parser("defend", help="retraining defense (Sec. V-D)")
    defend.add_argument("--model", type=Path, required=True)
    defend.add_argument("--n-adversarial", type=int, default=200)
    defend.add_argument("--strategy", default="gauss")
    _add_executor_flags(defend)
    defend.add_argument("--seed", type=int, default=0)
    defend.add_argument("--data-dir", type=Path, default=None)

    report = sub.add_parser(
        "report",
        help="render a campaign report from telemetry JSONL / saved "
             "campaigns JSON, or run the full evaluation suite (--model)",
    )
    report.add_argument("source", type=Path, nargs="?", default=None,
                        help="telemetry .jsonl (from `hdtest fuzz "
                             "--telemetry`) or campaigns .json (from "
                             "save_campaigns_json) to render as a campaign "
                             "report; omit and pass --model to run the "
                             "evaluation suite instead")
    report.add_argument("--model", type=Path, default=None,
                        help="model .npz: run the scaled-down experiment "
                             "suite and render its markdown report "
                             "(mutually exclusive with a telemetry source)")
    report.add_argument("--out", type=Path, default=None,
                        help="write markdown here (default: stdout)")
    report.add_argument("--n-fuzz", type=int, default=20)
    report.add_argument("--n-adversarial", type=int, default=60)
    report.add_argument("--n-images", type=int, default=200,
                        help="size of the labeled test pool")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--data-dir", type=Path, default=None)

    sub.add_parser("strategies", help="list registered mutation strategies")
    return parser


def _add_executor_flags(command: argparse.ArgumentParser) -> None:
    """Campaign-scheduling flags shared by fuzz/defend."""
    command.add_argument(
        "--executor", choices=executor_names(), default="serial",
        help="campaign schedule: paper-literal serial loop, lock-step "
             "batched engine, or a process pool sharded by input — all "
             "bit-identical (default: serial)",
    )
    command.add_argument(
        "--batch-size", type=int, default=None,
        help="inputs fuzzed in lock-step per chunk "
             "(batched/process executors; default 64)",
    )
    command.add_argument(
        "--workers", type=int, default=None,
        help="process count for --executor process (default: all usable "
             "cores but one)",
    )
    command.add_argument(
        "--backend", choices=MODEL_BACKEND_CHOICES, default="dense",
        help="model compute backend: 'dense' runs the model as loaded; "
             "'packed' repackages a --family binary model onto bit-packed "
             "uint64 popcount kernels (bit-identical, 8x less HV memory); "
             "'packed-bipolar' does the same for the paper's default "
             "bipolar family (sign-bit words, popcount cosine) "
             "(default: dense)",
    )


def _executor_from_args(args: argparse.Namespace):
    """The executor ``--executor`` names, sized by ``--batch-size``/``--workers``.

    Every schedule gives the same outcomes from one ``--seed``.
    Explicitly-set sizing flags that the chosen executor cannot honour
    (e.g. ``--workers`` with ``--executor batched``) are rejected by
    :func:`~repro.fuzz.executor.create_executor` rather than silently
    ignored — including for the serial executor.
    """
    return create_executor(
        args.executor, batch_size=args.batch_size, n_workers=args.workers
    )


def _split_fraction(n_train: int, n_test: int) -> float:
    """Train share of a generated corpus, kept away from degenerate splits."""
    total = max(n_train + n_test, 1)
    return min(max(n_train / total, 0.1), 0.9)


def _cmd_train(args: argparse.Namespace) -> int:
    if args.domain != "image" and args.family != "bipolar":
        raise ConfigurationError(
            f"--family {args.family} applies to the image domain only"
        )
    if args.domain == "text":
        per_class = max(2, (args.n_train + args.n_test) // 4)
        corpus = make_language_dataset(n_per_class=per_class, seed=args.seed)
        train_texts, test_texts = corpus.split(
            _split_fraction(args.n_train, args.n_test), rng=args.seed
        )
        encoder = NgramEncoder(
            n=3, dimension=args.dimension, rng=args.seed, codebook=args.codebook
        )
        model = HDCClassifier(encoder, n_classes=corpus.n_classes)
        model.fit(list(train_texts.texts), train_texts.labels)
        accuracy = model.score(list(test_texts.texts), test_texts.labels)
        trained_on = f"{len(train_texts)} synthetic-language texts"
    elif args.domain == "voice":
        per_class = max(2, (args.n_train + args.n_test) // 6)
        corpus = make_voice_dataset(n_per_class=per_class, seed=args.seed)
        train_recs, test_recs = corpus.split(
            _split_fraction(args.n_train, args.n_test), rng=args.seed
        )
        encoder = RecordEncoder(
            n_features=corpus.n_features, dimension=args.dimension, rng=args.seed,
            codebook=args.codebook,
        )
        model = HDCClassifier(encoder, n_classes=corpus.n_classes)
        model.fit(train_recs.records, train_recs.labels)
        accuracy = model.score(test_recs.records, test_recs.labels)
        trained_on = f"{len(train_recs)} synthetic voice records"
    else:
        train_set, test_set = load_digits(
            n_train=args.n_train, n_test=args.n_test, seed=args.seed,
            data_dir=args.data_dir,
        )
        if args.family == "binary":
            encoder = BinaryPixelEncoder(
                dimension=args.dimension, rng=args.seed, codebook=args.codebook
            )
            model = BinaryHDCClassifier(encoder, n_classes=10)
        else:
            model = HDCClassifier(
                PixelEncoder(
                    dimension=args.dimension, rng=args.seed, codebook=args.codebook
                ),
                n_classes=10,
            )
        model.fit(train_set.images, train_set.labels)
        accuracy = model.score(test_set.images, test_set.labels)
        trained_on = f"{len(train_set)} {train_set.name} images ({args.family} family)"
    model.save(args.out)
    print(f"trained {args.domain} domain on {trained_on} "
          f"(D={args.dimension}); test accuracy {accuracy:.3f}")
    print(f"model saved to {args.out}")
    return 0


def _load_model_and_images(args: argparse.Namespace, n_images: int):
    model = load_model(args.model)
    _, test_set = load_digits(
        n_train=1, n_test=max(n_images, 1), seed=args.seed + 1, data_dir=args.data_dir
    )
    return model, test_set


def _fuzz_inputs(args: argparse.Namespace, n: int) -> list:
    """A pool of *n* domain-appropriate unlabeled fuzzing inputs.

    Differential testing needs no labels (the model's own prediction is
    the reference), but inputs must come from the distribution the
    model was trained on for the robustness summary to mean anything.
    The synthetic text/voice generators derive their class structure
    (Markov languages, spectral prototypes) from ``--seed``, so fuzzing
    inputs reuse that seed for the classes and ``--seed + 1`` only for
    fresh samples — run fuzz with the same ``--seed`` as train to stay
    in distribution.  The image domain's digit distribution is
    seed-independent (and keeps its ``--data-dir`` escape hatch to real
    MNIST).
    """
    if args.domain == "text":
        corpus = make_language_dataset(
            n_per_class=max(1, -(-n // 4)), seed=args.seed,
            sample_seed=args.seed + 1,
        )
        return list(corpus.texts)[:n]
    if args.domain == "voice":
        corpus = make_voice_dataset(
            n_per_class=max(1, -(-n // 6)), seed=args.seed,
            sample_seed=args.seed + 1,
        )
        return list(corpus.records[:n])
    _, test_set = load_digits(
        n_train=1, n_test=max(n, 1), seed=args.seed + 1, data_dir=args.data_dir
    )
    return list(test_set.images[:n].astype(np.float64))


def _ensemble_train_pool(args: argparse.Namespace):
    """Labelled in-distribution training data for spawned ensemble members.

    Mirrors ``hdtest train``'s per-domain generators (same ``--seed``,
    so the class structure matches the loaded model's); sized by
    ``--ensemble-train``.
    """
    n = max(args.ensemble_train, 10)
    if args.domain == "text":
        corpus = make_language_dataset(n_per_class=max(2, n // 4), seed=args.seed)
        return list(corpus.texts), corpus.labels
    if args.domain == "voice":
        corpus = make_voice_dataset(n_per_class=max(2, n // 6), seed=args.seed)
        return corpus.records, corpus.labels
    train_set, _ = load_digits(
        n_train=n, n_test=1, seed=args.seed, data_dir=args.data_dir
    )
    return train_set.images, train_set.labels


def _resolve_fuzz_target(args: argparse.Namespace, model):
    """The system under test: the model, or a K-member ensemble around it.

    ``--ensemble K`` spawns K − 1 architecture-matched members with
    fresh item memories (member seeds derived from ``--seed``), trains
    them on regenerated in-distribution data, and returns the
    cross-model target plus the matching oracle.  With
    ``--shared-codebook`` the K − 1 members instead reuse the loaded
    model's encoder object and diverge through bagged resamples of the
    same pool, so the campaign encodes each child once for all K
    members.
    """
    from repro.fuzz.oracle import CrossModelOracle, MajorityOracle
    from repro.fuzz.targets import ModelEnsembleTarget, SharedCodebookEnsembleTarget

    if args.ensemble == 1:
        if args.shared_codebook:
            raise ConfigurationError(
                "--shared-codebook needs --ensemble K with K >= 2"
            )
        return model, None
    inputs, labels = _ensemble_train_pool(args)
    if args.shared_codebook:
        target: Any = SharedCodebookEnsembleTarget.trained_shared(
            model, args.ensemble, inputs, labels, rng=args.seed + 1
        )
    else:
        target = ModelEnsembleTarget.trained_like(
            model, args.ensemble, inputs, labels, rng=args.seed + 1
        )
    oracle = (
        MajorityOracle(model.n_classes)
        if args.oracle == "majority"
        else CrossModelOracle()
    )
    return target, oracle


def _resolve_strategies(args: argparse.Namespace) -> list[str]:
    """``--strategies`` validated against the domain's namespace."""
    domain_cls = get_domain_class(args.domain)
    available = strategy_names(domain_cls.name)
    # An adaptive campaign's point is choosing between arms, so its
    # default is the whole domain namespace, not the single default.
    if args.strategies:
        strategies = args.strategies
    elif getattr(args, "adaptive", False):
        strategies = list(available)
    else:
        strategies = [domain_cls.default_strategy]
    # Accept both `--strategies gauss rand` and `--strategies gauss,rand`.
    strategies = [
        token for item in strategies for token in item.split(",") if token
    ]
    unknown = [s for s in strategies if s not in available]
    if unknown:
        raise ConfigurationError(
            f"strategies {unknown} are not in the {args.domain!r} domain's "
            f"namespace; available: {', '.join(available)}"
        )
    return strategies


def _cmd_fuzz(args: argparse.Namespace) -> int:
    executor = _executor_from_args(args)  # reject bad flag combos before loading
    strategies = _resolve_strategies(args)
    model = load_model(args.model)
    if args.codebook is not None:
        actual = model.encoder.codebook
        if actual != args.codebook:
            raise ConfigurationError(
                f"--codebook {args.codebook} requested but {args.model} holds "
                f"a {actual} model; retrain with "
                f"`hdtest train --codebook {args.codebook}`"
            )
    target, oracle = _resolve_fuzz_target(args, model)
    inputs = _fuzz_inputs(args, args.n_images)
    config = HDTestConfig(
        iter_times=args.iter_times,
        top_n=args.top_n,
        children_per_seed=args.children,
        guided=not args.unguided,
    )
    session = None
    if args.telemetry is not None or args.progress or args.profile:
        from repro.obs.events import TelemetrySession

        session = TelemetrySession(args.telemetry, progress=args.progress)

    if args.adaptive:
        return _adaptive_fuzz(
            args, model, target, oracle, inputs, config, session,
            executor, strategies,
        )

    def _run_campaigns():
        return compare_strategies(
            target,
            inputs,
            strategies,
            domain=create_domain(args.domain, model=model),
            config=config,
            oracle=oracle,
            rng=args.seed,
            executor=executor,
            backend=args.backend,
            telemetry=session,
        )

    try:
        if args.profile:
            import time as _time

            from repro.obs.profiling import format_hotspots, profile_call

            results, hotspots = profile_call(_run_campaigns)
            session.emit(
                {"event": "profile", "hotspots": hotspots, "time": _time.time()}
            )
            print(format_hotspots(hotspots))
            print()
        else:
            results = _run_campaigns()
    finally:
        if session is not None:
            session.close()
    if args.ensemble > 1:
        seed_splits = sum(
            len(r.seed_discrepancies) for r in results.values()
        )
        flavor = "shared-codebook" if args.shared_codebook else "independent"
        print(f"cross-model differential: {args.ensemble} {flavor} members, "
              f"{args.oracle} oracle, {seed_splits} seed discrepancies")
    print(table2(results))
    if args.per_class:
        series = per_class_series(results, n_classes=model.n_classes)
        print()
        print(per_class_table(series))
    if args.show_example:
        if args.domain == "image":
            for result in results.values():
                if result.examples:
                    print()
                    print(adversarial_triptych(result.examples[0]))
                    break
        else:
            for result in results.values():
                if result.examples:
                    ex = result.examples[0]
                    print()
                    print(f"original:    {ex.original}")
                    print(f"adversarial: {ex.adversarial}")
                    print(f"label {ex.reference_label} -> {ex.adversarial_label} "
                          f"({ex.metrics})")
                    break
    if args.telemetry is not None:
        print(f"telemetry stream written to {args.telemetry} "
              f"({session.events_emitted} events) — render with "
              f"`hdtest report {args.telemetry}`")
    return 0


def _adaptive_fuzz(args, model, target, oracle, inputs, config, session,
                   executor, strategies) -> int:
    """``hdtest fuzz --adaptive``: corpus + bandit campaign and summary."""
    from repro.fuzz.adaptive import run_adaptive_campaign

    def _run():
        return run_adaptive_campaign(
            target, inputs, args.n_adversarial,
            strategies=strategies,
            schedule=args.schedule,
            evolve_corpus=not args.static_corpus,
            minimize=not args.no_minimize,
            block_size=args.block_size,
            domain=create_domain(args.domain, model=model),
            config=config,
            oracle=oracle,
            rng=args.seed,
            executor=executor,
            backend=args.backend,
            telemetry=session,
        )

    try:
        if args.profile:
            import time as _time

            from repro.obs.profiling import format_hotspots, profile_call

            result, hotspots = profile_call(_run)
            session.emit(
                {"event": "profile", "hotspots": hotspots, "time": _time.time()}
            )
            print(format_hotspots(hotspots))
            print()
        else:
            result = _run()
    finally:
        if session is not None:
            session.close()
    print(f"adaptive campaign: schedule={result.schedule} "
          f"executor={result.executor} arms={','.join(result.arms)}")
    print(f"  discrepancies   {result.n_examples}/{args.n_adversarial} "
          f"({result.n_found} found incl. surplus)")
    print(f"  attempts        {result.attempts} over {len(result.allocation)} waves")
    print(f"  encodes         {result.encodes}")
    dpe = result.discrepancies_per_encode
    print(f"  disc/encode     {dpe:.5f}" if dpe == dpe else
          "  disc/encode     -")
    print(f"  best arm        {result.best_arm()}")
    by_arm = (result.telemetry or {}).get("by_arm", {})
    if by_arm:
        print(f"  {'arm':16s} {'blocks':>7s} {'scheduled':>10s} "
              f"{'retired':>8s} {'yield':>7s}")
        for arm in sorted(by_arm):
            stats = by_arm[arm]
            scheduled = stats.get("scheduled", 0)
            retired = stats.get("retired", 0)
            rate = retired / scheduled if scheduled else float("nan")
            print(f"  {arm:16s} {stats.get('blocks', 0):7d} {scheduled:10d} "
                  f"{retired:8d} {rate:7.3f}")
    corpus = result.corpus
    print(f"corpus: {corpus['size']} seeds "
          f"({corpus['seeds']} original, {corpus['adversarial']} adversarial, "
          f"{corpus['near_miss']} near-miss; "
          f"{corpus['duplicates_rejected']} duplicates rejected)")
    if args.telemetry is not None:
        print(f"telemetry stream written to {args.telemetry} "
              f"({session.events_emitted} events) — render with "
              f"`hdtest report {args.telemetry}`")
    return 0


def _cmd_defend(args: argparse.Namespace) -> int:
    from repro.hdc.backends.dispatch import resolve_model_backend

    executor = _executor_from_args(args)  # reject bad flag combos before loading
    model, test_set = _load_model_and_images(args, 200)
    # Resolve once so generation *and* defense run on the same backend.
    model = resolve_model_backend(model, args.backend)
    examples, elapsed = generate_adversarial_set(
        model,
        test_set.images.astype(np.float64),
        args.n_adversarial,
        strategy=args.strategy,
        true_labels=test_set.labels,
        rng=args.seed,
        executor=executor,
    )
    report, _ = run_defense(
        model,
        examples,
        clean_inputs=test_set.images,
        clean_labels=test_set.labels,
        rng=args.seed,
    )
    print(f"generated {len(examples)} adversarial images in {elapsed:.1f}s "
          f"({args.strategy})")
    for key, value in report.summary().items():
        print(f"  {key:24s} {value:.3f}" if isinstance(value, float) else
              f"  {key:24s} {value}")
    verdict = "PASS" if report.rate_drop > 0.2 else "below paper's >20% drop"
    print(f"attack-rate drop {report.rate_drop * 100:.1f}% — {verdict}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if (args.source is None) == (args.model is None):
        raise ConfigurationError(
            "report needs exactly one of: a telemetry/campaigns source "
            "path (positional), or --model for the evaluation suite"
        )
    if args.source is not None:
        from repro.obs.report import render_report as render_campaign_report

        markdown = render_campaign_report(args.source)
        if args.out is None:
            print(markdown)
        else:
            args.out.write_text(markdown)
            print(f"report written to {args.out}")
        return 0

    from repro.analysis.experiments import render_report, run_experiment_suite

    model, test_set = _load_model_and_images(args, args.n_images)
    suite = run_experiment_suite(
        model,
        test_set.images,
        test_set.labels,
        n_fuzz=args.n_fuzz,
        n_adversarial=args.n_adversarial,
        rng=args.seed,
    )
    markdown = render_report(suite)
    if args.out is None:
        print(markdown)
    else:
        args.out.write_text(markdown)
        print(f"report written to {args.out}")
    return 0


def _cmd_strategies(_: argparse.Namespace) -> int:
    for domain in ("image", "text", "record"):
        print(f"{domain}: {', '.join(strategy_names(domain))}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest in COUNT_FLAGS.get(args.command, ()):
        value = getattr(args, dest)
        if value is not None:
            check_positive_int(value, "--" + dest.replace("_", "-"))
    if args.command == "train" and (args.domain, args.codebook) == (
        "voice", "rematerialized"
    ):
        raise ConfigurationError(
            "--domain voice cannot train with --codebook rematerialized: voice "
            "records quantise with linear level hypervectors, which a seed "
            "cannot regenerate row by row; use --codebook materialized"
        )
    handlers = {
        "train": _cmd_train,
        "fuzz": _cmd_fuzz,
        "defend": _cmd_defend,
        "report": _cmd_report,
        "strategies": _cmd_strategies,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
