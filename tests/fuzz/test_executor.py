"""Tests for the pluggable campaign executors."""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz import (
    BatchedExecutor,
    DistanceGuidedFitness,
    HDTest,
    HDTestConfig,
    ProcessExecutor,
    SerialExecutor,
    compare_strategies,
    create_executor,
    executor_names,
    generate_adversarial_set,
)
from repro.fuzz.executor import payload_nbytes
from repro.fuzz.targets import ModelEnsembleTarget, SharedCodebookEnsembleTarget
from repro.obs import CampaignTelemetry
from repro.utils.cores import usable_cores

CFG = HDTestConfig(iter_times=6)

#: Engine counters that must be schedule-invariant (the conservation
#: laws in the recorder's docstring, summed across members).
INVARIANT_COUNTERS = (
    "inputs", "iterations", "children", "encode_requests",
    "encoded_children", "encodes", "seed_encodes", "am_queries", "retired",
)


class NoveltyBonusFitness(DistanceGuidedFitness):
    """Distance fitness plus a bonus for children it has not scored before.

    A child is known by its similarity row.  It remembers every row it
    scores, so a pool worker that kept it across runs would score a
    repeated campaign differently.  Defined at module level so the
    process pool can pickle it.
    """

    def __init__(self, bonus: float = 0.5) -> None:
        super().__init__()
        self._bonus = bonus
        self._seen: set[bytes] = set()

    def scores(self, reference, predictions, *, rng=None):
        base = super().scores(reference, predictions, rng=rng)
        novel = np.zeros(len(base))
        for i, row in enumerate(predictions.similarities[0]):
            if row.tobytes() not in self._seen:
                self._seen.add(row.tobytes())
                novel[i] = 1.0
        return base + self._bonus * novel


def _outcome_key(result):
    return [
        (o.success, o.iterations, o.reference_label,
         None if o.example is None else o.example.adversarial_label)
        for o in result.outcomes
    ]


class TestRegistry:
    def test_names(self):
        assert executor_names() == ["batched", "process", "serial"]

    def test_create_each(self):
        assert isinstance(create_executor("serial"), SerialExecutor)
        assert isinstance(create_executor("batched", batch_size=8), BatchedExecutor)
        executor = create_executor("process", batch_size=8, n_workers=2)
        assert isinstance(executor, ProcessExecutor)
        assert executor.n_workers == 2

    def test_unset_sizing_params_tolerated(self):
        # The CLI passes one uniform bundle; None means "not requested".
        assert isinstance(
            create_executor("serial", batch_size=None, n_workers=None), SerialExecutor
        )
        assert isinstance(
            create_executor("batched", batch_size=8, n_workers=None), BatchedExecutor
        )

    def test_inapplicable_explicit_param_rejected(self):
        with pytest.raises(ConfigurationError, match="does not apply"):
            create_executor("batched", n_workers=8)
        with pytest.raises(ConfigurationError, match="does not apply"):
            create_executor("serial", batch_size=8)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            create_executor("gpu")

    def test_deleted_member_schedule_rejected(self):
        import repro.fuzz

        with pytest.raises(ConfigurationError, match="unknown executor"):
            create_executor("member-sharded")
        for name in (
            "MemberShard", "MemberShardedExecutor", "MemberShardedHDTest",
            "MemberWorkerGroup",
        ):
            assert not hasattr(repro.fuzz, name), name

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedExecutor(batch_size=0)
        with pytest.raises(ConfigurationError):
            ProcessExecutor(n_workers=0)


class TestSerialExecutor:
    def test_matches_direct_fuzz(self, trained_model, test_images):
        inputs = list(test_images[:4])
        direct = HDTest(trained_model, "gauss", config=CFG, rng=8).fuzz(inputs)
        via_executor = SerialExecutor().run(
            trained_model, "gauss", inputs, config=CFG, rng=8
        )
        assert _outcome_key(direct) == _outcome_key(via_executor)
        assert via_executor.executor == "serial"


class TestBatchedExecutor:
    def test_unguided_batch_size_invariance(self, trained_model, test_images):
        """Satellite: per-input fitness streams make the unguided
        baseline invariant to chunking, like guided runs."""
        inputs = list(test_images[:6])
        cfg = HDTestConfig(iter_times=5, guided=False)
        small = BatchedExecutor(batch_size=2).run(
            trained_model, "gauss", inputs, config=cfg, rng=9
        )
        large = BatchedExecutor(batch_size=64).run(
            trained_model, "gauss", inputs, config=cfg, rng=9
        )
        assert _outcome_key(small) == _outcome_key(large)

    def test_batch_size_invariance(self, trained_model, test_images):
        inputs = list(test_images[:7])
        small = BatchedExecutor(batch_size=2).run(
            trained_model, "rand", inputs, config=CFG, rng=17
        )
        large = BatchedExecutor(batch_size=64).run(
            trained_model, "rand", inputs, config=CFG, rng=17
        )
        assert _outcome_key(small) == _outcome_key(large)
        assert small.executor == "batched"

    def test_matches_sequential_fuzz_one_under_spawn(self, trained_model, test_images):
        from repro.utils.rng import spawn

        inputs = list(test_images[:5])
        generators = spawn(55, len(inputs))
        sequential = [
            HDTest(trained_model, "gauss", config=CFG).fuzz_one(x, rng=g)
            for x, g in zip(inputs, generators)
        ]
        result = BatchedExecutor(batch_size=3).run(
            trained_model, "gauss", inputs, config=CFG, rng=55
        )
        assert _outcome_key(result) == [
            (o.success, o.iterations, o.reference_label,
             None if o.example is None else o.example.adversarial_label)
            for o in sequential
        ]


class TestProcessExecutor:
    def test_matches_batched(self, trained_model, test_images):
        inputs = list(test_images[:6])
        batched = BatchedExecutor(batch_size=4).run(
            trained_model, "rand", inputs, config=CFG, rng=23
        )
        process = ProcessExecutor(n_workers=2, batch_size=4).run(
            trained_model, "rand", inputs, config=CFG, rng=23
        )
        assert _outcome_key(batched) == _outcome_key(process)
        assert process.executor == "process"

    def test_unguided_reproducible_per_seed(self, trained_model, test_images):
        """Regression: worker RandomFitness must derive from the root seed.

        Workers used to build their engine without any rng, seeding the
        unguided baseline from per-worker OS entropy — two runs with the
        same seed disagreed.
        """
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=4, guided=False)
        executor = ProcessExecutor(n_workers=2, batch_size=2)
        first = executor.run(trained_model, "rand", inputs, config=cfg, rng=31)
        second = executor.run(trained_model, "rand", inputs, config=cfg, rng=31)
        assert _outcome_key(first) == _outcome_key(second)

    def test_unguided_matches_batched_executor(self, trained_model, test_images):
        """Satellite: unguided outcomes are executor-invariant too."""
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=4, guided=False)
        batched = BatchedExecutor(batch_size=2).run(
            trained_model, "rand", inputs, config=cfg, rng=44
        )
        with ProcessExecutor(n_workers=2, batch_size=2) as executor:
            process = executor.run(trained_model, "rand", inputs, config=cfg, rng=44)
        assert _outcome_key(batched) == _outcome_key(process)

    def test_more_workers_than_inputs(self, trained_model, test_images):
        inputs = list(test_images[:2])
        result = ProcessExecutor(n_workers=4, batch_size=8).run(
            trained_model, "gauss", inputs, config=CFG, rng=2
        )
        assert result.n_inputs == 2

    def test_pool_persists_across_runs(self, trained_model, test_images):
        """Satellite: an unchanged spec reuses the worker pool; close()
        and spec changes rebuild it."""
        inputs = list(test_images[:2])
        executor = ProcessExecutor(n_workers=1, batch_size=4)
        try:
            first = executor.run(trained_model, "gauss", inputs, config=CFG, rng=7)
            pool = executor._pool
            assert pool is not None
            second = executor.run(trained_model, "gauss", inputs, config=CFG, rng=7)
            assert executor._pool is pool  # same pool, no re-broadcast
            assert _outcome_key(first) == _outcome_key(second)
            # A different strategy is a different spec — pool rebuilt.
            executor.run(trained_model, "rand", inputs, config=CFG, rng=7)
            assert executor._pool is not pool
        finally:
            executor.close()
        assert executor._pool is None

    def test_pool_sized_to_shards_and_grows(self, trained_model, test_images):
        """The pool forks one process per shard, growing on demand."""
        executor = ProcessExecutor(n_workers=4, batch_size=8)
        try:
            executor.run(trained_model, "gauss", list(test_images[:1]), config=CFG, rng=1)
            assert executor._pool_processes == 1  # not 4 idle broadcasts
            small_pool = executor._pool
            executor.run(trained_model, "gauss", list(test_images[:4]), config=CFG, rng=1)
            assert executor._pool is not small_pool  # grew by rebuild
            assert executor._pool_processes == 4
            executor.run(trained_model, "gauss", list(test_images[:2]), config=CFG, rng=1)
            assert executor._pool_processes == 4  # bigger pool reused
        finally:
            executor.close()

    def test_stateful_fitness_disables_pool_reuse(self, trained_model, test_images):
        """A worker-side fitness that remembers the queries it scored
        changes with every run, so identical runs must get a fresh pool
        (and fresh fitness)."""
        inputs = list(test_images[:2])
        fitness = NoveltyBonusFitness()
        executor = ProcessExecutor(n_workers=1, batch_size=4)
        try:
            first = executor.run(
                trained_model, "gauss", inputs, config=CFG, fitness=fitness, rng=7
            )
            pool = executor._pool
            second = executor.run(
                trained_model, "gauss", inputs, config=CFG, fitness=fitness, rng=7
            )
            assert executor._pool is not pool  # rebuilt, not reused
            assert _outcome_key(first) == _outcome_key(second)  # reproducible
        finally:
            executor.close()

    def test_retrained_model_rebuilds_pool(self, trained_model, test_images, digit_data):
        """Training-count changes invalidate the broadcast model."""
        train, _ = digit_data
        model = trained_model.copy()
        inputs = list(test_images[:2])
        executor = ProcessExecutor(n_workers=1, batch_size=4)
        try:
            executor.run(model, "gauss", inputs, config=CFG, rng=1)
            pool = executor._pool
            model.retrain(train.images[:5], train.labels[:5], mode="additive")
            executor.run(model, "gauss", inputs, config=CFG, rng=1)
            assert executor._pool is not pool
        finally:
            executor.close()


@pytest.fixture(scope="module")
def independent_target(trained_model, digit_data):
    train, _ = digit_data
    return ModelEnsembleTarget.trained_like(
        trained_model, 3, train.images[:200], train.labels[:200], rng=5
    )


@pytest.fixture(scope="module")
def shared_target(trained_model, digit_data):
    train, _ = digit_data
    return SharedCodebookEnsembleTarget.trained_shared(
        trained_model, 3, train.images[:200], train.labels[:200], rng=11
    )


def _outcome_bytes(result):
    """Outcome keys with each adversarial's exact bytes."""
    return [
        (o.success, o.iterations, o.reference_label,
         None if o.example is None
         else (o.example.adversarial_label,
               np.asarray(o.example.adversarial).tobytes()))
        for o in result.outcomes
    ]


class TestEnsembleSchedules:
    """K = 3 ensembles give the same campaign on every schedule."""

    def test_unguided_serial_matches_batched(self, independent_target, test_images):
        inputs = list(test_images[:4])
        config = HDTestConfig(iter_times=4, guided=False)
        serial = SerialExecutor().run(
            independent_target, "gauss", inputs, config=config, rng=3
        )
        batched = BatchedExecutor(batch_size=4).run(
            independent_target, "gauss", inputs, config=config, rng=3
        )
        # Byte-exact: every schedule spawns one generator per input
        # from the root seed, and the fitness draws from it too.
        assert _outcome_bytes(serial) == _outcome_bytes(batched)
        assert not batched.guided

    @pytest.mark.parametrize("target_kind", ["independent", "shared"])
    def test_process_counters_match_batched(
        self, target_kind, independent_target, shared_target, test_images
    ):
        target = (
            independent_target if target_kind == "independent" else shared_target
        )
        inputs = list(test_images[:5])
        config = HDTestConfig(iter_times=4, children_per_seed=4)
        obs_batched, obs_process = CampaignTelemetry(), CampaignTelemetry()
        batched = BatchedExecutor(batch_size=3).run(
            target, "gauss", inputs, config=config, rng=7, telemetry=obs_batched
        )
        with ProcessExecutor(n_workers=2, batch_size=3) as executor:
            process = executor.run(
                target, "gauss", inputs, config=config, rng=7,
                telemetry=obs_process,
            )
        assert _outcome_bytes(batched) == _outcome_bytes(process)
        for name in INVARIANT_COUNTERS:
            assert (
                obs_batched.counters.get(name, 0)
                == obs_process.counters.get(name, 0)
            ), name

    def test_shift_dedupe_counts_match_on_every_schedule(
        self, independent_target, test_images
    ):
        """Each input's cache lives in its own run, so hits are schedule-free.

        Every executor runs the campaign twice, reusing its pool: the
        second run must encode exactly what a cold serial run does,
        warm workers included.
        """
        inputs = list(test_images[:4])
        config = HDTestConfig(iter_times=6)
        counts = {}
        for executor in (
            SerialExecutor(), BatchedExecutor(batch_size=3),
            ProcessExecutor(n_workers=2, batch_size=1),
        ):
            pools = []
            with executor:
                for _ in range(2):
                    obs = CampaignTelemetry()
                    executor.run(
                        independent_target, "shift", inputs, config=config,
                        rng=3, telemetry=obs,
                    )
                    pools.append(getattr(executor, "_pool", None))
            assert pools[0] is pools[1]  # the pool's second run is warm
            counts[executor.name] = (
                obs.counters.get("encodes", 0), obs.cache_hits,
                obs.counters["encode_requests"],
            )
        assert counts["serial"][1] > 0
        assert set(counts.values()) == {counts["serial"]}, counts


class TestCampaignWiring:
    def test_compare_strategies_accepts_executor_name(self, trained_model, test_images):
        results = compare_strategies(
            trained_model, test_images[:3], ("gauss",),
            config=CFG, rng=0, executor="batched",
        )
        assert results["gauss"].executor == "batched"
        assert results["gauss"].n_inputs == 3

    def test_compare_strategies_executor_instance(self, trained_model, test_images):
        results = compare_strategies(
            trained_model, test_images[:3], ("gauss", "shift"),
            config=CFG, rng=0, executor=BatchedExecutor(batch_size=2),
        )
        assert set(results) == {"gauss", "shift"}

    def test_compare_strategies_invalid_executor(self, trained_model, test_images):
        with pytest.raises(ConfigurationError):
            compare_strategies(
                trained_model, test_images[:2], ("gauss",), rng=0, executor=3.5
            )

    def test_generate_adversarial_set_batched(self, trained_model, digit_data, test_images):
        _, test = digit_data
        examples, elapsed = generate_adversarial_set(
            trained_model,
            test_images[:10],
            6,
            strategy="gauss",
            true_labels=test.labels[:10],
            rng=4,
            executor="batched",
        )
        assert len(examples) == 6
        assert elapsed > 0
        assert all(e.true_label is not None for e in examples)

    def test_generate_adversarial_set_recycles_with_executor(
        self, trained_model, test_images
    ):
        examples, _ = generate_adversarial_set(
            trained_model, test_images[:2], 5, strategy="gauss",
            rng=1, executor=BatchedExecutor(batch_size=4),
        )
        assert len(examples) == 5

    def test_generate_adversarial_set_cap_with_executor(self, trained_model, test_images):
        from repro.errors import FuzzingError
        from repro.fuzz import ImageConstraint

        with pytest.raises(FuzzingError, match="attempts"):
            generate_adversarial_set(
                trained_model, test_images[:2], 3,
                strategy="gauss",
                constraint=ImageConstraint(max_l2=1e-12),
                config=HDTestConfig(iter_times=1),
                max_attempts_factor=2,
                rng=0,
                executor="batched",
            )


class TestDefaultWorkerPolicy:
    """`n_workers=None` → all cores but one, with a documented override."""

    def test_default_leaves_one_core(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.delenv(executor_module.WORKER_COUNT_ENV, raising=False)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 8)
        assert executor_module.default_worker_count() == 7
        pool = ProcessExecutor()
        try:
            assert pool.n_workers == 7
        finally:
            pool.close()

    def test_single_core_machine_floors_at_one(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.delenv(executor_module.WORKER_COUNT_ENV, raising=False)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 1)
        assert executor_module.default_worker_count() == 1
        # No affinity API and no core count on record: still one worker.
        monkeypatch.setattr(executor_module, "usable_cores", usable_cores)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert executor_module.default_worker_count() == 1

    def test_env_override_wins(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.setenv(executor_module.WORKER_COUNT_ENV, "3")
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 16)
        assert executor_module.default_worker_count() == 3
        pool = ProcessExecutor()
        try:
            assert pool.n_workers == 3
        finally:
            pool.close()

    def test_explicit_argument_beats_everything(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.setenv(executor_module.WORKER_COUNT_ENV, "3")
        pool = ProcessExecutor(n_workers=5)
        try:
            assert pool.n_workers == 5
        finally:
            pool.close()

    def test_bad_env_value_rejected(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.setenv(executor_module.WORKER_COUNT_ENV, "lots")
        with pytest.raises(ConfigurationError):
            executor_module.default_worker_count()
        monkeypatch.setenv(executor_module.WORKER_COUNT_ENV, "0")
        with pytest.raises(ConfigurationError):
            executor_module.default_worker_count()


class TestDefaultPoolPolicy:
    """Input-aware (n_workers, batch_size) sizing for process campaigns."""

    def test_small_campaigns_get_small_pools(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.delenv(executor_module.WORKER_COUNT_ENV, raising=False)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 17)
        min_per = executor_module.MIN_INPUTS_PER_WORKER
        # Below one worker's amortisation floor: a single process.
        workers, batch = executor_module.default_pool_policy(min_per - 1)
        assert workers == 1
        assert batch == min_per - 1  # one lock-step chunk for the lot
        # Exactly two floors' worth: two processes.
        workers, _ = executor_module.default_pool_policy(2 * min_per)
        assert workers == 2

    def test_large_campaigns_cap_at_core_default(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.delenv(executor_module.WORKER_COUNT_ENV, raising=False)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 9)
        workers, batch = executor_module.default_pool_policy(10_000)
        assert workers == 8  # cores − 1, not 10_000 // MIN_INPUTS_PER_WORKER
        assert batch == executor_module.DEFAULT_BATCH_SIZE

    def test_explicit_knobs_pass_through(self):
        import repro.fuzz.executor as executor_module

        workers, batch = executor_module.default_pool_policy(
            4, n_workers=6, batch_size=128
        )
        assert (workers, batch) == (6, 128)

    def test_batch_never_exceeds_shard(self, monkeypatch):
        import repro.fuzz.executor as executor_module

        monkeypatch.delenv(executor_module.WORKER_COUNT_ENV, raising=False)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 3)
        # 20 inputs over 2 workers → 10-input shards → 10-input chunks.
        workers, batch = executor_module.default_pool_policy(20)
        assert workers == 2
        assert batch == 10

    def test_degenerate_inputs_floor_at_one(self):
        import repro.fuzz.executor as executor_module

        workers, batch = executor_module.default_pool_policy(0)
        assert workers >= 1 and batch >= 1

    def test_invalid_explicit_values_rejected(self):
        import repro.fuzz.executor as executor_module

        with pytest.raises(ConfigurationError):
            executor_module.default_pool_policy(10, n_workers=0)
        with pytest.raises(ConfigurationError):
            executor_module.default_pool_policy(10, batch_size=-1)

    def test_process_outcomes_invariant_to_policy(
        self, trained_model, test_images, monkeypatch
    ):
        """The policy tunes throughput only: a policy-sized run equals an
        explicitly-sized run input for input."""
        inputs = list(test_images[:5])
        policy_sized = ProcessExecutor().run(
            trained_model, "gauss", inputs, config=CFG, rng=11
        )
        explicit = ProcessExecutor(n_workers=2, batch_size=2).run(
            trained_model, "gauss", inputs, config=CFG, rng=11
        )
        assert _outcome_key(policy_sized) == _outcome_key(explicit)


class TestGracefulShutdown:
    """Satellite: close() drains the pool with close+join, not SIGTERM.

    Terminating mid-flush can lose worker-side atexit handlers and —
    on slow filesystems — interleave badly with the resource tracker;
    a drained pool exits every worker with code 0.
    """

    def test_process_pool_workers_exit_cleanly(self, trained_model, test_images):
        executor = ProcessExecutor(n_workers=2, batch_size=2)
        try:
            executor.run(
                trained_model, "gauss", list(test_images[:4]), config=CFG, rng=1
            )
            workers = list(executor._pool._processes.values())  # noqa: SLF001
            assert all(process.is_alive() for process in workers)
        finally:
            executor.close()
        assert [process.exitcode for process in workers] == [0, 0]

    def test_close_without_pool_is_a_noop(self):
        ProcessExecutor(n_workers=2).close()  # nothing to drain


class TestPayloadNbytes:
    """The ``broadcast_bytes`` estimate of what a message costs pickled."""

    def test_arrays_count_buffers(self):
        array = np.zeros((64, 28, 28))
        assert payload_nbytes(array) == array.nbytes + 16

    def test_containers_recurse(self):
        msg = ("predict", np.zeros(8), ((0, np.arange(3), 3),), True)
        total = payload_nbytes(msg)
        assert total > payload_nbytes(np.zeros(8))
        assert payload_nbytes(b"abcd") == 12
        assert payload_nbytes({"a": 1}) == 16 + (1 + 8) + 8

    def test_unknown_leaves_fall_back_to_pickle(self):
        import pickle

        leaf = complex(1.0, 2.0)  # no fast path — measured by pickling
        assert payload_nbytes(leaf) == len(pickle.dumps(leaf))


#: A campaign whose worker for input 5 dies of SIGKILL mid-run: the
#: strategy kills the process that first mutates that input.
_KILLED_WORKER_SCRIPT = """
import multiprocessing, os, signal
import numpy as np
from repro.datasets import load_digits
from repro.errors import FuzzingError
from repro.fuzz import HDTestConfig, ProcessExecutor
from repro.fuzz.mutations.noise import GaussianNoise
from repro.hdc import HDCClassifier, PixelEncoder

class KillOnVictim(GaussianNoise):
    def __init__(self, victim):
        super().__init__()
        self.victim = victim

    def mutate(self, item, n, *, rng=None):
        if np.array_equal(item, self.victim):
            os.kill(os.getpid(), signal.SIGKILL)
        return super().mutate(item, n, rng=rng)

train, test = load_digits(n_train=100, n_test=8, seed=3)
model = HDCClassifier(PixelEncoder(dimension=512, rng=3), 10)
model.fit(train.images, train.labels)
inputs = list(test.images.astype(np.float64))
executor = ProcessExecutor(n_workers=2)
try:
    executor.run(model, KillOnVictim(inputs[5]), inputs,
                 config=HDTestConfig(iter_times=400), rng=0)
    print("NO ERROR")
except FuzzingError as exc:
    print("ERROR", exc)
executor.close()
print("ALIVE", len(multiprocessing.active_children()))
"""


class TestDeadWorker:
    def test_killed_pool_worker_raises_instead_of_hanging(self):
        """A SIGKILLed worker's shard is reported, not waited on forever.

        Runs in a subprocess with a hard timeout: the failure mode is
        the campaign parent blocking indefinitely.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", _KILLED_WORKER_SCRIPT],
            capture_output=True, text=True, timeout=90, env=env,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].startswith("ERROR"), done.stdout
        assert "shard 1 (inputs 4-7)" in lines[0]
        assert lines[-1] == "ALIVE 0"

    def test_every_lost_shard_is_named_with_its_inputs(self):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        cause = BrokenProcessPool("a worker died")
        futures = [Future() for _ in range(3)]
        futures[0].set_result(([], None))
        for future in futures[1:]:
            future.set_exception(cause)
        shards = [([0, 1, 2], [7, 8, 9], 0), ([3, 4], [10, 11], 1), ([5], [12], 2)]
        with pytest.raises(FuzzingError) as info:
            ProcessExecutor(n_workers=3)._raise_lost_shards(  # noqa: SLF001
                futures, shards, cause
            )
        assert str(info.value).endswith(
            "lost shard 1 (inputs 3-4), shard 2 (inputs 5-5)"
        )
        assert info.value.__cause__ is cause


_FORK_AFTER_SPLIT_SCRIPT = """
import os, pickle, sys
import numpy as np
from repro.datasets import load_digits
from repro.fuzz import BatchedExecutor, HDTestConfig, ProcessExecutor
from repro.hdc import HDCClassifier, PixelEncoder
from repro.hdc.encoders import _blocked

PARENT = os.getpid()
SPLITS = sys.argv[1]  # one line per split call: the pid that made it
in_two_halves = _blocked._in_two_halves

def logged(first, second):
    with open(SPLITS, "a") as log:
        log.write(f"{os.getpid()}\\n")
    in_two_halves(first, second)

def split_pids():
    with open(SPLITS) as log:
        return [int(line) for line in log]

_blocked._in_two_halves = logged
_blocked.usable_cores = lambda: 2
_blocked.SPLIT_ENTRIES = 1

def outcome_bytes(result):
    return pickle.dumps([
        (o.success, o.iterations, o.reference_label,
         None if o.example is None
         else (o.example.adversarial_label, o.example.adversarial.tobytes()))
        for o in result.outcomes
    ])

train, test = load_digits(n_train=100, n_test=8, seed=3)
model = HDCClassifier(PixelEncoder(dimension=512, rng=3), 10)
model.fit(train.images, train.labels)
inputs = list(test.images.astype(np.float64))
config = HDTestConfig(iter_times=20)
batched = BatchedExecutor().run(model, "gauss", inputs, config=config, rng=0)
before = len(split_pids())
model.encoder.encode_batch(test.images)  # a split call just before the fork
print("SPLIT", len(split_pids()) > before > 0)
with ProcessExecutor(n_workers=2) as executor:
    forked = executor.run(model, "gauss", inputs, config=config, rng=0)
print("WORKERS SPLIT", bool(set(split_pids()) - {PARENT}))
print("MATCH", outcome_bytes(forked) == outcome_bytes(batched))
"""


class TestSplitKernelInWorkers:
    def test_pool_forked_after_a_split_call_matches_batched(self, tmp_path):
        """Fork right after a two-thread kernel call; workers split theirs too.

        Runs in a subprocess with a hard timeout: the failure mode is a
        forked worker inheriting a lock some helper thread held.
        """
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        splits = tmp_path / "splits.txt"
        splits.touch()
        done = subprocess.run(
            [sys.executable, "-c", _FORK_AFTER_SPLIT_SCRIPT, str(splits)],
            capture_output=True, text=True, timeout=90, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "SPLIT True", "WORKERS SPLIT True", "MATCH True"
        ], done.stdout


class TestScheduleSelectionPolicy:
    """default_schedule_policy: batched vs process."""

    def _policy(self, monkeypatch, cores):
        import repro.fuzz.executor as executor_module

        monkeypatch.delenv(executor_module.WORKER_COUNT_ENV, raising=False)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: cores)
        return executor_module.default_schedule_policy

    def test_single_core_always_batched(self, monkeypatch):
        policy = self._policy(monkeypatch, 1)
        assert policy(1000) == "batched"
        assert policy(4, n_members=8) == "batched"

    def test_worker_env_cannot_force_processes_on_one_core(self, monkeypatch):
        # REPRO_FUZZ_WORKERS requests a pool, but a one-core host has
        # nothing to run it on: every schedule must stay in-process.
        import repro.fuzz.executor as executor_module

        monkeypatch.setenv(executor_module.WORKER_COUNT_ENV, "8")
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 1)
        policy = executor_module.default_schedule_policy
        assert policy(1000) == "batched"
        assert policy(8, n_members=5) == "batched"
        assert policy(64, n_members=5) == "batched"
        # The env override still sizes pools on real multi-core hosts.
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 8)
        assert policy(1000) == "process"

    def test_single_models_shard_by_input(self, monkeypatch):
        policy = self._policy(monkeypatch, 8)
        assert policy(64) == "process"
        assert policy(8) == "batched"  # one shard: pool start-up wasted

    def test_two_cores_always_batched(self, monkeypatch):
        # The default pool leaves a core to the parent: one worker on two
        # cores, which the kernel's own two-core split already beats.
        policy = self._policy(monkeypatch, 2)
        assert policy(1000) == "batched"
        assert policy(2, n_members=5) == "batched"
        assert policy(1000, n_members=5) == "batched"

    def test_member_count_never_changes_the_answer(self, monkeypatch):
        policy = self._policy(monkeypatch, 8)
        for n_inputs in (1, 8, 15, 16, 64):
            for n_members in (2, 3, 5, 16):
                assert policy(n_inputs, n_members=n_members) == policy(n_inputs)

    def test_ensembles_shard_by_input_like_single_models(self, monkeypatch):
        policy = self._policy(monkeypatch, 8)
        # Too few inputs for two input shards: the in-process engine,
        # whatever K (perfbench's ensemble shape is 2 inputs, K = 5).
        assert policy(8, n_members=5) == "batched"
        assert policy(2, n_members=5) == "batched"
        assert policy(64, n_members=5) == "process"
