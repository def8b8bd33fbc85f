"""Member-sharded execution must be a pure schedule change.

The acceptance property mirrors the executor suite's: sharding one
worker per ensemble member — with the parent running mutation, oracle,
fitness, and survival — produces campaigns bit-identical to the serial,
batched, and process schedules, for both target shapes (independent
codebooks: workers encode their own block; shared codebook: the parent
encodes once and workers answer AM queries).  Everything else here
guards the machinery: group lifecycle and reuse, graceful shutdown, a
dead worker surfacing as an error, and telemetry equality.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz import HDTestConfig
from repro.fuzz.batch import BatchedHDTest
from repro.fuzz.executor import (
    BatchedExecutor,
    MemberShardedExecutor,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)
from repro.fuzz.member_sharded import (
    MemberShardedHDTest,
    MemberWorkerGroup,
    create_member_engine,
)
from repro.fuzz.oracle import CrossModelOracle, MajorityOracle
from repro.fuzz.targets import ModelEnsembleTarget, SharedCodebookEnsembleTarget
from repro.obs import CampaignTelemetry

CONFIG = HDTestConfig(iter_times=4, children_per_seed=4)

#: Engine counters that must be schedule-invariant (the conservation
#: laws in the recorder's docstring, summed across members).
INVARIANT_COUNTERS = (
    "inputs", "iterations", "children", "encode_requests",
    "encoded_children", "encodes", "seed_encodes", "am_queries", "retired",
)


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


def _outcome_key(outcome):
    return (
        outcome.success,
        outcome.iterations,
        outcome.reference_label,
        None
        if outcome.example is None
        else (
            outcome.example.adversarial_label,
            tuple(np.asarray(outcome.example.adversarial).ravel()),
        ),
    )


def _keys(result):
    return [_outcome_key(outcome) for outcome in result.outcomes]


def _within(seconds, fn):
    """Run *fn* in a daemon thread → its result or error; fail on a hang."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return outcome


def _run_sharded(target, inputs, *, telemetry=None, **kwargs):
    executor = MemberShardedExecutor(batch_size=3)
    try:
        return executor.run(
            target, "gauss", inputs, config=CONFIG,
            telemetry=telemetry, **kwargs,
        )
    finally:
        executor.close()


class TestBitIdentity:
    @pytest.mark.parametrize("target_kind", ["independent", "shared"])
    @pytest.mark.parametrize(
        "oracle_factory",
        [CrossModelOracle, lambda: MajorityOracle(10)],
        ids=["cross", "majority"],
    )
    def test_matches_batched(
        self, target_kind, oracle_factory, independent_target, shared_target,
        test_images,
    ):
        target = (
            independent_target if target_kind == "independent" else shared_target
        )
        inputs = list(test_images[:5])
        batched = BatchedExecutor(batch_size=3).run(
            target, "gauss", inputs, config=CONFIG,
            oracle=oracle_factory(), rng=7,
        )
        sharded = _run_sharded(target, inputs, oracle=oracle_factory(), rng=7)
        assert _keys(batched) == _keys(sharded)
        assert sharded.executor == "member-sharded"
        assert sharded.n_members == 3

    def test_matches_serial_and_batched_unguided(
        self, independent_target, test_images
    ):
        inputs = list(test_images[:4])
        config = HDTestConfig(iter_times=4, guided=False)
        serial = SerialExecutor().run(
            independent_target, "gauss", inputs, config=config, rng=3
        )
        batched = BatchedExecutor(batch_size=4).run(
            independent_target, "gauss", inputs, config=config, rng=3
        )
        executor = MemberShardedExecutor()
        try:
            sharded = executor.run(
                independent_target, "gauss", inputs, config=config, rng=3
            )
        finally:
            executor.close()
        # Byte-exact against both: every schedule spawns one generator
        # per input from the root seed.
        assert _keys(batched) == _keys(sharded)
        assert _keys(serial) == _keys(sharded)
        assert not sharded.guided

    def test_scratch_encode_path_matches_delta(
        self, independent_target, test_images
    ):
        """Forcing workers off the delta path must not change outcomes."""

        class ScratchOnly(MemberShardedHDTest):
            def _member_delta_allowed(self):
                return False

        inputs = list(test_images[:4])
        probe = BatchedHDTest(independent_target, "gauss", config=CONFIG)
        reference = BatchedHDTest(
            independent_target, "gauss", config=CONFIG, rng=1
        ).fuzz(inputs)
        with MemberWorkerGroup(
            independent_target.member_shards(), probe.domain, probe.config
        ) as group:
            scratch = ScratchOnly(
                independent_target, "gauss", group=group, config=CONFIG, rng=1
            ).fuzz(inputs)
        assert _keys(reference) == _keys(scratch)


class TestTelemetry:
    @pytest.mark.parametrize("target_kind", ["independent", "shared"])
    def test_engine_counters_match_batched(
        self, target_kind, independent_target, shared_target, test_images
    ):
        target = (
            independent_target if target_kind == "independent" else shared_target
        )
        inputs = list(test_images[:5])
        obs_batched, obs_sharded = CampaignTelemetry(), CampaignTelemetry()
        BatchedExecutor(batch_size=3).run(
            target, "gauss", inputs, config=CONFIG, rng=7, telemetry=obs_batched
        )
        _run_sharded(target, inputs, rng=7, telemetry=obs_sharded)
        batched = obs_batched.snapshot()["counters"]
        sharded = obs_sharded.snapshot()["counters"]
        for name in INVARIANT_COUNTERS:
            assert batched.get(name, 0) == sharded.get(name, 0), name

    def test_shift_dedupe_counts_match_on_every_schedule(
        self, independent_target, test_images
    ):
        """Each input's cache lives in its own run, so hits are schedule-free.

        Every executor runs the campaign twice, reusing its pool or
        group: the second run must encode exactly what a cold serial
        run does, warm workers included.
        """
        inputs = list(test_images[:4])
        config = HDTestConfig(iter_times=6)
        counts = {}
        for executor in (
            SerialExecutor(), BatchedExecutor(batch_size=3),
            ProcessExecutor(n_workers=2, batch_size=1), MemberShardedExecutor(),
        ):
            try:
                for _ in range(2):
                    obs = CampaignTelemetry()
                    executor.run(
                        independent_target, "shift", inputs, config=config,
                        rng=3, telemetry=obs,
                    )
            finally:
                executor.close()
            counts[executor.name] = (
                obs.counters.get("encodes", 0), obs.cache_hits,
                obs.counters["encode_requests"],
            )
        assert counts["serial"][1] > 0
        assert set(counts.values()) == {counts["serial"]}, counts

    def test_ipc_phases_and_bytes_recorded(self, independent_target, test_images):
        obs = CampaignTelemetry()
        result = _run_sharded(
            independent_target, list(test_images[:4]), rng=7, telemetry=obs
        )
        counters = result.telemetry["counters"]
        phases = result.telemetry["phase_seconds"]
        assert counters["broadcast_bytes"] > 0
        assert phases["broadcast"] > 0
        assert phases["gather"] > 0
        assert result.telemetry["busy_seconds"] > 0

    def test_child_blocks_ship_pickled_to_every_worker(
        self, independent_target, test_images
    ):
        """A reused group's traffic is the raw pixels, once per member."""
        inputs = list(test_images[:4])
        obs = CampaignTelemetry()
        executor = MemberShardedExecutor(batch_size=4)
        try:
            executor.run(independent_target, "gauss", inputs, config=CONFIG, rng=2)
            executor.run(
                independent_target, "gauss", inputs, config=CONFIG, rng=2,
                telemetry=obs,
            )
        finally:
            executor.close()
        counters = obs.snapshot()["counters"]
        # Originals once, then every in-budget child, to each of K = 3.
        pixels = 3 * (counters["inputs"] + counters["encode_requests"])
        pixels *= test_images[0].nbytes
        assert pixels <= counters["broadcast_bytes"] < 1.1 * pixels


class TestGroupLifecycle:
    def test_group_reused_across_same_spec_runs(
        self, independent_target, test_images
    ):
        inputs = list(test_images[:4])
        executor = MemberShardedExecutor(batch_size=4)
        try:
            first = executor.run(
                independent_target, "gauss", inputs, config=CONFIG, rng=7
            )
            group = executor._group
            assert group is not None and group.alive
            second = executor.run(
                independent_target, "gauss", inputs, config=CONFIG, rng=7
            )
            assert executor._group is group  # reused, not rebuilt
            # Telemetry toggling must not rebuild either (it never
            # crosses into the workers).
            executor.run(
                independent_target, "gauss", inputs, config=CONFIG, rng=7,
                telemetry=CampaignTelemetry(),
            )
            assert executor._group is group
            assert _keys(first) == _keys(second)
        finally:
            executor.close()
        assert executor._group is None

    def test_spec_change_rebuilds_group(self, independent_target, test_images):
        inputs = list(test_images[:4])
        executor = MemberShardedExecutor(batch_size=4)
        try:
            executor.run(independent_target, "gauss", inputs, config=CONFIG, rng=7)
            group = executor._group
            executor.run(
                independent_target, "gauss", inputs,
                config=HDTestConfig(iter_times=3), rng=7,
            )
            assert executor._group is not group
            assert not group.alive
        finally:
            executor.close()

    def test_close_is_graceful(self, independent_target, test_images):
        """Workers exit via the stop message, not SIGTERM."""
        executor = MemberShardedExecutor(batch_size=4)
        try:
            executor.run(
                independent_target, "gauss", list(test_images[:4]),
                config=CONFIG, rng=7,
            )
            group = executor._group
        finally:
            executor.close()
        assert not group.alive
        assert group.worker_exitcodes() == [0, 0, 0]

    def test_killed_worker_raises_naming_it(self, independent_target, test_images):
        """A SIGKILLed member fails the campaign within a few reply polls."""
        probe = BatchedHDTest(independent_target, "gauss", config=CONFIG)
        group = MemberWorkerGroup(
            independent_target.member_shards(), probe.domain, probe.config
        )
        try:
            victim = group._workers[1][0]  # noqa: SLF001 - test hook
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            engine = MemberShardedHDTest(
                independent_target, "gauss", group=group, config=CONFIG, rng=0
            )
            outcome = _within(6, lambda: engine.fuzz(list(test_images[:4])))
        finally:
            closed = _within(15, group.close)
        assert isinstance(outcome.get("error"), FuzzingError)
        assert "member worker 1" in str(outcome["error"])
        assert "error" not in closed
        assert not group.alive

    def test_killed_am_worker_raises_naming_it(self, shared_target, test_images):
        """Shared codebook: a dead AM-only worker fails the vote gather."""
        probe = BatchedHDTest(shared_target, "gauss", config=CONFIG)
        group = MemberWorkerGroup(
            shared_target.member_shards(), probe.domain, probe.config
        )
        try:
            victim = group._workers[2][0]  # noqa: SLF001 - test hook
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            engine = create_member_engine(
                group, shared_target, "gauss", config=CONFIG, rng=0
            )
            outcome = _within(6, lambda: engine.fuzz(list(test_images[:4])))
        finally:
            closed = _within(15, group.close)
        assert isinstance(outcome.get("error"), FuzzingError)
        assert "member worker 2" in str(outcome["error"])
        assert "error" not in closed
        assert group.worker_exitcodes()[2] == -signal.SIGKILL

    def test_leaves_no_shm_segments(self, shared_target, test_images, tmp_path):
        import pathlib

        shm_dir = pathlib.Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm on this platform")
        before = {p.name for p in shm_dir.iterdir()}
        _run_sharded(shared_target, list(test_images[:4]), rng=2)
        assert {p.name for p in shm_dir.iterdir()} == before


class TestValidation:
    def test_single_model_rejected(self, trained_model, test_images):
        executor = MemberShardedExecutor()
        with pytest.raises(ConfigurationError, match=">= 2 members"):
            executor.run(
                trained_model, "gauss", list(test_images[:2]), config=CONFIG
            )

    def test_group_needs_two_shards(self, independent_target):
        probe = BatchedHDTest(independent_target, "gauss", config=CONFIG)
        shard = independent_target.member_shards()[0]
        with pytest.raises(ConfigurationError, match=">= 2 members"):
            MemberWorkerGroup([shard], probe.domain, probe.config)

    def test_engine_requires_matching_group(self, independent_target):
        probe = BatchedHDTest(independent_target, "gauss", config=CONFIG)
        with MemberWorkerGroup(
            independent_target.member_shards()[:2], probe.domain, probe.config
        ) as group:
            with pytest.raises(ConfigurationError, match="members"):
                MemberShardedHDTest(
                    independent_target, "gauss", group=group, config=CONFIG
                )

    def test_n_workers_knob_rejected(self):
        with pytest.raises(ConfigurationError, match="does not apply"):
            create_executor("member-sharded", n_workers=2)

    def test_uniform_knob_bundle_accepted(self):
        executor = create_executor(
            "member-sharded", batch_size=4, n_workers=None
        )
        assert executor.batch_size == 4


class TestEngineSelection:
    def test_shared_codebook_gets_vote_gather_proxy(
        self, shared_target, trained_model
    ):
        probe = BatchedHDTest(shared_target, "gauss", config=CONFIG)
        with MemberWorkerGroup(
            shared_target.member_shards(), probe.domain, probe.config
        ) as group:
            assert not group.encodes_locally
            engine = create_member_engine(
                group, shared_target, "gauss", config=CONFIG, rng=0
            )
            assert isinstance(engine, BatchedHDTest)
            assert not isinstance(engine, MemberShardedHDTest)

    def test_independent_members_get_sharded_engine(self, independent_target):
        probe = BatchedHDTest(independent_target, "gauss", config=CONFIG)
        with MemberWorkerGroup(
            independent_target.member_shards(), probe.domain, probe.config
        ) as group:
            assert group.encodes_locally
            engine = create_member_engine(
                group, independent_target, "gauss", config=CONFIG, rng=0
            )
            assert isinstance(engine, MemberShardedHDTest)
