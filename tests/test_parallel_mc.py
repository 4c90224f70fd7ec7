"""Serial vs process-sharded vs batched Monte Carlo equivalence.

The contract under test (see ``repro.mimo.parallel_mc``): for a fixed
master seed, sharding channel blocks over N workers — or fusing each
block's frames into one lockstep ``decode_batch`` — changes *nothing*
about the simulation outcome. BERs, error counters, per-frame stats,
node counts, radius traces and batch events must be bit-identical;
only wall-clock fields may differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.detectors.sphere import SphereDecoder
from repro.mimo.constellation import Constellation
from repro.mimo.montecarlo import MonteCarloEngine
from repro.mimo.parallel_mc import plan_chunks, plan_shards
from repro.mimo.system import MIMOSystem
from repro.obs import Tracer, use_tracer

SNRS = [6.0, 10.0]

#: DecodeStats fields that must match bit-for-bit across execution modes
#: (everything except the wall-clock field).
STAT_FIELDS = (
    "nodes_expanded",
    "nodes_generated",
    "nodes_pruned",
    "leaves_reached",
    "radius_updates",
    "gemm_calls",
    "gemm_flops",
    "max_list_size",
    "truncated",
    "batches",
    "radius_trace",
)


@dataclass(frozen=True)
class SdFactory:
    """Picklable sphere-decoder factory for pool workers."""

    order: int

    def __call__(self):
        return SphereDecoder(Constellation.qam(self.order))


@dataclass(frozen=True)
class CrashingFactory:
    """Factory whose detector always explodes (crash-log test)."""

    def __call__(self):
        raise RuntimeError("boom: injected worker failure")


def _engine(**overrides):
    system = MIMOSystem(4, 4, "4qam")
    defaults = dict(channels=6, frames_per_channel=3, seed=1234)
    defaults.update(overrides)
    return MonteCarloEngine(system, **defaults)


def _assert_sweeps_identical(a, b):
    assert np.array_equal(a.snrs_db, b.snrs_db)
    assert np.array_equal(a.bers, b.bers)
    for pa, pb in zip(a.points, b.points):
        assert pa.frames == pb.frames
        assert pa.errors == pb.errors
        assert len(pa.frame_stats) == len(pb.frame_stats)
        # Frame order itself must be reproduced, not just aggregates.
        for sa, sb in zip(pa.frame_stats, pb.frame_stats):
            for name in STAT_FIELDS:
                assert getattr(sa, name) == getattr(sb, name), name
        agg_a, agg_b = pa.aggregate_stats(), pb.aggregate_stats()
        for name in STAT_FIELDS:
            assert getattr(agg_a, name) == getattr(agg_b, name), name


class TestSerialParallelEquivalence:
    def test_workers_4_bit_identical_to_serial(self):
        serial = _engine().run(SdFactory(4), SNRS)
        sharded = _engine(workers=4).run(SdFactory(4), SNRS)
        _assert_sweeps_identical(serial, sharded)

    def test_explicit_chunking_does_not_change_results(self):
        serial = _engine().run(SdFactory(4), SNRS)
        for chunk in (1, 2, 5, 100):
            sharded = _engine(workers=2, chunk_blocks=chunk).run(
                SdFactory(4), SNRS
            )
            _assert_sweeps_identical(serial, sharded)

    def test_batch_frames_bit_identical_to_serial(self):
        serial = _engine().run(SdFactory(4), SNRS)
        batched = _engine(batch_frames=True).run(SdFactory(4), SNRS)
        _assert_sweeps_identical(serial, batched)

    def test_workers_and_batch_compose(self):
        serial = _engine().run(SdFactory(4), SNRS)
        both = _engine(workers=3, batch_frames=True).run(SdFactory(4), SNRS)
        _assert_sweeps_identical(serial, both)

    def test_run_n_workers_overrides_engine_default(self):
        sweep = _engine(workers=4).run(SdFactory(4), [8.0], n_workers=1)
        assert sweep.points[0].frames == 18

    def test_harness_factories_are_picklable(self):
        import pickle

        from repro.bench.harness import (
            bfs_gpu_decoder_factory,
            canonical_decoder_factory,
        )

        const = Constellation.qam(4)
        for factory in (
            canonical_decoder_factory(const),
            bfs_gpu_decoder_factory(const),
        ):
            clone = pickle.loads(pickle.dumps(factory))
            assert type(clone()) is type(factory())


class TestChunkPlanning:
    def test_chunks_cover_every_block_exactly_once(self):
        for n_blocks in (1, 3, 7, 16, 101):
            for workers in (1, 2, 5):
                chunks = plan_chunks(n_blocks, workers)
                covered = [i for s, e in chunks for i in range(s, e)]
                assert covered == list(range(n_blocks))

    def test_explicit_chunk_size(self):
        assert plan_chunks(7, 2, chunk_blocks=3) == [(0, 3), (3, 6), (6, 7)]

    def test_deterministic(self):
        assert plan_chunks(20, 3) == plan_chunks(20, 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_chunks(0, 2)
        with pytest.raises(ValueError):
            plan_chunks(4, 0)
        with pytest.raises(ValueError):
            plan_chunks(4, 2, chunk_blocks=0)

    def test_shard_plan_reuses_serial_seed_tree(self):
        snrs = [6.0, 10.0]
        shards = plan_shards(snrs, 77, 5, workers=2)
        # Rebuild the serial seeding tree and check shard streams match.
        seqs = np.random.SeedSequence(77).spawn(len(snrs))
        for point_index, seq in enumerate(seqs):
            block_seqs = seq.spawn(5)
            point_shards = [s for s in shards if s.point_index == point_index]
            flattened = [
                ss for shard in point_shards for ss in shard.seed_seqs
            ]
            assert len(flattened) == 5
            for mine, serial in zip(flattened, block_seqs):
                assert mine.entropy == serial.entropy
                assert mine.spawn_key == serial.spawn_key


class TestHeartbeatUnderSharding:
    def test_parent_emits_heartbeats_with_workers_field(self):
        tracer = Tracer()
        with use_tracer(tracer):
            _engine(workers=2, heartbeat_every=1).run(SdFactory(4), [8.0])
        beats = [e for e in tracer.events if e.name == "mc.heartbeat"]
        assert len(beats) == 6  # one per channel block
        shard_ids = {s.shard_id for s in plan_shards([8.0], 0, 6, workers=2)}
        for beat in beats:
            assert set(beat.args) == {
                "snr_db", "blocks_done", "blocks_total", "frames",
                "ber", "nodes_per_s", "eta_s", "workers", "shard",
            }
            assert beat.args["workers"] == 2
            assert beat.args["blocks_total"] == 6
            assert beat.args["shard"] in shard_ids
        assert sorted(b.args["blocks_done"] for b in beats) == [1, 2, 3, 4, 5, 6]

    def test_heartbeat_every_thinning(self):
        tracer = Tracer()
        with use_tracer(tracer):
            _engine(workers=2, heartbeat_every=3).run(SdFactory(4), [8.0])
        beats = [e for e in tracer.events if e.name == "mc.heartbeat"]
        assert sorted(b.args["blocks_done"] for b in beats) == [3, 6]

    def test_point_spans_emitted_by_parent(self):
        tracer = Tracer()
        with use_tracer(tracer):
            _engine(workers=2).run(SdFactory(4), SNRS)
        spans = [e for e in tracer.events if e.name == "mc.point"]
        assert [s.args["snr_db"] for s in spans] == SNRS
        assert all(s.args["workers"] == 2 for s in spans)


class TestWorkerCrashForensics:
    def test_crash_log_written_and_error_propagates(self, tmp_path):
        crash_dir = tmp_path / "crashes"
        engine = _engine(workers=2, channels=2, crash_dir=crash_dir)
        with pytest.raises(RuntimeError, match="injected worker failure"):
            engine.run(CrashingFactory(), [8.0])
        logs = sorted(crash_dir.glob("shard-*.log"))
        assert logs, "no crash log written"
        text = logs[0].read_text()
        assert "injected worker failure" in text
        assert "Traceback" in text

    def test_crash_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MC_CRASH_DIR", str(tmp_path / "env-crashes"))
        engine = _engine(workers=2, channels=2)
        assert str(engine.crash_dir) == str(tmp_path / "env-crashes")

    def test_no_crash_dir_still_raises(self):
        engine = _engine(workers=2, channels=2, crash_dir=None)
        engine.crash_dir = None  # defeat any ambient env default
        with pytest.raises(RuntimeError, match="injected worker failure"):
            engine.run(CrashingFactory(), [8.0])


class TestEarlyStopInteraction:
    def test_target_bit_errors_ignored_but_warns(self):
        import logging

        # Attach a handler straight to the module logger: robust against
        # other tests having reconfigured root-logger propagation.
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.mimo.parallel_mc")
        handler = Capture(level=logging.WARNING)
        logger.addHandler(handler)
        try:
            engine = _engine(workers=2, target_bit_errors=1)
            sweep = engine.run(SdFactory(4), [0.0])
        finally:
            logger.removeHandler(handler)
        assert sweep.points[0].frames == 18  # all blocks ran
        assert any("serial-only" in rec.getMessage() for rec in records)


class TestPointTimer:
    def test_serial_point_timer_pools_block_samples(self):
        sweep = _engine().run(SdFactory(4), [8.0])
        point = sweep.points[0]
        # 6 blocks x 3 frames, one sample per frame decode.
        assert point.timer.calls == 18
        assert point.decode_time_s == pytest.approx(point.timer.elapsed)

    def test_sharded_point_timer_merges_worker_timers(self):
        sweep = _engine(workers=3).run(SdFactory(4), [8.0])
        point = sweep.points[0]
        assert point.timer.calls == 18
        assert point.decode_time_s == pytest.approx(point.timer.elapsed)
        summary = point.timer.summarize()
        assert summary.count == 18
