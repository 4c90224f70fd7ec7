"""NodePool invariants and registry-wide bit-identity regression.

Two layers of protection for the structure-of-arrays frontier refactor:

* Unit tests of :class:`repro.core.nodepool.NodePool` itself — growth
  must preserve live rows, paths must round-trip against the legacy
  tuple-path helpers, blocks must alias correctly.
* A golden-output sweep: every FPGA-replayable detector kind in the
  registry decodes fixed deterministic frames (per-frame ``detect`` and,
  where supported, fused ``decode_batch``) and the decisions, exact
  float-hex metrics, batch schedules, radius traces and search counters
  must match ``tests/data/golden_decodes.json``, which was recorded by
  the pre-refactor per-node implementation (``tools/record_golden.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.nodepool import NodePool, extend_paths
from repro.core.tree import path_to_level_indices

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_decodes.json"


class TestNodePoolGrowth:
    def test_initial_capacity_and_empty(self):
        pool = NodePool(4, capacity=8)
        assert pool.capacity == 8
        assert len(pool) == 0
        assert pool.next_seq == 0

    def test_append_root(self):
        pool = NodePool(4)
        row = pool.append_root()
        assert row == 0
        assert pool.pd[0] == 0.0
        assert pool.seq[0] == 0
        assert pool.level[0] == 3
        assert len(pool) == 1

    def test_growth_preserves_live_rows(self):
        pool = NodePool(3, capacity=2)
        root = pool.append_root()
        # Admit enough children to force several doublings.
        rows = pool.append_children(
            np.full(5, root), np.arange(5), np.arange(5, dtype=float), level=1
        )
        assert pool.capacity >= 6
        more = pool.append_children(
            rows, rows % 4, pool.pd[rows] + 1.0, level=0
        )
        assert pool.capacity >= 11
        # Earlier rows intact after two growth events.
        assert pool.pd[root] == 0.0
        np.testing.assert_array_equal(pool.pd[rows], np.arange(5, dtype=float))
        np.testing.assert_array_equal(pool.path[rows, 0], np.arange(5))
        np.testing.assert_array_equal(pool.path[more, 0], np.arange(5))
        np.testing.assert_array_equal(pool.path[more, 1], rows % 4)
        # Sequence numbers are admission-ordered and dense.
        np.testing.assert_array_equal(pool.seq[: len(pool)], np.arange(11))

    def test_scalar_parent_broadcast(self):
        pool = NodePool(3)
        root = pool.append_root()
        a = pool.append_children(
            root, np.array([2]), np.array([1.5]), level=1
        )
        kids = pool.append_children(
            int(a[0]), np.array([0, 1, 3]), np.array([2.0, 3.0, 4.0]), level=0
        )
        np.testing.assert_array_equal(pool.path[kids, 0], [2, 2, 2])
        np.testing.assert_array_equal(pool.path[kids, 1], [0, 1, 3])

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            NodePool(0)
        with pytest.raises(ValueError):
            NodePool(4, capacity=0)


class TestNodePoolReads:
    def _three_level_pool(self):
        pool = NodePool(3)
        root = pool.append_root()
        l1 = pool.append_children(
            root, np.array([1, 3]), np.array([0.5, 0.7]), level=1
        )
        l0 = pool.append_children(
            np.array([l1[0], l1[0], l1[1]]),
            np.array([2, 0, 1]),
            np.array([1.0, 1.1, 1.2]),
            level=0,
        )
        return pool, root, l1, l0

    def test_path_round_trip_vs_tuple_helpers(self):
        """leaf_indices == path_to_level_indices of the tuple path."""
        pool, _root, _l1, l0 = self._three_level_pool()
        for row in l0:
            tuple_path = tuple(int(v) for v in pool.path[row, :2]) + (5,)
            expected = path_to_level_indices(tuple_path, 3)
            got = pool.leaf_indices(int(row), 5)
            np.testing.assert_array_equal(got, expected)
            assert got.dtype == np.int64

    def test_leaf_indices_single_level_tree(self):
        pool = NodePool(1)
        root = pool.append_root()
        np.testing.assert_array_equal(pool.leaf_indices(root, 3), [3])


class TestExtendPaths:
    def test_matches_concatenate(self):
        rng = np.random.default_rng(0)
        paths = rng.integers(0, 4, size=(6, 2)).astype(np.int64)
        keep_n = np.array([5, 0, 0, 3], dtype=np.int64)
        keep_c = np.array([1, 2, 3, 0], dtype=np.int64)
        legacy = np.concatenate(
            [paths[keep_n], keep_c[:, None]], axis=1
        ).astype(np.int64)
        np.testing.assert_array_equal(
            extend_paths(paths, keep_n, keep_c), legacy
        )

    def test_root_expansion_zero_depth(self):
        paths = np.empty((1, 0), dtype=np.int64)
        out = extend_paths(
            paths, np.zeros(3, dtype=np.int64), np.array([2, 0, 1])
        )
        np.testing.assert_array_equal(out, [[2], [0], [1]])
        assert out.dtype == np.int64


# ----------------------------------------------------------------------
# Registry-wide bit-identity against pre-refactor golden outputs
# ----------------------------------------------------------------------

COUNTER_FIELDS = (
    "nodes_expanded",
    "nodes_generated",
    "nodes_pruned",
    "leaves_reached",
    "radius_updates",
    "gemm_calls",
    "gemm_flops",
    "max_list_size",
    "truncated",
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches_golden(result, rec, ctx: str) -> None:
    stats = result.stats
    assert [int(i) for i in result.indices] == rec["indices"], ctx
    assert float(result.metric).hex() == rec["metric_hex"], ctx
    got_batches = [[int(ev.level), int(ev.pool_size)] for ev in stats.batches]
    assert got_batches == rec["batches"], ctx
    got_radius = [float(v).hex() for v in stats.radius_trace]
    assert got_radius == rec["radius_trace_hex"], ctx
    for name in COUNTER_FIELDS:
        assert int(getattr(stats, name)) == rec[name], f"{ctx}: {name}"


def _scenario_frames(scenario):
    from repro.mimo.system import MIMOSystem

    system = MIMOSystem(
        scenario["n_antennas"], scenario["n_antennas"], scenario["modulation"]
    )
    rng = np.random.default_rng(scenario["seed"])
    frames = [
        system.random_frame(scenario["snr_db"], rng)
        for _ in range(scenario["frames"])
    ]
    return system, frames


def test_golden_covers_every_replayable_kind(golden):
    from repro.detectors.registry import detector_entries

    replayable = {e.kind for e in detector_entries() if e.fpga_replayable}
    for label, scenario in golden["scenarios"].items():
        assert set(scenario["detectors"]) == replayable, label


def test_registry_bit_identity_vs_golden(golden):
    """Every replayable kind reproduces pre-refactor decodes exactly."""
    from repro.detectors.registry import detector_entries, spec

    entries = {e.kind: e for e in detector_entries() if e.fpga_replayable}
    for label, scenario in golden["scenarios"].items():
        system, frames = _scenario_frames(scenario)
        for kind, rec in scenario["detectors"].items():
            detector = spec(kind, system.constellation)()
            detector.prepare(
                frames[0].channel, noise_var=frames[0].noise_var
            )
            for i, frame in enumerate(frames):
                _assert_matches_golden(
                    detector.detect(frame.received),
                    rec["per_frame"][i],
                    f"{label}/{kind}/detect[{i}]",
                )
            if entries[kind].batch:
                assert "batch" in rec, f"{label}/{kind}"
                received = np.stack([f.received for f in frames])
                results = detector.decode_batch(received)
                for i, result in enumerate(results):
                    _assert_matches_golden(
                        result,
                        rec["batch"][i],
                        f"{label}/{kind}/batch[{i}]",
                    )


def test_golden_batch_traces_replayable(golden):
    """Recorded batch schedules still drive the FPGA pipeline model."""
    from repro.core.stats import BatchEvent, DecodeStats
    from repro.fpga.pipeline import FPGAPipeline, PipelineConfig

    for label, scenario in golden["scenarios"].items():
        n = scenario["n_antennas"]
        rec = scenario["detectors"]["sd"]["per_frame"][0]
        stats = DecodeStats(
            batches=[
                BatchEvent(level=lv, pool_size=ps) for lv, ps in rec["batches"]
            ]
        )
        pipe = FPGAPipeline(
            PipelineConfig.optimized(4), n_tx=n, n_rx=n, order=4
        )
        report = pipe.decode_report(stats)
        assert report.total_cycles > 0, label
        # Stage attribution must account for every cycle of the total.
        assert sum(report.attributed.values()) == report.total_cycles, label
