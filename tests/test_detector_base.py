"""Tests for repro.detectors.base: stats records and the Detector ABC."""

from dataclasses import dataclass, field, fields

import numpy as np
import pytest

from repro.detectors.base import BatchEvent, DecodeStats, DetectionResult, Detector


class TestBatchEvent:
    def test_fields(self):
        ev = BatchEvent(level=3, pool_size=8)
        assert ev.level == 3
        assert ev.pool_size == 8

    def test_is_tuple(self):
        assert tuple(BatchEvent(1, 2)) == (1, 2)


class TestDecodeStats:
    def test_defaults_zero(self):
        st = DecodeStats()
        assert st.nodes_expanded == 0
        assert st.batches == []
        assert st.truncated == 0

    def test_merge_sums_counters(self):
        a = DecodeStats(nodes_expanded=3, nodes_generated=12, gemm_calls=2)
        b = DecodeStats(nodes_expanded=5, nodes_generated=20, gemm_calls=4)
        m = a.merge(b)
        assert m.nodes_expanded == 8
        assert m.nodes_generated == 32
        assert m.gemm_calls == 6

    def test_merge_max_list_size(self):
        a = DecodeStats(max_list_size=10)
        b = DecodeStats(max_list_size=7)
        assert a.merge(b).max_list_size == 10

    def test_merge_concatenates_traces(self):
        a = DecodeStats(batches=[BatchEvent(1, 1)], radius_trace=[5.0])
        b = DecodeStats(batches=[BatchEvent(0, 2)], radius_trace=[3.0])
        m = a.merge(b)
        assert m.batches == [BatchEvent(1, 1), BatchEvent(0, 2)]
        assert m.radius_trace == [5.0, 3.0]

    def test_merge_does_not_mutate(self):
        a = DecodeStats(nodes_expanded=1)
        b = DecodeStats(nodes_expanded=2)
        a.merge(b)
        assert a.nodes_expanded == 1
        assert b.nodes_expanded == 2

    def test_merge_truncated(self):
        assert DecodeStats(truncated=1).merge(DecodeStats(truncated=2)).truncated == 3

    def test_merge_aggregates_every_field(self):
        """Regression: no field may be silently dropped by merge().

        Builds two records whose every field is non-default and checks
        each merged field against the rule the dataclass declares (sum
        for numerics/lists, metadata override otherwise) — so adding a
        field without aggregation support fails here, not in a report.
        """

        def sample(offset: int, width: int) -> DecodeStats:
            kwargs = {}
            for i, f in enumerate(fields(DecodeStats)):
                if f.name == "batches":
                    kwargs[f.name] = [BatchEvent(offset, i + 1)]
                elif f.name == "radius_trace":
                    kwargs[f.name] = [float(offset + i)]
                elif f.metadata.get("merge") == "elementwise":
                    kwargs[f.name] = [offset + i + k for k in range(width)]
                elif f.type == "float" or f.name == "wall_time_s":
                    kwargs[f.name] = float(offset + i + 0.5)
                else:
                    kwargs[f.name] = offset + i + 1
            return DecodeStats(**kwargs)

        # Per-level lists of different lengths: the shorter one is padded.
        a, b = sample(10, 3), sample(100, 4)
        m = a.merge(b)
        for f in fields(DecodeStats):
            mine, theirs = getattr(a, f.name), getattr(b, f.name)
            rule = f.metadata.get("merge", "sum")
            if rule == "max":
                expected = max(mine, theirs)
            elif rule == "elementwise":
                expected = [x + y for x, y in zip(mine + [0], theirs)]
            else:
                expected = mine + theirs
            assert getattr(m, f.name) == expected, f.name

    def test_merge_picks_up_subclass_fields(self):
        """fields() introspection covers fields added by subclasses."""

        @dataclass
        class ExtendedStats(DecodeStats):
            cache_hits: int = 0
            peak_frontier: int = field(default=0, metadata={"merge": "max"})

        a = ExtendedStats(nodes_expanded=1, cache_hits=3, peak_frontier=9)
        b = ExtendedStats(nodes_expanded=2, cache_hits=4, peak_frontier=5)
        m = a.merge(b)
        assert isinstance(m, ExtendedStats)
        assert m.nodes_expanded == 3
        assert m.cache_hits == 7
        assert m.peak_frontier == 9

    def test_merge_rejects_unmergeable_field(self):
        @dataclass
        class BadStats(DecodeStats):
            label: str = ""

        with pytest.raises(TypeError, match="no default merge rule"):
            BadStats(label="a").merge(BadStats(label="b"))


class _DummyDetector(Detector):
    name = "dummy"

    def __init__(self):
        self._prepared = False

    def prepare(self, channel, noise_var=0.0):
        self._prepared = True

    def detect(self, received):
        self._require_prepared()
        received = np.asarray(received)
        return DetectionResult(
            indices=np.zeros(2, dtype=int),
            symbols=np.zeros(2, dtype=complex),
            bits=np.zeros(2, dtype=bool),
            metric=0.0,
        )


class TestDetectorABC:
    def test_require_prepared(self):
        det = _DummyDetector()
        with pytest.raises(RuntimeError, match="before prepare"):
            det.detect(np.zeros(2))

    def test_detect_after_prepare(self):
        det = _DummyDetector()
        det.prepare(np.eye(2))
        result = det.detect(np.zeros(2))
        assert result.metric == 0.0

    def test_detect_batch(self):
        det = _DummyDetector()
        det.prepare(np.eye(2))
        results = det.detect_batch(np.zeros((3, 2)))
        assert len(results) == 3

    def test_detect_batch_requires_2d(self):
        det = _DummyDetector()
        det.prepare(np.eye(2))
        with pytest.raises(ValueError):
            det.detect_batch(np.zeros(2))


class TestMergeAll:
    def _sample(self, i):
        return DecodeStats(
            nodes_expanded=i,
            gemm_calls=2 * i,
            max_list_size=i * i,
            batches=[BatchEvent(level=i, pool_size=i + 1)],
            radius_trace=[float(i)],
        )

    def test_equivalent_to_pairwise_merge(self):
        records = [self._sample(i) for i in range(1, 6)]
        folded = records[0]
        for other in records[1:]:
            folded = folded.merge(other)
        assert DecodeStats.merge_all(records) == folded

    def test_empty_iterable_gives_defaults(self):
        assert DecodeStats.merge_all([]) == DecodeStats()

    def test_scalar_fields_order_independent(self):
        records = [self._sample(i) for i in (3, 1, 4, 1, 5)]
        forward = DecodeStats.merge_all(records)
        backward = DecodeStats.merge_all(list(reversed(records)))
        for f in fields(DecodeStats):
            if f.name in ("batches", "radius_trace"):
                continue  # list fields concatenate in input order
            assert getattr(forward, f.name) == getattr(backward, f.name), f.name

    def test_list_fields_concatenate_in_input_order(self):
        records = [self._sample(i) for i in (2, 7, 5)]
        merged = DecodeStats.merge_all(records)
        assert merged.radius_trace == [2.0, 7.0, 5.0]
        assert [b.level for b in merged.batches] == [2, 7, 5]

    def test_does_not_mutate_inputs(self):
        records = [self._sample(1), self._sample(2)]
        DecodeStats.merge_all(records)
        assert records[0].radius_trace == [1.0]
        assert records[1].radius_trace == [2.0]

    def test_accepts_generator(self):
        total = DecodeStats.merge_all(self._sample(i) for i in range(3))
        assert total.nodes_expanded == 3
