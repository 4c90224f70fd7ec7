"""The labelled metrics subsystem: registry, snapshots, exporters.

Covers the contracts the cross-process telemetry path leans on: exact
associative/commutative snapshot merges (shards flush in arbitrary
order), Prometheus-compatible histogram bucketing, the cardinality
guard, delta-style ``drain`` semantics, and the disabled registry being
a strict no-op.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.detectors.registry import detector_entries, spec
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    current_metrics,
    exponential_buckets,
    format_series_key,
    parse_series_key,
    to_prometheus,
    use_metrics,
)


class TestLabelledSeries:
    def test_counter_accumulates_per_label_set(self):
        m = MetricsRegistry()
        c = m.counter("mc.frames")
        c.inc(3, snr=8)
        c.inc(2, snr=8)
        c.inc(5, snr=12)
        c.inc(1)  # unlabelled series is distinct
        snap = m.snapshot()
        assert snap.counters[("mc.frames", (("snr", "8"),))] == 5
        assert snap.counters[("mc.frames", (("snr", "12"),))] == 5
        assert snap.counters[("mc.frames", ())] == 1
        assert snap.counter_total("mc.frames") == 11

    def test_label_order_does_not_split_series(self):
        m = MetricsRegistry()
        m.counter("x").inc(1, a="1", b="2")
        m.counter("x").inc(1, b="2", a="1")
        assert len(m.snapshot().counters) == 1

    def test_gauge_keeps_latest_value(self):
        m = MetricsRegistry()
        g = m.gauge("mc.shard.blocks_done")
        g.set(1, shard="0")
        g.set(4, shard="0")
        snap = m.snapshot()
        assert snap.gauge_series("mc.shard.blocks_done") == {
            (("shard", "0"),): 4.0
        }

    def test_series_key_round_trip(self):
        key = (("level", "3"), ("snr", "8"))
        rendered = format_series_key("traversal.nodes_expanded", key)
        assert rendered == "traversal.nodes_expanded{level=3,snr=8}"
        assert parse_series_key(rendered) == ("traversal.nodes_expanded", key)
        assert parse_series_key("plain") == ("plain", ())

    def test_same_name_cannot_be_two_kinds(self):
        m = MetricsRegistry()
        m.counter("x").inc(1)
        with pytest.raises(ValueError, match="already registered"):
            m.gauge("x")


class TestCardinalityGuard:
    def test_admission_caps_distinct_series(self):
        m = MetricsRegistry(max_series=4)
        c = m.counter("runaway")
        for i in range(4):
            c.inc(1, frame=str(i))
        with pytest.raises(ValueError, match="max_series"):
            c.inc(1, frame="4")

    def test_existing_series_keep_working_at_cap(self):
        m = MetricsRegistry(max_series=1)
        c = m.counter("x")
        c.inc(1, k="a")
        c.inc(1, k="a")  # same series: no new admission
        assert m.snapshot().counter_total("x") == 2

    def test_drain_resets_the_cardinality_budget(self):
        m = MetricsRegistry(max_series=1)
        m.counter("x").inc(1, k="a")
        m.drain()
        m.counter("x").inc(1, k="b")  # would have exceeded without drain


class TestHistograms:
    def test_exponential_bucket_edges(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert len(DEFAULT_BUCKETS) == 26

    def test_observation_lands_in_prometheus_le_bucket(self):
        h = HistogramData(edges=(1.0, 2.0, 4.0))
        # `le` semantics: a value equal to an edge belongs to that bucket.
        for v, bucket in ((0.5, 0), (1.0, 0), (1.5, 1), (4.0, 2), (9.0, 3)):
            h.observe(v)
            assert h.counts[bucket] >= 1
        assert h.count == 5
        assert h.sum == pytest.approx(16.0)
        assert h.min == 0.5
        assert h.max == 9.0

    def test_quantile_is_bucket_upper_edge_clamped_by_max(self):
        h = HistogramData(edges=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 0.7, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 3.0  # clamped to observed max

    def test_round_trips_through_dict(self):
        h = HistogramData(edges=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        back = HistogramData.from_dict(h.to_dict())
        assert back == h
        empty = HistogramData(edges=(1.0,))
        assert HistogramData.from_dict(empty.to_dict()) == empty

    def test_merge_requires_matching_edges(self):
        a = HistogramData(edges=(1.0, 2.0))
        b = HistogramData(edges=(1.0, 3.0))
        with pytest.raises(ValueError, match="edges"):
            a.merge(b)


class TestSnapshotMerge:
    def _registry(self, counter_vals, gauge_val=None, t=1.0):
        m = MetricsRegistry(clock=SimpleNamespace(now=lambda: t))
        for labels, v in counter_vals:
            m.counter("c").inc(v, **labels)
        if gauge_val is not None:
            m.gauge("g").set(gauge_val)
        m.histogram("h", edges=(1.0, 2.0)).observe(sum(v for _, v in counter_vals))
        return m.snapshot()

    def test_merge_is_associative_and_commutative(self):
        a = self._registry([({"snr": 8}, 1)], gauge_val=10, t=1.0)
        b = self._registry([({"snr": 8}, 2)], gauge_val=20, t=2.0)
        c = self._registry([({"snr": 12}, 4)], t=3.0)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a).merge(b)
        for merged in (right, swapped):
            assert merged.counters == left.counters
            assert merged.histograms == left.histograms
            assert merged.gauges == left.gauges
        assert left.counter_total("c") == 7

    def test_gauges_merge_latest_timestamp_wins(self):
        early = self._registry([], gauge_val=10, t=1.0)
        late = self._registry([], gauge_val=99, t=5.0)
        assert early.merge(late).gauge_series("g") == {(): 99.0}
        assert late.merge(early).gauge_series("g") == {(): 99.0}

    def test_snapshot_dict_round_trip(self):
        snap = self._registry([({"snr": 8}, 3)], gauge_val=7)
        back = MetricsSnapshot.from_dict(snap.to_dict())
        assert back.counters == snap.counters
        assert back.gauges == snap.gauges
        assert back.histograms == snap.histograms

    def test_merge_snapshot_folds_into_live_registry(self):
        m = MetricsRegistry()
        m.counter("c").inc(1, snr="8")
        m.merge_snapshot(self._registry([({"snr": 8}, 5)]))
        assert m.snapshot().counter_total("c") == 6


class TestDrain:
    def test_drain_returns_deltas_and_clears(self):
        m = MetricsRegistry()
        m.counter("c").inc(3)
        first = m.drain()
        assert first.counter_total("c") == 3
        assert m.snapshot().empty
        m.counter("c").inc(2)
        assert m.drain().counter_total("c") == 2

    def test_repeated_drains_merge_to_exact_totals(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        for chunk in (3, 4, 5):
            worker.counter("c").inc(chunk, snr="8")
            parent.merge_snapshot(worker.drain())
        assert parent.snapshot().counter_total("c") == 12


class TestDisabledRegistry:
    def test_null_metrics_is_ambient_default_and_inert(self):
        assert current_metrics() is NULL_METRICS
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("x").inc(5, label="v")
        NULL_METRICS.gauge("y").set(1)
        NULL_METRICS.histogram("z").observe(2)
        NULL_METRICS.tick(force=True)
        assert NULL_METRICS.snapshot().empty

    def test_use_metrics_scopes_the_ambient_registry(self):
        m = MetricsRegistry()
        with use_metrics(m):
            assert current_metrics() is m
            current_metrics().counter("c").inc(1)
        assert current_metrics() is NULL_METRICS
        assert m.snapshot().counter_total("c") == 1


class TestPrometheusExport:
    def test_renders_types_labels_and_cumulative_buckets(self):
        m = MetricsRegistry()
        m.counter("mc.frames").inc(3, snr="8")
        m.gauge("mc.shard.blocks_done").set(2, shard="0")
        h = m.histogram("lat", edges=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = to_prometheus(m.snapshot())
        assert '# TYPE repro_mc_frames counter' in text
        assert 'repro_mc_frames{snr="8"} 3' in text
        assert 'repro_mc_shard_blocks_done{shard="0"} 2' in text
        # +Inf bucket is cumulative over all observations.
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text


BATCH_KINDS = [e.kind for e in detector_entries() if e.batch]
TREE_KINDS = [e.kind for e in detector_entries() if e.fpga_replayable]


def _decode_block(kind: str, path: str):
    """Decode one 6x6 4-QAM channel block of 4 frames with ``kind``.

    Runs under a fresh tracer and metrics registry, frame by frame
    (``path="detect"``) or fused (``"decode_batch"``); returns
    ``(trace_root, stats_list, tracer, snapshot)``.
    """
    import numpy as np

    from repro.mimo.system import MIMOSystem
    from repro.obs.tracer import Tracer, use_tracer

    system = MIMOSystem(6, 6, "4qam")
    rng = np.random.default_rng(7)
    first = system.random_frame(6.0, rng)
    received = np.stack(
        [first.received]
        + [
            system.random_frame(6.0, rng, channel=first.channel).received
            for _ in range(3)
        ]
    )
    detector = spec(kind, system.constellation)()
    detector.prepare(first.channel, noise_var=first.noise_var)
    metrics = MetricsRegistry()
    with use_tracer(Tracer()) as tracer, use_metrics(metrics):
        if path == "detect":
            results = [detector.detect(row) for row in received]
        else:
            results = detector.decode_batch(received)
    stats = [r.stats for r in results]
    return detector.trace_root, stats, tracer, metrics.snapshot()


def _traversal_series(snap) -> dict:
    """Every ``traversal.*`` counter and histogram series of ``snap``."""
    return {
        key: value
        for table in (snap.counters, snap.histograms)
        for key, value in table.items()
        if key[0].startswith("traversal.")
    }


class TestTraversalAccountingConsistency:
    """Registry traversal totals must equal DecodeStats exactly.

    The search keeps its counts only in ``DecodeStats`` (scalars, the
    ``batches`` trace and ``level_pruned``); the detector's one publish
    step derives the tracer counters and ``traversal.*`` series from
    it. Both must reproduce the search's own exact counters on the
    per-frame and the batched path — the trace timeline is sampled, the
    metrics are not.
    """

    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_registry_totals_match_decode_stats(self, strategy):
        import numpy as np

        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(8, 8, "4qam")
        rng = np.random.default_rng(7)
        m = MetricsRegistry()
        totals = {"nodes_expanded": 0, "nodes_generated": 0, "nodes_pruned": 0}
        with use_metrics(m):
            for _ in range(3):
                frame = system.random_frame(6.0, rng)
                decoder = SphereDecoder(
                    system.constellation, strategy=strategy
                )
                decoder.prepare(frame.channel, noise_var=frame.noise_var)
                stats = decoder.detect(frame.received).stats
                for name in totals:
                    totals[name] += getattr(stats, name)
        assert totals["nodes_pruned"] > 0  # workload actually prunes
        snap = m.snapshot()
        for name, want in totals.items():
            assert snap.counter_total(f"traversal.{name}") == want, name

    @pytest.mark.parametrize("path", ["detect", "decode_batch"])
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_every_batch_kind_matches_decode_stats(self, kind, path):
        from repro.detectors.engine import COUNTED_FIELDS

        root, stats, tracer, snap = _decode_block(kind, path)
        for name in COUNTED_FIELDS:
            want = sum(getattr(st, name) for st in stats)
            assert tracer.counters[f"{root}.{name}"] == want, name
        for name in ("nodes_expanded", "nodes_generated", "nodes_pruned"):
            want = sum(getattr(st, name) for st in stats)
            assert snap.counter_total(f"traversal.{name}") == want, name
        expansions = sum(len(st.batches) for st in stats)
        assert snap.counter_total("traversal.expansions") == expansions
        if kind != "fsd":  # FSD's SIC levels keep one child, pruning none
            assert sum(st.nodes_pruned for st in stats) > 0

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_detect_and_decode_batch_publish_identically(self, kind):
        _, _, per_frame, frames_snap = _decode_block(kind, "detect")
        _, _, batched, batch_snap = _decode_block(kind, "decode_batch")
        assert per_frame.counters == batched.counters
        assert _traversal_series(frames_snap) == _traversal_series(batch_snap)

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_traversal_rates_after_decode_batch(self, kind):
        from repro.obs.metrics import traversal_rates

        root, _, tracer, _ = _decode_block(kind, "decode_batch")
        assert f"{root}.nodes_per_sec" in traversal_rates(tracer)

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_level_pruned_sums_to_nodes_pruned(self, kind):
        import numpy as np

        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(6, 6, "4qam")
        rng = np.random.default_rng(7)
        detector = spec(kind, system.constellation)()
        for _ in range(3):
            frame = system.random_frame(6.0, rng)
            detector.prepare(frame.channel, noise_var=frame.noise_var)
            stats = detector.detect(frame.received).stats
            assert sum(stats.level_pruned) == stats.nodes_pruned
            levels = {event.level for event in stats.batches}
            assert len(stats.level_pruned) > max(levels)
