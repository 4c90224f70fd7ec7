"""Tests of the benchmark itself: seeded inputs, the tail-percentile rule,
self-time arithmetic and the metrics each workload reports.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.config import TAIL_MIN_BEYOND, WORKLOADS  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Span,
    SpanRecorder,
    instrument,
    layer_self_seconds,
    self_times,
)
from perfbench.stats import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    beyond_count,
    nearest_rank,
    quartile_spread,
    reference_segments,
    tail,
    tail_percentile,
)
from perfbench.workloads import (  # noqa: E402
    Fastest,
    Measurement,
    MonteCarlo,
    Served,
    Tally,
    end_to_end,
    layer_metrics,
    pass_count,
)

DOC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> dict:
    """A workload's parameters shrunk to run in about a second."""
    params = copy.deepcopy(WORKLOADS[name])
    if params["type"] == "mc":
        params.update(channels_per_unit=1, frames_per_channel=6, groups=1,
                      trace_groups=1, profile_groups=1)
        params["points"] = [[4, "4qam", 10.0], [4, "16qam", 20.0]]
    else:
        params.update(n_streams=4, channel_blocks=2, duration_s=0.25)
    return params


# -- seeded inputs ----------------------------------------------------------


def test_mc_plan_depends_only_on_seed():
    a = MonteCarlo(tiny("mc-deep"), 7)
    b = MonteCarlo(tiny("mc-deep"), 7)
    c = MonteCarlo(tiny("mc-deep"), 8)
    assert a.units == b.units
    assert [u.seed for u in a.units] != [u.seed for u in c.units]
    # Both kinds of one (group, point) decode the same frames.
    per_point = {}
    for unit in a.units:
        per_point.setdefault((unit.group, unit.point), set()).add(unit.seed)
    assert all(len(seeds) == 1 for seeds in per_point.values())


def test_mc_unit_repeats_exactly():
    mc = MonteCarlo(tiny("mc-deep"), 3)
    first, again = mc.run_unit(mc.units[0]), mc.run_unit(mc.units[0])
    assert first.tally.key() == again.tally.key()
    for x, y in zip(first.log.decisions, again.log.decisions):
        np.testing.assert_array_equal(x, y)


def test_served_trace_depends_only_on_seed():
    def events(seed):
        return Served(tiny("served"), seed).load_trace().events

    a, b, c = events(5), events(5), events(6)
    assert [e.arrival_s for e in a] == [e.arrival_s for e in b]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.received, y.received)
    assert [e.arrival_s for e in a] != [e.arrival_s for e in c]


# -- tail percentile rule ---------------------------------------------------


def test_nearest_rank_leaves_exact_count_beyond():
    values = list(range(1, 1001))
    assert nearest_rank(values, 99) == 990
    assert sum(v > 990 for v in values) == beyond_count(1000, 99) == 10
    assert nearest_rank(values, 50) == 500


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_beyond(n, expected):
    assert tail_percentile(n, 10) == expected
    if expected is not None:
        assert beyond_count(n, expected) >= 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 19, 10)
    q, value = tail(list(range(1000)), 10)
    assert (q, value) == (99.0, 989)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- self time on a synthetic span tree ---------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span("mimo.mc_run", 0.0, 10.0, -1, -1),    # 0
        Span("detectors.detect", 1.0, 5.0, 0, 0),  # 1
        Span("core.solve", 2.0, 4.0, 1, 0),        # 2
        Span("core.expand", 2.5, 3.0, 2, 0),       # 3
        Span("core.expand", 3.0, 3.5, 2, 0),       # 4
        Span("detectors.detect", 6.0, 9.0, 0, 1),  # 5
        Span("fpga.replay", 11.0, 12.0, -1, -1),   # 6
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.5, 0.5, 3.0, 1.0])
    layers = layer_self_seconds(spans)
    assert layers["mimo"] == pytest.approx(3.0)
    assert layers["detectors"] == pytest.approx(5.0)
    assert layers["core"] == pytest.approx(2.0)
    assert layers["fpga"] == pytest.approx(1.0)
    assert layers["serve"] == layers["obs"] == 0.0
    # Self times partition the covered wall time exactly.
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("serve.trace", 0.0, 10.0, -1, -1),
        Span("serve.process", 2.0, 6.0, 0, -1),
        Span("serve.process", 4.0, 8.0, 0, -1),   # overlaps its sibling
        Span("serve.finish", 9.0, 12.0, 0, -1),   # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_spans_and_frames_then_restores():
    from repro.core.traversal import TraversalEngine

    original = TraversalEngine.__dict__["solve"]
    recorder = SpanRecorder()
    mc = MonteCarlo(tiny("mc-deep"), 1)
    with instrument(recorder):
        assert TraversalEngine.__dict__["solve"] is not original
        mc.run_unit(mc.units[0])
    assert TraversalEngine.__dict__["solve"] is original
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    detects = by_name["detectors.detect"]
    assert [s.frame for s in detects] == list(range(len(detects)))
    for solve in by_name["core.solve"]:
        parent = recorder.spans[solve.parent]
        assert parent.name == "detectors.detect"
        assert solve.frame == parent.frame
        assert parent.start <= solve.start <= solve.end <= parent.end


# -- passes and reported metrics ---------------------------------------------


def test_fastest_keeps_each_segments_minimum():
    fastest = Fastest()
    assert fastest.add("a", np.array([3.0, 1.0, 2.0]))
    assert fastest.add("a", np.array([1.0, 4.0, 2.5]))
    assert fastest.add("b", np.array([0.5]))
    # A pass whose segments do not line up is refused and changes nothing.
    assert not fastest.add("a", np.array([0.1, 0.1]))
    np.testing.assert_array_equal(fastest.best["a"], [1.0, 1.0, 2.0])
    assert fastest.total_s() == pytest.approx(4.5)


def test_timings_scale_to_the_reference_host_speed():
    # A host that runs the reference twice as slowly as nominal read
    # these timings; at nominal speed they are twice as fast.
    m = Measurement(wall_s=2.0, frames=100, latencies_s=[0.01, 0.02, 0.03],
                    tally=Tally(frames=100, bits=1000),
                    ref_s=2 * REFERENCE_NOMINAL_S)
    e2e, _notes = end_to_end(m, min_beyond=1)
    assert e2e["frames_per_s"] == pytest.approx(100.0)
    assert e2e["frame_ms_p50"] == pytest.approx(10.0)
    segments = reference_segments(3)
    assert segments.shape == (3,) and (segments > 0).all()


def test_pass_count_depends_on_seconds_only():
    assert pass_count(45.0, 5.0) == 9
    assert pass_count(1.0, 5.0) == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_and_passes_checks(name):
    workload = (MonteCarlo if WORKLOADS[name]["type"] == "mc" else Served)(
        tiny(name), 2
    )
    calls = []
    measured = workload.measure(2, between=lambda *step: calls.append(step))
    assert measured.failed == 0 and measured.attempted > 0
    assert measured.passes == 2 and len(calls) >= 2
    assert calls == [(i, len(calls)) for i in range(len(calls))]
    e2e, _notes = end_to_end(measured, TAIL_MIN_BEYOND)
    assert set(e2e) | {"setup_s", "peak_rss_mb"} == {
        m["name"] for m in DOC["end_to_end"]
    }
    traced = workload.traced()
    assert traced.failed == 0
    layers = layer_metrics(traced)
    assert set(layers) | {"host.ref_ops_per_s"} == {
        m["name"] for m in DOC["per_layer"]
    }
    # Counts repeat exactly between the timed and the traced runs.
    assert traced.tally.key() == measured.tally.key()
    assert layers["core.nodes_per_frame"] > 0
    assert 0 < layers["core.self_share"] < 1
