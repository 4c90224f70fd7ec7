"""Tests for repro.obs.tracer: spans, counters, the ambient tracer."""

import numpy as np
import pytest

from repro.obs import (
    NULL_TRACER,
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
    Tracer,
    current_tracer,
    reset_tracer,
    set_tracer,
    use_tracer,
)
from repro.util.timing import WallClock


class FakeClock(WallClock):
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


class TestSpans:
    def test_records_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            clock.t += 2.5
        (span,) = tracer.spans("work")
        assert span.phase == PHASE_SPAN
        assert span.dur == pytest.approx(2.5)
        assert span.ts == pytest.approx(0.0)

    def test_nesting_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (inner,) = tracer.spans("inner")
        (outer,) = tracer.spans("outer")
        assert inner.depth == outer.depth + 1

    def test_sibling_spans_same_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.depth == b.depth

    def test_depth_restored_after_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        with tracer.span("after"):
            pass
        assert tracer.spans("boom")[0].depth == tracer.spans("after")[0].depth

    def test_span_args_kept(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("decode", n_tx=10, strategy="dfs"):
            pass
        (span,) = tracer.spans("decode")
        assert span.args == {"n_tx": 10, "strategy": "dfs"}

    def test_span_durations_grouped(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for dt in (1.0, 3.0):
            with tracer.span("step"):
                clock.t += dt
        assert tracer.span_durations()["step"] == pytest.approx([1.0, 3.0])


class TestDisabled:
    def test_no_events_recorded(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work", detail=1):
            pass
        tracer.instant("tick")
        tracer.count("n", 5)
        tracer.counter("m").add(2)
        assert tracer.events == []
        assert tracer.counters == {}

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_null_tracer_disabled(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.events == []


class TestCounters:
    def test_count_accumulates(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count("nodes", 3)
        tracer.count("nodes", 4)
        assert tracer.counters["nodes"] == 7
        events = [e for e in tracer.events if e.phase == PHASE_COUNTER]
        assert [e.value for e in events] == [3, 7]

    def test_bound_counter_handle(self):
        tracer = Tracer(clock=FakeClock())
        nodes = tracer.counter("nodes")
        nodes.add()
        nodes.add(9)
        assert nodes.value == 10

    def test_instant(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("batch", level=3)
        (event,) = tracer.events
        assert event.phase == PHASE_INSTANT
        assert event.args == {"level": 3}

    def test_clear(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.count("n")
        clock.t += 5.0
        tracer.clear()
        assert tracer.events == []
        assert tracer.counters == {}
        tracer.instant("after")
        assert tracer.events[0].ts == pytest.approx(0.0)  # epoch restarted


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_scopes(self):
        tracer = Tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_set_reset_token(self):
        tracer = Tracer()
        token = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            reset_tracer(token)
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(ValueError):
            with use_tracer(Tracer()):
                raise ValueError("x")
        assert current_tracer() is NULL_TRACER


class TestMarkSampling:
    def test_mark_bindings_none_when_disabled(self):
        assert Tracer(enabled=False).mark_bindings() is None

    def test_mark_bindings_append_lands_as_instant(self):
        tracer = Tracer(clock=FakeClock())
        append, now, epoch, tid = tracer.mark_bindings()
        append(("sd.batch", now() - epoch, tid, 3, 8))
        (event,) = tracer.events
        assert event.phase == PHASE_INSTANT
        assert event.name == "sd.batch"
        assert event.args == {"level": 3, "pool": 8}
        assert event.tid == tid

    def test_mark_stride_validated(self):
        with pytest.raises(ValueError):
            Tracer(mark_stride=0)
        with pytest.raises(TypeError):
            Tracer(mark_stride=2.5)

    def test_dfs_marks_stride_sampled(self):
        """stride=1 records one mark per expansion; stride=s samples
        every s-th (first always records), never losing exact counts."""
        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(6, 6, "4qam")
        frame = system.random_frame(8.0, np.random.default_rng(3))

        def decode(stride):
            decoder = SphereDecoder(system.constellation, strategy="dfs")
            decoder.prepare(frame.channel, noise_var=frame.noise_var)
            with use_tracer(Tracer(mark_stride=stride)) as tracer:
                result = decoder.detect(frame.received)
            marks = [
                e
                for e in tracer.events
                if e.phase == PHASE_INSTANT and e.name == "sd.batch"
            ]
            return marks, result.stats

        full, stats = decode(1)
        assert len(full) == stats.gemm_calls  # every expansion marked
        assert stats.gemm_calls > 16
        sampled, stats2 = decode(16)
        # DFS expands single nodes, one solve per detect: exactly
        # ceil(n / stride) marks survive sampling.
        assert len(sampled) == -(-stats.gemm_calls // 16)
        # Sampling never perturbs the search or its exact statistics.
        assert stats2.nodes_expanded == stats.nodes_expanded


class TestDecoderIntegration:
    def make_frame(self, seed=0):
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(6, 6, "4qam")
        frame = system.random_frame(8.0, np.random.default_rng(seed))
        return system, frame

    def test_decode_emits_spans_and_counters(self):
        from repro.detectors.sphere import SphereDecoder

        system, frame = self.make_frame()
        decoder = SphereDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        with use_tracer(Tracer()) as tracer:
            result = decoder.detect(frame.received)
        assert tracer.spans("sd.detect")
        assert tracer.spans("sd.solve")
        assert tracer.counters["sd.nodes_expanded"] == result.stats.nodes_expanded
        assert tracer.counters["sd.gemm_calls"] == result.stats.gemm_calls

    def test_decode_without_tracer_emits_nothing(self):
        from repro.detectors.sphere import SphereDecoder

        system, frame = self.make_frame()
        decoder = SphereDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        result = decoder.detect(frame.received)  # no ambient tracer
        assert result.stats.nodes_expanded > 0
        assert NULL_TRACER.events == []

    def test_bfs_decoder_instrumented(self):
        from repro.detectors.sd_bfs import GemmBfsDecoder

        system, frame = self.make_frame()
        decoder = GemmBfsDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        with use_tracer(Tracer()) as tracer:
            decoder.detect(frame.received)
        assert tracer.spans("bfs.detect")
        assert tracer.spans("bfs.level")
        assert tracer.counters["bfs.nodes_expanded"] > 0

    def test_montecarlo_instrumented(self):
        from repro.core.radius import NoiseScaledRadius
        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.montecarlo import MonteCarloEngine
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(4, 4, "4qam")
        engine = MonteCarloEngine(
            system, channels=1, frames_per_channel=2, seed=1
        )
        with use_tracer(Tracer()) as tracer:
            engine.run(
                lambda: SphereDecoder(
                    system.constellation,
                    radius_policy=NoiseScaledRadius(alpha=2.0),
                ),
                [8.0],
            )
        assert len(tracer.spans("mc.point")) == 1
        assert len(tracer.spans("mc.frame")) == 2
        assert tracer.counters["mc.frames"] == 2
