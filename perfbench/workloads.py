"""The benchmark's workloads: seeded inputs, timed passes, checks.

Everything here drives the program through its public APIs:
``repro.mimo`` (systems, Monte Carlo engine), ``repro.detectors.registry``
(detector specs), ``repro.fpga`` (pipeline replay), ``repro.serve``
(load generator, service, virtual-time serving loop) and ``repro.obs.metrics``
(the registry an operator installs).

A Monte Carlo workload is a fixed plan of *units*: one
``MonteCarloEngine.run`` of one detector kind at one SNR point over a
few channel blocks, each seeded from ``--seed``. The served workload is
one seeded load trace. A run decodes its inputs in a fixed number of
whole *passes* (see :func:`pass_count`): the first pass is checked and
supplies the counts (BER, nodes, FPGA cycles), which every later pass
must reproduce exactly.

Each pass is timed as a :class:`Timeline` of short *segments*: every
decode, every FPGA replay and every stretch of harness or serving code
between two of them. A repeat of the same inputs makes the same
segments in the same order, so each segment keeps its fastest time over
the passes and a pass's time is the sum of those minima. A shared host
swings between a fast and a slow state every few milliseconds, with the
share of slow time drifting over minutes; the fastest of several
repeats spaced seconds apart finds the fast state for almost every
short segment, where the fastest of whole passes would only track the
drifting average. The pass count depends on ``--seconds`` alone, never
on how fast the host is, so both sides of a comparison take their
minimum over the same number of samples.

Beyond those millisecond swings, a shared host's speed drifts by up to
2x over minutes, which no fastest-of filter inside a run can see past.
So a run also times reference segments (a fixed sphere search in the
benchmark's own code, :func:`perfbench.stats.reference_segments`)
between its segments, keeps each one's fastest time the same way, and
reports its timings scaled to a host that runs a reference segment in
:data:`~perfbench.stats.REFERENCE_NOMINAL_S` (see
:attr:`Measurement.scale`). A change to the program moves the program's
segments and not the reference, so it shows in full.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.detectors.registry import spec
from repro.fpga import FPGAPipeline, PipelineConfig
from repro.mimo import MIMOSystem, MonteCarloEngine
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serve import (
    DetectionService,
    LoadGenerator,
    SchedulerConfig,
    conformance_mismatches,
    direct_results,
    serve_trace,
)

from perfbench.spans import (
    LAYERS,
    SpanRecorder,
    instrument,
    layer_self_seconds,
    self_times,
)
from perfbench.stats import (
    REFERENCE_NOMINAL_S,
    nearest_rank,
    reference_segments,
    tail,
)

#: No pass starts after this many seconds of measuring, whatever the
#: pass count, so that a run on a very slow host still ends in time.
HARD_STOP_S = 120.0

#: Untraced/traced pass pairs of a ``--trace 1`` run.
TRACE_ROUNDS = 2

#: Reference segments run after each Monte Carlo unit (about 3 % of its
#: time), and served batches per reference segment (about 3 % too).
REFERENCE_PER_UNIT = 4
REFERENCE_EVERY_BATCHES = 16


def unit_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the run seed and a position in the plan."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def pass_count(seconds: float, pass_seconds: float) -> int:
    """Passes a run of ``seconds`` makes: at least two, so every figure
    is a fastest-of-several."""
    return max(2, round(seconds / pass_seconds))


def pass_indices(passes: int):
    """Pass indices ``0 .. passes-1``, stopping early only past
    :data:`HARD_STOP_S`."""
    started = perf_counter()
    for i in range(passes):
        if i and perf_counter() - started > HARD_STOP_S:
            print(f"perfbench: stopped after {i} of {passes} passes",
                  file=sys.stderr)
            return
        yield i


class Timeline:
    """Clock marks of one pass; the time between two consecutive marks
    is a segment."""

    def __init__(self) -> None:
        self.marks = [perf_counter()]

    def mark(self) -> int:
        """Add a mark; returns the index of the segment it closes."""
        self.marks.append(perf_counter())
        return len(self.marks) - 2

    def segments(self) -> np.ndarray:
        return np.diff(self.marks)


class Fastest:
    """Each segment's fastest time over the passes of one timeline key."""

    def __init__(self) -> None:
        self.best: dict = {}

    def add(self, key, segments: np.ndarray) -> bool:
        """Fold in one pass; ``False`` when its segments do not line up
        with the earlier passes' (so it did not repeat them)."""
        best = self.best.get(key)
        if best is None:
            self.best[key] = segments.copy()
            return True
        if best.shape != segments.shape:
            return False
        np.minimum(best, segments, out=best)
        return True

    def total_s(self) -> float:
        return float(sum(best.sum() for best in self.best.values()))


@dataclass
class Tally:
    """Counts over a set of decoded frames; all of them repeat exactly."""

    frames: int = 0
    nodes: int = 0
    expand_calls: int = 0
    flops: int = 0
    generated: int = 0
    pruned: int = 0
    frontier_peak: int = 0
    truncated: int = 0
    cycles: int = 0
    fpga_s: float = 0.0
    bit_errors: int = 0
    bits: int = 0

    def add_stats(self, stats) -> None:
        self.frames += 1
        self.nodes += stats.nodes_expanded
        self.expand_calls += stats.gemm_calls
        self.flops += stats.gemm_flops
        self.generated += stats.nodes_generated
        self.pruned += stats.nodes_pruned
        self.frontier_peak = max(self.frontier_peak, stats.max_list_size)
        self.truncated += stats.truncated

    def add_report(self, report) -> None:
        self.cycles += report.total_cycles
        self.fpga_s += report.seconds

    def merge(self, other: "Tally") -> None:
        for name in self.__dataclass_fields__:
            if name == "frontier_peak":
                self.frontier_peak = max(self.frontier_peak, other.frontier_peak)
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def key(self) -> tuple:
        """Everything a repeat of the same inputs must reproduce."""
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)


@dataclass
class Measurement:
    """Best-of-passes figures of one timed stretch of a workload."""

    passes: int = 0
    #: Wall time of one pass with host contention filtered out: the sum
    #: of every segment's fastest time (see :class:`Fastest`).
    wall_s: float = 0.0
    #: Frames one pass decodes (every kind counted).
    frames: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per frame of one pass: its fastest host decode latency.
    latencies_s: list[float] = field(default_factory=list)
    #: Counts of the first pass.
    tally: Tally = field(default_factory=Tally)
    #: Served only: per-pass report figures (see :func:`pass_figures`).
    served: list[dict] = field(default_factory=list)
    #: Mean fastest time of the reference segments run between the
    #: timed segments.
    ref_s: float = REFERENCE_NOMINAL_S

    @property
    def frames_per_s(self) -> float:
        """As timed, not scaled."""
        return self.frames / self.wall_s

    @property
    def scale(self) -> float:
        """Factor that brings a timing of this run to a host that runs a
        reference segment in ``REFERENCE_NOMINAL_S``."""
        return REFERENCE_NOMINAL_S / self.ref_s


@dataclass
class Traced:
    """What a ``--trace 1`` run measured (see ``traced`` methods)."""

    recorder: SpanRecorder
    #: Spans recorded outside the traced passes (served: frame
    #: generation and FPGA replay, which the serving path does not do);
    #: they count in per-call figures, not in self-time shares.
    aux: SpanRecorder
    #: Wall time of the traced passes and the frames they decoded.
    wall_s: float
    decodes: int
    #: Frames of those decoded through ``decode_batch``.
    batched_decodes: int
    #: Counts of one pass.
    tally: Tally
    plain_fps: float
    traced_fps: float
    py_calls_per_node: float
    attempted: int
    failed: int
    #: Served only: frames offered in the traced passes, figures of the
    #: first traced pass and of the untraced passes.
    offered: int = 0
    traced_pass: dict = field(default_factory=dict)
    plain_passes: list[dict] = field(default_factory=list)


def decode_calls(fn):
    """``(calls, result)``: function calls (Python and built-in) made
    inside ``EngineDetector.detect``/``decode_batch`` while ``fn`` runs,
    and what ``fn`` returned. Harness, replay and serving calls around
    the decodes are not counted."""
    from repro.detectors.engine import EngineDetector

    profiler = cProfile.Profile()

    def profiled(method):
        def call(*args, **kwargs):
            profiler.enable()
            try:
                return method(*args, **kwargs)
            finally:
                profiler.disable()

        return call

    saved = {name: vars(EngineDetector)[name] for name in ("detect", "decode_batch")}
    try:
        for name, method in saved.items():
            setattr(EngineDetector, name, profiled(method))
        result = fn()
    finally:
        for name, method in saved.items():
            setattr(EngineDetector, name, method)
    stats = pstats.Stats(profiler).stats
    return sum(nc for _cc, nc, _tt, _ct, _callers in stats.values()), result


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


@dataclass
class DecisionLog:
    """Decisions of one unit's frames and the timeline of the unit, with
    the index of each frame's decode segment."""

    decisions: list[np.ndarray] = field(default_factory=list)
    clock: Timeline = field(default_factory=Timeline)
    decode_segments: list[int] = field(default_factory=list)


class RecordingDetector:
    """Detector-protocol proxy keeping each decision and marking the
    start and end of each decode on the unit's timeline."""

    def __init__(self, detector, log: DecisionLog) -> None:
        self._detector = detector
        self._log = log
        self.name = detector.name

    def prepare(self, channel, noise_var: float = 0.0) -> None:
        self._detector.prepare(channel, noise_var=noise_var)

    def detect(self, received):
        clock = self._log.clock
        clock.mark()
        result = self._detector.detect(received)
        self._log.decode_segments.append(clock.mark())
        self._log.decisions.append(result.indices)
        return result


class RecordingFactory:
    """Detector factory for ``MonteCarloEngine.run`` that records frames."""

    def __init__(self, detector_spec, log: DecisionLog) -> None:
        self.spec = detector_spec
        self.log = log

    def __call__(self) -> RecordingDetector:
        return RecordingDetector(self.spec(), self.log)


@dataclass(frozen=True)
class Unit:
    group: int
    point: int
    kind: str
    seed: int


@dataclass
class UnitOutcome:
    unit: Unit
    log: DecisionLog
    tally: Tally


class MonteCarlo:
    """``mc-deep``: a figure sweep with FPGA replay of every frame."""

    def __init__(self, params: dict, seed: int) -> None:
        self.params = params
        self.seed = seed
        self.points = []
        for n, modulation, snr_db in params["points"]:
            system = MIMOSystem(n, n, modulation)
            order = system.constellation.order
            pipe = FPGAPipeline(
                PipelineConfig.optimized(order), n_tx=n, n_rx=n, order=order
            )
            self.points.append((system, float(snr_db), pipe))
        self.kinds = list(params["kinds"])
        self.specs = {
            kind: [spec(kind, system.constellation) for system, _, _ in self.points]
            for kind in self.kinds
        }
        # Every kind of a (group, point) gets the same seed, so all of
        # them decode the very same channels and frames.
        self.units = [
            Unit(g, p, kind, unit_seed(seed, p, g))
            for g in range(params["groups"])
            for p in range(len(self.points))
            for kind in self.kinds
        ]

    def group_units(self, groups: int) -> list[Unit]:
        """The plan's first ``groups`` groups."""
        return [u for u in self.units if u.group < groups]

    def setup(self) -> None:
        """Inputs and a prepared detector for the first frame of the plan."""
        unit = self.units[0]
        system, snr_db, _ = self.points[unit.point]
        rng = np.random.default_rng(unit.seed)
        channel = system.channel_model.draw_channel(rng)
        system.random_frame(snr_db, rng, channel=channel)
        detector = self.specs[unit.kind][unit.point]()
        detector.prepare(channel, noise_var=system.noise_var(snr_db))

    def run_unit(self, unit: Unit) -> UnitOutcome:
        """One ``MonteCarloEngine.run`` plus FPGA replay of every frame."""
        system, snr_db, pipe = self.points[unit.point]
        log = DecisionLog()
        engine = MonteCarloEngine(
            system,
            channels=self.params["channels_per_unit"],
            frames_per_channel=self.params["frames_per_channel"],
            seed=unit.seed,
            keep_traces=True,
            heartbeat_every=0,
        )
        log.clock = Timeline()
        point = engine.run(
            RecordingFactory(self.specs[unit.kind][unit.point], log), [snr_db]
        ).points[0]
        log.clock.mark()
        reports = []
        for stats in point.frame_stats:
            reports.append(pipe.decode_report(stats))
            log.clock.mark()
        tally = Tally(bit_errors=point.errors.bit_errors, bits=point.errors.bits)
        for stats, report in zip(point.frame_stats, reports):
            tally.add_stats(stats)
            tally.add_report(report)
        return UnitOutcome(unit, log, tally)

    def _passes(self, plan: list[Unit], passes: int, m: Measurement,
                between=None, reference: bool = True) -> dict[Unit, UnitOutcome]:
        """Decode ``plan`` in passes into ``m``, with reference segments
        after each unit unless ``reference`` is false; returns first-pass
        outcomes."""
        unit_frames = (
            self.params["channels_per_unit"] * self.params["frames_per_channel"]
        )
        first: dict[Unit, UnitOutcome] = {}
        fastest = Fastest()
        refs = Fastest()
        steps = passes * len(plan)
        for i in pass_indices(passes):
            for j, unit in enumerate(plan):
                if between is not None:
                    between(i * len(plan) + j, steps)
                m.attempted += unit_frames
                try:
                    out = self.run_unit(unit)
                except Exception:  # one failing unit must not end the run
                    traceback.print_exc(file=sys.stderr)
                    m.failed += unit_frames
                    continue
                if reference:
                    refs.add(unit, reference_segments(REFERENCE_PER_UNIT))
                m.failed += out.tally.truncated
                ref = first.setdefault(unit, out)
                repeated = out.tally.key() == ref.tally.key() and all(
                    np.array_equal(a, b)
                    for a, b in zip(out.log.decisions, ref.log.decisions)
                )
                if not (repeated and fastest.add(unit, out.log.clock.segments())):
                    m.failed += out.tally.frames
            m.passes += 1
        m.wall_s += fastest.total_s()
        if refs.best:
            m.ref_s = refs.total_s() / (len(refs.best) * REFERENCE_PER_UNIT)
        for unit, out in first.items():
            m.frames += out.tally.frames
            m.tally.merge(out.tally)
            m.latencies_s.extend(fastest.best[unit][out.log.decode_segments])
        return first

    def _check(self, first: dict[Unit, UnitOutcome]) -> int:
        """Frames on which a kind decides differently from the first kind."""
        reference = self.kinds[0]
        bad = 0
        for mine in first.values():
            unit = mine.unit
            if unit.kind == reference:
                continue
            ref = first.get(Unit(unit.group, unit.point, reference, unit.seed))
            if ref is None:  # the reference unit failed; already counted
                continue
            bad += sum(
                not np.array_equal(a, b)
                for a, b in zip(mine.log.decisions, ref.log.decisions)
            )
        return bad

    def measure(self, passes: int, *, units: list[Unit] | None = None,
                between=None) -> Measurement:
        """Decode the plan (or ``units``) in ``passes`` passes, calling
        ``between(step, steps)`` before each of the ``steps`` unit runs."""
        m = Measurement()
        first = self._passes(
            self.units if units is None else units, passes, m, between
        )
        m.failed += self._check(first)
        return m

    def traced(self) -> Traced:
        """Untraced and traced passes, alternated, over a fixed prefix of
        the plan, then one profiled pass over a shorter prefix."""
        prefix = self.group_units(self.params["trace_groups"])
        self.measure(1, units=self.group_units(1))  # warm-up
        recorder = SpanRecorder()
        plain, traced = [], []
        traced_wall = 0.0
        for _ in range(TRACE_ROUNDS):
            plain.append(self.measure(1, units=prefix))
            one = Measurement()
            with instrument(recorder):
                t0 = perf_counter()
                first = self._passes(prefix, 1, one, reference=False)
                traced_wall += perf_counter() - t0
            one.failed += self._check(first)
            traced.append(one)
        profiled = Measurement()
        calls, _first = decode_calls(
            lambda: self._passes(
                self.group_units(self.params["profile_groups"]), 1, profiled
            )
        )
        runs = plain + traced + [profiled]
        unrepeated = sum(
            one.frames for one in traced if one.tally.key() != plain[0].tally.key()
        )
        return Traced(
            recorder=recorder,
            aux=SpanRecorder(),
            wall_s=traced_wall,
            decodes=sum(one.frames for one in traced),
            batched_decodes=0,
            tally=plain[0].tally,
            plain_fps=max(one.frames_per_s for one in plain),
            traced_fps=max(one.frames_per_s for one in traced),
            py_calls_per_node=calls / max(profiled.tally.nodes, 1),
            attempted=sum(one.attempted for one in runs),
            failed=sum(one.failed for one in runs) + unrepeated,
        )


# ---------------------------------------------------------------------------
# Served workload
# ---------------------------------------------------------------------------


def pass_figures(report, wall_s: float, slo_s: float) -> dict:
    """One served pass: throughput, sojourn and scheduler figures."""
    latencies = report.latencies_s
    return {
        "wall_s": wall_s,
        "accepted": report.accepted,
        "offered": report.offered,
        "rejected": report.rejected,
        "service_s": sum(fr.service_s / fr.batch_size for fr in report.results),
        "sojourn_p50_s": nearest_rank(latencies, 50),
        "sojourn_p95_s": nearest_rank(latencies, 95),
        "sojourn_p99_s": nearest_rank(latencies, 99),
        # A rejected frame counts as a miss.
        "slo_attainment": sum(t <= slo_s for t in latencies) / report.offered,
        "batch_fill": report.mean_batch_fill,
        "queue_wait_p95_s": nearest_rank(report.queue_waits_s, 95),
        "batched": sum(fr.batch_size > 1 for fr in report.results),
    }


class Served:
    """``served``: one seeded bursty load trace through ``DetectionService``."""

    def __init__(self, params: dict, seed: int) -> None:
        self.params = params
        self.seed = seed
        self.system = MIMOSystem(
            params["n_antennas"], params["n_antennas"], params["modulation"]
        )
        self.spec = spec(params["kind"], self.system.constellation)
        self.config = SchedulerConfig(
            max_batch=params["max_batch"],
            max_delay_s=params["max_delay_s"],
            max_queue=params["max_queue"],
        )
        order = self.system.constellation.order
        self.pipe = FPGAPipeline(
            PipelineConfig.optimized(order),
            n_tx=params["n_antennas"],
            n_rx=params["n_antennas"],
            order=order,
        )
        self._trace = None
        self._oracle = None

    def _generate_trace(self):
        p = self.params
        return LoadGenerator(
            self.system,
            n_streams=p["n_streams"],
            rate_hz=p["rate_hz"],
            duration_s=p["duration_s"],
            snr_db=p["snr_db"],
            profile=p["profile"],
            seed=self.seed,
            channel_blocks=p["channel_blocks"],
            on_fraction=p["on_fraction"],
        ).trace()

    def load_trace(self):
        """The seeded load trace (generated once)."""
        if self._trace is None:
            self._trace = self._generate_trace()
        return self._trace

    def setup(self) -> None:
        """The whole load trace plus one prepared detector."""
        trace = self.load_trace()
        channel, noise_var = trace.channels[trace.events[0].channel_id]
        self.spec().prepare(channel, noise_var=noise_var)

    def serve_once(self, serve=serve_trace, reference_every: int = 0):
        """One pass: a fresh service and metrics registry over the trace.

        Returns the report, the pass's segments (split at the start and
        end of every ``DetectionService.process`` call) and the durations
        of the reference segments run before the first call and every
        ``reference_every``-th after it (none when 0)."""
        service = DetectionService(self.spec, config=self.config)
        process = service.process
        clock = Timeline()
        reference_at: list[int] = []
        calls = 0

        def timed_process(batch):
            nonlocal calls
            clock.mark()
            if reference_every and calls % reference_every == 0:
                reference_segments(1)
                reference_at.append(clock.mark())
            calls += 1
            decoded = process(batch)
            clock.mark()
            return decoded

        service.process = timed_process
        with use_metrics(MetricsRegistry()):
            clock.marks[0] = perf_counter()
            report = serve(service, self.load_trace(), slo_s=self.params["slo_s"])
            clock.mark()
        segments = clock.segments()
        return (
            report,
            np.delete(segments, reference_at),
            segments[reference_at],
        )

    def _tally(self, report) -> Tally:
        tally = Tally()
        for fr in report.results:
            tally.add_stats(fr.result.stats)
            tally.add_report(self.pipe.decode_report(fr.result.stats))
            sent = np.asarray(fr.request.payload.sent_bits)
            tally.bit_errors += int(np.count_nonzero(fr.result.bits != sent))
            tally.bits += sent.size
        return tally

    @staticmethod
    def _decisions(report) -> dict:
        return {
            (fr.request.payload.stream_id, fr.request.payload.seq): fr
            for fr in report.results
        }

    def _check(self, report) -> int:
        """Served frames that differ from direct per-frame decoding."""
        if self._oracle is None:
            self._oracle = direct_results(self.spec, self.load_trace())
        return len(conformance_mismatches(report, self._oracle))

    def measure(self, passes: int, *, between=None) -> Measurement:
        """Serve the trace ``passes`` times, calling ``between(i, passes)``
        before pass ``i``."""
        m = Measurement()
        first = None
        best_service: dict = {}
        fastest = Fastest()
        refs = Fastest()
        for i in pass_indices(passes):
            if between is not None:
                between(i, passes)
            offered = self.load_trace().n_events
            m.attempted += offered
            m.passes += 1
            try:
                report, segments, reference = self.serve_once(
                    reference_every=REFERENCE_EVERY_BATCHES
                )
            except Exception:  # one failing pass must not end the run
                traceback.print_exc(file=sys.stderr)
                m.failed += offered
                continue
            m.failed += report.rejected
            figures = pass_figures(report, segments.sum(), self.params["slo_s"])
            m.served.append(figures)
            frames = self._decisions(report)
            # Batches depend on arrival times only, so every pass makes
            # the same process calls in the same order.
            if not (fastest.add("pass", segments) and refs.add("pass", reference)):
                m.failed += report.accepted
            if first is None:
                first = frames
                m.tally = self._tally(report)
                m.frames = report.accepted
                m.failed += self._check(report)
                best_service = {k: fr.service_s for k, fr in frames.items()}
                continue
            for key, fr in frames.items():
                ref = first.get(key)
                if ref is None or not np.array_equal(
                    fr.result.indices, ref.result.indices
                ):
                    m.failed += 1
                else:
                    best_service[key] = min(best_service[key], fr.service_s)
        m.wall_s = fastest.total_s()
        if refs.best:
            m.ref_s = refs.total_s() / refs.best["pass"].size
        m.latencies_s = list(best_service.values())
        return m

    def traced(self) -> Traced:
        """Untraced and traced passes, alternated, then a profiled pass."""
        self.serve_once()  # warm-up
        recorder = SpanRecorder()
        traced_serve = recorder.wrap(serve_trace, "serve.trace")
        plain_passes, traced_passes = [], []
        traced_wall = 0.0
        failed = 0
        tally = None
        for _ in range(TRACE_ROUNDS):
            report, segments, _ = self.serve_once()
            wall = segments.sum()
            plain_passes.append(pass_figures(report, wall, self.params["slo_s"]))
            tally = self._tally(report)
            failed += report.rejected + self._check(report)
            with instrument(recorder):
                t0 = perf_counter()
                report, segments, _ = self.serve_once(traced_serve)
                traced_wall += perf_counter() - t0
            wall = segments.sum()
            traced_passes.append(pass_figures(report, wall, self.params["slo_s"]))
            failed += report.rejected + self._check(report)
            if self._tally(report).key() != tally.key():
                failed += report.accepted
        calls, (profiled, _, _) = decode_calls(self.serve_once)
        nodes = sum(fr.result.stats.nodes_expanded for fr in profiled.results)
        accepted = traced_passes[0]["accepted"]
        aux = SpanRecorder()
        with instrument(aux):
            self._generate_trace()
            self._tally(report)
        return Traced(
            recorder=recorder,
            aux=aux,
            wall_s=traced_wall,
            decodes=sum(p["accepted"] for p in traced_passes),
            batched_decodes=sum(p["batched"] for p in traced_passes),
            tally=tally,
            plain_fps=accepted / min(p["wall_s"] for p in plain_passes),
            traced_fps=accepted / min(p["wall_s"] for p in traced_passes),
            py_calls_per_node=calls / max(nodes, 1),
            attempted=sum(p["offered"] for p in plain_passes + traced_passes),
            failed=failed,
            offered=sum(p["offered"] for p in traced_passes),
            traced_pass=traced_passes[0],
            plain_passes=plain_passes,
        )


def make_workload(name: str, params: dict, seed: int):
    if params["type"] == "mc":
        return MonteCarlo(params, seed)
    if params["type"] == "served":
        return Served(params, seed)
    raise ValueError(f"workload {name!r} has unknown type {params['type']!r}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(m: Measurement, min_beyond: int) -> tuple[dict[str, float], list]:
    """End-to-end metrics of an untraced measurement, timings scaled to
    the reference host speed, plus figures for the human-readable report:
    the timings as measured, the tail latency, BER, simulated FPGA time
    per frame, the tail percentile used, the sample count and the passes
    made."""
    tail_q, tail_s = tail(m.latencies_s, min_beyond)
    tally = m.tally
    p50_s = statistics.median(m.latencies_s)
    metrics = {
        "frames_per_s": m.frames_per_s / m.scale,
        "frame_ms_p50": p50_s * m.scale * 1e3,
    }
    notes = [
        ("frames_per_s as timed", m.frames_per_s, "1/s"),
        ("frame_ms_p50 as timed", p50_s * 1e3, "ms"),
        ("reference segment", m.ref_s * 1e3, "ms"),
        ("frame_ms_p99", tail_s * m.scale * 1e3, "ms"),
        ("ber", tally.bit_errors / tally.bits, "ratio"),
        ("fpga_us_per_frame", tally.fpga_s / tally.frames * 1e6, "us"),
        ("frame_ms_p99 percentile", tail_q, "%"),
        ("latency samples", len(m.latencies_s), "count"),
        ("passes", m.passes, "count"),
    ]
    return metrics, notes


#: Served-workload figures reported beside the per-layer metrics.
SERVED_ONLY = (
    "serve_p50_ms",
    "serve_p95_ms",
    "serve_p99_ms",
    "slo_attainment",
    "serve_capacity_fps",
)


def served_figures(passes: list[dict]) -> dict[str, float]:
    """Sojourn percentiles and SLO attainment (median over passes) and
    capacity (accepted frames over summed service seconds, fastest pass)."""
    if not passes:
        return dict.fromkeys(SERVED_ONLY, 0.0)

    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    return {
        "serve_p50_ms": med("sojourn_p50_s") * 1e3,
        "serve_p95_ms": med("sojourn_p95_s") * 1e3,
        "serve_p99_ms": med("sojourn_p99_s") * 1e3,
        "slo_attainment": med("slo_attainment"),
        "serve_capacity_fps": max(p["accepted"] / p["service_s"] for p in passes),
    }


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(t: Traced) -> dict[str, float]:
    """Per-layer metrics of a traced run (all but the host reference)."""
    spans = t.recorder.spans
    decodes = max(t.decodes, 1)
    tally = t.tally
    frames = max(tally.frames, 1)
    durations: dict[str, list[float]] = {}
    for span in spans + t.aux.spans:
        durations.setdefault(span.name, []).append(span.duration)

    def total(*names: str) -> float:
        return sum(sum(durations.get(name, ())) for name in names)

    def count(*names: str) -> int:
        return sum(len(durations.get(name, ())) for name in names)

    # Time of each span's direct children: by child layer, and in solves.
    child_layer: dict[tuple[int, str], float] = {}
    child_solve: dict[int, float] = {}
    for span in spans:
        if span.parent < 0:
            continue
        key = (span.parent, span.layer)
        child_layer[key] = child_layer.get(key, 0.0) + span.duration
        if span.name in ("core.solve", "core.solve_batch"):
            child_solve[span.parent] = (
                child_solve.get(span.parent, 0.0) + span.duration
            )
    mc_run = total("mimo.mc_run")
    mc_detectors = sum(
        seconds for (i, layer), seconds in child_layer.items()
        if layer == "detectors" and spans[i].name == "mimo.mc_run"
    )
    detect_self = [
        span.duration - child_solve.get(i, 0.0)
        for i, span in enumerate(spans)
        if span.name == "detectors.detect"
    ]
    solve = total("core.solve", "core.solve_batch")
    expand = total("core.expand", "core.fused_expand")
    serve_wall = total("serve.trace")
    own = self_times(spans)
    obs_self = sum(s for span, s in zip(spans, own) if span.layer == "obs")
    first_pass = t.traced_pass

    metrics = {
        "mimo.frame_gen_us": _mean(durations.get("mimo.frame_gen", ())) * 1e6,
        "mimo.qr_us": _mean(durations.get("mimo.qr", ())) * 1e6,
        "mimo.mc_self_frac": (mc_run - mc_detectors) / mc_run if mc_run else 0.0,
        "mimo.ber": tally.bit_errors / tally.bits,
        "detectors.prepare_us": _mean(durations.get("detectors.prepare", ())) * 1e6,
        "detectors.detect_self_us": _mean(detect_self) * 1e6,
        "detectors.decode_batch_us_per_frame": (
            total("detectors.decode_batch") / t.batched_decodes * 1e6
            if t.batched_decodes else 0.0
        ),
        "core.solve_us": solve / decodes * 1e6,
        "core.us_per_node": solve / max(tally.nodes * t.decodes / frames, 1) * 1e6,
        "core.expand_us": (
            expand / count("core.expand", "core.fused_expand") * 1e6
            if expand else 0.0
        ),
        "core.expand_frac": expand / solve if solve else 0.0,
        "core.nodes_per_frame": tally.nodes / frames,
        "core.expand_calls_per_frame": tally.expand_calls / frames,
        "core.gemm_flops_per_frame": tally.flops / frames,
        "core.prune_ratio": tally.pruned / tally.generated if tally.generated else 0.0,
        "core.frontier_peak": float(tally.frontier_peak),
        "core.py_calls_per_node": t.py_calls_per_node,
        "core.fused_calls_per_frame": count("core.fused_expand") / decodes,
        "fpga.replay_us_per_frame": (
            total("fpga.replay") / count("fpga.replay") * 1e6
            if count("fpga.replay") else 0.0
        ),
        "fpga.cycles_per_frame": tally.cycles / frames,
        "serve.sched_us_per_frame": (
            total("serve.submit", "serve.poll") / t.offered * 1e6
            if t.offered else 0.0
        ),
        "serve.self_frac": (
            (serve_wall - total("serve.process")) / serve_wall if serve_wall else 0.0
        ),
        "serve.batch_fill": first_pass.get("batch_fill", 0.0),
        "serve.queue_wait_p95_ms": first_pass.get("queue_wait_p95_s", 0.0) * 1e3,
        "serve.rejected_frac": (
            first_pass["rejected"] / first_pass["offered"] if first_pass else 0.0
        ),
        "obs.metric_updates_per_frame": count("obs.update") / decodes,
        "obs.us_per_frame": obs_self / decodes * 1e6,
        "bench.trace_overhead_frac": 1.0 - t.traced_fps / t.plain_fps,
    }
    shares = layer_self_seconds(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = shares[layer] / t.wall_s
    metrics["bench.self_share"] = 1.0 - sum(shares.values()) / t.wall_s
    metrics.update(served_figures(t.plain_passes))
    return metrics
