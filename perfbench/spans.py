"""Span recording around calls into each layer's public functions.

The traced run wraps a fixed list of public functions and methods of
``repro`` (see :data:`BOUNDARIES`) for the duration of a ``with
instrument(recorder)`` block and restores them afterwards; the program's
source is never modified. Each call becomes one span ``(name, start,
end, parent, frame)`` kept in memory and written out once, at exit.

A span's layer is the prefix of its name (``core.expand`` -> ``core``).
A layer's self time is the summed duration of its spans minus the part
of each span covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator, Sequence

#: Layers of the program, in report order; ``bench`` is the harness itself.
LAYERS = ("mimo", "detectors", "core", "fpga", "serve", "obs")

#: Boundaries traced: (module, class or None, attribute, span name, opens
#: a frame). Module-level functions are patched in the module that calls
#: them (``repro.detectors.engine`` binds the preprocessing functions by
#: name), so the call from the detector shell into ``mimo`` is the one
#: that is seen.
BOUNDARIES: tuple[tuple[str, str | None, str, str, bool], ...] = (
    ("repro.mimo.montecarlo", "MonteCarloEngine", "run", "mimo.mc_run", False),
    ("repro.mimo.system", "MIMOSystem", "random_frame", "mimo.frame_gen", False),
    ("repro.mimo.channel", "ChannelModel", "draw_channel", "mimo.channel", False),
    ("repro.detectors.engine", None, "qr_decompose", "mimo.qr", False),
    ("repro.detectors.engine", None, "sorted_qr", "mimo.qr", False),
    ("repro.detectors.engine", None, "effective_receive", "mimo.effective_receive", False),
    ("repro.detectors.registry", "DetectorSpec", "__call__", "detectors.build", False),
    ("repro.detectors.engine", "EngineDetector", "prepare", "detectors.prepare", False),
    ("repro.detectors.engine", "EngineDetector", "detect", "detectors.detect", True),
    ("repro.detectors.engine", "EngineDetector", "decode_batch", "detectors.decode_batch", True),
    ("repro.core.traversal", "TraversalEngine", "solve", "core.solve", False),
    ("repro.core.traversal", "TraversalEngine", "solve_batch", "core.solve_batch", False),
    ("repro.core.gemm", "ChannelKernel", "__init__", "core.kernel", False),
    ("repro.core.gemm", "GemmEvaluator", "expand_unchecked", "core.expand", False),
    ("repro.core.gemm", "BatchedGemmEvaluator", "expand_unchecked", "core.fused_expand", False),
    ("repro.fpga.pipeline", "FPGAPipeline", "decode_report", "fpga.replay", False),
    ("repro.serve.service", "DetectionService", "process", "serve.process", False),
    ("repro.serve.service", "DetectionService", "finish", "serve.finish", False),
    ("repro.serve.scheduler", "BatchScheduler", "submit", "serve.submit", False),
    ("repro.serve.scheduler", "BatchScheduler", "poll", "serve.poll", False),
    ("repro.obs.metrics", "CounterHandle", "inc", "obs.update", False),
    ("repro.obs.metrics", "GaugeHandle", "set", "obs.update", False),
    ("repro.obs.metrics", "HistogramHandle", "observe", "obs.update", False),
    ("repro.obs.metrics", "MetricsRegistry", "counter", "obs.lookup", False),
    ("repro.obs.metrics", "MetricsRegistry", "gauge", "obs.lookup", False),
    ("repro.obs.metrics", "MetricsRegistry", "histogram", "obs.lookup", False),
    ("repro.obs.metrics", "MetricsRegistry", "tick", "obs.lookup", False),
)


@dataclass
class Span:
    """One recorded call: ``parent`` and ``frame`` are -1 when absent."""

    name: str
    start: float
    end: float
    parent: int
    frame: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list plus the stack of open spans.

    A span that opens a frame (a ``detect`` or ``decode_batch`` call)
    takes the next frame id; every other span inherits its parent's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_frame = 0

    def wrap(self, fn, name: str, *, opens_frame: bool = False):
        """``fn`` with every call recorded as a span called ``name``."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_frame:
                frame = self._next_frame
                self._next_frame += 1
            else:
                frame = spans[parent].frame if parent >= 0 else -1
            span = Span(name, perf_counter(), 0.0, parent, frame)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def write(self, path: Path) -> None:
        """Dump every span as JSON (one list per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.name, s.start, s.end, s.parent, s.frame] for s in self.spans
        ]
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "frame"],
                        "spans": rows})
        )


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Record every :data:`BOUNDARIES` call into ``recorder`` while open."""
    saved = []
    try:
        for module_name, cls_name, attr, name, opens_frame in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr,
                    recorder.wrap(original, name, opens_frame=opens_frame))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def layer_self_seconds(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per layer (every layer of :data:`LAYERS` present)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals
