"""Detector shell around :class:`repro.core.traversal.TraversalEngine`.

Every tree-search detector in the zoo is the same machine: QR-prepare a
channel, map each received vector into the triangular domain, run a
search policy against an evaluation backend, and fold the winning path
back to antenna order. :class:`EngineDetector` implements that shell
once — ``prepare`` / ``detect`` / ``solve`` / ``decode_batch``, obs
spans and counters, per-frame wall-time accounting — and the concrete
detectors (:class:`~repro.detectors.sphere.SphereDecoder`,
:class:`~repro.detectors.sd_bfs.GemmBfsDecoder`,
:class:`~repro.detectors.geosphere.GeosphereDecoder`,
:class:`~repro.detectors.kbest.KBestDecoder`,
:class:`~repro.detectors.fsd.FixedComplexityDecoder`) reduce to a
policy choice plus a handful of class attributes.

A consequence the registry relies on: every engine detector gets the
cross-frame fused ``decode_batch`` path and emits the uniform
:class:`~repro.core.stats.BatchEvent` trace the FPGA pipeline simulator
replays — including K-best and FSD, which previously had neither.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from itertools import chain

import numpy as np

from repro.core.gemm import ChannelKernel
from repro.core.lattice import resolve_lattice
from repro.core.metric import resolve_metric
from repro.core.traversal import TraversalEngine, TraversalPolicy
from repro.detectors.base import DecodeStats, DetectionResult, Detector
from repro.mimo.preprocessing import (
    QRResult,
    effective_receive,
    qr_decompose,
    sorted_qr,
)
from repro.obs.metrics import current_metrics, exponential_buckets
from repro.obs.tracer import current_tracer
from repro.util.timing import Timer
from repro.util.validation import check_finite, check_matrix, check_vector


#: Buckets for the frontier-peak histogram: frontier sizes are node
#: counts, so edges run 1, 2, 4, ... ~=1M rather than the default
#: seconds-scaled buckets.
FRONTIER_BUCKETS = exponential_buckets(1.0, 2.0, 21)

#: ``DecodeStats`` totals every detector publishes as ``<root>.<field>``
#: tracer counters, on the per-frame and the batched path alike.
COUNTED_FIELDS = (
    "nodes_expanded",
    "nodes_generated",
    "nodes_pruned",
    "leaves_reached",
    "gemm_calls",
    "gemm_flops",
)


class EngineDetector(Detector):
    """Shared two-phase shell for traversal-engine detectors.

    Subclasses implement :meth:`_policy` (a fresh
    :class:`TraversalPolicy` built from current instance attributes, so
    post-construction attribute tweaks — e.g. tests setting
    ``decoder.max_nodes`` — keep working) and set the class attributes
    below to fix their trace vocabulary.
    """

    #: Prefix of every span/counter this detector emits (``sd``, ``bfs``…).
    trace_root = "sd"
    #: Extra outer span prefix for re-badged configurations (Geosphere
    #: wraps the inherited ``sd.*`` spans in ``geosphere.*`` ones so its
    #: time stays attributable in mixed-detector traces).
    wrapper_span: str | None = None
    #: Column ordering for the QR step: ``"natural"`` (plain QR) or
    #: ``"sqrd"`` (sorted QR). May be overridden per instance.
    ordering = "natural"
    #: Partial-distance metric (name or instance) threaded to the
    #: evaluators, flop accounting and radius policy. May be overridden
    #: per instance.
    metric = "l2"
    #: Lattice representation the search runs over (name or instance);
    #: applied at :meth:`prepare` time. May be overridden per instance.
    lattice = "complex"

    constellation = None
    radius_policy = None

    @property
    def metric_obj(self):
        """Resolved :class:`~repro.core.metric.PartialDistanceMetric`."""
        obj = getattr(self, "_metric_obj", None)
        if obj is None:
            obj = self._metric_obj = resolve_metric(self.metric)
        return obj

    @property
    def lattice_rep(self):
        """Resolved :class:`~repro.core.lattice.LatticeRepresentation`."""
        rep = getattr(self, "_lattice_rep", None)
        if rep is None:
            rep = self._lattice_rep = resolve_lattice(self.lattice)
        return rep

    @property
    def search_constellation(self):
        """Alphabet enumerated per tree level (PAM under real lattices)."""
        const = getattr(self, "_search_const", None)
        if const is None:
            const = self._search_const = self.lattice_rep.search_constellation(
                self.constellation
            )
        return const

    def _resolve_axes(self) -> None:
        """Eagerly resolve the metric/lattice axes.

        Called by subclass constructors so misconfiguration — an unknown
        name, or a real lattice over a non-square-QAM alphabet — fails
        at construction instead of at first ``prepare``.
        """
        self._metric_obj = resolve_metric(self.metric)
        self._lattice_rep = resolve_lattice(self.lattice)
        self._search_const = self._lattice_rep.search_constellation(
            self.constellation
        )

    def _policy(self) -> TraversalPolicy:
        raise NotImplementedError

    def _engine(self) -> TraversalEngine:
        return TraversalEngine(
            self.search_constellation,
            self._policy(),
            radius_policy=self.radius_policy,
            metric=self.metric_obj,
        )

    def _detect_span_args(self) -> dict:
        return {"detector": self.name}

    def _check_channel(self, channel: np.ndarray) -> None:
        """Subclass hook for extra channel validation (e.g. FSD's rho)."""

    # ------------------------------------------------------------------
    # Detector protocol
    # ------------------------------------------------------------------

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = check_finite(check_matrix(channel, "channel"), "channel")
        if noise_var < 0:
            raise ValueError(f"noise_var must be non-negative, got {noise_var}")
        self._check_channel(channel)
        self._channel = channel
        # The lattice representation decides which system the QR (and
        # therefore the whole tree search) runs on: the complex channel
        # itself, or its 2N x 2M real decomposition. The complex
        # representation is a strict identity — same arrays, same ops.
        rep = self.lattice_rep
        search_channel = rep.map_channel(channel)
        self._qr: QRResult = (
            sorted_qr(search_channel)
            if self.ordering == "sqrd"
            else qr_decompose(search_channel)
        )
        # One per-channel kernel for the whole fading block: R is shared
        # by every frame, so triangularity validation and the per-level
        # diag/row tables are computed here once instead of per frame.
        self._kernel = ChannelKernel(
            self._qr.r, self.search_constellation, metric=self.metric_obj
        )
        self._noise_var = rep.scale_noise(noise_var)
        self._prepared = True

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = check_vector(
            received, "received", length=self._channel.shape[0]
        )
        check_finite(received, "received")
        tracer = current_tracer()
        timer = Timer()
        stats = DecodeStats()
        with ExitStack() as spans:
            if self.wrapper_span is not None:
                spans.enter_context(tracer.span(f"{self.wrapper_span}.detect"))
            spans.enter_context(
                tracer.span(
                    f"{self.trace_root}.detect", **self._detect_span_args()
                )
            )
            with timer:
                ybar = effective_receive(
                    self._qr, self.lattice_rep.map_received(received)
                )
                incumbent, _bound = self._engine().solve(
                    self._qr.r, ybar, self._noise_var, stats, tracer,
                    kernel=self._kernel,
                )
        stats.wall_time_s = timer.elapsed
        self._publish([stats], tracer, seconds=timer.elapsed)
        return self._fold_back(received, incumbent, stats)

    def solve(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        noise_var: float = 0.0,
    ) -> tuple[np.ndarray, float, DecodeStats]:
        """Decode a pre-triangularised system ``min ||ybar - R s||^2``.

        Lower-level entry point than :meth:`detect`: no QR, no
        permutation handling — useful when the caller owns the
        preprocessing (e.g. the reduced-precision ablation quantises R
        and ybar itself).

        Returns ``(indices_by_level, reduced_metric, stats)`` where
        ``indices_by_level[k]`` is the constellation index of level ``k``.
        """
        stats = DecodeStats()
        tracer = current_tracer()
        # Reuse the prepare-time channel kernel only when the caller is
        # decoding against the prepared factor itself; external callers
        # may pass a different R (e.g. the quantised-R ablation), which
        # gets its own validated kernel.
        kernel = (
            self._kernel
            if getattr(self, "_prepared", False) and r is self._qr.r
            else None
        )
        incumbent, bound = self._engine().solve(
            r, ybar, noise_var, stats, tracer, kernel=kernel
        )
        self._publish([stats], tracer)
        return incumbent, bound, stats

    def decode_batch(self, received: np.ndarray) -> list[DetectionResult]:
        """Decode ``B`` received vectors with cross-frame fused GEMMs.

        All rows are decoded against the *prepared* channel (the
        block-fading assumption), so every frame shares the triangular
        factor and their same-level node pools stack into single
        :class:`~repro.core.gemm.BatchedGemmEvaluator` calls — the
        paper's BLAS-2 -> BLAS-3 refactor applied across frames. Each
        frame's search runs its own unmodified schedule in lockstep
        (:func:`~repro.core.lockstep.drive_lockstep`), so the returned
        decisions, metrics and per-frame search statistics are
        **bit-identical** to calling :meth:`detect` per row, and so are
        the published tracer counters and ``traversal.*`` series; only
        ``wall_time_s`` differs (the batch's wall time split evenly, as
        per-frame timing is not separable inside a fused GEMM).
        """
        self._require_prepared()
        received = np.asarray(received)
        if received.ndim != 2 or received.shape[1] != self._channel.shape[0]:
            raise ValueError(
                f"received must have shape (B, {self._channel.shape[0]}), "
                f"got {received.shape}"
            )
        check_finite(received, "received")
        if received.shape[0] == 0:
            return []
        n_frames = received.shape[0]
        tracer = current_tracer()
        timer = Timer()
        stats_list = [DecodeStats() for _ in range(n_frames)]
        with ExitStack() as spans:
            if self.wrapper_span is not None:
                spans.enter_context(
                    tracer.span(
                        f"{self.wrapper_span}.decode_batch", frames=n_frames
                    )
                )
            spans.enter_context(
                tracer.span(
                    f"{self.trace_root}.decode_batch",
                    detector=self.name,
                    frames=n_frames,
                )
            )
            with timer:
                rep = self.lattice_rep
                ybars = np.stack(
                    [
                        effective_receive(self._qr, rep.map_received(row))
                        for row in received
                    ]
                )
                outcomes, _backend = self._engine().solve_batch(
                    self._qr.r, ybars, self._noise_var, stats_list,
                    kernel=self._kernel,
                )
        self._publish(stats_list, tracer, seconds=timer.elapsed)
        results: list[DetectionResult] = []
        per_frame_s = timer.elapsed / n_frames
        for f in range(n_frames):
            incumbent, _bound = outcomes[f]
            stats = stats_list[f]
            stats.wall_time_s = per_frame_s
            results.append(self._fold_back(received[f], incumbent, stats))
        return results

    # ------------------------------------------------------------------

    def _publish(self, stats_list, tracer, *, seconds: float | None = None) -> None:
        """Derive every counter and metric series of one decode call.

        The one publish step of :meth:`detect`, :meth:`solve` and
        :meth:`decode_batch`: the search kept its counts only in each
        frame's :class:`DecodeStats`, and this turns them — off the hot
        path, once per call — into

        * ``<root>.<field>`` tracer counters for :data:`COUNTED_FIELDS`;
        * per-level ``traversal.nodes_expanded`` / ``.expansions`` /
          ``.nodes_generated`` (folded from the ``batches`` trace,
          ``generated = nodes * order``) and ``traversal.nodes_pruned``
          (from ``level_pruned``) counters, plus one
          ``traversal.frontier_peak`` observation per frame;
        * with ``seconds`` (the call's decode time), ``detector.frames``
          and one ``detector.decode_seconds`` observation of the mean
          per-frame time.

        A batch and the same frames decoded one by one publish the same
        counters and ``traversal.*`` series.
        """
        if tracer.enabled:
            for name in COUNTED_FIELDS:
                tracer.count(
                    f"{self.trace_root}.{name}",
                    sum(getattr(st, name) for st in stats_list),
                )
        metrics = current_metrics()
        if not metrics.enabled:
            return
        det = self.name
        # One decode call searches one tree shape: every frame's
        # per-level list has the same length.
        level_pruned = list(map(sum, zip(*[st.level_pruned for st in stats_list])))
        level_nodes = [0] * len(level_pruned)
        level_exps = [0] * len(level_pruned)
        events = Counter(chain.from_iterable([st.batches for st in stats_list]))
        for (level, pool_size), times in events.items():
            level_nodes[level] += pool_size * times
            level_exps[level] += times
        nodes = metrics.counter("traversal.nodes_expanded")
        expansions = metrics.counter("traversal.expansions")
        generated = metrics.counter("traversal.nodes_generated")
        pruned = metrics.counter("traversal.nodes_pruned")
        order = self.search_constellation.order
        for level, n_exp in enumerate(level_exps):
            n_pruned = level_pruned[level]
            if not n_exp and not n_pruned:
                continue
            lvl = str(level)
            n_nodes = level_nodes[level]
            nodes.inc(n_nodes, detector=det, level=lvl)
            expansions.inc(n_exp, detector=det, level=lvl)
            generated.inc(n_nodes * order, detector=det, level=lvl)
            if n_pruned:
                pruned.inc(n_pruned, detector=det, level=lvl)
        frontier = metrics.histogram(
            "traversal.frontier_peak", edges=FRONTIER_BUCKETS
        )
        for stats in stats_list:
            frontier.observe(stats.max_list_size, detector=det)
        if seconds is not None:
            n = len(stats_list)
            metrics.counter("detector.frames").inc(n, detector=det)
            metrics.histogram("detector.decode_seconds").observe(
                seconds / n, detector=det
            )

    def _fold_back(
        self,
        received: np.ndarray,
        incumbent: np.ndarray,
        stats: DecodeStats,
    ) -> DetectionResult:
        """Map a tree-level decision back to antenna order + true metric."""
        # ``incumbent`` is indexed by tree level == factorised column;
        # map back to the original antenna order (still in the lattice
        # representation's column layout), then fold real-lattice PAM
        # pairs back to one QAM index per antenna (identity for the
        # complex representation).
        indices = self._qr.unpermute(incumbent)
        indices = self.lattice_rep.fold_indices(
            indices, self._channel.shape[1], self.constellation
        )
        symbols = self.constellation.map_indices(indices)
        bits = self.constellation.indices_to_bits(indices)
        residual = received - self._channel @ symbols
        metric = float(np.real(np.vdot(residual, residual)))
        return DetectionResult(
            indices=indices,
            symbols=symbols,
            bits=bits,
            metric=metric,
            stats=stats,
        )
