"""Dataflow pipeline simulator (paper Fig. 4 + section III).

The accelerator is a chain of HLS dataflow modules::

    branching -> prefetch/double-buffer -> GEMM engine -> NORM -> sort/prune

driven by the search-list controller, with the tree held in the MST. The
simulator replays a decoder's :class:`~repro.detectors.base.BatchEvent`
trace — one event per (level, pool) expansion the *actual algorithm*
performed — through per-module cycle models and reports decode time at
the configured clock.

Two presets mirror the paper's designs:

* :meth:`PipelineConfig.baseline` — the direct HLS port: 253 MHz, small
  GEMM mesh with II=4 (loop-carried fp accumulation), no double
  buffering, no dataflow overlap between modules, heavy control logic.
* :meth:`PipelineConfig.optimized` — the paper's design: 300 MHz,
  larger II=1 systolic mesh, double-buffered prefetch, fully overlapped
  dataflow stages and per-modulation specialised (thin) control.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import log2

from repro.detectors.base import BatchEvent, DecodeStats
from repro.fpga.device import AlveoU280, DeviceSpec
from repro.fpga.gemm_engine import SystolicGemmEngine
from repro.fpga.memory import hbm_stream_cycles
from repro.fpga.prefetch import PrefetchUnit
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer
from repro.util.validation import check_positive_int

#: The five dataflow modules of the accelerator (paper Fig. 4), in
#: pipeline order. ``stage_breakdown()`` attributes every cycle of a
#: decode to one of these, plus the bookkeeping buckets below.
PIPELINE_STAGES = ("branch", "prefetch", "gemm", "norm", "prune")

#: Non-module buckets of the exact attribution: dataflow fill bubbles,
#: control/round-trip, radius updates, per-decode setup, host transfer.
OVERHEAD_BUCKETS = ("fill", "control", "radius", "setup", "transfer")

#: NORM-module micro-architectures. ``"mac"`` is the paper's fp32
#: multiply-accumulate datapath for the ℓ₂-squared partial distance;
#: ``"compare"`` is the max/compare tree the ℓ∞ metric admits (Seethaler
#: & Bölcskei) — no multipliers, so the stage initiates faster, drains
#: in fewer cycles and frees DSP slices (see ``fpga/resources.py``).
NORM_KINDS = ("mac", "compare")


def _mesh_cols(order: int) -> int:
    """GEMM mesh width for a per-modulation specialised design.

    The evaluation GEMM's output width is the modulation factor ``P``
    (one column per child), so the mesh is 8 lanes wide for 4-QAM and 16
    for 16-QAM — matching Table I's DSP growth with modulation.
    """
    check_positive_int(order, "order")
    return max(8, min(order, 32))


def _roundtrip_cycles(order: int, *, optimized: bool) -> int:
    """Loop-carried pop -> expand -> insert latency for one batch.

    The search list and MST are walked serially for each of the ``P``
    children (sorted insertion + state-block allocation), so the round
    trip grows with the modulation factor. The affine coefficients are
    calibrated against the paper's absolute decode-time anchors (10x10:
    Fig. 6 for 4-QAM, Fig. 10's ~4x speedup for 16-QAM) — see
    EXPERIMENTS.md, "FPGA model calibration".
    """
    if optimized:
        return 255 + 64 * order
    return 850 + 212 * order


@dataclass(frozen=True)
class PipelineConfig:
    """Micro-architecture parameters of one accelerator build."""

    name: str
    freq_mhz: float
    gemm: SystolicGemmEngine
    prefetch: PrefetchUnit
    dataflow_overlap: bool
    control_overhead_cycles: int
    branch_ii: int
    branch_latency: int
    norm_ii: int
    norm_latency: int
    sorted_insertion: bool
    list_cycles_per_child: int
    radius_update_cycles: int
    pipeline_fill_cycles: int
    #: Latency of the serial pop -> MST read -> ... -> list-insert round
    #: trip that sequences consecutive batches (the loop-carried
    #: dependency of the tree search; it cannot be pipelined away).
    #: Calibrated against the paper's absolute decode-time anchors — see
    #: EXPERIMENTS.md, "FPGA model calibration".
    node_roundtrip_cycles: int = 0
    #: Per-decode fixed work: ybar = Q^H y, list/MST initialisation and
    #: radius seeding. Calibrated with the same anchors.
    setup_cycles: int = 0
    #: NORM datapath flavour (:data:`NORM_KINDS`): ``"mac"`` for the
    #: ℓ₂-squared multiply-accumulate, ``"compare"`` for the ℓ∞ max
    #: tree. ``norm_ii``/``norm_latency`` must be set consistently (the
    #: presets do this); the flag also drives the resource and power
    #: deltas in :mod:`repro.fpga.resources` / :mod:`repro.fpga.power`.
    norm_kind: str = "mac"

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise ValueError("freq_mhz must be positive")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(
                f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}"
            )
        for name in (
            "control_overhead_cycles",
            "branch_ii",
            "branch_latency",
            "norm_ii",
            "norm_latency",
            "list_cycles_per_child",
            "radius_update_cycles",
            "pipeline_fill_cycles",
            "node_roundtrip_cycles",
            "setup_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def baseline(cls, order: int = 4, *, norm_kind: str = "mac") -> "PipelineConfig":
        """Direct HLS port of the CPU code (paper's FPGA-baseline).

        ``order`` is the modulation factor; the paper builds a separate
        design per modulation (section III-C4), whose GEMM mesh is sized
        to the ``P`` children emitted per node. ``norm_kind="compare"``
        swaps the NORM MAC datapath for the ℓ∞ max tree: a comparator
        initiates every cycle even in the un-pipelined baseline (no
        loop-carried fp accumulation to schedule around) and its tree
        depth is a fraction of the fp-adder chain.
        """
        compare = norm_kind == "compare"
        return cls(
            name="fpga-baseline" + ("-linf" if compare else ""),
            freq_mhz=253.0,
            gemm=SystolicGemmEngine(
                rows=8,
                cols=_mesh_cols(order),
                pipeline_depth=16,
                initiation_interval=4,
                dsps_per_mac=4,
            ),
            prefetch=PrefetchUnit(double_buffered=False, hbm_channels=1),
            dataflow_overlap=False,
            control_overhead_cycles=96,
            branch_ii=2,
            branch_latency=8,
            norm_ii=1 if compare else 4,
            norm_latency=4 if compare else 16,
            sorted_insertion=True,
            list_cycles_per_child=16,
            radius_update_cycles=8,
            pipeline_fill_cycles=32,
            node_roundtrip_cycles=_roundtrip_cycles(order, optimized=False),
            setup_cycles=100_000,
            norm_kind=norm_kind,
        )

    @classmethod
    def optimized(cls, order: int = 4, *, norm_kind: str = "mac") -> "PipelineConfig":
        """The paper's optimised design (section III-C).

        ``norm_kind="compare"`` models the ℓ∞ variant: II is already 1,
        so only the drain latency shrinks (comparator tree vs fp-adder
        chain) — plus the fabric/power savings in the companion models.
        """
        compare = norm_kind == "compare"
        return cls(
            name="fpga-optimized" + ("-linf" if compare else ""),
            freq_mhz=300.0,
            gemm=SystolicGemmEngine(
                rows=8,
                cols=_mesh_cols(order),
                pipeline_depth=12,
                initiation_interval=1,
                dsps_per_mac=4,
            ),
            prefetch=PrefetchUnit(double_buffered=True, hbm_channels=4),
            dataflow_overlap=True,
            control_overhead_cycles=8,
            branch_ii=1,
            branch_latency=4,
            norm_ii=1,
            norm_latency=2 if compare else 8,
            sorted_insertion=True,
            list_cycles_per_child=4,
            radius_update_cycles=2,
            pipeline_fill_cycles=16,
            node_roundtrip_cycles=_roundtrip_cycles(order, optimized=True),
            setup_cycles=51_600,
            norm_kind=norm_kind,
        )


@dataclass
class PipelineReport:
    """Cycle accounting for one decode.

    Two complementary views of where cycles go:

    ``breakdown``
        Raw *busy* cycles per module. Under dataflow overlap modules run
        concurrently, so these sum to **more** than ``total_cycles`` —
        useful for utilisation, wrong for attribution.
    ``attributed`` / :meth:`stage_breakdown`
        Exact attribution: each batch's wall cycles are charged to the
        critical (slowest) stage of that batch plus explicit ``fill``/
        ``control``/``radius``/``setup``/``transfer`` buckets, so the
        values **sum exactly to** ``total_cycles`` (asserted in
        ``tests/test_pipeline.py``).
    """

    config_name: str
    freq_mhz: float
    total_cycles: int
    transfer_cycles: int
    batches: int
    breakdown: dict[str, int] = field(default_factory=dict)
    attributed: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Decode time implied by the cycle count at the clock frequency."""
        return self.total_cycles / (self.freq_mhz * 1e6)

    @property
    def milliseconds(self) -> float:
        """Decode time in ms (the unit of the paper's figures)."""
        return self.seconds * 1e3

    @property
    def transfer_fraction(self) -> float:
        """Share of time spent on the one-time host->HBM staging.

        The paper measures this below 3%; ``tests/test_pipeline.py``
        checks the model agrees on realistic traces.
        """
        return self.transfer_cycles / self.total_cycles if self.total_cycles else 0.0

    def stage_breakdown(self) -> dict[str, int]:
        """Per-stage cycle attribution summing exactly to the total.

        Keys are the five pipeline modules (:data:`PIPELINE_STAGES`)
        plus the overhead buckets (:data:`OVERHEAD_BUCKETS`). See
        ``docs/observability.md`` for how to read it.
        """
        return dict(self.attributed)

    def format_stage_breakdown(self) -> str:
        """Aligned-text rendering of :meth:`stage_breakdown`."""
        rows = [
            (name, cycles, 100.0 * cycles / self.total_cycles)
            for name, cycles in sorted(
                self.attributed.items(), key=lambda kv: -kv[1]
            )
            if self.total_cycles
        ]
        width = max((len(name) for name, *_ in rows), default=5)
        lines = [
            f"== {self.config_name}: {self.total_cycles} cycles over "
            f"{self.batches} batches ({self.milliseconds:.3f} ms @ "
            f"{self.freq_mhz:g} MHz) =="
        ]
        for name, cycles, pct in rows:
            lines.append(f"{name.ljust(width)}  {cycles:>12d}  {pct:6.2f}%")
        return "\n".join(lines)


class FPGAPipeline:
    """Replays decode traces through the module cycle models."""

    def __init__(
        self,
        config: PipelineConfig,
        *,
        n_tx: int,
        n_rx: int,
        order: int,
        device: DeviceSpec = AlveoU280,
    ) -> None:
        self.config = config
        self.n_tx = check_positive_int(n_tx, "n_tx")
        self.n_rx = check_positive_int(n_rx, "n_rx")
        self.order = check_positive_int(order, "order")
        self.device = device
        if config.freq_mhz > device.max_freq_mhz + 1e-9:
            raise ValueError(
                f"config clock {config.freq_mhz} MHz exceeds device limit "
                f"{device.max_freq_mhz} MHz"
            )

    # ------------------------------------------------------------------
    # Per-module cycle models
    # ------------------------------------------------------------------

    def _sort_cycles(self, children: int) -> int:
        """Pruning-module sort: bitonic network over one node's children.

        Depth of a bitonic sorter on P elements is
        ``log2(P) * (log2(P)+1) / 2`` stages; the stream of ``children``
        results passes through at II=1.
        """
        p = self.order
        stages = int(log2(p) * (log2(p) + 1) / 2) if p > 1 else 0
        if not self.config.sorted_insertion:
            stages = 0
        return children + stages

    def batch_cycles(self, event: BatchEvent) -> dict[str, int]:
        """Raw cycle breakdown for one expansion batch.

        ``prefetch`` and ``gemm`` are the two halves of the evaluation
        stage; ``evaluate`` is their combination (``max`` when the fetch
        is double-buffered behind the compute, the sum otherwise).
        Module values are *busy* cycles — under dataflow overlap they
        exceed ``total``; use :meth:`batch_attribution` for an exact
        accounting.
        """
        level, pool = event.level, event.pool_size
        if not 0 <= level < self.n_tx:
            raise ValueError(f"event level {level} out of range")
        check_positive_int(pool, "pool_size")
        cfg = self.config
        p = self.order
        children = pool * p
        depth = self.n_tx - 1 - level  # known symbols per pool node
        # Branching: emit `children` tree-state updates.
        branch = children * cfg.branch_ii + cfg.branch_latency
        # Evaluation GEMM: (pool, depth+1) @ (depth+1, P) complex.
        gemm = cfg.gemm.cycles(pool, p, depth + 1)
        # Prefetch: R row + pool tree-state blocks + constellation column.
        words = 2 * (depth + 1) * (pool + 1) + 2 * p
        fetch = cfg.prefetch.fetch_cycles(words)
        evaluation = cfg.prefetch.effective_cycles(gemm, words)
        # NORM: one PD per child.
        norm = children * cfg.norm_ii + cfg.norm_latency
        # Sort + list insertion (the pruning module).
        prune = self._sort_cycles(children) + children * cfg.list_cycles_per_child
        dataflow = {
            "branch": branch,
            "evaluate": evaluation,
            "norm": norm,
            "prune": prune,
        }
        if cfg.dataflow_overlap:
            total = max(dataflow.values()) + cfg.pipeline_fill_cycles
        else:
            total = sum(dataflow.values())
        stages = dict(dataflow)
        stages["prefetch"] = fetch
        stages["gemm"] = gemm
        stages["control"] = cfg.control_overhead_cycles + cfg.node_roundtrip_cycles
        stages["total"] = (
            total + cfg.control_overhead_cycles + cfg.node_roundtrip_cycles
        )
        return stages

    def batch_attribution(self, event: BatchEvent) -> dict[str, int]:
        """Exact per-stage attribution of one batch's wall cycles.

        Keys: the five modules of :data:`PIPELINE_STAGES` plus ``fill``
        and ``control``; the values sum exactly to
        ``batch_cycles(event)["total"]``. Under dataflow overlap the
        whole stage time is charged to the *critical* (slowest) module —
        the others run hidden beneath it — and the pipeline fill bubble
        is reported separately. The evaluation charge lands on ``gemm``
        or ``prefetch`` depending on which dominates (both, sequentially,
        without double buffering).
        """
        return self._attribute(self.batch_cycles(event))

    def _attribute(self, stages: dict[str, int]) -> dict[str, int]:
        cfg = self.config
        out = {name: 0 for name in PIPELINE_STAGES}
        out["fill"] = 0

        def charge_evaluate() -> None:
            if cfg.prefetch.double_buffered:
                # Fetch hides behind compute (or vice versa): charge the
                # dominant half the full combined stage time.
                key = "gemm" if stages["gemm"] >= stages["prefetch"] else "prefetch"
                out[key] += stages["evaluate"]
            else:
                out["gemm"] += stages["gemm"]
                out["prefetch"] += stages["prefetch"]

        dataflow = {
            name: stages[name] for name in ("branch", "evaluate", "norm", "prune")
        }
        if cfg.dataflow_overlap:
            critical = max(dataflow, key=dataflow.get)
            if critical == "evaluate":
                charge_evaluate()
            else:
                out[critical] += dataflow[critical]
            out["fill"] += cfg.pipeline_fill_cycles
        else:
            out["branch"] += stages["branch"]
            out["norm"] += stages["norm"]
            out["prune"] += stages["prune"]
            charge_evaluate()
        out["control"] = stages["control"]
        return out

    def transfer_cycles(self) -> int:
        """One-time host -> HBM staging of H, y and constellation tables."""
        words = 2 * self.n_tx * self.n_rx + 2 * self.n_rx + 2 * self.order
        return hbm_stream_cycles(words, self.device.hbm_channels)

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------

    def decode_report(self, stats: DecodeStats) -> PipelineReport:
        """Total decode time for one decode's statistics record.

        Requires the per-expansion batch trace every tree-search decoder
        records (a Monte Carlo engine keeps it only with ``keep_traces``).
        The trace is replayed grouped: every distinct
        :class:`BatchEvent` is costed once and multiplied by how often it
        occurs, which sums to exactly the per-event totals.
        """
        if not stats.batches:
            raise ValueError(
                "stats has no batch trace; decode with a tree-search "
                "detector (Monte Carlo: keep_traces=True)"
            )
        tracer = current_tracer()
        with tracer.span(
            "fpga.decode_report", config=self.config.name, batches=len(stats.batches)
        ):
            breakdown: dict[str, int] = {
                "branch": 0,
                "prefetch": 0,
                "gemm": 0,
                "evaluate": 0,
                "norm": 0,
                "prune": 0,
                "control": 0,
            }
            attributed: dict[str, int] = dict.fromkeys(
                PIPELINE_STAGES + OVERHEAD_BUCKETS, 0
            )
            total = 0
            # A batch's cycles depend on its (level, pool_size) alone, so
            # each distinct event is costed once and scaled by its count
            # (exact integer arithmetic; a DFS trace has at most n_tx
            # distinct events among thousands).
            for event, count in Counter(stats.batches).items():
                cycles = self.batch_cycles(event)
                for key, value in self._attribute(cycles).items():
                    attributed[key] += count * value
                total += count * cycles.pop("total")
                for key, value in cycles.items():
                    breakdown[key] += count * value
            radius = stats.radius_updates * self.config.radius_update_cycles
            breakdown["radius"] = radius
            attributed["radius"] = radius
            total += radius
            breakdown["setup"] = self.config.setup_cycles
            attributed["setup"] = self.config.setup_cycles
            total += self.config.setup_cycles
            transfer = self.transfer_cycles()
            total += transfer
            breakdown["transfer"] = transfer
            attributed["transfer"] = transfer
        if tracer.enabled:
            for stage, cycles in attributed.items():
                tracer.count(f"fpga.cycles.{stage}", cycles)
            tracer.count("fpga.cycles.total", total)
        metrics = current_metrics()
        if metrics.enabled:
            cfg = self.config.name
            busy = metrics.counter("fpga.stage_busy_cycles")
            occupancy = metrics.gauge("fpga.stage_occupancy")
            for stage in PIPELINE_STAGES:
                busy.inc(breakdown[stage], config=cfg, stage=stage)
                if total:
                    occupancy.set(
                        breakdown[stage] / total, config=cfg, stage=stage
                    )
            stall = metrics.counter("fpga.stall_cycles")
            for bucket in OVERHEAD_BUCKETS:
                stall.inc(attributed[bucket], config=cfg, bucket=bucket)
            metrics.counter("fpga.cycles_total").inc(total, config=cfg)
        return PipelineReport(
            config_name=self.config.name,
            freq_mhz=self.config.freq_mhz,
            total_cycles=total,
            transfer_cycles=transfer,
            batches=len(stats.batches),
            breakdown=breakdown,
            attributed=attributed,
        )

    def mean_decode_seconds(self, stats_list: list[DecodeStats]) -> float:
        """Mean decode time over a list of per-frame stats records."""
        if not stats_list:
            raise ValueError("stats_list must be non-empty")
        return float(
            sum(self.decode_report(st).seconds for st in stats_list)
            / len(stats_list)
        )
