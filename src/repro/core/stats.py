"""Search instrumentation records shared by every tree-search detector.

These types live in :mod:`repro.core` because the traversal engine
(:mod:`repro.core.traversal`) produces them and the platform models
(:mod:`repro.fpga`, :mod:`repro.perfmodel`) consume them; the detector
layer re-exports them from :mod:`repro.detectors.base` for backward
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, NamedTuple


class BatchEvent(NamedTuple):
    """One batched node-expansion step.

    Attributes
    ----------
    level:
        Tree level being expanded; level ``k`` assigns transmit symbol
        ``s_k`` (``k = n_tx - 1`` is the root's children, ``k = 0`` the
        leaves).
    pool_size:
        Number of tree nodes expanded together in this batch (1 for pure
        best-first pops; the whole frontier for BFS levels).
    """

    level: int
    pool_size: int


@dataclass
class DecodeStats:
    """Work performed by one ``detect`` call of a tree-search detector.

    This record is the only count the search keeps. Scalars total the
    whole decode; ``batches`` holds one :class:`BatchEvent` per
    expansion, so per-level nodes expanded and expansion counts are
    folded from it; ``level_pruned[k]`` counts the nodes pruned at tree
    level ``k`` and sums to ``nodes_pruned``. Tracer counters and the
    ``traversal.*`` metric series are derived from these fields after
    the decode (``EngineDetector._publish`` in :mod:`repro.detectors.engine`).

    Aggregation across frames goes through :meth:`merge_all` (and
    :meth:`merge`, its two-record form), which derives the per-field
    rule from the dataclass definition itself: numeric fields sum and
    list fields concatenate unless the field declares a ``merge``
    metadata override (``"max"`` keeps the maximum, ``"elementwise"``
    adds lists position by position). Adding a field therefore never
    silently drops it from aggregates — ``tests/test_detector_base.py``
    asserts every field round-trips.

    Merging is **order-independent** for every field except the
    concatenated traces (``batches``, ``radius_trace``), which join
    left-to-right. Callers that shard frames across workers therefore
    merge worker results in deterministic shard order (see
    :mod:`repro.mimo.parallel_mc`) so the concatenated traces reproduce
    the serial order exactly.
    """

    nodes_expanded: int = 0
    nodes_generated: int = 0
    nodes_pruned: int = 0
    leaves_reached: int = 0
    radius_updates: int = 0
    gemm_calls: int = 0
    gemm_flops: int = 0
    max_list_size: int = field(default=0, metadata={"merge": "max"})
    wall_time_s: float = 0.0
    #: Seconds spent inside the evaluator's GEMM + NORM arithmetic
    #: (:meth:`repro.core.gemm.GemmEvaluator.expand_unchecked`); the
    #: rest of ``wall_time_s`` is host-side search bookkeeping. Under
    #: fused batch decoding the shared GEMM time is split evenly across
    #: the batch's frames, mirroring ``wall_time_s``.
    gemm_time_s: float = 0.0
    truncated: int = 0
    batches: list[BatchEvent] = field(default_factory=list)
    radius_trace: list[float] = field(default_factory=list)
    #: Nodes pruned per tree level (index = level); sums to
    #: ``nodes_pruned``.
    level_pruned: list[int] = field(
        default_factory=list, metadata={"merge": "elementwise"}
    )

    @property
    def nodes_per_sec(self) -> float:
        """Traversal throughput: expanded nodes per wall-clock second.

        The paper's host-efficiency figure of merit — once PD evaluation
        is BLAS-3, this is bounded by search bookkeeping, not FLOPs.
        Zero when no wall time was recorded.
        """
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.nodes_expanded / self.wall_time_s

    @property
    def host_overhead_s(self) -> float:
        """Wall time spent outside the GEMM/NORM arithmetic."""
        return max(self.wall_time_s - self.gemm_time_s, 0.0)

    @property
    def gemm_fraction(self) -> float:
        """Share of wall time inside the evaluator (1.0 = compute-bound)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return min(self.gemm_time_s / self.wall_time_s, 1.0)

    def merge(self, other: "DecodeStats") -> "DecodeStats":
        """Aggregate two stats records (e.g. across Monte Carlo frames)."""
        return type(self).merge_all((self, other))

    @classmethod
    def merge_all(cls, stats: Iterable["DecodeStats"]) -> "DecodeStats":
        """Fold many stats records into one in linear time.

        The one implementation of the per-field merge rules: the Monte
        Carlo engine's :meth:`~repro.mimo.montecarlo.SnrPoint.aggregate_stats`
        and :meth:`merge` both go through it, so a field's rule is
        written once. Raises :class:`TypeError` for a field with no rule.
        """
        merged = cls()
        rules = [(f.name, _merge_rule(f, getattr(merged, f.name))) for f in fields(cls)]
        for st in stats:
            for name, rule in rules:
                value = getattr(st, name)
                if rule == "sum":
                    setattr(merged, name, getattr(merged, name) + value)
                elif rule == "max":
                    setattr(merged, name, max(getattr(merged, name), value))
                elif rule == "concat":
                    getattr(merged, name).extend(value)
                else:  # elementwise
                    total = getattr(merged, name)
                    total.extend([0] * (len(value) - len(total)))
                    for i, v in enumerate(value):
                        total[i] += v
        return merged


_MERGE_RULES = ("sum", "max", "concat", "elementwise")


def _merge_rule(f, default) -> str:
    """Merge rule of dataclass field ``f`` whose default value is ``default``."""
    rule = f.metadata.get("merge")
    if rule is None:
        if isinstance(default, list):
            return "concat"
        if isinstance(default, (int, float)):
            return "sum"
        raise TypeError(
            f"DecodeStats.{f.name}: no default merge rule for "
            f"{type(default).__name__}; declare one via "
            "field(metadata={'merge': ...})"
        )
    if rule not in _MERGE_RULES:
        raise TypeError(f"DecodeStats.{f.name}: unknown merge rule {rule!r}")
    return rule
