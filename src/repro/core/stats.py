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

    Aggregation across frames goes through :meth:`merge`, which derives
    the per-field rule from the dataclass definition itself: numeric
    fields sum and list fields concatenate unless the field declares a
    ``merge`` metadata override (``max_list_size`` keeps the maximum).
    Adding a field therefore never silently drops it from aggregates —
    ``tests/test_detector_base.py`` asserts every field round-trips.

    Merging is **order-independent** for every scalar field (sums and
    maxima commute and associate), so cross-process aggregation needs no
    global frame order: ``a.merge(b)`` equals ``b.merge(a)`` field-wise
    except for the list fields (``batches``, ``radius_trace``), which
    concatenate left-to-right. Callers that shard frames across workers
    therefore merge worker results in deterministic shard order (see
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
        merged: dict[str, object] = {}
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            rule = f.metadata.get("merge")
            if rule is None:
                if isinstance(mine, (int, float)) or isinstance(mine, list):
                    rule = "sum"  # numeric add / list concatenation
                else:
                    raise TypeError(
                        f"DecodeStats.{f.name}: no default merge rule for "
                        f"{type(mine).__name__}; declare one via "
                        "field(metadata={'merge': ...})"
                    )
            if rule == "sum":
                merged[f.name] = mine + theirs
            elif rule == "max":
                merged[f.name] = max(mine, theirs)
            else:
                raise TypeError(
                    f"DecodeStats.{f.name}: unknown merge rule {rule!r}"
                )
        return type(self)(**merged)

    @classmethod
    def merge_all(cls, stats: Iterable["DecodeStats"]) -> "DecodeStats":
        """Fold many stats records into one in linear time.

        Equivalent to chaining :meth:`merge` pairwise left-to-right but
        without the quadratic list re-concatenation — the form the
        Monte Carlo engine and the process-sharded sweep runner use to
        aggregate thousands of per-frame records.
        """
        merged = cls()
        total: dict[str, object] = {
            f.name: getattr(merged, f.name) for f in fields(cls)
        }
        for st in stats:
            for f in fields(cls):
                value = getattr(st, f.name)
                rule = f.metadata.get("merge")
                if rule == "max":
                    total[f.name] = max(total[f.name], value)
                elif isinstance(value, list):
                    total[f.name].extend(value)
                else:
                    total[f.name] += value
        return cls(**total)
