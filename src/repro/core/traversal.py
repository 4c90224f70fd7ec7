"""Unified tree-traversal engine: search policy x evaluation backend.

The paper's central claim is that one sphere-decoding algorithm can be
re-targeted across execution substrates (CPU BLAS-3, GPU, FPGA dataflow)
because *what to expand next* is separable from *how partial distances
are evaluated*. This module is that separation made concrete:

``TraversalPolicy``
    What to expand next. Each policy is a search **generator** over the
    :class:`~repro.core.lockstep.ExpandRequest` protocol: it yields
    same-level node pools and receives the ``(B, P)`` child partial
    distances, never touching an evaluator directly.

    * :class:`BestFirstPolicy` — global priority queue on PD with
      same-level pooling (the paper's Best-FS, Alg. 1).
    * :class:`DfsPolicy` — LIFO with PD-sorted child insertion (the
      sorted-DFS of Fig. 3; pool size 1 recovers Geosphere's schedule).
    * :class:`BfsPolicy` — level-synchronous frontier sweep (the
      GPU baseline of Arfaoui et al., one GEMM per level).
    * :class:`KBestPolicy` — breadth-first with K survivors per level
      (fixed-throughput hardware detector; not exact).
    * :class:`FsdPolicy` — fixed-complexity schedule: full enumeration
      on ``rho`` levels, single-best-child SIC below (not exact).

``ScalarGemvBackend`` / ``FusedGemmBackend``
    How child PDs are computed. The scalar backend drives one frame's
    generator serially against a :class:`~repro.core.gemm.GemmEvaluator`;
    the fused backend runs many frames' generators in lockstep against a
    :class:`~repro.core.gemm.BatchedGemmEvaluator`, stacking same-level
    pools across frames into single BLAS-3 calls. Both produce
    bit-identical child PDs (shared ``_stacked_gemv`` kernel), so every
    policy gets cross-frame batch decoding for free.

``TraversalEngine``
    Binds a constellation, a policy and a radius policy. The detector
    classes in :mod:`repro.detectors` are thin configurations of this
    engine; all of them emit the uniform
    :class:`~repro.core.stats.BatchEvent` trace the FPGA pipeline
    simulator replays.

Frontier storage is the structure-of-arrays
:class:`~repro.core.nodepool.NodePool`: nodes are rows of preallocated
PD/seq/level vectors and one ``(capacity, M)`` path matrix, child
admission is a single masked bulk append per expansion, and a pool's
``(B, d)`` GEMM operand is a row block of the path matrix instead of a
per-node ``fromiter`` rebuild. The best-first heap holds scalar
``(pd, row)`` entries and the DFS stack ``(pd, row, level)`` entries,
ordered exactly like the legacy per-node tuples, so every decode
remains bit-identical to the object model (``tests/test_nodepool.py``
checks against recorded outputs).

Exactness of the best-first / DFS policies is property-tested against
brute force in ``tests/test_sphere_decoder_exactness.py``; equivalence
of the scalar and fused backends in ``tests/test_parallel_mc.py``.
"""

from __future__ import annotations

import abc
import heapq
from itertools import repeat
from math import inf, isfinite

import numpy as np

from repro.core.enumeration import CHILD_ORDERS
from repro.core.gemm import (
    FLOPS_PER_CMAC,
    BatchedGemmEvaluator,
    GemmEvaluator,
)
from repro.core.lockstep import ExpandRequest, drive_lockstep, drive_serial
from repro.core.metric import resolve_metric
from repro.core.nodepool import NodePool, extend_paths
from repro.core.radius import babai_point
from repro.core.stats import BatchEvent, DecodeStats
from repro.obs.log import get_logger
from repro.obs.tracer import NULL_TRACER
from repro.util.validation import check_in, check_positive_int

_log = get_logger(__name__)


class TraversalPolicy(abc.ABC):
    """What to expand next — a search schedule over the SD tree.

    A policy is stateless across decodes: :meth:`solve_gen` returns a
    fresh generator per frame, so one policy instance can drive many
    interleaved frames (the fused backend relies on this).
    """

    @abc.abstractmethod
    def solve_gen(self, engine: "TraversalEngine", r, ybar, noise_var, stats, tracer):
        """Search generator for one frame's full solve.

        Yields :class:`~repro.core.lockstep.ExpandRequest`s and returns
        ``(indices_by_level, reduced_metric)``; the backend chooses the
        evaluator (serial or cross-frame fused). ``tracer`` scopes any
        spans the policy opens — pass ``NULL_TRACER`` when several
        generators run interleaved (lockstep batching), where spans
        opened across yields of different frames would corrupt the
        nesting stack.
        """


def _build_expand_hook(tracer):
    """Per-expansion ``sd.batch`` marks as one flat prebound closure.

    Marks come from :meth:`~repro.obs.Tracer.mark_bindings`; ``None``
    when the tracer is off (the common case), so the search loops pay
    one ``is None`` test per expansion. DFS expands single-node pools,
    so this closure runs tens of thousands of times per frame —
    everything is prebound, and single-node marks are sampled at the
    tracer's ``mark_stride`` (pooled marks always record). Marks are
    timeline samples; exact counts live in ``DecodeStats``.
    """
    bindings = tracer.mark_bindings()
    if bindings is None:
        return None
    append, now, epoch, tid = bindings
    stride = tracer.mark_stride
    # Start one short of the stride so the first single-node mark of
    # every solve records (a frame's trace is never entirely bare).
    skip = stride - 1

    def hook(level: int, b: int) -> None:
        nonlocal skip
        if b == 1:
            skip += 1
            if skip < stride:
                return
            skip = 0
        append(("sd.batch", now() - epoch, tid, level, b))

    return hook


class _PooledTreePolicy(TraversalPolicy):
    """Shared solve shape of the leaf-first (best-FS / DFS) policies.

    Owns the radius schedule the paper's decoder uses: initial radius
    from the engine's radius policy, geometric escalation while the
    sphere is empty — abandoned once the node cap truncates a search,
    since a larger radius can only expand the workload, once no child
    PD of a search was finite (they overflowed, so no radius admits
    one), or once the radius is no longer finite — and a Babai fallback
    when every escalation came back empty.
    """

    #: Strategy label used in ``sd.solve`` span args and detector attrs.
    strategy: str

    def __init__(self, *, max_nodes: int | None = None) -> None:
        self.max_nodes = (
            None if max_nodes is None else check_positive_int(max_nodes, "max_nodes")
        )

    def solve_gen(self, engine, r, ybar, noise_var, stats, tracer):
        n_tx = int(r.shape[1])
        if not stats.level_pruned:
            stats.level_pruned = [0] * n_tx
        engine.expand_hook = _build_expand_hook(tracer)
        with tracer.span("sd.solve", strategy=self.strategy, n_tx=n_tx):
            init = engine.radius_policy.initial(
                r, ybar, engine.constellation, float(noise_var),
                metric=engine.metric,
            )
            bound = float(init.radius_sq)
            incumbent = init.incumbent_indices
            stats.radius_trace.append(bound)
            while True:
                with tracer.span("sd.search", bound=bound):
                    incumbent, bound = yield from self._search(
                        engine, n_tx, bound, incumbent, stats, tracer
                    )
                if incumbent is not None or not engine.radius_policy.can_escalate():
                    break
                if stats.truncated:
                    # The search hit the node cap before finding any leaf —
                    # a larger radius can only make that worse; give up and
                    # fall back to the Babai point below.
                    break
                if not isfinite(bound):
                    # No child PD was finite (they overflowed), or the
                    # radius itself did: ``inf < inf`` admits no child,
                    # so escalating further cannot help.
                    break
                bound *= engine.radius_policy.escalation_factor
                stats.radius_trace.append(bound)
            if incumbent is None:
                incumbent, bound = babai_point(
                    r, ybar, engine.constellation, metric=engine.metric
                )
                stats.truncated = max(stats.truncated, 1)
                _log.debug(
                    "sphere empty after escalation; falling back to Babai "
                    "point (metric %.4g)",
                    bound,
                )
        return np.asarray(incumbent), float(bound)

    @abc.abstractmethod
    def _search(self, engine, n_tx, bound, incumbent, stats, tracer):
        """One full tree exploration under the given initial bound.

        Generator (driven via ``yield from``); returns the best complete
        solution found (ascending-level indices) and its metric — or
        ``(incumbent, bound)`` unchanged when the sphere is empty, with
        the bound replaced by ``inf`` when the root's children were the
        only expansion and none of their PDs was finite.
        """

    @staticmethod
    def _search_state(engine, stats, max_nodes):
        """Per-search invariants of the leaf-first loops, hoisted once.

        Returns ``(record, hook, norm_flops, budget)``: the batch-trace
        appender, the engine's ``sd.batch`` mark hook, the NORM flops of
        one node's ``P`` children, and how many more nodes this search
        may expand before the node cap (``inf`` when uncapped — the cap
        counts every escalation round).
        """
        norm_flops = engine.metric.flops_per_norm * engine.constellation.order
        budget = inf if max_nodes is None else max_nodes - stats.nodes_expanded
        return stats.batches.append, engine.expand_hook, norm_flops, budget

    @staticmethod
    def _book(stats, order, nodes, calls, flops, pruned, leaves, updates, max_list):
        """Fold one search's local counters into ``stats``.

        The loops count in locals rather than through ``stats``
        attributes or a helper call per expansion; totals are identical
        to per-expansion accounting with the exact FLOP formulas of
        :class:`GemmEvaluator`, whichever backend ran the GEMMs.
        """
        stats.nodes_expanded += nodes
        stats.nodes_generated += nodes * order
        stats.gemm_calls += calls
        stats.gemm_flops += flops
        stats.nodes_pruned += pruned
        stats.leaves_reached += leaves
        stats.radius_updates += updates
        stats.max_list_size = max_list


class BestFirstPolicy(_PooledTreePolicy):
    """Global priority queue on PD with same-level pooling (Alg. 1).

    Parameters
    ----------
    pool_size:
        Up to this many same-level frontier nodes are popped together
        and evaluated in one GEMM batch. 1 recovers pure best-first;
        larger pools trade a little search discipline for bigger (more
        FPGA/GPU-friendly) GEMMs. Never affects exactness — only nodes
        already inside the sphere are pooled.
    max_nodes:
        Optional safety cap on expanded nodes; when hit, the best
        incumbent so far is returned and ``stats.truncated`` is set.
    """

    strategy = "best-first"

    def __init__(self, *, pool_size: int = 8, max_nodes: int | None = None) -> None:
        super().__init__(max_nodes=max_nodes)
        self.pool_size = check_positive_int(pool_size, "pool_size")

    def _search(self, engine, n_tx, bound, incumbent, stats, tracer):
        pool = NodePool(n_tx)
        root = pool.append_root()
        # Scalar heap entries (pd, pool row): the pool numbers rows in
        # admission order (``seq[i] == i``), so the row doubles as the
        # legacy SearchNode sequence tie-breaker and ``(pd, row)``
        # sorts exactly like the old ``(pd, seq)`` — pop order, and
        # therefore every decode, is bit-identical.
        heap: list[tuple[float, int]] = [(0.0, root)]
        levels = pool.level
        heappop, heappush = heapq.heappop, heapq.heappush
        pool_size = self.pool_size
        p = engine.constellation.order
        level_pruned = stats.level_pruned
        record, hook, norm_flops, budget = self._search_state(
            engine, stats, self.max_nodes
        )
        nodes = calls = flops = pruned = leaves = updates = 0
        max_list = stats.max_list_size
        while heap:
            if heap[0][0] >= bound:
                break  # heap is PD-ordered: nothing left can improve
            row = heappop(heap)[1]
            level = int(levels[row])
            rows = [row]
            while (
                len(rows) < pool_size
                and heap
                and levels[heap[0][1]] == level
                and heap[0][0] < bound
            ):
                rows.append(heappop(heap)[1])
            b = len(rows)
            depth = n_tx - 1 - level
            if b == 1:
                paths, pds = pool.path[row : row + 1, :depth], pool.pd[row : row + 1]
            else:
                rows_arr = np.array(rows, dtype=np.int64)
                paths, pds = pool.path[rows_arr, :depth], pool.pd[rows_arr]
            child_pds = yield ExpandRequest(level, paths, pds)
            nodes += b
            calls += 1
            flops += (FLOPS_PER_CMAC * depth + norm_flops) * b
            record(BatchEvent(level, b))
            if hook is not None:
                hook(level, b)
            if level == 0:
                n_in = int(np.count_nonzero(child_pds < bound))
                leaves += n_in
                n_pruned = b * p - n_in
                pruned += n_pruned
                level_pruned[0] += n_pruned
                if n_in:
                    n, c = divmod(int(child_pds.argmin()), p)
                    best = child_pds[n, c]
                    if best < bound:
                        bound = float(best)
                        incumbent = pool.leaf_indices(rows[n], c)
                        updates += 1
                        stats.radius_trace.append(bound)
            else:
                # Row-major nonzero order == the legacy per-node /
                # per-child push order, so bulk admission assigns the
                # same sequence numbers the scalar loop did.
                ii, cc = (child_pds < bound).nonzero()
                n_pruned = b * p - ii.size
                pruned += n_pruned
                level_pruned[level] += n_pruned
                if ii.size:
                    survivors = child_pds[ii, cc]
                    new_rows = pool.append_children(
                        row if b == 1 else rows_arr[ii], cc, survivors, level - 1
                    )
                    levels = pool.level  # growth may have replaced it
                    for entry in zip(survivors.tolist(), new_rows.tolist()):
                        heappush(heap, entry)
                if len(heap) > max_list:
                    max_list = len(heap)
            if nodes >= budget:
                stats.truncated += 1
                break
        self._book(stats, p, nodes, calls, flops, pruned, leaves, updates, max_list)
        if incumbent is None and nodes == 1 and not np.isfinite(child_pds).any():
            bound = inf  # the root's child PDs overflowed: no radius admits one
        return incumbent, bound


class DfsPolicy(_PooledTreePolicy):
    """Depth-first with per-level PD-sorted child insertion (Fig. 3).

    Parameters
    ----------
    child_ordering:
        ``"sorted"`` (Best-FS/Geosphere behaviour) or ``"natural"``;
        fixes the stack push order.
    max_nodes:
        Optional safety cap on expanded nodes.
    """

    strategy = "dfs"

    def __init__(
        self, *, child_ordering: str = "sorted", max_nodes: int | None = None
    ) -> None:
        super().__init__(max_nodes=max_nodes)
        self.child_ordering = check_in(
            child_ordering, "child_ordering", CHILD_ORDERS
        )

    def _search(self, engine, n_tx, bound, incumbent, stats, tracer):
        pool = NodePool(n_tx)
        root = pool.append_root()
        # LIFO entries (pd, pool row, level): the pop-time prune and the
        # per-level prune count need only these scalars; paths and PDs
        # live in the pool's arrays.
        stack: list[tuple[float, int, int]] = [(0.0, root, n_tx - 1)]
        pop, push_entries = stack.pop, stack.extend
        p = engine.constellation.order
        level_pruned = stats.level_pruned
        record, hook, norm_flops, budget = self._search_state(
            engine, stats, self.max_nodes
        )
        # Every DFS expansion is a single node: one shared (immutable)
        # trace event per level instead of a new one per expansion.
        events = [BatchEvent(lv, 1) for lv in range(n_tx)]
        sort_children = self.child_ordering == "sorted"
        natural_push = np.arange(p - 1, -1, -1)
        nodes = flops = pruned = leaves = updates = 0
        max_list = stats.max_list_size
        while stack:
            node_pd, row, level = pop()
            if node_pd >= bound:
                # Generated inside an older, looser sphere; the radius has
                # shrunk since — prune on pop.
                pruned += 1
                level_pruned[level] += 1
                continue
            depth = n_tx - 1 - level
            child_pds = yield ExpandRequest(
                level, pool.path[row : row + 1, :depth], pool.pd[row : row + 1]
            )
            nodes += 1
            flops += FLOPS_PER_CMAC * depth + norm_flops
            record(events[level])
            if hook is not None:
                hook(level, 1)
            pds = child_pds[0]
            if level == 0:
                n_in = int(np.count_nonzero(pds < bound))
                leaves += n_in
                pruned += p - n_in
                level_pruned[0] += p - n_in
                if n_in:
                    c = int(pds.argmin())
                    best = pds[c]
                    if best < bound:
                        bound = float(best)
                        incumbent = pool.leaf_indices(row, c)
                        updates += 1
                        stats.radius_trace.append(bound)
            else:
                # Push worst-first so the best child is on top of the LIFO
                # (the sorted insertion of Fig. 3), keeping only children
                # inside the sphere.
                if sort_children:
                    push = pds.argsort(kind="stable")[::-1]
                else:
                    push = natural_push
                push = push[pds[push] < bound]
                pruned += p - push.size
                level_pruned[level] += p - push.size
                if push.size:
                    survivors = pds[push]
                    new_rows = pool.append_children(row, push, survivors, level - 1)
                    push_entries(
                        zip(survivors.tolist(), new_rows.tolist(), repeat(level - 1))
                    )
                if len(stack) > max_list:
                    max_list = len(stack)
            if nodes >= budget:
                stats.truncated += 1
                break
        self._book(stats, p, nodes, nodes, flops, pruned, leaves, updates, max_list)
        if incumbent is None and nodes == 1 and not np.isfinite(child_pds).any():
            bound = inf  # the root's child PDs overflowed: no radius admits one
        return incumbent, bound


class BfsPolicy(TraversalPolicy):
    """Level-synchronous frontier sweep (the [1]/GPU strategy).

    All of its pruning comes from the initial radius; if a level ends
    with an empty frontier the radius escalates and the sweep restarts.
    Unlike the leaf-first policies, escalation continues even after a
    frontier truncation (the truncated sweep may simply have dropped the
    sphere's occupants); it stops once no root child PD is finite (they
    overflowed, so no radius admits one) or the radius is no longer
    finite.

    Parameters
    ----------
    max_frontier:
        Optional cap on the surviving frontier per level (K-best style
        truncation). ``None`` keeps every in-sphere node, as in [1] —
        exact *within the sphere* but memory-hungry for 16-QAM.
    """

    def __init__(self, *, max_frontier: int | None = None) -> None:
        self.max_frontier = (
            None
            if max_frontier is None
            else check_positive_int(max_frontier, "max_frontier")
        )

    def _sweep(self, engine, n_tx, radius_sq, stats, tracer):
        """One full root-to-leaves BFS sweep under a fixed radius.

        Yields one :class:`ExpandRequest` per level and receives the
        child PDs. Returns ``(best_indices_by_level, best_metric)``, or
        ``(None, radius_sq)`` when the sphere is empty — ``(None, inf)``
        when it emptied at the root with no finite child PD.
        """
        p = engine.constellation.order
        level_pruned = stats.level_pruned
        # Frontier state: (F, depth) root-first index paths + (F,) PDs.
        paths = np.empty((1, 0), dtype=np.int64)
        pds = np.zeros(1, dtype=float)
        for level in range(n_tx - 1, -1, -1):
            with tracer.span("bfs.level", level=level, frontier=paths.shape[0]):
                child_pds = yield ExpandRequest(level, paths, pds)  # (F, P)
            frontier = paths.shape[0]
            stats.nodes_expanded += frontier
            stats.nodes_generated += frontier * p
            stats.gemm_calls += 1
            depth = n_tx - 1 - level
            if depth:
                stats.gemm_flops += FLOPS_PER_CMAC * frontier * depth
            stats.gemm_flops += engine.metric.flops_per_norm * frontier * p
            stats.batches.append(BatchEvent(level=level, pool_size=frontier))
            keep_n, keep_c = np.nonzero(child_pds < radius_sq)
            stats.nodes_pruned += frontier * p - keep_n.size
            level_pruned[level] += frontier * p - keep_n.size
            if keep_n.size == 0:
                if level == n_tx - 1 and not np.isfinite(child_pds).any():
                    return None, inf
                return None, radius_sq
            new_pds = child_pds[keep_n, keep_c]
            if self.max_frontier is not None and keep_n.size > self.max_frontier:
                # K-best truncation: keep the lowest-PD survivors.
                top = np.argpartition(new_pds, self.max_frontier)[
                    : self.max_frontier
                ]
                keep_n, keep_c, new_pds = keep_n[top], keep_c[top], new_pds[top]
                stats.truncated += 1
            paths = extend_paths(paths, keep_n, keep_c)
            pds = new_pds
            stats.max_list_size = max(stats.max_list_size, paths.shape[0])
        stats.leaves_reached += paths.shape[0]
        best = int(np.argmin(pds))
        stats.radius_updates += 1
        stats.radius_trace.append(float(pds[best]))
        # paths are root-first (level M-1 .. 0); flip to ascending level.
        return paths[best, ::-1].copy(), float(pds[best])

    def solve_gen(self, engine, r, ybar, noise_var, stats, tracer):
        n_tx = int(r.shape[1])
        if not stats.level_pruned:
            stats.level_pruned = [0] * n_tx
        init = engine.radius_policy.initial(
            r, ybar, engine.constellation, float(noise_var),
            metric=engine.metric,
        )
        radius_sq = float(init.radius_sq)
        stats.radius_trace.append(radius_sq)
        best, metric = yield from self._sweep(engine, n_tx, radius_sq, stats, tracer)
        # An empty sweep returns its radius, or inf when no root child PD
        # was finite; a non-finite radius cannot grow, so stop there.
        while (
            best is None
            and isfinite(metric)
            and engine.radius_policy.can_escalate()
        ):
            radius_sq *= engine.radius_policy.escalation_factor
            stats.radius_trace.append(radius_sq)
            best, metric = yield from self._sweep(
                engine, n_tx, radius_sq, stats, tracer
            )
        if best is None:
            best, metric = babai_point(
                r, ybar, engine.constellation, metric=engine.metric
            )
            stats.truncated += 1
        return best, metric


class _SweepPolicy(TraversalPolicy):
    """Shared breadth-first sweep shape of the fixed-workload policies.

    K-best and FSD consult no radius policy at all: they sweep root to
    leaves exactly once, keeping survivors by their own rule, and the
    best surviving leaf is the decision. K-best records the decision
    metric as its one ``radius_trace`` entry (its survivor list acts as
    an implicit shrinking bound); FSD's schedule has no bound of any
    kind, so its trace stays empty.
    """

    #: Whether the final decision metric is logged as a radius update.
    final_metric_in_trace = True

    def solve_gen(self, engine, r, ybar, noise_var, stats, tracer):
        n_tx = int(r.shape[1])
        if not stats.level_pruned:
            stats.level_pruned = [0] * n_tx
        level_pruned = stats.level_pruned
        p = engine.constellation.order
        paths = np.empty((1, 0), dtype=np.int64)
        pds = np.zeros(1, dtype=float)
        for level in range(n_tx - 1, -1, -1):
            child_pds = yield ExpandRequest(level, paths, pds)
            width = paths.shape[0]
            stats.nodes_expanded += width
            stats.nodes_generated += width * p
            stats.gemm_calls += 1
            depth = n_tx - 1 - level
            if depth:
                stats.gemm_flops += FLOPS_PER_CMAC * width * depth
            stats.gemm_flops += engine.metric.flops_per_norm * width * p
            stats.batches.append(BatchEvent(level=level, pool_size=width))
            pruned_before = stats.nodes_pruned
            keep_n, keep_c, pds = self._select(level, n_tx, child_pds, stats)
            level_pruned[level] += stats.nodes_pruned - pruned_before
            paths = extend_paths(paths, keep_n, keep_c)
            stats.max_list_size = max(stats.max_list_size, paths.shape[0])
        stats.leaves_reached += paths.shape[0]
        best = int(np.argmin(pds))
        if self.final_metric_in_trace:
            stats.radius_updates += 1
            stats.radius_trace.append(float(pds[best]))
        # The generator protocol requires at least one yield before
        # returning, which the level loop always provides (n_tx >= 1).
        return paths[best, ::-1].copy(), float(pds[best])

    @abc.abstractmethod
    def _select(self, level, n_tx, child_pds, stats):
        """Choose the survivors of one level.

        Returns ``(keep_n, keep_c, pds)``: parent row indices, child
        column indices and the survivors' PDs.
        """


class KBestPolicy(_SweepPolicy):
    """Breadth-first with the K lowest-PD survivors per level.

    Parameters
    ----------
    k:
        Survivors kept per level. ``k >= P^M`` recovers exhaustive ML;
        small ``k`` trades BER for a hard workload bound. Typical
        hardware choices are 8–64.
    """

    def __init__(self, *, k: int = 16) -> None:
        self.k = check_positive_int(k, "k")

    def _select(self, level, n_tx, child_pds, stats):
        p = child_pds.shape[1]
        flat = child_pds.ravel()
        keep = min(self.k, flat.size)
        if keep < flat.size:
            chosen = np.argpartition(flat, keep)[:keep]
            stats.nodes_pruned += flat.size - keep
        else:
            chosen = np.arange(flat.size)
        keep_n, keep_c = np.divmod(chosen, p)
        return keep_n, keep_c, flat[chosen]


class FsdPolicy(_SweepPolicy):
    """Fixed-complexity schedule: full enumeration, then SIC.

    Parameters
    ----------
    rho:
        Number of fully-enumerated levels (``P^rho`` candidate paths).
        The classic choice for square systems is small (1 or 2).
    """

    final_metric_in_trace = False

    def __init__(self, *, rho: int = 1) -> None:
        self.rho = check_positive_int(rho, "rho")

    def _select(self, level, n_tx, child_pds, stats):
        width, p = child_pds.shape
        depth_from_root = n_tx - 1 - level
        if depth_from_root < self.rho:
            # Full-expansion phase: keep every child.
            keep_n = np.repeat(np.arange(width), p)
            keep_c = np.tile(np.arange(p), width)
            return keep_n, keep_c, child_pds.ravel().copy()
        # SIC phase: single best child per candidate.
        keep_n = np.arange(width)
        keep_c = np.argmin(child_pds, axis=1)
        return keep_n, keep_c, child_pds[keep_n, keep_c]


class ScalarGemvBackend:
    """Per-frame serial PD evaluation (one GEMV-shaped GEMM per pool).

    Drives a single frame's search generator to completion against a
    :class:`~repro.core.gemm.GemmEvaluator` — the CPU reference path.
    Passing a prebuilt :class:`~repro.core.gemm.ChannelKernel` skips the
    per-frame R validation and per-level precompute (block fading: R is
    shared by every frame of a block).
    """

    def run(self, engine, r, ybar, noise_var, stats, tracer, *, kernel=None):
        evaluator = GemmEvaluator(
            r, ybar, engine.constellation, kernel=kernel, metric=engine.metric
        )
        result = drive_serial(
            engine.solve_gen(r, ybar, noise_var, stats, tracer), evaluator
        )
        stats.gemm_time_s += evaluator.gemm_time_s
        return result


class FusedGemmBackend:
    """Cross-frame fused PD evaluation (the BLAS-2 -> BLAS-3 refactor).

    Runs ``B`` frames' search generators in lockstep against one
    :class:`~repro.core.gemm.BatchedGemmEvaluator`, stacking same-level
    node pools into single GEMMs. Generators run with ``NULL_TRACER``:
    the span stack is per-context, not per-frame, so spans opened across
    yields of interleaved frames would corrupt the nesting.

    After :meth:`run`, :attr:`fused_gemm_calls` holds the number of
    cross-frame GEMMs the batch actually issued.
    """

    def __init__(self) -> None:
        self.fused_gemm_calls = 0

    def run(self, engine, r, ybars, noise_var, stats_list, *, kernel=None):
        evaluator = BatchedGemmEvaluator(
            r, ybars, engine.constellation, kernel=kernel, metric=engine.metric
        )
        searches = [
            engine.solve_gen(r, ybars[f], noise_var, stats_list[f], NULL_TRACER)
            for f in range(ybars.shape[0])
        ]
        outcomes = drive_lockstep(searches, evaluator)
        self.fused_gemm_calls = evaluator.fused_gemm_calls
        # GEMM time inside a fused call is not separable per frame; split
        # it evenly, mirroring decode_batch's wall-time attribution.
        share = evaluator.gemm_time_s / max(len(stats_list), 1)
        for stats in stats_list:
            stats.gemm_time_s += share
        return outcomes


class TraversalEngine:
    """One search policy bound to a constellation and radius schedule.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    policy:
        The :class:`TraversalPolicy` deciding the expansion schedule.
    radius_policy:
        Initial-radius strategy consulted by the radius-driven policies
        (best-FS / DFS / BFS); the fixed-workload policies (K-best, FSD)
        ignore it. ``None`` is only valid for the latter.
    metric:
        Partial-distance metric (name or
        :class:`~repro.core.metric.PartialDistanceMetric`); ``None``
        selects the ℓ₂ reference. Threaded to the evaluators, the flop
        accounting and the radius policy, so every traversal policy
        composes with every metric.

    Every policy writes its counts into the frame's
    :class:`~repro.core.stats.DecodeStats` and nowhere else: the scalar
    totals, one :class:`BatchEvent` per expansion in ``batches`` and the
    per-level prune counts in ``level_pruned``. The detector layer
    derives tracer counters and metric series from that record once the
    decode is done.
    """

    def __init__(
        self,
        constellation,
        policy: TraversalPolicy,
        *,
        radius_policy=None,
        metric=None,
    ) -> None:
        self.constellation = constellation
        self.policy = policy
        self.radius_policy = radius_policy
        self.metric = resolve_metric(metric)
        #: ``sd.batch`` mark closure, rebuilt per solve by the pooled
        #: policies (``None`` when the ambient tracer is off — the
        #: common case).
        self.expand_hook = None

    def solve_gen(self, r, ybar, noise_var, stats, tracer):
        """The policy's search generator for one frame (see lockstep)."""
        return self.policy.solve_gen(self, r, ybar, noise_var, stats, tracer)

    def solve(self, r, ybar, noise_var, stats, tracer, backend=None, *, kernel=None):
        """Solve one pre-triangularised frame; returns (indices, metric).

        ``kernel`` is an optional prebuilt
        :class:`~repro.core.gemm.ChannelKernel` for ``r`` — pass it when
        decoding many frames against one channel so the R validation and
        per-level precompute run once per block, not once per frame.
        """
        backend = backend or ScalarGemvBackend()
        return backend.run(self, r, ybar, noise_var, stats, tracer, kernel=kernel)

    def solve_batch(self, r, ybars, noise_var, stats_list, backend=None, *, kernel=None):
        """Solve ``B`` frames with cross-frame fused GEMMs.

        Returns ``(outcomes, backend)`` where ``outcomes[f]`` is frame
        ``f``'s ``(indices, metric)`` — bit-identical to per-frame
        :meth:`solve` — and the backend exposes ``fused_gemm_calls``.
        ``kernel`` as in :meth:`solve`.
        """
        backend = backend or FusedGemmBackend()
        outcomes = backend.run(self, r, ybars, noise_var, stats_list, kernel=kernel)
        return outcomes, backend
