"""Multi-PE partitioned tree search (paper section V, future work).

The paper's conclusion proposes "further parallelizing the execution of
the SD algorithm by partitioning the search tree over multiple
Processing Entities (PEs)", citing the massively-parallel design of
Nikitopoulos et al. [4] (29x latency reduction with 32 PEs) as related
work. This module implements that extension:

* the root's children are sorted by partial distance and dealt
  round-robin onto ``n_pes`` processing entities (so every PE starts
  with a promising branch — the "tree of promise" idea of [4]);
* each PE runs an independent sorted-DFS over its sub-trees;
* PEs share the incumbent radius: whenever any PE lands a better leaf
  the new bound is broadcast (a synchronisation event — cheap on the
  FPGA fabric, the costly part on GPUs);
* execution is simulated cooperatively, one expansion per live PE per
  round, which is exactly the lock-step schedule a replicated-pipeline
  FPGA implementation would follow.

The result remains **exact ML**: the PE partition covers the whole tree
and the shared bound only ever shrinks, so no PE can discard the
optimum. The interesting output is the *makespan*: the busiest PE's
expansion count, which bounds the parallel latency. Sub-linear scaling
(radius updates arrive later when the best branch is split away from
the others' work) is the effect [4] engineer around.

Unlike the other tree-search detectors this one is *not* a
:class:`~repro.core.traversal.TraversalEngine` configuration: its
cooperative round-robin schedule interleaves per-PE expansions with
shared-bound broadcasts, which does not fit the one-generator-per-frame
``ExpandRequest`` protocol. It stays a direct :class:`Detector` and
still emits the standard :class:`BatchEvent` trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.gemm import GemmEvaluator
from repro.core.radius import BabaiRadius, RadiusPolicy, babai_point
from repro.core.tree import SearchNode, path_to_level_indices
from repro.detectors.base import BatchEvent, DecodeStats, DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import QRResult, effective_receive, qr_decompose
from repro.util.timing import Timer
from repro.util.validation import (
    check_finite,
    check_matrix,
    check_positive_int,
    check_vector,
)


class PartitionedSphereDecoder(Detector):
    """Exact sphere decoding over ``n_pes`` cooperating processing entities.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    n_pes:
        Processing entities (replicated pipelines). 1 reduces to the
        sequential sorted-DFS decoder.
    radius_policy:
        Initial-radius strategy shared by all PEs (default Babai seed:
        exact and never erases, so the cooperative loop needs no
        escalation logic).
    max_rounds:
        Optional cap on cooperative rounds (safety valve, mirrors
        ``max_nodes`` of the sequential decoder).
    """

    name = "sphere-partitioned"

    def __init__(
        self,
        constellation: Constellation,
        *,
        n_pes: int = 4,
        radius_policy: RadiusPolicy | None = None,
        max_rounds: int | None = None,
    ) -> None:
        self.constellation = constellation
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.radius_policy = radius_policy or BabaiRadius()
        self.max_rounds = (
            None if max_rounds is None else check_positive_int(max_rounds, "max_rounds")
        )
        self._qr: QRResult | None = None
        self._channel: np.ndarray | None = None
        self._noise_var = 0.0
        self._prepared = False
        #: Per-PE expansion counts of the last decode (makespan analysis).
        self.last_pe_expansions: list[int] = []
        #: Radius-broadcast events of the last decode.
        self.last_sync_events: int = 0

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = check_finite(check_matrix(channel, "channel"), "channel")
        if noise_var < 0:
            raise ValueError(f"noise_var must be non-negative, got {noise_var}")
        self._channel = channel
        self._qr = qr_decompose(channel)
        self._noise_var = float(noise_var)
        self._prepared = True

    # ------------------------------------------------------------------

    def _seed_stacks(
        self,
        evaluator: GemmEvaluator,
        bound: float,
        stats: DecodeStats,
    ) -> tuple[list[list[SearchNode]], np.ndarray | None, float]:
        """Grow enough sub-trees for every PE, then deal them round-robin.

        One root expansion yields only ``P`` sub-trees; with more PEs
        than that, the frontier is expanded level by level (the offline
        partitioning phase of [4], whose cost "scales only linearly")
        until at least ``n_pes`` sub-trees exist or the leaves are
        reached.
        """
        n_tx = evaluator.n_tx
        level_pruned = stats.level_pruned
        incumbent: np.ndarray | None = None
        frontier: list[SearchNode] = []
        seq = 1
        level = n_tx - 1
        # Expand the root first.
        pools: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
        while True:
            paths = np.asarray([p for p, _ in pools], dtype=np.int64).reshape(
                len(pools), n_tx - 1 - level
            )
            pds = np.asarray([pd for _, pd in pools], dtype=float)
            child_pds = evaluator.expand(level, paths, pds)
            stats.nodes_expanded += len(pools)
            stats.nodes_generated += len(pools) * evaluator.order
            stats.batches.append(BatchEvent(level=level, pool_size=len(pools)))
            frontier = []
            for i, (path, _pd) in enumerate(pools):
                for c in range(evaluator.order):
                    pd = float(child_pds[i, c])
                    if pd >= bound:
                        stats.nodes_pruned += 1
                        level_pruned[level] += 1
                        continue
                    if level == 0:
                        stats.leaves_reached += 1
                        if pd < bound:
                            bound = pd
                            incumbent = path_to_level_indices(
                                path + (c,), n_tx
                            )
                            stats.radius_updates += 1
                            stats.radius_trace.append(bound)
                        continue
                    frontier.append(
                        SearchNode(
                            pd=pd, seq=seq, level=level - 1, path=path + (c,)
                        )
                    )
                    seq += 1
            if level == 0 or len(frontier) >= self.n_pes or not frontier:
                break
            pools = [(node.path, node.pd) for node in frontier]
            level -= 1
        # Deal sub-trees best-first round-robin so every PE starts with a
        # promising branch ([4]'s tree-of-promise idea).
        frontier.sort(key=lambda node: (node.pd, node.seq))
        stacks: list[list[SearchNode]] = [[] for _ in range(self.n_pes)]
        for rank, node in enumerate(frontier):
            stacks[rank % self.n_pes].append(node)
        # Each PE explores best-candidate-first: put lowest PD on top.
        for stack in stacks:
            stack.reverse()
        return stacks, incumbent, bound

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = check_vector(
            received, "received", length=self._channel.shape[0]
        )
        check_finite(received, "received")
        timer = Timer()
        stats = DecodeStats(level_pruned=[0] * self._channel.shape[1])
        with timer:
            ybar = effective_receive(self._qr, received)
            evaluator = GemmEvaluator(self._qr.r, ybar, self.constellation)
            init = self.radius_policy.initial(
                self._qr.r, ybar, self.constellation, self._noise_var
            )
            bound = float(init.radius_sq)
            incumbent = init.incumbent_indices
            stats.radius_trace.append(bound)
            stacks, root_incumbent, bound2 = self._seed_stacks(
                evaluator, bound, stats
            )
            if root_incumbent is not None:
                incumbent, bound = root_incumbent, bound2
            else:
                bound = bound2
            pe_expansions = [0] * self.n_pes
            sync_events = 0
            seq = evaluator.order + 1
            n_tx = evaluator.n_tx
            rounds = 0
            while any(stacks):
                rounds += 1
                if self.max_rounds is not None and rounds > self.max_rounds:
                    stats.truncated += 1
                    break
                for pe, stack in enumerate(stacks):
                    if not stack:
                        continue
                    node = stack.pop()
                    if node.pd >= bound:
                        stats.nodes_pruned += 1
                        stats.level_pruned[node.level] += 1
                        continue
                    child_pds = evaluator.expand(
                        node.level,
                        np.asarray([node.path], dtype=np.int64),
                        np.asarray([node.pd]),
                    )[0]
                    pe_expansions[pe] += 1
                    stats.nodes_expanded += 1
                    stats.nodes_generated += evaluator.order
                    stats.batches.append(BatchEvent(level=node.level, pool_size=1))
                    if node.level == 0:
                        in_sphere = child_pds < bound
                        stats.leaves_reached += int(np.count_nonzero(in_sphere))
                        n_out = int(in_sphere.size - np.count_nonzero(in_sphere))
                        stats.nodes_pruned += n_out
                        stats.level_pruned[0] += n_out
                        c = int(np.argmin(child_pds))
                        if child_pds[c] < bound:
                            bound = float(child_pds[c])
                            incumbent = path_to_level_indices(
                                node.path + (c,), n_tx
                            )
                            stats.radius_updates += 1
                            stats.radius_trace.append(bound)
                            sync_events += 1  # broadcast to all PEs
                    else:
                        order = np.argsort(child_pds, kind="stable")
                        for c in order[::-1]:
                            if child_pds[c] >= bound:
                                stats.nodes_pruned += 1
                                stats.level_pruned[node.level] += 1
                                continue
                            stack.append(
                                SearchNode(
                                    pd=float(child_pds[c]),
                                    seq=seq,
                                    level=node.level - 1,
                                    path=node.path + (int(c),),
                                )
                            )
                            seq += 1
                    stats.max_list_size = max(
                        stats.max_list_size, sum(len(s) for s in stacks)
                    )
            if incumbent is None:
                incumbent, bound = babai_point(self._qr.r, ybar, self.constellation)
                stats.truncated = max(stats.truncated, 1)
            stats.gemm_calls = evaluator.gemm_calls
            stats.gemm_flops = evaluator.gemm_flops + evaluator.norm_flops
            self.last_pe_expansions = pe_expansions
            self.last_sync_events = sync_events
        stats.wall_time_s = timer.elapsed
        indices = self._qr.unpermute(incumbent)
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

    # ------------------------------------------------------------------

    def makespan_expansions(self) -> int:
        """Busiest PE's expansion count of the last decode.

        Lock-step cooperative execution means the parallel latency is
        proportional to this (plus the shared root expansion), so
        ``sequential_total / makespan`` is the latency speedup a
        replicated-pipeline implementation would see.
        """
        if not self.last_pe_expansions:
            raise RuntimeError("no decode has run yet")
        return max(self.last_pe_expansions)
