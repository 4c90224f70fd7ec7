"""GEMM-based sphere decoder with Best-First / sorted-DFS traversal.

This is the algorithm of the paper (Alg. 1 + section III): the SD search
tree is explored leaf-first — either globally best-first (a priority
queue on partial distance, the Geosphere-inspired strategy the paper
adopts) or depth-first with per-level PD-sorted child insertion (the LIFO
list of Fig. 3) — while node evaluation is batched into matrix-matrix
products (:class:`~repro.core.gemm.GemmEvaluator`, the compute-bound
refactor of Arfaoui et al.).

The traversal loops themselves live in :mod:`repro.core.traversal`
(:class:`~repro.core.traversal.BestFirstPolicy` /
:class:`~repro.core.traversal.DfsPolicy`); this class is the detector
shell binding a policy choice to the QR preprocessing, the radius
schedule and the obs vocabulary (``sd.*`` spans and counters).

Exactness
---------
Partial distances are sums of non-negative terms, so PD never decreases
along a path. With an infinite initial radius (or a Babai-seeded
incumbent) the search is exact maximum likelihood:

* Best-FS pops nodes in ascending PD; once the best frontier PD reaches
  the incumbent metric no unexplored leaf can beat it — terminate.
* Sorted-DFS only discards nodes whose PD already meets/exceeds the
  incumbent metric, which no descendant leaf can undercut.

Both facts are property-tested against brute force in
``tests/test_sphere_decoder_exactness.py``.

Instrumentation
---------------
Every expansion appends a :class:`~repro.core.stats.BatchEvent` to the
decode's :class:`~repro.core.stats.DecodeStats`. The FPGA pipeline
simulator replays those events through its module cycle models; the
CPU/GPU models consume the aggregate counters.

When an ambient :class:`repro.obs.Tracer` is installed
(:func:`repro.obs.use_tracer`), each decode additionally emits nested
spans (``sd.detect`` > ``sd.solve`` > ``sd.search``), ``sd.batch``
instants sampling the expansion timeline (pooled expansions always
record; single-node expansions every ``mark_stride``-th — exact counts
live in the metrics registry and ``DecodeStats``) and node/GEMM
counters. With no tracer installed the hot path pays one attribute
read and a boolean check per batch — see ``docs/observability.md``.
"""

from __future__ import annotations

from repro.core.enumeration import CHILD_ORDERS
from repro.core.radius import BabaiRadius, RadiusPolicy
from repro.core.traversal import BestFirstPolicy, DfsPolicy, TraversalPolicy
from repro.detectors.engine import EngineDetector
from repro.mimo.constellation import Constellation
from repro.util.validation import check_in, check_positive_int

# Validated at construction (not just inside the policies) so a bad
# configuration fails before any channel is prepared.
STRATEGIES = ("best-first", "dfs")
ORDERINGS = ("natural", "sqrd")


class SphereDecoder(EngineDetector):
    """The paper's GEMM-based leaf-first sphere decoder.

    Parameters
    ----------
    constellation:
        Symbol alphabet (4-QAM / 16-QAM in the paper's evaluation).
    strategy:
        ``"best-first"`` (global priority queue; default) or ``"dfs"``
        (LIFO with PD-sorted child insertion, Fig. 3). Both are exact.
    radius_policy:
        Initial-radius strategy; defaults to :class:`BabaiRadius`
        (exact, never erases, tight pruning).
    ordering:
        Column ordering for the QR step: ``"natural"`` (plain QR, as the
        paper) or ``"sqrd"`` (sorted QR, an ablation that tightens
        pruning further).
    pool_size:
        Best-FS only: up to this many same-level frontier nodes are
        popped together and evaluated in one GEMM batch. 1 recovers pure
        best-first; larger pools trade a little search discipline for
        bigger (more FPGA/GPU-friendly) GEMMs. Never affects exactness —
        only nodes already inside the sphere are pooled.
    child_ordering:
        ``"sorted"`` (Best-FS/Geosphere behaviour) or ``"natural"``; only
        observable under ``"dfs"``, where it fixes the stack push order.
    max_nodes:
        Optional safety cap on expanded nodes; when hit, the best
        incumbent so far is returned and ``stats.truncated`` is set.
    metric:
        Partial-distance metric: ``"l2"`` (exact ML, default) or
        ``"linf"`` (Seethaler & Bölcskei max/compare kernel — cheaper
        NORM stage, bounded BER loss).
    lattice:
        Lattice representation: ``"complex"`` (default), ``"real"``
        (stacked real decomposition) or ``"real-reordered"`` (Azzam &
        Ayanoglu interleaving). Real lattices need square QAM.
    """

    name = "sphere-gemm"
    trace_root = "sd"

    def __init__(
        self,
        constellation: Constellation,
        *,
        strategy: str = "best-first",
        radius_policy: RadiusPolicy | None = None,
        ordering: str = "natural",
        pool_size: int = 8,
        child_ordering: str = "sorted",
        max_nodes: int | None = None,
        metric: str = "l2",
        lattice: str = "complex",
    ) -> None:
        self.constellation = constellation
        self.strategy = check_in(strategy, "strategy", STRATEGIES)
        self.radius_policy = radius_policy or BabaiRadius()
        self.ordering = check_in(ordering, "ordering", ORDERINGS)
        self.pool_size = check_positive_int(pool_size, "pool_size")
        self.child_ordering = check_in(
            child_ordering, "child_ordering", CHILD_ORDERS
        )
        self.max_nodes = (
            None if max_nodes is None else check_positive_int(max_nodes, "max_nodes")
        )
        self.metric = metric
        self.lattice = lattice
        self._resolve_axes()
        self._qr = None
        self._channel = None
        self._noise_var = 0.0
        self._prepared = False

    def _policy(self) -> TraversalPolicy:
        if self.strategy == "best-first":
            return BestFirstPolicy(
                pool_size=self.pool_size, max_nodes=self.max_nodes
            )
        return DfsPolicy(
            child_ordering=self.child_ordering, max_nodes=self.max_nodes
        )

    def _detect_span_args(self) -> dict:
        return {"detector": self.name, "strategy": self.strategy}
