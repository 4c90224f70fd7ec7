"""GEMM-based Breadth-First sphere decoder — the GPU baseline of [1].

Arfaoui et al. (the approach this paper compares against in Fig. 11)
traverse the SD tree level-synchronously: every surviving node of level
``k`` is expanded in one huge GEMM, maximising dependence-free
parallelism for the GPU. The price (the paper's central argument) is
that the sphere radius cannot tighten until the *entire* tree has been
swept to the leaves, so the number of explored nodes is orders of
magnitude larger than with leaf-first strategies — Best-FS visits "less
than 1% of the number of explored nodes" (section IV-F).

The sweep itself is :class:`~repro.core.traversal.BfsPolicy`: the whole
frontier lives in flat arrays and each level is one
:class:`ExpandRequest`, so the :class:`~repro.core.stats.BatchEvent`
trace has exactly one event per level with ``pool_size`` = frontier
width — precisely the workload shape the GPU cost model expects. This
class is the detector shell binding that policy to plain-QR
preprocessing and the ``bfs.*`` obs vocabulary.
"""

from __future__ import annotations

from repro.core.radius import NoiseScaledRadius, RadiusPolicy
from repro.core.traversal import BfsPolicy, TraversalPolicy
from repro.detectors.engine import EngineDetector
from repro.mimo.constellation import Constellation
from repro.util.validation import check_positive_int


class GemmBfsDecoder(EngineDetector):
    """Level-synchronous GEMM sphere decoder (the [1]/GPU strategy).

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    radius_policy:
        Initial radius; BFS relies on it for all its pruning, so the
        default is the statistical :class:`NoiseScaledRadius`. If a level
        ends with an empty frontier the radius escalates and the sweep
        restarts.
    max_frontier:
        Optional cap on the surviving frontier per level (K-best style
        truncation). ``None`` keeps every in-sphere node, as in [1] —
        exact *within the sphere* but memory-hungry for 16-QAM.
    """

    name = "sphere-gemm-bfs"
    trace_root = "bfs"

    def __init__(
        self,
        constellation: Constellation,
        *,
        radius_policy: RadiusPolicy | None = None,
        max_frontier: int | None = None,
    ) -> None:
        self.constellation = constellation
        self.radius_policy = radius_policy or NoiseScaledRadius(alpha=2.0)
        self.max_frontier = (
            None
            if max_frontier is None
            else check_positive_int(max_frontier, "max_frontier")
        )
        self._qr = None
        self._channel = None
        self._noise_var = 0.0
        self._prepared = False

    def _policy(self) -> TraversalPolicy:
        return BfsPolicy(max_frontier=self.max_frontier)
