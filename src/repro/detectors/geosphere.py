"""Geosphere-style exact depth-first sphere decoder (Fig. 12 baseline).

Geosphere (Nikitopoulos et al., SIGCOMM'14) is an exact depth-first
sphere decoder whose key trick is geometric (sort-free) Schnorr–Euchner
child enumeration; it was deployed on the Rice WARP radio platform. For
the purposes of the paper's Fig. 12 comparison what matters is its
*search schedule*: one node expanded at a time, children visited in
ascending-PD order, radius updated at each leaf — i.e. the sorted-DFS
strategy without GEMM batching.

We therefore realise it as a thin configuration of
:class:`~repro.detectors.sphere.SphereDecoder` (strategy ``"dfs"``,
pool size 1, infinite initial radius: exact ML), and the WARP cost model
in :mod:`repro.perfmodel` charges its node count at scalar
(non-batched) per-node cost — the memory-bound profile the paper says
the GEMM refactor eliminates. The shared engine path handles the
``detect``/``decode_batch`` plumbing; ``wrapper_span`` re-badges the
traces so Geosphere time is attributable in mixed-detector runs (the
inner ``sd.detect``/``sd.solve`` spans nest beneath ``geosphere.*``).
"""

from __future__ import annotations

from repro.core.radius import InfiniteRadius, RadiusPolicy
from repro.detectors.sphere import SphereDecoder
from repro.mimo.constellation import Constellation


class GeosphereDecoder(SphereDecoder):
    """Exact DFS sphere decoder with sorted (Schnorr–Euchner) enumeration."""

    name = "geosphere"
    wrapper_span = "geosphere"

    def __init__(
        self,
        constellation: Constellation,
        *,
        radius_policy: RadiusPolicy | None = None,
        max_nodes: int | None = None,
    ) -> None:
        super().__init__(
            constellation,
            strategy="dfs",
            radius_policy=radius_policy or InfiniteRadius(),
            ordering="natural",
            pool_size=1,
            child_ordering="sorted",
            max_nodes=max_nodes,
        )
