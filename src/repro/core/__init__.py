"""The paper's core contribution: GEMM evaluation + traversal policies.

Since the policy/backend split, ``repro.core`` holds the search
machinery only — traversal policies, evaluators, radius schedules,
lattice tools. The detector classes built on top of them live in
:mod:`repro.detectors`.
"""

from repro.core.gemm import ChannelKernel, GemmEvaluator
from repro.core.nodepool import NodePool, extend_paths
from repro.core.stats import BatchEvent, DecodeStats
from repro.core.tree import SearchNode, path_symbols
from repro.core.radius import (
    RadiusPolicy,
    InfiniteRadius,
    NoiseScaledRadius,
    FixedRadius,
    BabaiRadius,
    babai_point,
)
from repro.core.enumeration import child_order
from repro.core.traversal import (
    TraversalPolicy,
    BestFirstPolicy,
    DfsPolicy,
    BfsPolicy,
    KBestPolicy,
    FsdPolicy,
    ScalarGemvBackend,
    FusedGemmBackend,
    TraversalEngine,
)
from repro.core.lattice import lll_reduce, LLLResult, orthogonality_defect

__all__ = [
    "GemmEvaluator",
    "ChannelKernel",
    "NodePool",
    "extend_paths",
    "BatchEvent",
    "DecodeStats",
    "SearchNode",
    "path_symbols",
    "RadiusPolicy",
    "InfiniteRadius",
    "NoiseScaledRadius",
    "FixedRadius",
    "BabaiRadius",
    "babai_point",
    "child_order",
    "TraversalPolicy",
    "BestFirstPolicy",
    "DfsPolicy",
    "BfsPolicy",
    "KBestPolicy",
    "FsdPolicy",
    "ScalarGemvBackend",
    "FusedGemmBackend",
    "TraversalEngine",
    "lll_reduce",
    "LLLResult",
    "orthogonality_defect",
]

