"""Declarative detector registry — the single construction path.

Every way the project builds a detector (CLI subcommands, the bench
harness, experiment scripts, process-sharded Monte Carlo) goes through
:class:`DetectorSpec`: a picklable value object naming a registered
*kind* plus keyword parameters. Calling the spec builds a fresh
detector, so a spec doubles as the detector factory the Monte Carlo
engine ships to pool workers — one spec, bit-identical detectors in
every process.

Registered kinds describe *configurations*, not just classes: ``sd`` is
the paper's canonical Algorithm-1 decoder (sorted-DFS + noise-scaled
radius + node cap), while ``sd-bestfs``/``sd-dfs`` are the Babai-seeded
exploration variants the CLI and the search ablation use. Each entry
also records capability flags (exact ML, fused batch decoding, FPGA
trace replay) and which paper figures use it, so ``repro-sd detectors``
can render an always-current capability table.

Adding a detector is a one-file change: implement the class, register a
kind here, and it automatically gets CLI access, batch decoding,
sharded Monte Carlo and — if it emits :class:`BatchEvent` traces —
FPGA pipeline replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.radius import BabaiRadius, NoiseScaledRadius
from repro.detectors.base import Detector
from repro.detectors.fsd import FixedComplexityDecoder
from repro.detectors.geosphere import GeosphereDecoder
from repro.detectors.kbest import KBestDecoder
from repro.detectors.linear import MMSEDetector, MRCDetector, ZeroForcingDetector
from repro.detectors.lr import LRZFDetector
from repro.detectors.ml import MLDetector
from repro.detectors.partitioned import PartitionedSphereDecoder
from repro.detectors.real_sd import RealSphereDecoder
from repro.detectors.sd_bfs import GemmBfsDecoder
from repro.detectors.sic import SICDetector
from repro.detectors.sphere import SphereDecoder
from repro.mimo.constellation import Constellation

#: Safety cap on expanded nodes per decode for the huge low-SNR points
#: (20x20 at 4 dB); truncations are counted and reported. This is the
#: ``max_nodes`` default of the canonical ``sd`` kind.
DEFAULT_MAX_NODES = 150_000


@dataclass(frozen=True)
class DetectorEntry:
    """One registered detector configuration.

    Attributes
    ----------
    kind:
        Registry key (``"sd"``, ``"bfs"``, ``"zf"``...).
    summary:
        One-line description for ``repro-sd detectors``.
    factory:
        ``factory(constellation, **params) -> Detector``.
    defaults:
        Full parameter set with default values; a spec may only
        override keys present here.
    exact:
        Returns the ML decision (brute-force-verified for the
        tree-search members in ``tests/test_ml_oracle.py``).
    batch:
        Supports the cross-frame fused ``decode_batch`` path.
    fpga_replayable:
        Emits a :class:`~repro.core.stats.BatchEvent` trace the FPGA
        pipeline simulator can replay.
    metric:
        Partial-distance metric of the node kernel (``"l2"`` exact ML
        reference, ``"linf"`` max/compare). Approximate metrics imply
        ``exact=False``.
    lattice:
        Lattice representation searched (``"complex"``, ``"real"``,
        ``"real-reordered"``); see :mod:`repro.core.lattice`.
    figures:
        Paper figures / experiments that use this configuration.
    """

    kind: str
    summary: str
    factory: Callable[..., Detector]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    exact: bool = False
    batch: bool = False
    fpga_replayable: bool = False
    metric: str = "l2"
    lattice: str = "complex"
    figures: tuple[str, ...] = ()


@dataclass(frozen=True)
class DetectorSpec:
    """Picklable ``kind + params -> detector`` factory.

    Calling the spec builds a **fresh** detector instance. The factory
    itself is looked up in the registry at call time, so a pickled spec
    carries only the kind string, the constellation and plain-value
    parameters — safe to ship across a ``ProcessPoolExecutor``.
    """

    kind: str
    constellation: Constellation
    params: tuple[tuple[str, Any], ...] = ()

    def __call__(self) -> Detector:
        entry = detector_entry(self.kind)
        kwargs = dict(entry.defaults)
        kwargs.update(self.params)
        return entry.factory(self.constellation, **kwargs)

    def params_dict(self) -> dict[str, Any]:
        """The spec's parameter overrides as a plain dict."""
        return dict(self.params)


_REGISTRY: dict[str, DetectorEntry] = {}


def _register(entry: DetectorEntry) -> None:
    if entry.kind in _REGISTRY:
        raise ValueError(f"detector kind {entry.kind!r} already registered")
    _REGISTRY[entry.kind] = entry


def detector_entry(kind: str) -> DetectorEntry:
    """The registry entry for ``kind`` (KeyError-free lookup)."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown detector kind {kind!r}; registered kinds: {known}"
        ) from None


def detector_entries() -> tuple[DetectorEntry, ...]:
    """All registry entries, in registration (documentation) order."""
    return tuple(_REGISTRY.values())


def spec(kind: str, constellation: Constellation, **params: Any) -> DetectorSpec:
    """Build a validated :class:`DetectorSpec`.

    Parameter names are checked against the entry's declared defaults so
    a typo fails at spec-construction time, not inside a pool worker.
    """
    entry = detector_entry(kind)
    unknown = sorted(set(params) - set(entry.defaults))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for detector kind {kind!r}; "
            f"accepted: {sorted(entry.defaults)}"
        )
    return DetectorSpec(kind, constellation, tuple(sorted(params.items())))


# ----------------------------------------------------------------------
# Factories (module-level so entries stay picklable-by-reference)
# ----------------------------------------------------------------------


def _make_sd(constellation, *, alpha, max_nodes, child_ordering):
    return SphereDecoder(
        constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=alpha),
        child_ordering=child_ordering,
        max_nodes=max_nodes,
    )


def _make_sd_bestfs(constellation, *, pool_size, max_nodes):
    return SphereDecoder(
        constellation,
        strategy="best-first",
        pool_size=pool_size,
        max_nodes=max_nodes,
    )


def _make_sd_dfs(constellation, *, child_ordering, max_nodes):
    return SphereDecoder(
        constellation,
        strategy="dfs",
        child_ordering=child_ordering,
        max_nodes=max_nodes,
    )


def _make_bfs(constellation, *, alpha, max_frontier):
    return GemmBfsDecoder(
        constellation,
        radius_policy=NoiseScaledRadius(alpha=alpha),
        max_frontier=max_frontier,
    )


def _make_geosphere(constellation, *, max_nodes):
    return GeosphereDecoder(constellation, max_nodes=max_nodes)


def _make_kbest(constellation, *, k):
    return KBestDecoder(constellation, k=k)


def _make_fsd(constellation, *, rho):
    return FixedComplexityDecoder(constellation, rho=rho)


def _make_real_sd(constellation, *, alpha, max_nodes):
    return RealSphereDecoder(
        constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=alpha),
        max_nodes=max_nodes,
    )


def _make_sd_linf(constellation, *, alpha, max_nodes, child_ordering):
    # Same traversal shape as the canonical ``sd`` kind; only the
    # partial-distance metric differs (under linf the noise-scaled
    # radius degenerates to the metric-consistent Babai seed).
    return SphereDecoder(
        constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=alpha),
        child_ordering=child_ordering,
        max_nodes=max_nodes,
        metric="linf",
    )


def _make_kbest_linf(constellation, *, k):
    return KBestDecoder(constellation, k=k, metric="linf")


def _make_real_sd_reordered(constellation, *, alpha, max_nodes):
    return RealSphereDecoder(
        constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=alpha),
        max_nodes=max_nodes,
        lattice="real-reordered",
    )


def _make_partitioned(constellation, *, n_pes, alpha, max_rounds):
    radius_policy = BabaiRadius() if alpha is None else NoiseScaledRadius(alpha=alpha)
    return PartitionedSphereDecoder(
        constellation,
        n_pes=n_pes,
        radius_policy=radius_policy,
        max_rounds=max_rounds,
    )


def _make_zf(constellation):
    return ZeroForcingDetector(constellation)


def _make_mmse(constellation, *, es):
    return MMSEDetector(constellation, es=es)


def _make_mrc(constellation):
    return MRCDetector(constellation)


def _make_ml(constellation, *, max_candidates, chunk_size):
    if max_candidates is None:
        return MLDetector(constellation, chunk_size=chunk_size)
    return MLDetector(
        constellation, max_candidates=max_candidates, chunk_size=chunk_size
    )


def _make_sic(constellation, *, ordering):
    return SICDetector(constellation, ordering=ordering)


def _make_lr_zf(constellation, *, delta):
    return LRZFDetector(constellation, delta=delta)


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------

_register(DetectorEntry(
    kind="sd",
    summary="canonical Algorithm-1 SD: sorted-DFS, noise-scaled radius, node cap",
    factory=_make_sd,
    defaults={
        "alpha": 2.0,
        "max_nodes": DEFAULT_MAX_NODES,
        "child_ordering": "sorted",
    },
    exact=True,
    batch=True,
    fpga_replayable=True,
    figures=(
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "table2", "smoke", "ablation-search", "ablation-precision",
        "ablation-csi", "ablation-correlation", "ablation-domain",
    ),
))

_register(DetectorEntry(
    kind="sd-bestfs",
    summary="Best-FS SD: global PD priority queue, Babai seed, GEMM pooling",
    factory=_make_sd_bestfs,
    defaults={"pool_size": 8, "max_nodes": None},
    exact=True,
    batch=True,
    fpga_replayable=True,
    figures=("ablation-search",),
))

_register(DetectorEntry(
    kind="sd-dfs",
    summary="sorted-DFS SD with Babai-seeded incumbent (no escalation)",
    factory=_make_sd_dfs,
    defaults={
        "child_ordering": "sorted",
        "max_nodes": None,
    },
    exact=True,
    batch=True,
    fpga_replayable=True,
    figures=("ablation-search",),
))

_register(DetectorEntry(
    kind="bfs",
    summary="level-synchronous GEMM-BFS (the GPU baseline of [1])",
    factory=_make_bfs,
    defaults={"alpha": 4.0, "max_frontier": 2**19},
    exact=True,
    batch=True,
    fpga_replayable=True,
    figures=("fig11", "ablation-search"),
))

_register(DetectorEntry(
    kind="geosphere",
    summary="Geosphere-style scalar DFS (exact, non-batched WARP baseline)",
    factory=_make_geosphere,
    defaults={"max_nodes": None},
    exact=True,
    batch=True,
    fpga_replayable=True,
    figures=("fig12",),
))

_register(DetectorEntry(
    kind="kbest",
    summary="K-best: fixed-throughput breadth-first, K survivors per level",
    factory=_make_kbest,
    defaults={"k": 16},
    exact=False,
    batch=True,
    fpga_replayable=True,
))

_register(DetectorEntry(
    kind="fsd",
    summary="fixed-complexity SD: full enumeration on rho levels, SIC below",
    factory=_make_fsd,
    defaults={"rho": 1},
    exact=False,
    batch=True,
    fpga_replayable=True,
))

_register(DetectorEntry(
    kind="sphere-real",
    summary="exact SD over the 2M-level real-decomposition lattice",
    factory=_make_real_sd,
    defaults={"alpha": 2.0, "max_nodes": None},
    exact=True,
    batch=False,
    fpga_replayable=True,
    lattice="real",
    figures=("ablation-domain",),
))

_register(DetectorEntry(
    kind="sd-linf",
    summary="linf-norm SD: max/compare NORM stage, bounded BER loss",
    factory=_make_sd_linf,
    defaults={
        "alpha": 2.0,
        "max_nodes": DEFAULT_MAX_NODES,
        "child_ordering": "sorted",
    },
    exact=False,
    batch=True,
    fpga_replayable=True,
    metric="linf",
    figures=("ablation-metric",),
))

_register(DetectorEntry(
    kind="kbest-linf",
    summary="K-best with linf partial distances (compare-tree NORM)",
    factory=_make_kbest_linf,
    defaults={"k": 16},
    exact=False,
    batch=True,
    fpga_replayable=True,
    metric="linf",
))

_register(DetectorEntry(
    kind="sd-real-reordered",
    summary="exact SD on the reordered (interleaved) real lattice",
    factory=_make_real_sd_reordered,
    defaults={"alpha": 2.0, "max_nodes": None},
    exact=True,
    batch=True,
    fpga_replayable=True,
    lattice="real-reordered",
    figures=("ablation-metric",),
))

_register(DetectorEntry(
    kind="partitioned",
    summary="multi-PE cooperative tree search (section V future work)",
    factory=_make_partitioned,
    defaults={
        "n_pes": 4,
        "alpha": None,
        "max_rounds": None,
    },
    exact=True,
    batch=False,
    fpga_replayable=True,
    figures=("ablation-parallel",),
))

_register(DetectorEntry(
    kind="ml",
    summary="brute-force maximum likelihood (ground truth; no trace)",
    factory=_make_ml,
    defaults={"max_candidates": None, "chunk_size": 65536},
    exact=True,
))

_register(DetectorEntry(
    kind="zf",
    summary="zero-forcing linear detector",
    factory=_make_zf,
    figures=("fig7", "fig12"),
))

_register(DetectorEntry(
    kind="mmse",
    summary="MMSE linear detector",
    factory=_make_mmse,
    defaults={"es": 1.0},
    figures=("fig7", "fig12"),
))

_register(DetectorEntry(
    kind="mrc",
    summary="maximum-ratio combining (matched filter)",
    factory=_make_mrc,
))

_register(DetectorEntry(
    kind="sic",
    summary="successive interference cancellation (nulling + cancelling)",
    factory=_make_sic,
    defaults={"ordering": "sqrd"},
))

_register(DetectorEntry(
    kind="lr-zf",
    summary="lattice-reduction-aided ZF (LLL basis)",
    factory=_make_lr_zf,
    defaults={"delta": 0.75},
))
