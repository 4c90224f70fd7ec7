"""Initial sphere-radius policies (paper Alg. 1, "Radius r" input).

The sphere constraint ``||ybar - R s||^2 <= r^2`` prunes the search; the
radius is then tightened at run time whenever a better leaf is found.
Three initialisation policies are provided:

:class:`InfiniteRadius`
    No initial pruning. The search is guaranteed exact and never erases,
    but explores the most nodes. This is the configuration used for the
    exactness proofs in the test suite.

:class:`NoiseScaledRadius`
    ``r^2 = alpha * N * sigma^2`` — the classic statistical choice: the
    true transmit vector satisfies ``||ybar - R s||^2 = ||Q^H n||^2``
    whose mean is ``M * sigma^2`` (thin QR retains M of the N noise
    dimensions), so a small multiple captures the solution with high
    probability. May erase (no leaf inside the sphere); the decoder
    escalates the radius and retries.

:class:`BabaiRadius`
    Seeds the search with the Babai / SIC (successive interference
    cancellation) point: decision-feedback back-substitution through
    ``R``. Its metric is a valid upper bound on the ML metric, so the
    sphere is never empty, the returned answer is still exactly ML, and
    pruning is tight from the very first pop. This is the default for the
    performance experiments.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.metric import L2, PartialDistanceMetric, resolve_metric
from repro.mimo.constellation import Constellation


def babai_point(
    r: np.ndarray,
    ybar: np.ndarray,
    constellation: Constellation,
    *,
    metric: PartialDistanceMetric | str | None = None,
) -> tuple[np.ndarray, float]:
    """Babai (SIC) solution and its reduced-domain metric.

    Back-substitution from level ``M-1`` down to ``0``, slicing each
    estimate to the nearest constellation point. The decision sequence is
    metric-independent (each level slices to the nearest point), but the
    accumulated metric follows the requested partial-distance ``metric``
    so the bound is valid for the traversal consuming it (a summed ℓ₂
    value would be a wrong — too loose *and* differently scaled — ℓ∞
    incumbent, and vice versa).

    Returns
    -------
    ``(indices_by_level, metric)`` where ``indices_by_level[k]`` is the
    point index at level ``k`` and ``metric`` is the reduced-domain
    metric of the Babai leaf (``||ybar - R s||^2`` under ℓ₂).
    """
    metric_obj = resolve_metric(metric)
    n_tx = r.shape[0]
    indices = np.empty(n_tx, dtype=np.int64)
    symbols = np.empty(n_tx, dtype=np.complex128)
    metric_val = 0.0
    accumulate = metric_obj.scalar_accumulate
    for k in range(n_tx - 1, -1, -1):
        interference = r[k, k + 1 :] @ symbols[k + 1 :]
        estimate = (ybar[k] - interference) / r[k, k]
        idx = constellation.nearest_index(estimate)
        indices[k] = idx
        symbols[k] = constellation.points[idx]
        err = ybar[k] - interference - r[k, k] * symbols[k]
        metric_val = accumulate(metric_val, err)
    return indices, metric_val


@dataclass(frozen=True)
class RadiusInit:
    """Outcome of a radius policy.

    Attributes
    ----------
    radius_sq:
        Initial squared radius ``r^2``.
    incumbent_indices:
        Optional initial solution (ascending-level point indices) whose
        metric equals ``radius_sq``; ``None`` when the policy provides a
        bound without a candidate.
    """

    radius_sq: float
    incumbent_indices: np.ndarray | None = None


class RadiusPolicy(abc.ABC):
    """Strategy object computing the initial sphere radius."""

    #: Factor applied to ``r^2`` when the sphere turns out empty.
    escalation_factor: float = 4.0

    @abc.abstractmethod
    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        """Initial radius (and optional incumbent) for one detection."""

    def can_escalate(self) -> bool:
        """Whether an empty sphere should be retried with a larger radius."""
        return True


class InfiniteRadius(RadiusPolicy):
    """No initial pruning — pure exact search."""

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        return RadiusInit(radius_sq=np.inf)

    def can_escalate(self) -> bool:
        return False  # an infinite sphere can never be empty


@dataclass
class NoiseScaledRadius(RadiusPolicy):
    """``r^2 = alpha * n_tx * sigma^2`` (statistical initial radius)."""

    alpha: float = 2.0
    escalation_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.escalation_factor <= 1:
            raise ValueError(
                f"escalation_factor must exceed 1, got {self.escalation_factor}"
            )

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        n_tx = r.shape[0]
        if noise_var <= 0:
            # Noiseless operation: fall back to the Babai bound, which is
            # always valid; a zero radius would erase every time.
            indices, bound = babai_point(r, ybar, constellation, metric=metric)
            return RadiusInit(radius_sq=bound, incumbent_indices=indices)
        if metric is not None and metric is not L2 and metric.name != L2.name:
            # A statistical chi-square radius is an l2-metric quantity;
            # for other metrics the Babai bound is the valid analogue.
            indices, bound = babai_point(r, ybar, constellation, metric=metric)
            return RadiusInit(radius_sq=bound, incumbent_indices=indices)
        return RadiusInit(radius_sq=self.alpha * n_tx * noise_var)


@dataclass
class FixedRadius(RadiusPolicy):
    """A user-preset squared radius, constant across detections.

    This is literally Algorithm 1's ``Radius r`` input. The GPU GEMM-BFS
    implementation of [1] operates this way: the radius is provisioned
    for the *worst-case* SNR the deployment must survive, so at high SNR
    the sphere is far larger than necessary and the breadth-first
    frontier stays enormous — the effect behind the paper's Fig. 11.
    """

    radius_sq: float = 1.0
    escalation_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.radius_sq <= 0:
            raise ValueError(f"radius_sq must be positive, got {self.radius_sq}")
        if self.escalation_factor <= 1:
            raise ValueError(
                f"escalation_factor must exceed 1, got {self.escalation_factor}"
            )

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        return RadiusInit(radius_sq=self.radius_sq)


class BabaiRadius(RadiusPolicy):
    """Seed with the SIC solution: never erases, stays exact, prunes hard."""

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        indices, bound = babai_point(r, ybar, constellation, metric=metric)
        return RadiusInit(radius_sq=bound, incumbent_indices=indices)

    def can_escalate(self) -> bool:
        return False  # the Babai sphere always contains its own point
