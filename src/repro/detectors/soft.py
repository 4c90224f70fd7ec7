"""Soft-output (list) sphere detection: per-bit log-likelihood ratios.

Real deployments feed the detector's output into a channel decoder,
which wants *soft* information. The standard construction (Hochwald &
ten Brink's list sphere decoder) reuses exactly the machinery this
repository already has: enumerate the candidate leaves inside a sphere,
then form max-log APP LLRs per bit:

    LLR_b = ( min_{s in L, bit_b(s)=0} ||y - Hs||^2
            - min_{s in L, bit_b(s)=1} ||y - Hs||^2 ) / sigma^2

A positive LLR therefore means bit ``b`` is more likely **1**. When the
list contains no counter-hypothesis for some bit, the LLR is clamped to
``+-llr_clip`` (the usual practice).

The candidate list comes from one breadth-first in-sphere sweep
(:class:`~repro.detectors.sd_bfs.GemmBfsDecoder` machinery), whose
radius escalates until the list is non-empty; the hard decision is the
list's best entry — identical to the hard sphere decoder's answer
whenever the ML point is inside the sphere (guaranteed after
escalation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gemm import GemmEvaluator
from repro.core.radius import NoiseScaledRadius, RadiusPolicy
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


@dataclass
class SoftDetectionResult:
    """Hard decision plus per-bit soft information."""

    hard: DetectionResult
    #: ``(n_tx * bits_per_symbol,)`` max-log LLRs; positive favours 1.
    llrs: np.ndarray
    #: Candidate-list size the LLRs were computed from.
    list_size: int


class SoftOutputSphereDetector(Detector):
    """List sphere decoder producing max-log APP LLRs.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    radius_policy:
        Sphere for the candidate list; a *larger* alpha gives richer
        lists and better-conditioned LLRs at more work. Escalates until
        at least one candidate exists.
    max_list:
        Keep at most this many best candidates per detection.
    llr_clip:
        Magnitude assigned when a bit has no counter-hypothesis in the
        list.
    """

    name = "sphere-soft"

    def __init__(
        self,
        constellation: Constellation,
        *,
        radius_policy: RadiusPolicy | None = None,
        max_list: int = 512,
        llr_clip: float = 50.0,
    ) -> None:
        self.constellation = constellation
        self.radius_policy = radius_policy or NoiseScaledRadius(alpha=4.0)
        self.max_list = check_positive_int(max_list, "max_list")
        if llr_clip <= 0:
            raise ValueError(f"llr_clip must be positive, got {llr_clip}")
        self.llr_clip = float(llr_clip)
        self._qr: QRResult | None = None
        self._channel: np.ndarray | None = None
        self._noise_var = 0.0
        self._prepared = False

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = check_finite(check_matrix(channel, "channel"), "channel")
        if noise_var < 0:
            raise ValueError(f"noise_var must be non-negative, got {noise_var}")
        self._channel = channel
        self._qr = qr_decompose(channel)
        self._noise_var = float(noise_var)
        self._prepared = True

    # ------------------------------------------------------------------

    def _candidate_list(
        self, evaluator: GemmEvaluator, radius_sq: float, stats: DecodeStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """In-sphere leaves: ``(paths (L, M) root-first, metrics (L,))``."""
        paths = np.empty((1, 0), dtype=np.int64)
        pds = np.zeros(1, dtype=float)
        n_tx = evaluator.n_tx
        p = evaluator.order
        for level in range(n_tx - 1, -1, -1):
            child_pds = evaluator.expand(level, paths, pds)
            stats.nodes_expanded += paths.shape[0]
            stats.nodes_generated += paths.shape[0] * p
            stats.batches.append(BatchEvent(level=level, pool_size=paths.shape[0]))
            keep_n, keep_c = np.nonzero(child_pds < radius_sq)
            stats.nodes_pruned += paths.shape[0] * p - keep_n.size
            if keep_n.size == 0:
                return np.empty((0, n_tx), dtype=np.int64), np.empty(0)
            new_pds = child_pds[keep_n, keep_c]
            if keep_n.size > self.max_list:
                top = np.argpartition(new_pds, self.max_list)[: self.max_list]
                keep_n, keep_c, new_pds = keep_n[top], keep_c[top], new_pds[top]
                stats.truncated += 1
            paths = np.concatenate(
                [paths[keep_n], keep_c[:, None].astype(np.int64)], axis=1
            )
            pds = new_pds
            stats.max_list_size = max(stats.max_list_size, paths.shape[0])
        stats.leaves_reached += paths.shape[0]
        return paths, pds

    def detect_soft(self, received: np.ndarray) -> SoftDetectionResult:
        """Hard decision + max-log LLRs for one received vector."""
        self._require_prepared()
        received = check_vector(
            received, "received", length=self._channel.shape[0]
        )
        check_finite(received, "received")
        timer = Timer()
        stats = DecodeStats()
        with timer:
            ybar = effective_receive(self._qr, received)
            evaluator = GemmEvaluator(self._qr.r, ybar, self.constellation)
            init = self.radius_policy.initial(
                self._qr.r, ybar, self.constellation, self._noise_var
            )
            radius_sq = float(init.radius_sq)
            stats.radius_trace.append(radius_sq)
            paths, metrics = self._candidate_list(evaluator, radius_sq, stats)
            while paths.shape[0] == 0:
                radius_sq *= 4.0
                stats.radius_trace.append(radius_sq)
                paths, metrics = self._candidate_list(evaluator, radius_sq, stats)
            stats.gemm_calls = evaluator.gemm_calls
            stats.gemm_flops = evaluator.gemm_flops + evaluator.norm_flops
            # Hard decision: list leader, back in original antenna order.
            best = int(np.argmin(metrics))
            indices = self._qr.unpermute(paths[best, ::-1].copy())
            # Candidate bit matrix in *original* order: (L, n_tx * b).
            n_tx = evaluator.n_tx
            level_indices = paths[:, ::-1]  # (L, n_tx) by level
            original = np.empty_like(level_indices)
            original[:, self._qr.permutation] = level_indices
            bits = self.constellation.labels[original].reshape(
                paths.shape[0], -1
            )  # (L, n_bits) booleans
            # Max-log LLR per bit, with clamping.
            sigma2 = self._noise_var if self._noise_var > 0 else 1.0
            n_bits = bits.shape[1]
            llrs = np.empty(n_bits)
            for b in range(n_bits):
                ones = metrics[bits[:, b]]
                zeros = metrics[~bits[:, b]]
                if ones.size and zeros.size:
                    llrs[b] = (zeros.min() - ones.min()) / sigma2
                elif ones.size:
                    llrs[b] = self.llr_clip
                else:
                    llrs[b] = -self.llr_clip
            np.clip(llrs, -self.llr_clip, self.llr_clip, out=llrs)
        stats.wall_time_s = timer.elapsed
        symbols = self.constellation.map_indices(indices)
        hard_bits = self.constellation.indices_to_bits(indices)
        residual = received - self._channel @ symbols
        hard = DetectionResult(
            indices=indices,
            symbols=symbols,
            bits=hard_bits,
            metric=float(np.real(np.vdot(residual, residual))),
            stats=stats,
        )
        return SoftDetectionResult(
            hard=hard, llrs=llrs, list_size=int(paths.shape[0])
        )

    def detect(self, received: np.ndarray) -> DetectionResult:
        """Hard-decision compatibility entry point."""
        return self.detect_soft(received).hard
