"""Brute-force Maximum Likelihood detector (paper eq. 2).

Enumerates all ``P^M`` candidate vectors and returns the one minimising
``||y - H s||^2``. Exponential — usable only for small systems — but it
is the *ground truth* the sphere decoders are property-tested against:
an exact SD must return exactly this answer.

Candidates are enumerated in chunks and evaluated with one GEMM per
chunk, so even the brute force follows the guides' BLAS-3 idiom.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.util.validation import (
    check_finite,
    check_matrix,
    check_positive_int,
    check_vector,
)

#: Refuse enumerations larger than this (prevents accidental 16-QAM 10x10).
DEFAULT_MAX_CANDIDATES = 4_194_304


class MLDetector(Detector):
    """Exhaustive ML search over the full candidate lattice."""

    name = "ml"

    def __init__(
        self,
        constellation: Constellation,
        *,
        max_candidates: int = DEFAULT_MAX_CANDIDATES,
        chunk_size: int = 65536,
    ) -> None:
        self.constellation = constellation
        self.max_candidates = check_positive_int(max_candidates, "max_candidates")
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self._channel: np.ndarray | None = None
        self._prepared = False

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = check_finite(check_matrix(channel, "channel"), "channel")
        n_tx = channel.shape[1]
        total = self.constellation.order**n_tx
        if total > self.max_candidates:
            raise ValueError(
                f"brute-force ML would enumerate {total} candidates "
                f"(> max_candidates={self.max_candidates}); use a sphere decoder"
            )
        self._channel = channel
        self._prepared = True

    def _candidate_indices(self, n_tx: int, start: int, count: int) -> np.ndarray:
        """Rows ``start .. start+count`` of the mixed-radix enumeration.

        Candidate ``c`` maps to digits of ``c`` in base ``P``: stream ``j``
        gets digit ``(c // P^(M-1-j)) mod P``.
        """
        p = self.constellation.order
        ids = np.arange(start, start + count, dtype=np.int64)
        powers = p ** np.arange(n_tx - 1, -1, -1, dtype=np.int64)
        return (ids[:, None] // powers[None, :]) % p

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        channel = self._channel
        received = check_vector(received, "received", length=channel.shape[0])
        check_finite(received, "received")
        n_tx = channel.shape[1]
        total = self.constellation.order**n_tx
        best_metric = np.inf
        best_indices: np.ndarray | None = None
        points = self.constellation.points
        for start in range(0, total, self.chunk_size):
            count = min(self.chunk_size, total - start)
            idx = self._candidate_indices(n_tx, start, count)
            candidates = points[idx]  # (count, n_tx)
            # One GEMM for the whole chunk: residuals (count, n_rx).
            residuals = candidates @ channel.T - received[None, :]
            metrics = np.sum(np.abs(residuals) ** 2, axis=1)
            k = int(np.argmin(metrics))
            # The first chunk always seeds the incumbent, so a frame whose
            # metrics all overflow to inf still gets a decision.
            if best_indices is None or metrics[k] < best_metric:
                best_metric = float(metrics[k])
                best_indices = idx[k].copy()
        symbols = points[best_indices]
        bits = self.constellation.indices_to_bits(best_indices)
        return DetectionResult(
            indices=best_indices,
            symbols=symbols,
            bits=bits,
            metric=best_metric,
        )
