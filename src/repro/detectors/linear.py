"""Linear detectors: Maximum Ratio Combining, Zero Forcing, MMSE.

These are the low-complexity / poor-BER baselines of the paper's
introduction and Fig. 12. Each computes a linear equalising filter in
``prepare`` (amortised per channel block) and applies one matrix-vector
product plus slicing per ``detect``.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.util.validation import check_finite, check_matrix, check_vector


class _LinearDetector(Detector):
    """Shared scaffolding: filter matrix ``W`` so ``s_hat = slice(W y)``."""

    def __init__(self, constellation: Constellation) -> None:
        self.constellation = constellation
        self._channel: np.ndarray | None = None
        self._filter: np.ndarray | None = None
        self._prepared = False

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        raise NotImplementedError

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = check_finite(check_matrix(channel, "channel"), "channel")
        if noise_var < 0:
            raise ValueError(f"noise_var must be non-negative, got {noise_var}")
        self._channel = channel
        self._filter = self._compute_filter(channel, float(noise_var))
        self._prepared = True

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = check_vector(
            received, "received", length=self._channel.shape[0]
        )
        check_finite(received, "received")
        estimate = self._filter @ received
        indices = self.constellation.nearest_indices(estimate)
        symbols = self.constellation.map_indices(indices)
        bits = self.constellation.indices_to_bits(indices)
        residual = received - self._channel @ symbols
        metric = float(np.real(np.vdot(residual, residual)))
        return DetectionResult(
            indices=indices, symbols=symbols, bits=bits, metric=metric
        )

    def detect_batch(self, received: np.ndarray) -> list[DetectionResult]:
        """Vectorised block detection: one GEMM for all vectors.

        Linear detection of a whole block is a single matrix-matrix
        product (`W @ Y^T`) plus vectorised slicing — the BLAS-3 shape
        the paper's refactor is all about. Equivalent to per-vector
        :meth:`detect`, just faster (verified in the tests).
        """
        self._require_prepared()
        received = np.asarray(received)
        if received.ndim != 2 or received.shape[1] != self._channel.shape[0]:
            raise ValueError(
                f"received must have shape (F, {self._channel.shape[0]}), "
                f"got {received.shape}"
            )
        check_finite(received, "received")
        estimates = received @ self._filter.T  # (F, n_tx) in one GEMM
        indices = self.constellation.nearest_indices(estimates)
        symbols = self.constellation.points[indices]
        residuals = received - symbols @ self._channel.T
        metrics = np.sum(np.abs(residuals) ** 2, axis=1)
        return [
            DetectionResult(
                indices=indices[i],
                symbols=symbols[i],
                bits=self.constellation.indices_to_bits(indices[i]),
                metric=float(metrics[i]),
            )
            for i in range(received.shape[0])
        ]


class ZeroForcingDetector(_LinearDetector):
    """Zero forcing: ``W = (H^H H)^{-1} H^H`` (the pseudo-inverse).

    Removes inter-stream interference completely at the cost of noise
    enhancement — the classic complexity/BER trade-off the paper cites.
    """

    name = "zf"

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        return np.linalg.pinv(channel)


class MMSEDetector(_LinearDetector):
    """Linear MMSE: ``W = (H^H H + (sigma^2/Es) I)^{-1} H^H``.

    Balances interference suppression against noise enhancement; needs
    the noise variance at ``prepare`` time.
    """

    name = "mmse"

    def __init__(self, constellation: Constellation, es: float = 1.0) -> None:
        super().__init__(constellation)
        if es <= 0:
            raise ValueError(f"es must be positive, got {es}")
        self.es = float(es)

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        n_tx = channel.shape[1]
        gram = np.conj(channel.T) @ channel
        reg = gram + (noise_var / self.es) * np.eye(n_tx)
        return np.linalg.solve(reg, np.conj(channel.T))


class MRCDetector(_LinearDetector):
    """Maximum ratio combining: per-stream matched filter.

    ``s_hat_i = slice(h_i^H y / ||h_i||^2)``. Ignores inter-stream
    interference entirely, hence the worst BER of the three — included
    because the paper lists it among the linear baselines (section I).
    """

    name = "mrc"

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        norms = np.sum(np.abs(channel) ** 2, axis=0)
        if np.any(norms == 0):
            raise np.linalg.LinAlgError("channel has an all-zero column")
        return np.conj(channel.T) / norms[:, None]
