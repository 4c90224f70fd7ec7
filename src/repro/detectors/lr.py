"""Lattice-reduction-aided linear detection (LR-ZF).

Plain ZF slices each stream against the raw channel's axes; when the
channel is ill-conditioned the decision regions are badly skewed and
diversity collapses to 1. Slicing in an LLL-reduced basis fixes this:

1. real-decompose the system and map the PAM alphabet onto a shifted
   integer lattice:  ``x = scale * (2u - (L-1) 1)``, ``u in {0..L-1}^2M``;
2. LLL-reduce ``B = 2*scale*H_r`` into ``B_tilde = B T``;
3. zero-force and round in the reduced coordinates
   ``v = round(pinv(B_tilde) y')``;
4. map back ``u = T v``, clip to the alphabet box, re-assemble symbols.

LR-aided ZF achieves the full receive diversity of ML at linear cost —
it slots between MMSE and the tree searches in the detector hierarchy
and gives the repository a modern low-complexity baseline the paper's
introduction alludes to when discussing the complexity/BER trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.core.lattice import lll_reduce
from repro.detectors.base import DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import real_decomposition
from repro.util.validation import check_finite, check_matrix, check_vector


class LRZFDetector(Detector):
    """Zero forcing in an LLL-reduced lattice basis.

    Only square-QAM constellations are supported (the real decomposition
    needs a per-dimension PAM alphabet).
    """

    name = "lr-zf"

    def __init__(self, constellation: Constellation, *, delta: float = 0.75) -> None:
        if not constellation.is_square_qam:
            raise ValueError(
                "LR-aided detection requires a square QAM constellation"
            )
        self.constellation = constellation
        self.delta = float(delta)
        self._channel: np.ndarray | None = None
        self._reduced_pinv: np.ndarray | None = None
        self._transform: np.ndarray | None = None
        self._h_real: np.ndarray | None = None
        self._prepared = False

    # The normalised QAM grid step over 2 (distance from level to level
    # midpoint): re/im parts live on scale*{-(L-1), ..., L-1, step 2}.
    @property
    def _scale(self) -> float:
        return float(1.0 / np.sqrt(2.0 * (self.constellation.order - 1) / 3.0))

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = check_finite(check_matrix(channel, "channel"), "channel")
        if channel.shape[0] < channel.shape[1]:
            raise ValueError("LR-ZF needs n_rx >= n_tx")
        self._channel = channel
        h_real, _ = real_decomposition(channel, np.zeros(channel.shape[0], complex))
        self._h_real = h_real
        basis = 2.0 * self._scale * h_real
        result = lll_reduce(basis, delta=self.delta)
        self._reduced_pinv = np.linalg.pinv(result.reduced)
        self._transform = result.transform
        self._prepared = True

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = check_vector(
            received, "received", length=self._channel.shape[0]
        )
        check_finite(received, "received")
        const = self.constellation
        side = int(round(np.sqrt(const.order)))
        scale = self._scale
        n_tx = self._channel.shape[1]
        y_real = np.concatenate([received.real, received.imag])
        # Shift the PAM box {-(L-1)..(L-1)}*scale onto u in {0..L-1}:
        # y' = y + scale*(L-1) * H_r @ 1.
        offset = scale * (side - 1) * (self._h_real @ np.ones(2 * n_tx))
        y_prime = y_real + offset
        v = np.rint(self._reduced_pinv @ y_prime)
        # Back-transform and clip in float: lattice coordinates of a huge
        # (still finite) input exceed int64, and casting first would wrap.
        u = self._transform @ v
        if np.isnan(u).any():
            raise ValueError("received overflows the reduced lattice coordinates")
        u = np.clip(u, 0, side - 1).astype(np.int64)
        # Reassemble complex symbols: u[:n_tx] are I levels, u[n_tx:] Q.
        i_lvl, q_lvl = u[:n_tx], u[n_tx:]
        indices = (i_lvl * side + q_lvl).astype(np.int64)
        symbols = const.map_indices(indices)
        bits = const.indices_to_bits(indices)
        residual = received - self._channel @ symbols
        metric = float(np.real(np.vdot(residual, residual)))
        return DetectionResult(
            indices=indices, symbols=symbols, bits=bits, metric=metric
        )
