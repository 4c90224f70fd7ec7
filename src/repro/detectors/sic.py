"""Ordered successive interference cancellation (V-BLAST style).

The classic non-linear-but-polynomial detector between the linear
filters and the tree searches: detect the most reliable stream first
(SQRD ordering), slice it, subtract its contribution, repeat. Identical
to the Babai point of :func:`repro.core.radius.babai_point` computed on
the sorted QR — packaged as a :class:`Detector` so it can stand in BER
and timing comparisons (and it is exactly the "decision feedback" lower
anchor the sphere decoder's initial radius comes from).
"""

from __future__ import annotations

import numpy as np

from repro.core.radius import babai_point
from repro.detectors.base import DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import QRResult, effective_receive, qr_decompose, sorted_qr
from repro.util.validation import check_finite, check_in, check_matrix, check_vector


class SICDetector(Detector):
    """Decision-feedback detection with optional SQRD ordering.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    ordering:
        ``"sqrd"`` (V-BLAST-style reliability ordering, default) or
        ``"natural"`` (plain QR back-substitution).
    """

    name = "sic"

    def __init__(
        self, constellation: Constellation, *, ordering: str = "sqrd"
    ) -> None:
        self.constellation = constellation
        self.ordering = check_in(ordering, "ordering", ("natural", "sqrd"))
        self._qr: QRResult | None = None
        self._channel: np.ndarray | None = None
        self._prepared = False

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = check_finite(check_matrix(channel, "channel"), "channel")
        self._channel = channel
        self._qr = (
            sorted_qr(channel) if self.ordering == "sqrd" else qr_decompose(channel)
        )
        self._prepared = True

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = check_vector(
            received, "received", length=self._channel.shape[0]
        )
        check_finite(received, "received")
        ybar = effective_receive(self._qr, received)
        level_indices, _metric = babai_point(
            self._qr.r, ybar, self.constellation
        )
        indices = self._qr.unpermute(level_indices)
        symbols = self.constellation.map_indices(indices)
        bits = self.constellation.indices_to_bits(indices)
        residual = received - self._channel @ symbols
        metric = float(np.real(np.vdot(residual, residual)))
        return DetectionResult(
            indices=indices, symbols=symbols, bits=bits, metric=metric
        )
