"""Every registry kind rejects NaN/Inf inputs with ``ValueError``.

A non-finite channel or received vector poisons every partial distance
the search computes, so without a boundary check some detectors hang
(breadth-first search never empties its frontier), some crash with an
``IndexError`` (best-first ends with no leaf) and some silently return a
decision. The check lives in :func:`repro.util.validation.check_finite`;
this suite pins that every kind calls it on both inputs.
"""

from __future__ import annotations

import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.detectors.registry import detector_entries, spec
from repro.mimo.constellation import Constellation

KINDS = [e.kind for e in detector_entries()]


@contextmanager
def _deadline(seconds: float):
    """Turn a hung decode into a test failure instead of a stuck run."""

    def expire(signum, frame):
        raise TimeoutError(f"decode did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _system(n: int = 4):
    rng = np.random.default_rng(7)
    const = Constellation.qam(4)
    channel = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(2)
    received = channel @ const.points[rng.integers(0, 4, size=n)]
    return const, channel, received


@pytest.mark.parametrize("where", ["received", "channel"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", KINDS)
def test_nonfinite_input_raises_value_error(kind, bad, where):
    const, channel, received = _system()
    detector = spec(kind, const)()
    with _deadline(10.0):
        if where == "channel":
            channel[1, 2] = bad
            with pytest.raises(ValueError, match="channel must be finite"):
                detector.prepare(channel, noise_var=0.1)
            return
        detector.prepare(channel, noise_var=0.1)
        received[2] = bad
        with pytest.raises(ValueError, match="received must be finite"):
            detector.detect(received)
        with pytest.raises(ValueError, match="received must be finite"):
            detector.detect_batch(np.stack([received, received]))
        if hasattr(detector, "decode_batch"):
            with pytest.raises(ValueError, match="received must be finite"):
                detector.decode_batch(np.stack([received, received]))


@pytest.mark.parametrize("kind", KINDS)
def test_overflowing_finite_input_is_bounded(kind):
    """Finite inputs whose partial distances overflow to inf stay total.

    At ``received * 1e200`` every PD is inf and ``inf < inf`` never
    admits a child, so no radius can fill the sphere; the decode must
    still return a decision (or raise ``ValueError``) in bounded time,
    and a radius-driven search must not escalate once its first search
    saw no finite PD (each escalation is a wasted root expansion).
    """
    const, channel, received = _system()
    detector = spec(kind, const)()
    detector.prepare(channel, noise_var=0.1)
    huge = received * 1e200
    with _deadline(10.0):
        try:
            result = detector.detect(huge)
        except ValueError:
            return
    assert np.asarray(result.indices).shape == (channel.shape[1],)
    if result.stats is not None:
        assert len(result.stats.radius_trace) <= 2


def test_lr_zf_overflowing_input_does_not_wrap():
    """LR-ZF maps huge lattice coordinates without an int64 cast wrap."""
    const, channel, received = _system()
    detector = spec("lr-zf", const)()
    detector.prepare(channel, noise_var=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = detector.detect(received * 1e200)
    assert np.all((result.indices >= 0) & (result.indices < const.order))
