"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mimo.constellation import Constellation
from repro.mimo.system import MIMOSystem


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture(params=["bpsk", "4qam", "16qam"])
def constellation(request) -> Constellation:
    """The three alphabets the paper discusses."""
    return Constellation.from_name(request.param)


@pytest.fixture
def qam4() -> Constellation:
    return Constellation.qam(4)


@pytest.fixture
def qam16() -> Constellation:
    return Constellation.qam(16)


@pytest.fixture
def small_system() -> MIMOSystem:
    """A 4x4 4-QAM link, small enough for brute-force ML checks."""
    return MIMOSystem(4, 4, "4qam")


def random_frame_with_detectors(system, snr_db, seed):
    """Helper used by several test modules: one frame plus prepared ML."""
    from repro.detectors.ml import MLDetector

    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    return frame, ml
