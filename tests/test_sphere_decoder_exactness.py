"""Exactness of the sphere decoder: it must return the ML answer.

These are the load-bearing correctness tests of the whole reproduction:
every traversal strategy, radius policy, column ordering and pool size
must return a vector whose ML metric equals the brute-force minimum
(ties in metric are allowed; index equality is checked when the minimum
is unique, which it is with probability 1 for continuous channels).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radius import (
    BabaiRadius,
    FixedRadius,
    InfiniteRadius,
    NoiseScaledRadius,
)
from repro.detectors.sphere import SphereDecoder
from repro.detectors.ml import MLDetector
from repro.mimo.system import MIMOSystem


def assert_ml_equal(sd_result, ml_result):
    assert sd_result.metric == pytest.approx(ml_result.metric, rel=1e-9, abs=1e-12)
    assert np.array_equal(sd_result.indices, ml_result.indices)


def run_pair(system, decoder, snr_db, seed):
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    return decoder.detect(frame.received), ml.detect(frame.received)


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["best-first", "dfs"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_ml_4qam(self, strategy, seed):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation, strategy=strategy)
        sd, ml = run_pair(system, decoder, 8.0, seed)
        assert_ml_equal(sd, ml)

    @pytest.mark.parametrize("strategy", ["best-first", "dfs"])
    def test_matches_ml_16qam(self, strategy):
        system = MIMOSystem(3, 3, "16qam")
        decoder = SphereDecoder(system.constellation, strategy=strategy)
        sd, ml = run_pair(system, decoder, 10.0, 1)
        assert_ml_equal(sd, ml)

    @pytest.mark.parametrize("strategy", ["best-first", "dfs"])
    def test_matches_ml_bpsk(self, strategy):
        system = MIMOSystem(6, 6, "bpsk")
        decoder = SphereDecoder(system.constellation, strategy=strategy)
        sd, ml = run_pair(system, decoder, 6.0, 2)
        assert_ml_equal(sd, ml)

    def test_low_snr_stress(self):
        """Very noisy: the search has to work hard and stay exact."""
        system = MIMOSystem(4, 4, "4qam")
        for seed in range(10):
            decoder = SphereDecoder(system.constellation, strategy="dfs")
            sd, ml = run_pair(system, decoder, 0.0, seed)
            assert_ml_equal(sd, ml)


class TestRadiusPolicies:
    @pytest.mark.parametrize(
        "policy",
        [
            InfiniteRadius(),
            BabaiRadius(),
            NoiseScaledRadius(alpha=2.0),
            NoiseScaledRadius(alpha=0.5),  # frequently erases -> escalation path
            FixedRadius(radius_sq=0.05),  # almost always erases
        ],
        ids=["inf", "babai", "noise2", "noise0.5", "fixed-tiny"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_all_policies_exact(self, policy, seed):
        system = MIMOSystem(4, 4, "4qam")
        decoder = SphereDecoder(system.constellation, radius_policy=policy)
        sd, ml = run_pair(system, decoder, 6.0, seed)
        assert_ml_equal(sd, ml)

    def test_escalation_counted_in_trace(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = SphereDecoder(
            system.constellation,
            strategy="dfs",
            radius_policy=FixedRadius(radius_sq=1e-6),
        )
        sd, ml = run_pair(system, decoder, 6.0, 0)
        assert_ml_equal(sd, ml)
        # The radius trace must show at least one escalation step.
        assert len(sd.stats.radius_trace) >= 2


class TestOrderingsAndPools:
    @pytest.mark.parametrize("ordering", ["natural", "sqrd"])
    @pytest.mark.parametrize("seed", range(3))
    def test_column_orderings_exact(self, ordering, seed):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation, ordering=ordering)
        sd, ml = run_pair(system, decoder, 8.0, seed)
        assert_ml_equal(sd, ml)

    @pytest.mark.parametrize("pool_size", [1, 2, 8, 64])
    def test_pool_sizes_exact(self, pool_size):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation, pool_size=pool_size)
        sd, ml = run_pair(system, decoder, 4.0, 3)
        assert_ml_equal(sd, ml)

    @pytest.mark.parametrize("child_ordering", ["natural", "sorted"])
    def test_child_orderings_exact(self, child_ordering):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(
            system.constellation, strategy="dfs", child_ordering=child_ordering
        )
        sd, ml = run_pair(system, decoder, 6.0, 4)
        assert_ml_equal(sd, ml)


class TestNonSquareSystems:
    @pytest.mark.parametrize("n_rx", [5, 7, 9])
    def test_overdetermined_exact(self, n_rx):
        system = MIMOSystem(4, n_rx, "4qam")
        decoder = SphereDecoder(system.constellation)
        sd, ml = run_pair(system, decoder, 6.0, 0)
        assert_ml_equal(sd, ml)

    def test_single_stream(self):
        system = MIMOSystem(1, 4, "16qam")
        decoder = SphereDecoder(system.constellation)
        sd, ml = run_pair(system, decoder, 5.0, 0)
        assert_ml_equal(sd, ml)


@given(
    n=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=2),
    order=st.sampled_from(["bpsk", "4qam"]),
    strategy=st.sampled_from(["best-first", "dfs"]),
    snr_db=st.floats(min_value=-2.0, max_value=25.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_sphere_decoder_is_ml(n, extra, order, strategy, snr_db, seed):
    """For random systems and any strategy, SD metric == brute-force ML."""
    system = MIMOSystem(n, n + extra, order)
    decoder = SphereDecoder(system.constellation, strategy=strategy)
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    sd_result = decoder.detect(frame.received)
    ml_result = ml.detect(frame.received)
    assert sd_result.metric == pytest.approx(
        ml_result.metric, rel=1e-9, abs=1e-12
    )
