"""Tests for the GEMM-BFS decoder (the GPU baseline of [1])."""

import numpy as np
import pytest

from repro.core.radius import FixedRadius, NoiseScaledRadius
from repro.detectors.ml import MLDetector
from repro.detectors.sd_bfs import GemmBfsDecoder
from repro.mimo.system import MIMOSystem


def run_pair(system, decoder, snr_db, seed):
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    return frame, decoder.detect(frame.received), ml.detect(frame.received)


class TestExactness:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_ml_with_generous_radius(self, seed):
        """A radius large enough to contain the ML point => exact."""
        system = MIMOSystem(4, 4, "4qam")
        decoder = GemmBfsDecoder(
            system.constellation, radius_policy=FixedRadius(radius_sq=1e6)
        )
        _, bfs, ml = run_pair(system, decoder, 6.0, seed)
        assert bfs.metric == pytest.approx(ml.metric, rel=1e-9)
        assert np.array_equal(bfs.indices, ml.indices)

    @pytest.mark.parametrize("seed", range(3))
    def test_escalation_recovers_ml(self, seed):
        """Tiny radius erases; escalation must still land on ML."""
        system = MIMOSystem(4, 4, "4qam")
        decoder = GemmBfsDecoder(
            system.constellation, radius_policy=FixedRadius(radius_sq=1e-9)
        )
        _, bfs, ml = run_pair(system, decoder, 8.0, seed)
        assert bfs.metric == pytest.approx(ml.metric, rel=1e-9)

    def test_noise_scaled_default_good_at_high_snr(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = GemmBfsDecoder(system.constellation)
        frame, bfs, ml = run_pair(system, decoder, 30.0, 0)
        assert np.array_equal(bfs.indices, frame.symbol_indices)
        assert bfs.metric == pytest.approx(ml.metric, rel=1e-9)


class TestWorkloadShape:
    def test_one_batch_per_level(self):
        """The BFS trace is exactly one event per tree level per sweep."""
        system = MIMOSystem(6, 6, "4qam")
        decoder = GemmBfsDecoder(
            system.constellation, radius_policy=FixedRadius(radius_sq=1e6)
        )
        _, bfs, _ = run_pair(system, decoder, 10.0, 0)
        st = bfs.stats
        assert len(st.batches) == 6
        levels = [ev.level for ev in st.batches]
        assert levels == [5, 4, 3, 2, 1, 0]

    def test_frontier_grows_then_counts_match(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = GemmBfsDecoder(
            system.constellation, radius_policy=FixedRadius(radius_sq=1e6)
        )
        _, bfs, _ = run_pair(system, decoder, 10.0, 1)
        st = bfs.stats
        # With an effectively infinite radius nothing is pruned: frontier
        # at level event i is 4^i.
        pools = [ev.pool_size for ev in st.batches]
        assert pools == [4**i for i in range(5)]
        assert st.nodes_expanded == sum(pools)
        assert st.leaves_reached == 4**5

    def test_explores_more_than_leaf_first(self):
        """The paper's IV-F claim: BFS explores far more nodes."""
        from repro.detectors.sphere import SphereDecoder

        system = MIMOSystem(6, 6, "4qam")
        rng = np.random.default_rng(3)
        frame = system.random_frame(6.0, rng)
        bfs = GemmBfsDecoder(
            system.constellation,
            radius_policy=NoiseScaledRadius(alpha=4.0),
        )
        leaf_first = SphereDecoder(system.constellation, strategy="dfs")
        bfs.prepare(frame.channel, noise_var=frame.noise_var)
        leaf_first.prepare(frame.channel, noise_var=frame.noise_var)
        r_bfs = bfs.detect(frame.received)
        r_lf = leaf_first.detect(frame.received)
        assert r_bfs.stats.nodes_expanded > r_lf.stats.nodes_expanded

    def test_max_frontier_caps_and_flags(self):
        system = MIMOSystem(8, 8, "4qam")
        decoder = GemmBfsDecoder(
            system.constellation,
            radius_policy=FixedRadius(radius_sq=1e6),
            max_frontier=64,
        )
        _, bfs, _ = run_pair(system, decoder, 10.0, 0)
        st = bfs.stats
        assert st.truncated > 0
        assert st.max_list_size <= 64

    def test_k_best_still_returns_valid_decision(self):
        system = MIMOSystem(8, 8, "4qam")
        decoder = GemmBfsDecoder(
            system.constellation,
            radius_policy=FixedRadius(radius_sq=1e6),
            max_frontier=16,
        )
        frame, bfs, _ = run_pair(system, decoder, 30.0, 0)
        assert bfs.indices.shape == (8,)
        assert np.all((bfs.indices >= 0) & (bfs.indices < 4))


class TestContract:
    def test_metric_is_true_residual(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = GemmBfsDecoder(system.constellation)
        frame, bfs, _ = run_pair(system, decoder, 10.0, 0)
        expected = (
            np.linalg.norm(frame.received - frame.channel @ bfs.symbols) ** 2
        )
        assert bfs.metric == pytest.approx(expected, rel=1e-9)

    def test_requires_prepare(self):
        decoder = GemmBfsDecoder(MIMOSystem(4, 4).constellation)
        with pytest.raises(RuntimeError):
            decoder.detect(np.zeros(4, complex))

    def test_invalid_max_frontier(self):
        with pytest.raises(ValueError):
            GemmBfsDecoder(MIMOSystem(4, 4).constellation, max_frontier=0)
