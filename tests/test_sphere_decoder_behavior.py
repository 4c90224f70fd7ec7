"""Behavioural tests for the sphere decoder: stats, traces, caps, API."""

import numpy as np
import pytest

from repro.core.radius import InfiniteRadius, NoiseScaledRadius
from repro.detectors.sphere import SphereDecoder
from repro.mimo.preprocessing import effective_receive, qr_decompose
from repro.mimo.system import MIMOSystem


def decode_one(decoder, system, snr_db=8.0, seed=0):
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    return frame, decoder.detect(frame.received)


class TestStatsConsistency:
    def test_generated_equals_expanded_times_order(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation)
        _, result = decode_one(decoder, system)
        st = result.stats
        assert st.nodes_generated == st.nodes_expanded * 4

    def test_batch_trace_sums_to_expanded(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation)
        _, result = decode_one(decoder, system)
        st = result.stats
        assert sum(ev.pool_size for ev in st.batches) == st.nodes_expanded

    def test_batch_levels_in_range(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = SphereDecoder(system.constellation)
        _, result = decode_one(decoder, system)
        for ev in result.stats.batches:
            assert 0 <= ev.level < 6
            assert ev.pool_size >= 1

    def test_children_accounted(self):
        """Every generated child is pruned, inserted, or a counted leaf."""
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(
            system.constellation,
            strategy="best-first",
            radius_policy=InfiniteRadius(),
        )
        _, result = decode_one(decoder, system)
        st = result.stats
        # Internal children inserted into the list = generated - pruned -
        # leaves; they must each eventually be popped or abandoned, so the
        # identity below is an inequality on expansion counts.
        inserted = st.nodes_generated - st.nodes_pruned - st.leaves_reached
        assert inserted >= 0
        assert st.nodes_expanded <= inserted + 1  # +1 for the root

    def test_radius_trace_monotone_after_init(self):
        """Once leaves appear the incumbent bound can only shrink."""
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(
            system.constellation,
            strategy="dfs",
            radius_policy=InfiniteRadius(),
        )
        _, result = decode_one(decoder, system, snr_db=4.0)
        trace = result.stats.radius_trace
        # trace[0] is the initial radius (inf); updates afterwards shrink.
        updates = trace[1:]
        assert all(b < a for a, b in zip(updates, updates[1:]))

    def test_radius_updates_counted(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(
            system.constellation,
            strategy="dfs",
            radius_policy=InfiniteRadius(),
        )
        _, result = decode_one(decoder, system, snr_db=4.0)
        st = result.stats
        assert st.radius_updates >= 1
        assert st.leaves_reached >= st.radius_updates

    def test_wall_time_recorded(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation)
        _, result = decode_one(decoder, system)
        assert result.stats.wall_time_s > 0

    def test_gemm_accounting_from_evaluator(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation)
        _, result = decode_one(decoder, system)
        st = result.stats
        assert st.gemm_calls == len(st.batches)
        assert st.gemm_flops > 0

    def test_max_list_size_positive_for_nontrivial(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = SphereDecoder(system.constellation, radius_policy=InfiniteRadius())
        _, result = decode_one(decoder, system, snr_db=2.0)
        assert result.stats.max_list_size > 0


class TestTruncationAndTraces:
    def test_max_nodes_truncates(self):
        system = MIMOSystem(8, 8, "4qam")
        decoder = SphereDecoder(
            system.constellation,
            strategy="dfs",
            radius_policy=NoiseScaledRadius(alpha=2.0),
            max_nodes=5,
        )
        _, result = decode_one(decoder, system, snr_db=0.0)
        st = result.stats
        assert st.truncated >= 1
        assert st.nodes_expanded <= 5 + 1
        # Even truncated, a decision must come back.
        assert result.indices.shape == (8,)

    def test_pool_batches_bounded_by_pool_size(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = SphereDecoder(system.constellation, pool_size=4)
        _, result = decode_one(decoder, system, snr_db=2.0)
        assert max(ev.pool_size for ev in result.stats.batches) <= 4

    def test_dfs_pool_always_one(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = SphereDecoder(system.constellation, strategy="dfs")
        _, result = decode_one(decoder, system, snr_db=2.0)
        assert all(ev.pool_size == 1 for ev in result.stats.batches)


class TestResultContract:
    def test_metric_is_true_residual(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = SphereDecoder(system.constellation)
        frame, result = decode_one(decoder, system)
        expected = (
            np.linalg.norm(frame.received - frame.channel @ result.symbols) ** 2
        )
        assert result.metric == pytest.approx(expected, rel=1e-9)

    def test_bits_match_indices(self):
        system = MIMOSystem(5, 5, "16qam")
        decoder = SphereDecoder(system.constellation)
        _, result = decode_one(decoder, system)
        assert np.array_equal(
            result.bits, system.constellation.indices_to_bits(result.indices)
        )

    def test_high_snr_recovers_transmission(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = SphereDecoder(system.constellation)
        frame, result = decode_one(decoder, system, snr_db=60.0)
        assert np.array_equal(result.indices, frame.symbol_indices)

    def test_sqrd_result_in_original_order(self):
        """SQRD permutes internally; the result must be un-permuted."""
        system = MIMOSystem(6, 6, "4qam")
        decoder = SphereDecoder(system.constellation, ordering="sqrd")
        frame, result = decode_one(decoder, system, snr_db=60.0)
        assert np.array_equal(result.indices, frame.symbol_indices)

    def test_prepare_required(self):
        decoder = SphereDecoder(MIMOSystem(4, 4).constellation)
        with pytest.raises(RuntimeError):
            decoder.detect(np.zeros(4, complex))

    def test_received_length_checked(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = SphereDecoder(system.constellation)
        frame = system.random_frame(10.0, 0)
        decoder.prepare(frame.channel)
        with pytest.raises(ValueError):
            decoder.detect(np.zeros(5, complex))

    def test_invalid_constructor_args(self):
        const = MIMOSystem(4, 4).constellation
        with pytest.raises(ValueError):
            SphereDecoder(const, strategy="bfs")
        with pytest.raises(ValueError):
            SphereDecoder(const, ordering="weird")
        with pytest.raises(ValueError):
            SphereDecoder(const, pool_size=0)
        with pytest.raises(ValueError):
            SphereDecoder(const, max_nodes=0)

    def test_negative_noise_var_rejected(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = SphereDecoder(system.constellation)
        with pytest.raises(ValueError):
            decoder.prepare(np.eye(4, dtype=complex), noise_var=-0.5)


class TestSolveAPI:
    def test_solve_matches_detect(self):
        system = MIMOSystem(5, 5, "4qam")
        frame = system.random_frame(8.0, 0)
        decoder = SphereDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        via_detect = decoder.detect(frame.received)
        qr = qr_decompose(frame.channel)
        ybar = effective_receive(qr, frame.received)
        indices, metric, stats = decoder.solve(qr.r, ybar, frame.noise_var)
        assert np.array_equal(indices, via_detect.indices)  # natural ordering
        assert stats.nodes_expanded > 0

    def test_solve_reduced_metric(self):
        system = MIMOSystem(4, 4, "4qam")
        frame = system.random_frame(8.0, 1)
        qr = qr_decompose(frame.channel)
        ybar = effective_receive(qr, frame.received)
        decoder = SphereDecoder(system.constellation)
        indices, metric, _ = decoder.solve(qr.r, ybar, frame.noise_var)
        s = system.constellation.points[indices]
        assert metric == pytest.approx(np.linalg.norm(ybar - qr.r @ s) ** 2, rel=1e-9)

    def test_reprepare_with_new_channel(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = SphereDecoder(system.constellation)
        for seed in range(3):
            frame = system.random_frame(40.0, seed)
            decoder.prepare(frame.channel, noise_var=frame.noise_var)
            result = decoder.detect(frame.received)
            assert np.array_equal(result.indices, frame.symbol_indices)
