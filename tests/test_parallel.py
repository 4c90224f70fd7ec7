"""Tests for the multi-PE partitioned sphere decoder (section V extension)."""

import numpy as np
import pytest

from repro.detectors.partitioned import PartitionedSphereDecoder
from repro.core.radius import InfiniteRadius, NoiseScaledRadius
from repro.detectors.ml import MLDetector
from repro.mimo.system import MIMOSystem


def run_pair(system, decoder, snr_db, seed):
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    return frame, decoder.detect(frame.received), ml.detect(frame.received)


class TestExactness:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_ml(self, n_pes, seed):
        system = MIMOSystem(5, 5, "4qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=n_pes)
        _, par, ml = run_pair(system, decoder, 6.0, seed)
        assert par.metric == pytest.approx(ml.metric, rel=1e-9)
        assert np.array_equal(par.indices, ml.indices)

    def test_matches_ml_16qam(self):
        system = MIMOSystem(3, 3, "16qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=4)
        _, par, ml = run_pair(system, decoder, 8.0, 0)
        assert np.array_equal(par.indices, ml.indices)

    def test_matches_ml_with_noise_radius(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation,
            n_pes=4,
            radius_policy=NoiseScaledRadius(alpha=2.0),
        )
        for seed in range(3):
            _, par, ml = run_pair(system, decoder, 6.0, seed)
            # Noise-scaled radius may erase; the decoder falls back to
            # Babai then. With alpha=2 erasure is rare; accept ML or a
            # metric no better than ML.
            assert par.metric >= ml.metric - 1e-9

    def test_single_level_system(self):
        system = MIMOSystem(1, 3, "4qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=4)
        _, par, ml = run_pair(system, decoder, 8.0, 0)
        assert np.array_equal(par.indices, ml.indices)


class TestParallelism:
    def test_pe_counts_recorded(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation, n_pes=4, radius_policy=InfiniteRadius()
        )
        _, par, _ = run_pair(system, decoder, 4.0, 1)
        assert len(decoder.last_pe_expansions) == 4
        # +1 for the shared root expansion.
        assert sum(decoder.last_pe_expansions) + 1 == par.stats.nodes_expanded

    def test_makespan_below_sequential_total(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation, n_pes=4, radius_policy=InfiniteRadius()
        )
        _, par, _ = run_pair(system, decoder, 4.0, 2)
        makespan = decoder.makespan_expansions()
        assert makespan < par.stats.nodes_expanded
        assert makespan >= par.stats.nodes_expanded / 4 - 1

    def test_makespan_requires_decode(self):
        decoder = PartitionedSphereDecoder(MIMOSystem(3, 3).constellation)
        with pytest.raises(RuntimeError):
            decoder.makespan_expansions()

    def test_sync_events_counted(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation, n_pes=2, radius_policy=InfiniteRadius()
        )
        _, par, _ = run_pair(system, decoder, 4.0, 3)
        assert decoder.last_sync_events == par.stats.radius_updates
        assert decoder.last_sync_events >= 1

    def test_more_pes_never_increase_makespan_much(self):
        """Makespan is non-increasing in PEs up to work-stealing losses."""
        system = MIMOSystem(6, 6, "4qam")
        rng = np.random.default_rng(4)
        frame = system.random_frame(4.0, rng)
        makespans = {}
        for n_pes in (1, 2, 4):
            decoder = PartitionedSphereDecoder(
                system.constellation,
                n_pes=n_pes,
                radius_policy=InfiniteRadius(),
            )
            decoder.prepare(frame.channel, noise_var=frame.noise_var)
            decoder.detect(frame.received)
            makespans[n_pes] = decoder.makespan_expansions()
        assert makespans[2] <= makespans[1]
        assert makespans[4] <= makespans[2] * 1.1

    def test_max_rounds_truncates(self):
        system = MIMOSystem(8, 8, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation,
            n_pes=2,
            radius_policy=InfiniteRadius(),
            max_rounds=2,
        )
        _, par, _ = run_pair(system, decoder, 0.0, 0)
        assert par.stats.truncated >= 1
        assert par.indices.shape == (8,)


class TestContract:
    def test_requires_prepare(self):
        decoder = PartitionedSphereDecoder(MIMOSystem(3, 3).constellation)
        with pytest.raises(RuntimeError):
            decoder.detect(np.zeros(3, complex))

    def test_invalid_npes(self):
        with pytest.raises(ValueError):
            PartitionedSphereDecoder(MIMOSystem(3, 3).constellation, n_pes=0)

    def test_trace_recorded(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=2)
        _, par, _ = run_pair(system, decoder, 8.0, 0)
        assert par.stats.batches
        assert sum(ev.pool_size for ev in par.stats.batches) == (
            par.stats.nodes_expanded
        )
