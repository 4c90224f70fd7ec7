"""Tests for the real-valued-decomposition sphere decoder."""

import numpy as np
import pytest

from repro.detectors.sphere import SphereDecoder
from repro.detectors.ml import MLDetector
from repro.detectors.real_sd import RealSphereDecoder, pam_component
from repro.mimo.constellation import Constellation
from repro.mimo.system import MIMOSystem


class TestPamComponent:
    def test_4qam_gives_2pam(self):
        pam = pam_component(Constellation.qam(4))
        assert pam.order == 2
        assert np.allclose(pam.points.imag, 0.0)

    def test_16qam_gives_4pam(self):
        pam = pam_component(Constellation.qam(16))
        assert pam.order == 4
        levels = np.sort(pam.points.real)
        assert np.all(np.diff(levels) > 0)

    def test_levels_match_qam_grid(self):
        qam = Constellation.qam(16)
        pam = pam_component(qam)
        # QAM point index = i*4 + q must decompose onto the PAM levels.
        for idx in range(16):
            i_idx, q_idx = divmod(idx, 4)
            point = qam.points[idx]
            assert point.real == pytest.approx(float(pam.points[i_idx].real))
            assert point.imag == pytest.approx(float(pam.points[q_idx].real))

    def test_labels_match_qam_per_dimension(self):
        qam = Constellation.qam(16)
        pam = pam_component(qam)
        for idx in range(16):
            i_idx, q_idx = divmod(idx, 4)
            expected = np.concatenate([pam.labels[i_idx], pam.labels[q_idx]])
            assert np.array_equal(qam.labels[idx], expected)

    def test_rejects_bpsk(self):
        with pytest.raises(ValueError):
            pam_component(Constellation.bpsk())


class TestExactness:
    @pytest.mark.parametrize("modulation", ["4qam", "16qam"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ml(self, modulation, seed):
        system = MIMOSystem(4, 4, modulation)
        rng = np.random.default_rng(seed)
        frame = system.random_frame(8.0, rng)
        ml = MLDetector(system.constellation)
        ml.prepare(frame.channel)
        real_sd = RealSphereDecoder(system.constellation)
        real_sd.prepare(frame.channel, noise_var=frame.noise_var)
        a = real_sd.detect(frame.received)
        b = ml.detect(frame.received)
        assert a.metric == pytest.approx(b.metric, rel=1e-9)
        assert np.array_equal(a.indices, b.indices)

    def test_matches_complex_domain_decoder(self):
        system = MIMOSystem(6, 6, "4qam")
        rng = np.random.default_rng(7)
        frame = system.random_frame(6.0, rng)
        complex_sd = SphereDecoder(system.constellation)
        real_sd = RealSphereDecoder(system.constellation)
        complex_sd.prepare(frame.channel, noise_var=frame.noise_var)
        real_sd.prepare(frame.channel, noise_var=frame.noise_var)
        a = complex_sd.detect(frame.received)
        b = real_sd.detect(frame.received)
        assert np.array_equal(a.indices, b.indices)
        assert a.metric == pytest.approx(b.metric, rel=1e-9)

    def test_high_snr_recovers(self):
        system = MIMOSystem(8, 8, "16qam")
        frame = system.random_frame(60.0, np.random.default_rng(0))
        det = RealSphereDecoder(system.constellation)
        det.prepare(frame.channel, noise_var=frame.noise_var)
        assert np.array_equal(det.detect(frame.received).indices, frame.symbol_indices)


class TestDomainTradeoff:
    def test_tree_is_twice_as_deep_with_narrower_branching(self):
        """Real domain: 2M levels, sqrt(P) children per expansion."""
        system = MIMOSystem(5, 5, "16qam")
        frame = system.random_frame(10.0, np.random.default_rng(1))
        det = RealSphereDecoder(system.constellation)
        det.prepare(frame.channel, noise_var=frame.noise_var)
        result = det.detect(frame.received)
        st = result.stats
        levels = {ev.level for ev in st.batches}
        assert max(levels) == 9  # 2M - 1
        # Children per expansion = sqrt(16) = 4.
        assert st.nodes_generated == st.nodes_expanded * 4

    def test_real_domain_generates_fewer_children_for_16qam(self):
        """At this configuration (5x5 16-QAM, 10 dB) the PAM tree's
        finer-grained pruning evaluates fewer children. (The trade-off is
        configuration-dependent — see the ablation-domain experiment —
        so this pins one known-favourable point, deterministically.)"""
        system = MIMOSystem(5, 5, "16qam")
        rng = np.random.default_rng(3)
        complex_children = real_children = 0
        for _ in range(5):
            frame = system.random_frame(10.0, rng)
            c = SphereDecoder(system.constellation, strategy="dfs")
            r = RealSphereDecoder(system.constellation, strategy="dfs")
            c.prepare(frame.channel, noise_var=frame.noise_var)
            r.prepare(frame.channel, noise_var=frame.noise_var)
            complex_children += c.detect(frame.received).stats.nodes_generated
            real_children += r.detect(frame.received).stats.nodes_generated
        assert real_children < complex_children

    def test_contract(self):
        system = MIMOSystem(4, 4, "16qam")
        frame = system.random_frame(12.0, np.random.default_rng(2))
        det = RealSphereDecoder(system.constellation)
        det.prepare(frame.channel, noise_var=frame.noise_var)
        result = det.detect(frame.received)
        assert result.indices.shape == (4,)
        assert np.array_equal(
            result.symbols, system.constellation.points[result.indices]
        )
        assert np.array_equal(
            result.bits, system.constellation.indices_to_bits(result.indices)
        )

    def test_requires_prepare_and_square_qam(self):
        with pytest.raises(RuntimeError):
            RealSphereDecoder(Constellation.qam(4)).detect(np.zeros(4, complex))
        with pytest.raises(ValueError):
            RealSphereDecoder(Constellation.bpsk())
