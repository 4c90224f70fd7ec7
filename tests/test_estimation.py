"""Tests for pilot-based channel estimation."""

import numpy as np
import pytest

from repro.mimo.channel import ChannelModel
from repro.mimo.estimation import (
    EstimatedChannelLink,
    lmmse_estimate,
    ls_estimate,
    orthogonal_pilots,
)


class TestPilots:
    def test_orthogonality(self):
        p = orthogonal_pilots(4, 8)
        gram = p @ np.conj(p.T)
        assert np.allclose(gram, 8 * np.eye(4), atol=1e-9)

    def test_square_block(self):
        p = orthogonal_pilots(5, 5)
        assert p.shape == (5, 5)
        assert np.allclose(p @ np.conj(p.T), 5 * np.eye(5), atol=1e-9)

    def test_energy_scaling(self):
        p = orthogonal_pilots(3, 6, es=2.0)
        assert np.allclose(np.abs(p) ** 2, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            orthogonal_pilots(4, 3)
        with pytest.raises(ValueError):
            orthogonal_pilots(4, 8, es=0.0)


class TestLsEstimate:
    def test_noiseless_exact(self, rng):
        model = ChannelModel(n_tx=4, n_rx=6)
        h = model.draw_channel(rng)
        p = orthogonal_pilots(4, 8)
        estimate = ls_estimate(h @ p, p)
        assert np.allclose(estimate, h, atol=1e-9)

    def test_unbiased_under_noise(self, rng):
        model = ChannelModel(n_tx=3, n_rx=3)
        h = model.draw_channel(rng)
        p = orthogonal_pilots(3, 6)
        acc = np.zeros_like(h)
        trials = 300
        for _ in range(trials):
            noise = 0.3 * (
                rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
            )
            acc += ls_estimate(h @ p + noise, p)
        assert np.allclose(acc / trials, h, atol=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ls_estimate(np.zeros((2, 4), complex), np.zeros((3, 5), complex))
        with pytest.raises(ValueError):
            ls_estimate(np.zeros((2, 2), complex), np.zeros((3, 2), complex))


class TestLmmseEstimate:
    def test_noiseless_matches_ls(self, rng):
        model = ChannelModel(n_tx=4, n_rx=4)
        h = model.draw_channel(rng)
        p = orthogonal_pilots(4, 8)
        y = h @ p
        assert np.allclose(
            lmmse_estimate(y, p, 0.0), ls_estimate(y, p), atol=1e-9
        )

    def test_shrinks_with_noise(self, rng):
        """High pilot noise => estimate pulled towards zero vs LS."""
        model = ChannelModel(n_tx=3, n_rx=3)
        h = model.draw_channel(rng)
        p = orthogonal_pilots(3, 3)
        noise = 2.0 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        y = h @ p + noise
        ls = ls_estimate(y, p)
        mmse = lmmse_estimate(y, p, noise_var=8.0)
        assert np.linalg.norm(mmse) < np.linalg.norm(ls)

    def test_better_mse_than_ls(self, rng):
        """LMMSE dominates LS in MSE at low pilot SNR (averaged)."""
        model = ChannelModel(n_tx=3, n_rx=3)
        p = orthogonal_pilots(3, 3)
        noise_var = 3.0
        err_ls = err_mmse = 0.0
        for _ in range(200):
            h = model.draw_channel(rng)
            noise = np.sqrt(noise_var / 2) * (
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            y = h @ p + noise
            err_ls += np.mean(np.abs(ls_estimate(y, p) - h) ** 2)
            err_mmse += np.mean(np.abs(lmmse_estimate(y, p, noise_var) - h) ** 2)
        assert err_mmse < err_ls

    def test_validation(self):
        p = orthogonal_pilots(2, 2)
        with pytest.raises(ValueError):
            lmmse_estimate(np.zeros((2, 2), complex), p, -1.0)
        with pytest.raises(ValueError):
            lmmse_estimate(np.zeros((2, 2), complex), p, 1.0, channel_var=0.0)


class TestEstimatedChannelLink:
    def test_report_fields(self, rng):
        link = EstimatedChannelLink(ChannelModel(n_tx=4, n_rx=4))
        report = link.run_pilot_phase(15.0, rng)
        assert report.estimate.shape == (4, 4)
        assert report.mse >= 0.0

    def test_mse_falls_with_snr(self, rng):
        link = EstimatedChannelLink(ChannelModel(n_tx=4, n_rx=4))
        low = np.mean([link.run_pilot_phase(0.0, rng).mse for _ in range(30)])
        high = np.mean([link.run_pilot_phase(25.0, rng).mse for _ in range(30)])
        assert high < low

    def test_longer_pilots_help(self, rng):
        short = EstimatedChannelLink(
            ChannelModel(n_tx=4, n_rx=4), pilot_length=4
        )
        long = EstimatedChannelLink(
            ChannelModel(n_tx=4, n_rx=4), pilot_length=16
        )
        mse_short = np.mean([short.run_pilot_phase(5.0, rng).mse for _ in range(30)])
        mse_long = np.mean([long.run_pilot_phase(5.0, rng).mse for _ in range(30)])
        assert mse_long < mse_short

    def test_validation(self):
        model = ChannelModel(n_tx=4, n_rx=4)
        with pytest.raises(ValueError):
            EstimatedChannelLink(model, pilot_length=2)
        with pytest.raises(ValueError):
            EstimatedChannelLink(model, estimator="kalman")

    def test_imperfect_csi_detection_end_to_end(self, rng):
        """Detect with the *estimate*: exactness w.r.t. the estimate's ML
        holds, and high pilot SNR recovers the true transmission."""
        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.constellation import Constellation

        const = Constellation.qam(4)
        model = ChannelModel(n_tx=4, n_rx=4)
        link = EstimatedChannelLink(model, pilot_length=16)
        report = link.run_pilot_phase(30.0, rng)
        s = const.points[rng.integers(0, 4, 4)]
        y = report.true_channel @ s + model.draw_noise(
            model.noise_var(30.0), rng
        )
        sd = SphereDecoder(const)
        sd.prepare(report.estimate, noise_var=model.noise_var(30.0))
        result = sd.detect(y)
        assert np.array_equal(result.symbols, s)
