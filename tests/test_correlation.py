"""Tests for the Kronecker correlated-channel model."""

import numpy as np
import pytest

from repro.mimo.correlation import (
    KroneckerChannelModel,
    exponential_correlation,
    matrix_sqrt,
)


class TestExponentialCorrelation:
    def test_structure(self):
        r = exponential_correlation(4, 0.5)
        assert r.shape == (4, 4)
        assert np.allclose(np.diag(r), 1.0)
        assert r[0, 1] == pytest.approx(0.5)
        assert r[0, 3] == pytest.approx(0.125)

    def test_symmetric(self):
        r = exponential_correlation(5, 0.7)
        assert np.allclose(r, r.T)

    def test_zero_rho_is_identity(self):
        assert np.allclose(exponential_correlation(4, 0.0), np.eye(4))

    def test_positive_definite(self):
        for rho in (0.3, 0.7, 0.95):
            vals = np.linalg.eigvalsh(exponential_correlation(6, rho))
            assert vals.min() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_correlation(4, 1.0)
        with pytest.raises(ValueError):
            exponential_correlation(4, -0.1)


class TestMatrixSqrt:
    def test_square_of_sqrt(self):
        r = exponential_correlation(5, 0.6)
        s = matrix_sqrt(r)
        assert np.allclose(s @ np.conj(s.T), r, atol=1e-10)

    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(3)), np.eye(3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            matrix_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matrix_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_sqrt(np.zeros((2, 3)))


class TestKroneckerModel:
    def test_zero_rho_matches_iid_statistics(self, rng):
        model = KroneckerChannelModel(n_tx=8, n_rx=8, rho_tx=0.0, rho_rx=0.0)
        h = np.stack([model.draw_channel(rng) for _ in range(100)])
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_unit_entry_variance_with_correlation(self, rng):
        model = KroneckerChannelModel(n_tx=6, n_rx=6, rho_tx=0.7, rho_rx=0.7)
        h = np.stack([model.draw_channel(rng) for _ in range(400)])
        per_entry = np.mean(np.abs(h) ** 2, axis=0)
        assert np.allclose(per_entry, 1.0, atol=0.25)

    def test_induced_receive_correlation(self, rng):
        """Empirical E[H H^H]/n_tx must approximate R_rx."""
        model = KroneckerChannelModel(n_tx=8, n_rx=4, rho_tx=0.0, rho_rx=0.8)
        acc = np.zeros((4, 4), dtype=complex)
        trials = 600
        for _ in range(trials):
            h = model.draw_channel(rng)
            acc += h @ np.conj(h.T)
        empirical = acc / (trials * 8)
        expected = exponential_correlation(4, 0.8)
        assert np.allclose(empirical.real, expected, atol=0.12)

    def test_correlation_hurts_conditioning(self, rng):
        """Correlated channels are worse conditioned on average —
        the mechanism behind their higher decode complexity."""
        iid = KroneckerChannelModel(n_tx=6, n_rx=6, rho_tx=0.0, rho_rx=0.0)
        corr = KroneckerChannelModel(n_tx=6, n_rx=6, rho_tx=0.9, rho_rx=0.9)
        conds_iid = [np.linalg.cond(iid.draw_channel(rng)) for _ in range(50)]
        conds_corr = [np.linalg.cond(corr.draw_channel(rng)) for _ in range(50)]
        assert np.median(conds_corr) > np.median(conds_iid)

    def test_validation(self):
        with pytest.raises(ValueError):
            KroneckerChannelModel(n_tx=4, n_rx=4, rho_tx=1.0)
        with pytest.raises(ValueError):
            KroneckerChannelModel(n_tx=4, n_rx=4, rho_rx=-0.2)

    def test_sphere_decoder_still_exact_on_correlated_channel(self, rng):
        from repro.detectors.sphere import SphereDecoder
        from repro.detectors.ml import MLDetector
        from repro.mimo.constellation import Constellation

        const = Constellation.qam(4)
        model = KroneckerChannelModel(n_tx=4, n_rx=4, rho_tx=0.8, rho_rx=0.8)
        h = model.draw_channel(rng)
        s = const.points[rng.integers(0, 4, 4)]
        y = h @ s + 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        sd = SphereDecoder(const)
        ml = MLDetector(const)
        sd.prepare(h, noise_var=0.18)
        ml.prepare(h)
        assert sd.detect(y).metric == pytest.approx(ml.detect(y).metric, rel=1e-9)
