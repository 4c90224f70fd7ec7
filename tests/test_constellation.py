"""Tests for repro.mimo.constellation, incl. Gray-mapping properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mimo.constellation import Constellation, gray_code


class TestFactories:
    def test_bpsk_points(self):
        c = Constellation.bpsk()
        assert np.allclose(sorted(c.points.real), [-1.0, 1.0])
        assert np.allclose(c.points.imag, 0.0)

    def test_bpsk_order_and_bits(self):
        c = Constellation.bpsk()
        assert c.order == 2
        assert c.bits_per_symbol == 1

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_qam_orders(self, order):
        c = Constellation.qam(order)
        assert c.order == order
        assert c.bits_per_symbol == int(np.log2(order))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_unit_energy(self, order):
        c = Constellation.qam(order)
        assert c.average_energy == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [2, 8, 32, 5, 0, -4])
    def test_qam_rejects_non_square_orders(self, bad):
        with pytest.raises((ValueError, TypeError)):
            Constellation.qam(bad)

    @pytest.mark.parametrize(
        "name,order",
        [
            ("bpsk", 2),
            ("qpsk", 4),
            ("4qam", 4),
            ("4-QAM", 4),
            ("16qam", 16),
            ("16-qam", 16),
            ("64QAM", 64),
        ],
    )
    def test_from_name_aliases(self, name, order):
        assert Constellation.from_name(name).order == order

    def test_from_name_unknown(self):
        with pytest.raises(ValueError, match="unknown constellation"):
            Constellation.from_name("8psk")

    def test_qpsk_equals_4qam(self):
        assert Constellation.from_name("qpsk") == Constellation.qam(4)


class TestStructure:
    def test_points_read_only(self, qam4):
        with pytest.raises(ValueError):
            qam4.points[0] = 0

    def test_labels_read_only(self, qam4):
        with pytest.raises(ValueError):
            qam4.labels[0, 0] = True

    def test_labels_bijective(self, qam16):
        packed = {tuple(row) for row in qam16.labels}
        assert len(packed) == 16

    def test_len(self, qam16):
        assert len(qam16) == 16

    def test_repr_contains_name(self, qam4):
        assert "4-QAM" in repr(qam4)

    def test_min_distance_qam4(self, qam4):
        # 4-QAM levels are +-1/sqrt(2): min distance = 2/sqrt(2) = sqrt(2).
        assert qam4.min_distance == pytest.approx(np.sqrt(2.0))

    def test_min_distance_shrinks_with_order(self):
        assert Constellation.qam(16).min_distance < Constellation.qam(4).min_distance

    def test_hash_and_eq(self):
        assert Constellation.qam(4) == Constellation.qam(4)
        assert Constellation.qam(4) != Constellation.qam(16)
        assert hash(Constellation.qam(4)) == hash(Constellation.qam(4))

    def test_eq_not_implemented_for_other_types(self, qam4):
        assert (qam4 == 42) is False

    def test_constructor_validates_label_shape(self):
        with pytest.raises(ValueError, match="labels"):
            Constellation("bad", np.array([1 + 0j, -1 + 0j]), np.zeros((2, 2), bool))

    def test_constructor_rejects_duplicate_labels(self):
        labels = np.array([[False], [False]])
        with pytest.raises(ValueError, match="distinct"):
            Constellation("bad", np.array([1 + 0j, -1 + 0j]), labels)

    def test_constructor_rejects_non_power_of_two(self):
        pts = np.array([1 + 0j, -1 + 0j, 1j])
        with pytest.raises(ValueError, match="power of two"):
            Constellation("bad", pts, np.zeros((3, 1), bool))


class TestGrayMapping:
    def test_gray_code_values(self):
        assert [int(gray_code(i)) for i in range(4)] == [0, 1, 3, 2]

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_neighbours_differ_in_one_bit(self, order):
        """The defining Gray property: adjacent grid points differ by 1 bit."""
        c = Constellation.qam(order)
        side = int(np.sqrt(order))
        labels = c.labels
        for i in range(order):
            ii, qq = divmod(i, side)
            for di, dq in ((1, 0), (0, 1)):
                ni, nq = ii + di, qq + dq
                if ni < side and nq < side:
                    j = ni * side + nq
                    hamming = int(np.count_nonzero(labels[i] ^ labels[j]))
                    assert hamming == 1, f"points {i},{j} differ in {hamming} bits"

    def test_bits_roundtrip_all_points(self, constellation):
        idx = np.arange(constellation.order)
        bits = constellation.indices_to_bits(idx)
        back = constellation.bits_to_indices(bits)
        assert np.array_equal(back, idx)

    def test_bits_to_indices_rejects_ragged(self, qam16):
        with pytest.raises(ValueError):
            qam16.bits_to_indices(np.zeros(5, dtype=bool))  # 4 bits/symbol


class TestMapping:
    def test_map_indices(self, qam4):
        assert qam4.map_indices(np.array([0, 3]))[0] == qam4.points[0]

    def test_map_indices_out_of_range(self, qam4):
        with pytest.raises(ValueError):
            qam4.map_indices(np.array([4]))

    def test_map_indices_negative(self, qam4):
        with pytest.raises(ValueError):
            qam4.map_indices(np.array([-1]))


def slice_both(constellation, values):
    """Vector slicer on ``values``, after checking the scalar slicer
    (``nearest_index``) returns the same index for every element."""
    values = np.asarray(values, dtype=np.complex128)
    vector = constellation.nearest_indices(values)
    scalar = [constellation.nearest_index(v) for v in values.ravel()]
    assert scalar == vector.ravel().tolist()
    return vector


def edge_values(constellation):
    """Exact slicer ties, out-of-range values and infinities."""
    real = [0.0, 0.5, -0.5, 1e3, -1e3, 1e300, np.inf, -np.inf]
    if constellation.is_square_qam:
        # Midpoints between grid levels: (v / scale + side - 1) / 2 is a
        # half-integer, the round-half-even tie of the slicer.
        step = 2.0 * constellation._qam_scale
        real += [m * step for m in range(-3, 4)]
    return np.array([complex(a, b) for a in real for b in real])


class TestSlicing:
    def test_exact_points_recovered(self, constellation):
        idx = np.arange(constellation.order)
        assert np.array_equal(slice_both(constellation, constellation.points), idx)

    def test_small_noise_recovered(self, constellation, rng):
        idx = rng.integers(0, constellation.order, 64)
        noisy = constellation.points[idx] + 0.01 * (
            rng.standard_normal(64) + 1j * rng.standard_normal(64)
        )
        assert np.array_equal(slice_both(constellation, noisy), idx)

    def test_slicing_clips_outside_grid(self, qam16):
        # Far outside the grid (or infinitely far): the nearest corner.
        for far in (100 + 100j, complex(np.inf, np.inf)):
            idx = slice_both(qam16, [far])[0]
            corner = qam16.points[idx]
            assert corner.real == qam16.points.real.max()
            assert corner.imag == qam16.points.imag.max()

    @pytest.mark.parametrize("name", ["4qam", "16qam", "64qam", "bpsk"])
    def test_scalar_slicer_on_ties_and_infinities(self, name):
        c = Constellation.from_name(name)
        idx = slice_both(c, edge_values(c))
        assert idx.min() >= 0 and idx.max() < c.order

    def test_matches_exhaustive_argmin(self, qam16, rng):
        values = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        fast = qam16.nearest_indices(values)
        exact = np.argmin(np.abs(values[:, None] - qam16.points[None, :]), axis=1)
        dist_fast = np.abs(values - qam16.points[fast])
        dist_exact = np.abs(values - qam16.points[exact])
        assert np.allclose(dist_fast, dist_exact)

    def test_nearest_points_consistent(self, qam4, rng):
        values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        pts = qam4.nearest_points(values)
        idx = qam4.nearest_indices(values)
        assert np.array_equal(pts, qam4.points[idx])

    def test_bpsk_slices_on_real_axis(self):
        c = Constellation.bpsk()
        got = c.nearest_indices(np.array([-0.3 + 5j, 0.3 - 5j]))
        assert np.array_equal(c.points[got].real > 0, [False, True])

    def test_preserves_shape(self, qam4, rng):
        values = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert qam4.nearest_indices(values).shape == (3, 5)


@given(
    order=st.sampled_from([4, 16, 64]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_property_slicing_is_true_nearest(order, seed):
    """Fast per-dimension slicing always returns a true nearest point."""
    c = Constellation.qam(order)
    rng = np.random.default_rng(seed)
    values = 2 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    idx = slice_both(c, values)
    best = np.min(np.abs(values[:, None] - c.points[None, :]), axis=1)
    got = np.abs(values - c.points[idx])
    assert np.allclose(got, best, atol=1e-12)


@given(
    order=st.sampled_from([4, 16]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_property_bits_symbols_roundtrip(order, seed):
    """bits -> symbols -> slice -> bits is the identity (no noise)."""
    c = Constellation.qam(order)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, 8 * c.bits_per_symbol).astype(bool)
    idx = c.bits_to_indices(bits)
    recovered = c.indices_to_bits(c.nearest_indices(c.points[idx]))
    assert np.array_equal(recovered, bits)
