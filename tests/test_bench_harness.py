"""Tests for the experiment harness utilities."""

import numpy as np
import pytest

from repro.bench.harness import (
    CANONICAL_SNRS,
    REAL_TIME_MS,
    SeriesResult,
    bfs_gpu_decoder_factory,
    canonical_decoder_factory,
    run_workload_sweep,
    time_rows,
)
from repro.core.radius import NoiseScaledRadius
from repro.detectors.sphere import SphereDecoder
from repro.detectors.sd_bfs import GemmBfsDecoder
from repro.mimo.constellation import Constellation


class TestFactories:
    def test_canonical_decoder_configuration(self):
        const = Constellation.qam(4)
        decoder = canonical_decoder_factory(const)()
        assert isinstance(decoder, SphereDecoder)
        assert decoder.strategy == "dfs"
        assert isinstance(decoder.radius_policy, NoiseScaledRadius)
        assert decoder.child_ordering == "sorted"

    def test_canonical_fresh_instance_per_call(self):
        factory = canonical_decoder_factory(Constellation.qam(4))
        assert factory() is not factory()

    def test_bfs_factory_configuration(self):
        const = Constellation.qam(4)
        decoder = bfs_gpu_decoder_factory(const)()
        assert isinstance(decoder, GemmBfsDecoder)
        assert decoder.radius_policy.alpha == 4.0
        assert decoder.max_frontier == 2**19

    def test_canonical_snrs(self):
        assert CANONICAL_SNRS == (4.0, 8.0, 12.0, 16.0, 20.0)
        assert REAL_TIME_MS == 10.0


class TestSeriesResult:
    def make(self):
        return SeriesResult(
            experiment="demo",
            title="a demo",
            columns=["x", "y"],
            rows=[{"x": 1, "y": 2.5}, {"x": 2, "y": None}],
            notes="note",
        )

    def test_column_access(self):
        sr = self.make()
        assert sr.column("x") == [1, 2]
        assert sr.column("y") == [2.5, None]

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            self.make().column("z")

    def test_format_contains_everything(self):
        text = self.make().format()
        assert "demo" in text
        assert "2.5" in text
        assert "-" in text  # None rendered as dash
        assert "note" in text

    def test_format_aligns_header(self):
        text = self.make().format()
        lines = text.splitlines()
        # title + header + separator + 2 rows + note
        assert len(lines) == 6

    def test_format_small_and_large_floats(self):
        sr = SeriesResult(
            experiment="e",
            title="t",
            columns=["v"],
            rows=[{"v": 1e-6}, {"v": 123456.0}, {"v": 0.0}],
        )
        text = sr.format()
        assert "1e-06" in text
        assert "0" in text


class TestWorkloadSweep:
    def test_sweep_structure(self):
        workload = run_workload_sweep(
            4, "4qam", snrs=[8.0, 16.0], channels=2, frames_per_channel=2, seed=0
        )
        assert len(workload.sweep.points) == 2
        assert workload.cpu.n_rx == 4
        assert workload.fpga_optimized.config.name == "fpga-optimized"

    def test_traces_kept(self):
        workload = run_workload_sweep(
            4, "4qam", snrs=[8.0], channels=1, frames_per_channel=2, seed=0
        )
        for st in workload.sweep.points[0].frame_stats:
            assert st.batches

    def test_time_rows_columns(self):
        workload = run_workload_sweep(
            4, "4qam", snrs=[8.0, 16.0], channels=2, frames_per_channel=2, seed=0
        )
        rows = time_rows(workload)
        assert len(rows) == 2
        for row in rows:
            assert row["cpu_ms"] > 0
            assert row["fpga_optimized_ms"] > 0
            assert row["fpga_baseline_ms"] > row["fpga_optimized_ms"]
            assert row["speedup_vs_cpu"] == pytest.approx(
                row["cpu_ms"] / row["fpga_optimized_ms"]
            )
            assert isinstance(row["real_time_fpga"], bool)

    def test_decode_time_falls_with_snr(self):
        """The headline shape of Figs. 6/8/9/10 on a small system."""
        workload = run_workload_sweep(
            6, "4qam", snrs=[4.0, 20.0], channels=3, frames_per_channel=4, seed=1
        )
        rows = time_rows(workload)
        assert rows[0]["cpu_ms"] > rows[1]["cpu_ms"]
        assert rows[0]["fpga_optimized_ms"] > rows[1]["fpga_optimized_ms"]
