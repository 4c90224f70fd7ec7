"""Tests for the persistent run registry (repro.obs.registry)."""

import json

import pytest

from repro.mimo.metrics import ErrorCounter
from repro.mimo.montecarlo import SnrPoint, SweepResult
from repro.obs import NULL_RECORDER, RunRegistry, Tracer
from repro.obs.registry import (
    MANIFEST_FILE,
    METRICS_FILE,
    SERIES_FILE,
    SWEEP_FILE,
    TRACE_FILE,
    capture_environment,
    make_run_id,
    metrics_to_dict,
    sweep_to_dict,
)


def tiny_sweep() -> SweepResult:
    counter = ErrorCounter()
    counter.bit_errors, counter.bits = 3, 120
    return SweepResult(
        detector_name="sd",
        system_label="4x4 4qam",
        points=[
            SnrPoint(
                snr_db=8.0, errors=counter, decode_time_s=0.25, frames=10
            )
        ],
    )


class FakeSeries:
    experiment = "fake"
    title = "fake series"
    columns = ["snr_db", "ber"]
    rows = [{"snr_db": 8.0, "ber": 0.01}]
    notes = "n"


class TestRecorder:
    def test_round_trip_writes_all_artifacts(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        recorder = registry.new_run("fig6", seed=7, config={"channels": 2})
        tracer = Tracer()
        with tracer.span("sd.detect"):
            tracer.count("nodes", 5)
        recorder.record_series(FakeSeries())
        recorder.record_sweep(tiny_sweep())
        recorder.record_metrics(tracer)
        recorder.record_chrome_trace(tracer)
        path = recorder.finalize()
        assert path is not None and path.is_dir()
        for name in (MANIFEST_FILE, SERIES_FILE, SWEEP_FILE, METRICS_FILE, TRACE_FILE):
            assert (path / name).is_file(), name
        manifest = json.loads((path / MANIFEST_FILE).read_text())
        assert manifest["experiment"] == "fig6"
        assert manifest["seed"] == 7
        assert manifest["config"] == {"channels": 2}
        assert manifest["status"] == "complete"
        assert manifest["elapsed_s"] >= 0.0
        assert manifest["environment"]["python"]

    def test_failed_status(self, tmp_path):
        recorder = RunRegistry(tmp_path).new_run("x")
        path = recorder.finalize("failed")
        manifest = json.loads((path / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"

    def test_disabled_registry_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        registry = RunRegistry(None)
        assert not registry.enabled
        recorder = registry.new_run("fig6")
        assert recorder is NULL_RECORDER
        recorder.record_series(FakeSeries())
        recorder.record_sweep(tiny_sweep())
        recorder.record_metrics(Tracer())
        recorder.record_chrome_trace(Tracer())
        assert recorder.finalize() is None
        assert list(tmp_path.iterdir()) == []  # nothing created anywhere

    def test_run_ids_unique_within_second(self):
        ids = {make_run_id("fig6") for _ in range(32)}
        assert len(ids) == 32


class TestSerialisation:
    def test_sweep_to_dict(self):
        doc = sweep_to_dict(tiny_sweep())
        assert doc["detector"] == "sd"
        point = doc["points"][0]
        assert point["snr_db"] == 8.0
        assert point["ber"] == pytest.approx(3 / 120)
        assert point["decode_time_s"] == pytest.approx(0.25)
        assert point["mean_nodes"] is None  # NaN -> null
        json.dumps(doc)  # round-trippable

    def test_metrics_to_dict(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.count("n", 2)
        doc = metrics_to_dict(tracer)
        assert doc["spans"]["a"]["count"] == 1
        assert set(doc["spans"]["a"]) >= {"p50_s", "p95_s", "p99_s", "total_s"}
        assert doc["counters"] == {"n": 2.0}

    def test_environment_fields(self):
        env = capture_environment()
        assert set(env) >= {"git_sha", "python", "numpy", "platform", "hostname"}


class TestResolve:
    def make_runs(self, tmp_path, n=3):
        registry = RunRegistry(tmp_path)
        paths = []
        for i in range(n):
            rec = registry.new_run(f"exp{i}")
            paths.append(rec.finalize())
        return registry, paths

    def test_exact_and_prefix(self, tmp_path):
        registry, paths = self.make_runs(tmp_path)
        assert registry.resolve(paths[0].name) == paths[0]
        # unique prefix: full name minus last char is still unique
        assert registry.resolve(paths[1].name[:-1]) == paths[1]

    def test_latest_and_back_references(self, tmp_path):
        registry, paths = self.make_runs(tmp_path)
        runs = registry.run_dirs()
        assert registry.resolve("latest") == runs[-1]
        assert registry.resolve("latest~1") == runs[-2]
        with pytest.raises(KeyError, match="out of range"):
            registry.resolve("latest~9")

    def test_path_reference(self, tmp_path):
        registry, paths = self.make_runs(tmp_path, n=1)
        assert registry.resolve(str(paths[0])) == paths[0]

    def test_missing_and_ambiguous(self, tmp_path):
        registry, _ = self.make_runs(tmp_path)
        with pytest.raises(KeyError, match="no run matching"):
            registry.resolve("zzz")
        # every id shares the timestamp-ish prefix "2" (year 2xxx)
        with pytest.raises(KeyError, match="ambiguous"):
            registry.resolve("2")

    def test_run_dirs_skips_manifestless_dirs(self, tmp_path):
        registry, paths = self.make_runs(tmp_path, n=1)
        (tmp_path / "not-a-run").mkdir()
        assert registry.run_dirs() == paths
