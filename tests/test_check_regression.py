"""Tests for the benchmark-regression gate (tools/check_regression.py)."""

import json
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

import check_regression as cr


class TestMetricClass:
    def test_known_prefixes(self):
        assert cr.metric_class("host_ms@8") == "time"
        assert cr.metric_class("cpu_model_ms@12") == "model"
        assert cr.metric_class("fpga_opt_ms@8") == "model"
        assert cr.metric_class("mean_nodes@12") == "nodes"
        assert cr.metric_class("mean_nodes_per_sec@8") == "rate"
        assert cr.metric_class("ber@8") == "ber"
        assert cr.metric_class("calls_per_node") == "calls"

    def test_unknown_prefix_is_uncompared(self):
        assert cr.metric_class("frames@8") is None


BASE = {
    "host_ms@8": 10.0,
    "cpu_model_ms@8": 5.0,
    "mean_nodes@8": 30.0,
    "ber@8": 0.05,
}


class TestCompare:
    def test_identical_runs_pass(self):
        assert cr.compare(BASE, dict(BASE)) == []

    def test_injected_2x_slowdown_is_flagged(self):
        current = dict(BASE, **{"host_ms@8": 20.0})
        violations = cr.compare(BASE, current)
        assert [v["metric"] for v in violations] == ["host_ms@8"]
        assert "2.00x baseline" in violations[0]["reason"]

    def test_within_tolerance_passes(self):
        current = dict(BASE, **{"host_ms@8": 15.0})  # +50% < +60%
        assert cr.compare(BASE, current) == []

    def test_improvements_never_regress(self):
        current = {k: v * 0.5 for k, v in BASE.items()}
        assert cr.compare(BASE, current) == []

    def test_tight_model_class(self):
        current = dict(BASE, **{"cpu_model_ms@8": 5.2})  # +4% > +2%
        violations = cr.compare(BASE, current)
        assert [v["metric"] for v in violations] == ["cpu_model_ms@8"]

    def test_ber_zero_tolerance_with_abs_slack(self):
        base = dict(BASE, **{"ber@8": 0.0})
        assert cr.compare(base, dict(base)) == []  # 0 vs 0 is fine
        worse = dict(base, **{"ber@8": 1e-3})
        assert [v["metric"] for v in cr.compare(base, worse)] == ["ber@8"]

    def test_missing_metric_either_side_is_violation(self):
        current = dict(BASE)
        del current["mean_nodes@8"]
        current["host_ms@12"] = 1.0
        reasons = {v["metric"]: v["reason"] for v in cr.compare(BASE, current)}
        assert reasons == {
            "mean_nodes@8": "metric missing from current run",
            "host_ms@12": "metric missing from baseline",
        }

    def test_tolerance_override(self):
        current = dict(BASE, **{"host_ms@8": 20.0})
        assert cr.compare(BASE, current, {"time": 2.0}) == []

    def test_rate_collapse_is_flagged(self):
        """Rate metrics regress downward: a throughput collapse fails."""
        base = dict(BASE, **{"mean_nodes_per_sec@8": 100_000.0})
        current = dict(base, **{"mean_nodes_per_sec@8": 30_000.0})  # 0.3x
        violations = cr.compare(base, current)
        assert [v["metric"] for v in violations] == ["mean_nodes_per_sec@8"]
        assert "higher is better" in violations[0]["reason"]

    def test_calls_class_gates_at_ten_percent(self):
        base = dict(BASE, calls_per_node=10.0)
        assert cr.compare(base, dict(base, calls_per_node=10.9)) == []
        violations = cr.compare(base, dict(base, calls_per_node=11.2))
        assert [v["metric"] for v in violations] == ["calls_per_node"]

    def test_rate_improvement_and_jitter_pass(self):
        base = dict(BASE, **{"mean_nodes_per_sec@8": 100_000.0})
        faster = dict(base, **{"mean_nodes_per_sec@8": 250_000.0})
        assert cr.compare(base, faster) == []
        jitter = dict(base, **{"mean_nodes_per_sec@8": 50_000.0})  # at -50%
        assert cr.compare(base, jitter) == []  # within the -60% floor


class TestCollectMetrics:
    def test_deterministic_for_fixed_seed(self):
        kwargs = dict(channels=1, frames_per_channel=2, seed=11)
        a, series = cr.collect_metrics(**kwargs)
        b, _ = cr.collect_metrics(**kwargs)
        assert set(a) and set(a) == set(b)
        for name in a:
            # time and rate are measured wall-clock quantities; all other
            # classes must be bit-deterministic for a fixed seed.
            if cr.metric_class(name) not in ("time", "rate"):
                assert a[name] == b[name], name
        assert {n.split("@", 1)[0] for n in a} == {
            "host_ms", "cpu_model_ms", "fpga_opt_ms", "ber", "mean_nodes",
            "mean_nodes_per_sec", "mean_nodes_linf", "mean_nodes_per_sec_linf",
            "mean_nodes_rr", "mean_nodes_per_sec_rr", "calls_per_node",
        }
        assert series.rows

    def test_calls_per_node_is_serial_even_with_workers(self):
        """The calls proxy replays the decodes in-process, so a sharded
        gate run reports the same figure as a serial one."""
        kwargs = dict(channels=1, frames_per_channel=2, seed=11)
        serial, _ = cr.collect_metrics(**kwargs)
        sharded, _ = cr.collect_metrics(workers=2, **kwargs)
        assert sharded["calls_per_node"] == serial["calls_per_node"] > 0


class TestMainEndToEnd:
    ARGS = ["--channels", "1", "--frames", "2", "--seed", "11"]

    def test_update_then_clean_pass(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert cr.main([*self.ARGS, "--baseline", str(baseline), "--update"]) == 0
        assert baseline.is_file()
        doc = json.loads(baseline.read_text())
        assert doc["schema"] == cr.SCHEMA
        assert doc["config"]["seed"] == 11
        # unmodified re-run at the same config passes the gate (host wall
        # time and throughput jitter hugely at this micro scale, so relax
        # `time`/`rate` the way CI does; the deterministic classes stay
        # at their defaults)
        assert cr.main([*self.ARGS, "--baseline", str(baseline),
                        "--tol-time", "20", "--tol-rate", "0.95"]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update"])
        doc = json.loads(baseline.read_text())
        for name in doc["metrics"]:  # simulate everything getting 2x faster
            doc["metrics"][name] *= 0.5  # ... so the current run looks 2x slower
        baseline.write_text(json.dumps(doc))
        assert cr.main([*self.ARGS, "--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        code = cr.main([*self.ARGS, "--baseline", str(tmp_path / "nope.json")])
        assert code == 2
        assert "no baseline" in capsys.readouterr().err

    def test_config_mismatch_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update"])
        code = cr.main(
            ["--channels", "1", "--frames", "3", "--seed", "11",
             "--baseline", str(baseline)]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_trajectory_appends(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        trajectory = tmp_path / "trajectory.json"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update",
                 "--trajectory", str(trajectory)])
        cr.main([*self.ARGS, "--baseline", str(baseline),
                 "--trajectory", str(trajectory)])
        doc = json.loads(trajectory.read_text())
        assert len(doc["points"]) == 2
        assert set(doc["points"][0]) == {"recorded_utc", "git_sha", "metrics"}

    def test_runs_dir_records_run(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        runs = tmp_path / "runs"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update",
                 "--runs-dir", str(runs)])
        dirs = [p for p in runs.iterdir() if (p / "manifest.json").is_file()]
        assert len(dirs) == 1
        assert (dirs[0] / "series.json").is_file()
        assert (dirs[0] / "metrics.json").is_file()
        assert (dirs[0] / "profile.json").is_file()
        manifest = json.loads((dirs[0] / "manifest.json").read_text())
        assert "profile.json" in manifest["artifacts"]


class TestAttributionHint:
    """The best-effort span-attribution hint under a failed gate."""

    ARGS = ["--channels", "1", "--frames", "2", "--seed", "11"]

    def _force_failure(self, baseline):
        """Halve every baseline metric so the next run looks 2x slower."""
        doc = json.loads(baseline.read_text())
        for name in doc["metrics"]:
            doc["metrics"][name] *= 0.5
        # keep rate metrics from masking: they regress downward, and the
        # halved baseline makes the current run look *faster* there
        baseline.write_text(json.dumps(doc))

    def _shrink_profile(self, runs):
        """Scale the recorded profile down so the next run regresses.

        The hint only prints spans whose self-time *grew* vs the prior
        run; two back-to-back runs of the same workload can tie or
        speed up on noise, so pin the comparison's outcome."""
        profile = next(runs.glob("*/profile.json"))
        doc = json.loads(profile.read_text())

        def scale(node):
            node["total_s"] *= 1e-3
            node["self_s"] *= 1e-3
            for child in node.get("children", []):
                scale(child)

        doc["wall_s"] *= 1e-3
        for root in doc["tree"]:
            scale(root)
        profile.write_text(json.dumps(doc))

    def test_hint_diffs_against_previous_recorded_run(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        runs = tmp_path / "runs"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update",
                 "--runs-dir", str(runs)])
        self._force_failure(baseline)
        self._shrink_profile(runs)
        code = cr.main([*self.ARGS, "--baseline", str(baseline),
                        "--runs-dir", str(runs)])
        assert code == 1  # hint never changes the exit code
        out = capsys.readouterr().out
        assert "attribution hint (span self-time vs run " in out
        # at most 3 spans, each with an absolute delta in ms
        hint_lines = out.split("attribution hint", 1)[1].splitlines()[1:]
        assert 1 <= len(hint_lines) <= 3
        assert all("ms" in line for line in hint_lines)

    def test_hint_falls_back_without_prior_run(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update"])
        self._force_failure(baseline)
        runs = tmp_path / "fresh-runs"  # no prior recording in here
        code = cr.main([*self.ARGS, "--baseline", str(baseline),
                        "--runs-dir", str(runs)])
        assert code == 1
        out = capsys.readouterr().out
        assert "attribution hint (top spans by self-time, no prior run)" in out

    def test_no_hint_without_runs_dir(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update"])
        self._force_failure(baseline)
        assert cr.main([*self.ARGS, "--baseline", str(baseline)]) == 1
        assert "attribution hint" not in capsys.readouterr().out

    def test_hint_failure_is_swallowed(self, tmp_path, capsys, monkeypatch):
        """A broken hint path must not turn exit 1 into a traceback."""
        baseline = tmp_path / "baseline.json"
        runs = tmp_path / "runs"
        cr.main([*self.ARGS, "--baseline", str(baseline), "--update",
                 "--runs-dir", str(runs)])
        self._force_failure(baseline)
        import repro.obs.profile as profile_mod

        def _boom(*a, **k):
            raise RuntimeError("synthetic hint failure")

        # diff_profiles is used only by the hint (record_profile still
        # needs the real tree builder on the recording path)
        monkeypatch.setattr(profile_mod, "diff_profiles", _boom)
        monkeypatch.setattr(profile_mod, "self_by_name", _boom)
        code = cr.main([*self.ARGS, "--baseline", str(baseline),
                        "--runs-dir", str(runs)])
        assert code == 1
        assert "attribution hint" not in capsys.readouterr().out
