"""benchmarks/emit.py + benchmarks/compare.py: the perf-gate plumbing.

Schema round-trips, the direction heuristic, the tolerance math, and the
regression verdicts — all against temp directories, no benches run.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

import check_e2e  # noqa: E402
import compare  # noqa: E402
import emit  # noqa: E402


class TestEmit:
    def test_round_trip(self, tmp_path):
        path = emit.emit(
            "gate_demo",
            metrics={"throughput_rps": 1000.0, "p99_us": 42},
            rows=[{"Mode": "x", "p99 (us)": 42}],
            meta={"workload": "test"},
            root=str(tmp_path),
        )
        assert os.path.basename(path) == "BENCH_gate_demo.json"
        loaded = emit.load("gate_demo", root=str(tmp_path))
        assert loaded["bench"] == "gate_demo"
        assert loaded["schema"] == emit.SCHEMA_VERSION
        assert loaded["metrics"] == {"throughput_rps": 1000.0, "p99_us": 42}
        assert loaded["rows"][0]["Mode"] == "x"
        assert loaded["meta"] == {"workload": "test"}

    def test_load_missing_returns_none(self, tmp_path):
        assert emit.load("nope", root=str(tmp_path)) is None

    def test_rejects_path_like_names(self, tmp_path):
        with pytest.raises(ValueError):
            emit.emit("a/b", metrics={}, root=str(tmp_path))
        with pytest.raises(ValueError):
            emit.emit("", metrics={}, root=str(tmp_path))

    def test_rejects_non_numeric_metrics(self, tmp_path):
        with pytest.raises(ValueError):
            emit.emit("bad", metrics={"name": "fast"}, root=str(tmp_path))
        with pytest.raises(ValueError):
            emit.emit("bad", metrics={"flag": True}, root=str(tmp_path))

    def test_default_root_is_scratch_not_the_committed_baselines(self, tmp_path, monkeypatch):
        """A bench run without ``--bench-root`` (tier-1 collects the
        benches) must not touch the ``BENCH_*.json`` files at the root."""
        assert os.path.relpath(emit.output_root, emit.REPO_ROOT) == os.path.join(
            "benchmarks", ".out"
        )
        monkeypatch.setattr(emit, "output_root", str(tmp_path / "out"))
        path = emit.emit("rootless", metrics={"x_rps": 1})
        assert path == str(tmp_path / "out" / "BENCH_rootless.json")
        assert emit.load("rootless")["metrics"] == {"x_rps": 1}

    def test_no_tmp_file_left_behind(self, tmp_path):
        emit.emit("clean", metrics={"x_rps": 1}, root=str(tmp_path))
        assert os.listdir(tmp_path) == ["BENCH_clean.json"]


class TestDirectionHeuristic:
    @pytest.mark.parametrize("metric,expected", [
        ("coalesced_sustained_rps", "higher"),
        ("throughput_1_shards", "higher"),
        ("mlkv_speedup", "higher"),
        ("rescale_moved_keys_per_s", "higher"),
        ("gnn_fwd_bwd_steps_per_s", "higher"),
        ("gnn_sample_batches_per_s", "higher"),
        ("dlrm_fwd_bwd_steps_per_s", "higher"),
        ("row_adagrad_resident_keys_per_s", "higher"),
        ("serving_loop_requests_per_s", "higher"),
        ("zipfian_keys_per_s", "higher"),
        ("post_failover_p99_us", "lower"),
        ("slo_p99_seconds", "lower"),
        ("stall_seconds", "lower"),
        ("failover_lost_requests", "none"),
    ])
    def test_known_vocabulary(self, metric, expected):
        assert compare.direction(metric) == expected


class TestToleranceMath:
    def test_higher_better_within_tolerance(self):
        finding = compare.classify("x_rps", 1000.0, 750.0, tolerance=0.30)
        assert finding["status"] == "ok"
        assert finding["change"] == pytest.approx(0.25)

    def test_higher_better_regression(self):
        finding = compare.classify("x_rps", 1000.0, 650.0, tolerance=0.30)
        assert finding["status"] == "regression"
        assert finding["change"] == pytest.approx(0.35)

    def test_lower_better_regression_is_an_increase(self):
        finding = compare.classify("x_p99_us", 100.0, 140.0, tolerance=0.30)
        assert finding["status"] == "regression"
        assert finding["change"] == pytest.approx(0.40)

    def test_improvement_never_gates(self):
        assert compare.classify("x_rps", 1000.0, 5000.0, 0.30)["status"] == "ok"
        assert compare.classify("x_p99_us", 100.0, 1.0, 0.30)["status"] == "ok"

    def test_zero_baseline_and_unknown_direction_untracked(self):
        assert compare.classify("x_p99_us", 0.0, 50.0, 0.30)["status"] == "untracked"
        assert compare.classify("mystery", 10.0, 99.0, 0.30)["status"] == "untracked"

    def test_missing_and_new_metrics(self):
        findings = compare.compare_payloads(
            {"metrics": {"a_rps": 10.0, "gone_rps": 5.0}},
            {"metrics": {"a_rps": 10.0, "added_rps": 7.0}},
        )
        by_metric = {finding["metric"]: finding["status"] for finding in findings}
        assert by_metric == {"a_rps": "ok", "gone_rps": "missing", "added_rps": "new"}


class TestGateEndToEnd:
    def _roots(self, tmp_path, baseline_metrics, fresh_metrics):
        baseline = tmp_path / "baseline"
        fresh = tmp_path / "fresh"
        baseline.mkdir()
        fresh.mkdir()
        emit.emit("demo", metrics=baseline_metrics, root=str(baseline))
        if fresh_metrics is not None:
            emit.emit("demo", metrics=fresh_metrics, root=str(fresh))
        return str(baseline), str(fresh)

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        baseline, fresh = self._roots(
            tmp_path, {"x_rps": 100.0, "x_p99_us": 10.0},
            {"x_rps": 95.0, "x_p99_us": 11.0},
        )
        code = compare.main(["--baseline", baseline, "--fresh", fresh])
        assert code == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_regression_detected_exits_nonzero(self, tmp_path, capsys):
        baseline, fresh = self._roots(
            tmp_path, {"x_rps": 100.0}, {"x_rps": 50.0},
        )
        code = compare.main(["--baseline", baseline, "--fresh", fresh])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out and "demo.x_rps" in out

    def test_tolerance_flag_loosens_the_gate(self, tmp_path):
        baseline, fresh = self._roots(
            tmp_path, {"x_rps": 100.0}, {"x_rps": 50.0},
        )
        assert compare.main(
            ["--baseline", baseline, "--fresh", fresh, "--tolerance", "0.6"]
        ) == 0

    def test_missing_fresh_file_skips_with_note(self, tmp_path, capsys):
        baseline, fresh = self._roots(tmp_path, {"x_rps": 100.0}, None)
        code = compare.main(["--baseline", baseline, "--fresh", fresh])
        out = capsys.readouterr().out
        assert code == 0
        assert "no fresh emission" in out

    def test_dropped_metric_fails_the_gate(self, tmp_path):
        baseline, fresh = self._roots(
            tmp_path, {"x_rps": 100.0, "y_rps": 10.0}, {"x_rps": 100.0},
        )
        assert compare.main(["--baseline", baseline, "--fresh", fresh]) == 1

    def test_since_marker_skips_stale_fresh_files(self, tmp_path, capsys):
        """A fresh file older than the gate-start marker is a committed
        baseline the run never re-emitted — it must be skipped with a
        note, not self-compared as 'ok' (even when its values would
        otherwise regress)."""
        baseline, fresh = self._roots(
            tmp_path, {"x_rps": 100.0}, {"x_rps": 1.0},  # huge "regression"
        )
        marker = tmp_path / "marker"
        marker.touch()
        stale = os.path.join(fresh, "BENCH_demo.json")
        os.utime(stale, (0, 0))  # older than the marker
        code = compare.main([
            "--baseline", baseline, "--fresh", fresh, "--since", str(marker),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "not re-emitted by this gate run" in out

    def test_since_marker_still_gates_re_emitted_files(self, tmp_path):
        baseline, fresh = self._roots(
            tmp_path, {"x_rps": 100.0}, {"x_rps": 1.0},
        )
        marker = tmp_path / "marker"
        marker.touch()
        future = os.path.getmtime(str(marker)) + 10
        os.utime(os.path.join(fresh, "BENCH_demo.json"), (future, future))
        assert compare.main([
            "--baseline", baseline, "--fresh", fresh, "--since", str(marker),
        ]) == 1

    def test_gate_against_committed_baselines_passes_identity(self):
        """The committed BENCH_*.json files gate cleanly against themselves
        (the no-change case the CI perf job exercises on every push)."""
        root = emit.REPO_ROOT
        results, notes = compare.compare_roots(root, root)
        assert results, "committed baselines should exist at the repo root"
        assert not compare.regressions(results)


class TestE2eSmokeVerdict:
    """benchmarks/check_e2e.py: run.py's last line -> an exit status."""

    @staticmethod
    def workload(correct=True, failed=0, share=0.99, calls=0.3):
        return {
            "correct": correct, "attempted": 12, "failed": failed,
            "metrics": {
                "train.attributed_share": {"value": share, "unit": "ratio"},
                "kv.py_calls_per_key": {"value": calls, "unit": "count"},
            },
        }

    def test_clean_report_passes(self):
        report = {"dlrm_mem": self.workload(), "serve_restored": self.workload(share=0.0)}
        assert check_e2e.problems(report) == []
        assert check_e2e.problems(self.workload()) == []  # a bare --workload report

    def test_wrong_result_failed_op_and_thin_trace_fail(self):
        report = {
            "a": self.workload(correct=False, failed=12),
            "b": self.workload(failed=1),
            "c": self.workload(share=0.90),
        }
        found = check_e2e.problems(report)
        assert [line.split(":")[0] for line in found] == ["a", "b", "c"]
        assert "0.900" in found[2]

    def test_engine_back_on_the_per_key_loop_fails(self):
        """A traced training workload over the call ceiling fails; a
        serving workload (no training spans) is not held to it."""
        report = {
            "dlrm_ooc": self.workload(calls=22.6),
            "dlrm_mem": self.workload(calls=check_e2e.MAX_PY_CALLS_PER_KEY),
            "serve_restored": self.workload(share=0.0, calls=16.9),
        }
        found = check_e2e.problems(report)
        assert len(found) == 1 and found[0].startswith("dlrm_ooc: 22.60 Python calls per key")
        thin = check_e2e.problems({"a": self.workload(share=0.5, calls=30.0)})
        assert len(thin) == 2  # both checks speak
