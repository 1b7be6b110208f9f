"""Load generator: trace replay reports, the CLI, and its gate flags."""

from __future__ import annotations

import json

import pytest

from repro.service.loadgen import main, run_loadgen

pytestmark = pytest.mark.service

#: Small, fast replay shared by every test (vectorised substrate).
_ARGS = dict(
    n_links=40,
    seed=1,
    horizon=30,
    scenario_kwargs={"churn_rate": 0.5, "substrate": "planar_uniform"},
)


class TestRunLoadgen:
    def test_report_shape(self):
        report = run_loadgen(**_ARGS)
        assert report["events"] > 0
        assert report["events_per_s"] > 0
        assert report["elapsed_s"] > 0
        assert report["admissions"] > 0
        assert report["admit_p99_ms"] >= report["admit_p50_ms"] >= 0.0
        assert report["m"] > 0 and report["slot_count"] >= 1
        # Build knobs echo into the report for the BENCH artifact.
        for key in ("backend", "kind", "batch", "eps", "radius"):
            assert key in report

    def test_rate_cap_slows_the_replay(self):
        capped = run_loadgen(rate=200.0, **_ARGS)
        events = capped["events"]
        assert capped["rate_cap"] == 200.0
        # Submission pacing bounds sustained throughput by the cap
        # (generously slack: the last event still has to apply).
        assert capped["elapsed_s"] >= (events - 1) / 200.0

    def test_batched_replay_counts_every_event(self):
        a = run_loadgen(batch=1, **_ARGS)
        b = run_loadgen(batch=4, **_ARGS)
        assert a["events"] == b["events"]
        assert b["batch"] == 4
        # Same trace either way: the daemon ends at the same population.
        assert a["m"] == b["m"]


class TestCli:
    _ARGV = [
        "--n-links", "40", "--seed", "1", "--horizon", "30",
        "--churn-rate", "0.5", "--scenario", "poisson_churn",
    ]

    def test_writes_bench_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_service.json"
        rc = main(self._ARGV + ["--out", str(out), "--label", "smoke"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "smoke" in doc
        assert doc["smoke"]["events"] > 0
        # Stdout mirrors the labelled report for CI logs.
        assert "smoke" in capsys.readouterr().out
        # A second labelled run merges instead of clobbering.
        rc = main(self._ARGV + ["--out", str(out), "--label", "again"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"smoke", "again"}

    def test_default_label_encodes_run_shape(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(self._ARGV + ["--out", str(out), "--batch", "4"])
        assert rc == 0
        (label,) = json.loads(out.read_text())
        assert label == "poisson_churn_m40_h30_first_fit_b4"

    def test_gate_flags_fail_loudly(self, capsys):
        assert main(self._ARGV + ["--min-events", "10000"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(self._ARGV + ["--min-events-per-s", "1e9"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(self._ARGV + ["--budget-s", "0.0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gate_flags_pass_when_met(self):
        assert main(self._ARGV + ["--min-events", "1"]) == 0
