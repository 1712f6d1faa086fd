"""Tests for the wall-clock perf harness (repro.bench.perf).

Two kinds of assertion live here:

* unit tests of the harness mechanics (digest, baseline check, CLI);
* the rig-level golden-run test: a small fixed-seed TPC-B rig must
  reproduce a recorded ``(sim_us, commits, metrics_digest)`` triple
  bit-for-bit.  The digest covers every telemetry counter, histogram
  sample, the final simulated clock and the commit count, so *any*
  change to simulated behaviour — however small — trips it.  Kernel and
  hot-path optimizations must keep it green; recapture the constants
  only for an intentional semantic change, and justify it in review.
"""

import json

import pytest

from repro.bench import perf
from repro.bench.perf import (
    PerfPoint,
    check_regression,
    load_baseline,
    main,
    metrics_digest,
    run_rig,
    write_baseline,
)
from repro.telemetry import MetricsRegistry

# Captured on the seed kernel; identical on the fast-lane kernel.
# Digest recaptured when the WAL stopped double-counting group commits
# and the array gained the flash.power_cuts counter: sim_us and commits
# were bit-identical before and after (telemetry contents changed, the
# simulated behaviour did not).
RIG_GOLDEN_SIM_US = 316513.6800000004
RIG_GOLDEN_COMMITS = 553
RIG_GOLDEN_DIGEST = (
    "dcd83cbb9f8ab1d296a778e922d9958aa4efcb825758f7aff8aa5c140cf1b005"
)

# A contended rig: 16 terminals against 2 db-writers, so several
# evictors are blocked on each frame a writer cleans (the golden above
# has about one).  Recorded before the buffer pool's clean-frame pass
# replaced the per-waiter broadcast; the pass must reproduce it exactly.
CONTENDED_GOLDEN_SIM_US = 502150.79999999923
CONTENDED_GOLDEN_COMMITS = 1327
CONTENDED_GOLDEN_DIGEST = (
    "007fd2fc85d12f7a03e03bb4f6550fc299df0ec56ac25b5b89ca8f211962aaa8"
)


def _point(rig="tpcb", events_per_sec=1000.0, ops_per_sec=10.0) -> PerfPoint:
    return PerfPoint(
        rig=rig, seed=11, duration_us=1000.0, wall_s=1.0, sim_us=1000.0,
        events=1000, events_per_sec=events_per_sec, commits=10,
        ops_per_sec=ops_per_sec, flash_commands=50, metrics_digest="d" * 64,
    )


class TestDigest:
    def test_digest_is_stable_for_same_registry(self):
        registry = MetricsRegistry()
        registry.counter("x", layer="t").inc(3)
        assert metrics_digest(registry, 5.0, 2) == \
            metrics_digest(registry, 5.0, 2)

    def test_digest_changes_with_any_input(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", layer="t")
        base = metrics_digest(registry, 5.0, 2)
        assert metrics_digest(registry, 6.0, 2) != base
        assert metrics_digest(registry, 5.0, 3) != base
        counter.inc()
        assert metrics_digest(registry, 5.0, 2) != base


class TestGoldenRig:
    def test_small_tpcb_rig_reproduces_recorded_run(self):
        point = run_rig("tpcb", seed=5, duration_us=120_000.0, dies=4,
                        terminals=4, writers=2)
        assert point.metrics_digest == RIG_GOLDEN_DIGEST
        assert point.commits == RIG_GOLDEN_COMMITS
        assert point.sim_us == pytest.approx(RIG_GOLDEN_SIM_US)
        assert point.events > 0
        assert point.flash_commands > 0
        assert point.wall_s > 0

    def test_contended_tpcb_rig_reproduces_recorded_run(self, monkeypatch):
        attached = []
        original = perf.attach_database

        def attach(*args, **kwargs):
            db = original(*args, **kwargs)
            attached.append(db)
            return db

        monkeypatch.setattr(perf, "attach_database", attach)
        point = perf.run_rig("tpcb", seed=5, duration_us=300_000.0, dies=4,
                             terminals=16, writers=2)
        assert point.metrics_digest == CONTENDED_GOLDEN_DIGEST
        assert point.commits == CONTENDED_GOLDEN_COMMITS
        assert point.sim_us == CONTENDED_GOLDEN_SIM_US
        # The rig must keep exercising multi-waiter clean passes: many
        # blocked evictors per commit and per written-back frame.
        pool = attached[0].buffer
        assert pool.clean_waits > 5 * point.commits
        assert pool.clean_waits > 5 * pool.flushes

    def test_unknown_rig_rejected(self):
        with pytest.raises(ValueError, match="unknown rig"):
            run_rig("mystery")


class TestBaseline:
    def test_write_then_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(path, [_point(events_per_sec=2000.0)], derate=0.5)
        baseline = load_baseline(path)
        assert baseline["tpcb"]["events_per_sec"] == 1000.0
        assert baseline["tpcb"]["measured_events_per_sec"] == 2000.0

    def test_check_passes_above_floor(self):
        baseline = {"tpcb": {"events_per_sec": 1000.0}}
        assert check_regression(
            [_point(events_per_sec=900.0)], baseline, tolerance=0.20) == []

    def test_check_fails_below_floor(self):
        baseline = {"tpcb": {"events_per_sec": 1000.0}}
        failures = check_regression(
            [_point(events_per_sec=700.0)], baseline, tolerance=0.20)
        assert len(failures) == 1
        assert "tpcb" in failures[0]

    def test_rigs_absent_from_baseline_pass(self):
        assert check_regression([_point(rig="tpcc")], {"tpcb": {}}) == []

    def test_check_fails_below_commits_floor(self):
        # Fewer events per commit: events/sec falls, commits/sec rises.
        # Both floors are checked on their own.
        baseline = {"tpcb": {"events_per_sec": 1000.0, "ops_per_sec": 10.0}}
        assert check_regression(
            [_point(events_per_sec=850.0, ops_per_sec=12.0)], baseline) == []
        failures = check_regression(
            [_point(events_per_sec=1000.0, ops_per_sec=7.0)], baseline)
        assert len(failures) == 1
        assert "commits/s" in failures[0]
        both = check_regression(
            [_point(events_per_sec=700.0, ops_per_sec=7.0)], baseline)
        assert len(both) == 2


class TestCli:
    def test_quick_run_emits_bench_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path))
        code = main(["--rig", "tpcb", "--duration-us", "50000",
                     "--seed", "5"])
        assert code == 0
        with open(tmp_path / "BENCH_tpcb.json", encoding="utf-8") as handle:
            point = json.load(handle)
        assert point["rig"] == "tpcb"
        assert point["events"] > 0
        assert point["events_per_commit"] == point["events"] / point["commits"]
        assert len(point["metrics_digest"]) == 64
        with open(tmp_path / "BENCH_perf.json", encoding="utf-8") as handle:
            combined = json.load(handle)
        assert [p["rig"] for p in combined["rigs"]] == ["tpcb"]

    def test_check_against_missing_baseline_returns_2(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path))
        code = main(["--rig", "tpcb", "--duration-us", "50000",
                     "--seed", "5", "--check",
                     "--baseline", str(tmp_path / "missing.json")])
        assert code == 2

    def test_write_baseline_then_check_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path))
        baseline = str(tmp_path / "baseline.json")
        assert main(["--rig", "tpcb", "--duration-us", "50000", "--seed",
                     "5", "--write-baseline", "--baseline", baseline]) == 0
        assert main(["--rig", "tpcb", "--duration-us", "50000", "--seed",
                     "5", "--check", "--baseline", baseline]) == 0
