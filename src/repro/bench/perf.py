"""Wall-clock performance harness: how fast does the simulator itself run?

Every other bench in this package measures *simulated* time — TPS,
latency percentiles, GC overheads — and is deliberately blind to how
long the host CPU took to produce them.  This harness measures the
opposite: real seconds of host time per rig, simulator events per
wall-clock second and committed transactions per wall-clock second, on
fixed-seed TPC-B / TPC-C rigs built from :mod:`repro.bench.rigs`.

It exists because the production-scale configurations the ROADMAP asks
for (more dies, longer traces, bigger buffer pools) are bounded by the
pure-Python DES kernel and the per-command telemetry path; kernel
optimizations must be proven on wall time *without* perturbing any
simulated-time result.  Each run therefore also reports a
``metrics_digest`` — a SHA-256 over the rig's full telemetry snapshot,
final simulated clock and commit count — which must be bit-identical
across kernel refactors (the determinism tests assert this).

Output: one ``BENCH_<rig>.json`` per rig in ``REPRO_METRICS_DIR``
(default ``benchmarks/out``), plus a combined ``BENCH_perf.json``:

* ``wall_s`` — host seconds for the measured phase (load excluded);
* ``events`` / ``events_per_sec`` — DES events processed and the rate;
* ``commits`` / ``ops_per_sec`` — committed txns and commits per wall
  second;
* ``events_per_commit`` — DES events per committed txn, a host-independent
  cost witness (a change that removes events lowers events/sec while
  raising commits/sec);
* ``sim_us`` — simulated microseconds covered;
* ``metrics_digest`` — determinism witness (see above).

CI runs ``python -m repro.bench.perf --quick --check --determinism`` as
a combined regression + determinism gate: it fails when any rig's
events/sec or commits/sec drops more than ``--tolerance`` (default 20%)
below its floor in the checked-in ``benchmarks/perf_baseline.json``, and
``--determinism`` additionally runs every rig twice and fails on any
``metrics_digest`` mismatch between the two runs.  Regenerate the
baseline with ``--write-baseline`` after an intentional performance
change (values should be set conservatively — CI runners are slower
than dev machines).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..core import NoFTLConfig
from ..workloads import TPCB, TPCC, run_workload
from .reporting import emit, export_metrics, render_table
from .rigs import (
    attach_database,
    build_noftl_rig,
    measure_workload_footprint,
    sized_geometry,
)

__all__ = ["PerfPoint", "run_rig", "metrics_digest", "main", "RIGS"]

RIGS = ("tpcb", "tpcc")

#: Default simulated horizon per rig (microseconds); ``--quick`` shrinks it.
FULL_DURATION_US = 1_200_000.0
QUICK_DURATION_US = 300_000.0

DEFAULT_BASELINE = os.path.join("benchmarks", "perf_baseline.json")


@dataclass
class PerfPoint:
    """One rig's wall-clock measurements (plus its determinism witness)."""

    rig: str
    seed: int
    duration_us: float
    wall_s: float
    sim_us: float
    events: int
    events_per_sec: float
    commits: int
    ops_per_sec: float
    flash_commands: int
    metrics_digest: str

    @property
    def events_per_commit(self) -> float:
        return self.events / self.commits if self.commits else 0.0

    def as_dict(self) -> dict:
        return dict(asdict(self), events_per_commit=self.events_per_commit)


def _make_workload(rig: str):
    if rig == "tpcb":
        return TPCB(sf=8, accounts_per_branch=400)
    if rig == "tpcc":
        return TPCC(warehouses=2, customers_per_district=20, items=80)
    raise ValueError(f"unknown rig {rig!r}; pick from {RIGS}")


def metrics_digest(registry, sim_now: float, commits: int) -> str:
    """SHA-256 over the full telemetry snapshot + clock + commit count.

    Bit-identical digests across two runs (or across a kernel refactor)
    mean every counter, gauge, histogram sample and the final simulated
    clock agreed exactly — the determinism contract of the DES.
    """
    payload = registry.to_json() + f"|now={sim_now!r}|commits={commits}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_rig(
    rig: str,
    seed: int = 11,
    duration_us: float = FULL_DURATION_US,
    dies: int = 8,
    terminals: int = 16,
    writers: int = 8,
    profiler=None,
) -> PerfPoint:
    """Build one fixed-seed NoFTL rig, run it, and time the run phase.

    The load phase (schema + population) is excluded from ``wall_s`` so
    the number reflects the steady-state event-loop rate, but the
    digest covers the whole run — load included — because the telemetry
    registry accumulates from the first command.

    ``profiler`` (a ``cProfile.Profile``) is enabled only around the
    timed window, so the profile matches what ``wall_s`` measured.  Note
    the tracer itself slows the run ~3x and overweights call-heavy
    frames — use it to find hot paths, never to compare absolute rates.
    """
    workload = _make_workload(rig)
    footprint = measure_workload_footprint(workload)
    geometry = sized_geometry(footprint, dies, utilization=0.85,
                              headroom_pages=footprint // 2)
    built = build_noftl_rig(
        geometry=geometry,
        config=NoFTLConfig(num_regions=dies, op_ratio=0.12),
        seed=seed,
    )
    db = attach_database(built, buffer_capacity=max(64, footprint // 4),
                         foreground_flush=False)
    db.start_writers(writers, policy="region")

    sim = built.sim
    run_phase_workload = _make_workload(rig)
    sim.run_process(run_phase_workload.load(db))  # outside the timed window

    events_before = getattr(sim, "events_processed", 0)
    sim_before = sim.now
    if profiler is not None:
        profiler.enable()
    wall_start = time.perf_counter()
    stats = run_workload(sim, db, run_phase_workload,
                         duration_us=duration_us,
                         num_terminals=terminals,
                         rng=random.Random(seed),
                         preloaded=True)
    wall_s = time.perf_counter() - wall_start
    if profiler is not None:
        profiler.disable()
    events = getattr(sim, "events_processed", 0) - events_before
    sim_us = sim.now - sim_before

    telemetry = built.telemetry
    flash_commands = int(telemetry.value("flash.commands"))
    digest = metrics_digest(telemetry, sim.now, stats.commits)
    return PerfPoint(
        rig=rig,
        seed=seed,
        duration_us=duration_us,
        wall_s=wall_s,
        sim_us=sim_us,
        events=events,
        events_per_sec=events / wall_s if wall_s > 0 else 0.0,
        commits=stats.commits,
        ops_per_sec=stats.commits / wall_s if wall_s > 0 else 0.0,
        flash_commands=flash_commands,
        metrics_digest=digest,
    )


# -- baseline comparison ------------------------------------------------------


def load_baseline(path: str) -> Dict[str, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_baseline(path: str, points: Sequence[PerfPoint],
                   derate: float = 1.0) -> None:
    """Record per-rig floors.  ``derate`` scales the measured events/sec
    down (e.g. 0.5) so the checked-in floor tolerates slower CI hosts.

    A ``meta`` block records the capturing interpreter and platform —
    CPython minor versions differ by tens of percent on this workload,
    so ``--check`` warns loudly when the checking interpreter doesn't
    match the one that captured the floors.
    """
    payload: Dict[str, dict] = {
        point.rig: {
            "events_per_sec": point.events_per_sec * derate,
            "ops_per_sec": point.ops_per_sec * derate,
            "measured_events_per_sec": point.events_per_sec,
            "derate": derate,
        }
        for point in points
    }
    payload["meta"] = {
        "python_version": platform.python_version(),
        "platform": platform.platform(),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def baseline_interpreter_mismatch(baseline: Dict[str, dict]) -> List[str]:
    """Human-readable warnings when the current interpreter/platform
    differs from the one that captured the baseline floors.  Baselines
    written before the meta block existed produce no warnings."""
    meta = baseline.get("meta")
    if not isinstance(meta, dict):
        return []
    warnings = []
    captured_py = meta.get("python_version")
    if captured_py and captured_py != platform.python_version():
        warnings.append(
            f"baseline was captured on Python {captured_py} but this is "
            f"Python {platform.python_version()} — interpreter speed "
            "differs across versions; floors may be meaningless here"
        )
    captured_platform = meta.get("platform")
    if captured_platform and captured_platform != platform.platform():
        warnings.append(
            f"baseline was captured on '{captured_platform}' but this "
            f"host is '{platform.platform()}' — cross-machine floors "
            "only hold if the derate absorbed the hardware gap"
        )
    return warnings


def check_regression(points: Sequence[PerfPoint], baseline: Dict[str, dict],
                     tolerance: float = 0.20) -> List[str]:
    """Return human-readable failures for rigs below (1 - tolerance) of
    a baseline floor: events/sec, and commits/sec where the baseline
    records one.  Rigs absent from the baseline pass."""
    failures = []
    for point in points:
        floor_entry = baseline.get(point.rig)
        if not floor_entry:
            continue
        for key, unit in (("events_per_sec", "events/s"),
                          ("ops_per_sec", "commits/s")):
            if key not in floor_entry:
                continue
            floor = floor_entry[key] * (1.0 - tolerance)
            rate = getattr(point, key)
            if rate < floor:
                failures.append(
                    f"{point.rig}: {rate:,.0f} {unit} is below "
                    f"the regression floor {floor:,.0f} "
                    f"(baseline {floor_entry[key]:,.0f} "
                    f"- {tolerance:.0%} tolerance)"
                )
    return failures


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Wall-clock perf harness for the DES + telemetry stack",
    )
    parser.add_argument("--rig", action="append", choices=RIGS, default=None,
                        help="rig(s) to run (default: tpcb and tpcc)")
    parser.add_argument("--quick", action="store_true",
                        help=f"short run ({QUICK_DURATION_US:,.0f} sim-us "
                             "per rig) for CI smoke")
    parser.add_argument("--duration-us", type=float, default=None,
                        help="override the simulated horizon per rig")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--check", action="store_true",
                        help="compare events/sec and commits/sec against "
                             "the baseline file and exit nonzero on "
                             "regression")
    parser.add_argument("--determinism", action="store_true",
                        help="run every rig twice and exit nonzero unless "
                             "both runs produce identical metrics digests")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the timed window of each rig and "
                             "write a top-25-by-cumulative report next to "
                             "the BENCH JSON (the tracer slows the run; "
                             "wall_s/rates from a profiled run are not "
                             "comparable to the baseline)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline JSON path (default {DEFAULT_BASELINE})")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop below the baseline "
                             "floor (default 0.20)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the measured rates to --baseline "
                             "(scaled by --derate) instead of checking")
    parser.add_argument("--derate", type=float, default=0.5,
                        help="baseline derating factor for --write-baseline "
                             "(default 0.5: floor at half the measured rate)")
    args = parser.parse_args(argv)

    rigs = tuple(args.rig) if args.rig else RIGS
    if args.duration_us is not None:
        duration = args.duration_us
    else:
        duration = QUICK_DURATION_US if args.quick else FULL_DURATION_US

    points: List[PerfPoint] = []
    digest_failures: List[str] = []
    for rig in rigs:
        profiler = None
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
        point = run_rig(rig, seed=args.seed, duration_us=duration,
                        profiler=profiler)
        if profiler is not None:
            import io
            import pstats

            out = io.StringIO()
            stats = pstats.Stats(profiler, stream=out)
            stats.sort_stats("cumulative").print_stats(25)
            out_dir = os.environ.get("REPRO_METRICS_DIR",
                                     os.path.join("benchmarks", "out"))
            os.makedirs(out_dir, exist_ok=True)
            profile_path = os.path.join(out_dir, f"PROFILE_{rig}.txt")
            with open(profile_path, "w", encoding="utf-8") as handle:
                handle.write(out.getvalue())
            emit(f"  {rig} profile (top 25 cumulative): {profile_path}")
        points.append(point)
        payload = point.as_dict()
        if args.determinism:
            # Same seed, same horizon, fresh rig: every counter, histogram
            # sample and the final simulated clock must agree exactly.
            repeat = run_rig(rig, seed=args.seed, duration_us=duration)
            payload["metrics_digest_repeat"] = repeat.metrics_digest
            if repeat.metrics_digest != point.metrics_digest:
                digest_failures.append(
                    f"{rig}: digest {point.metrics_digest[:16]}… != "
                    f"repeat {repeat.metrics_digest[:16]}…"
                )
        export_metrics(f"BENCH_{rig}", payload)

    export_metrics("BENCH_perf", {
        "rigs": [point.as_dict() for point in points],
        "quick": args.quick,
        "determinism_checked": args.determinism,
        "determinism_failures": digest_failures,
    })

    emit(render_table(
        "Wall-clock performance (fixed-seed NoFTL rigs)",
        ["rig", "wall s", "events", "events/s", "commits", "commits/s",
         "events/commit", "flash cmds"],
        [[point.rig, point.wall_s, point.events, point.events_per_sec,
          point.commits, point.ops_per_sec, point.events_per_commit,
          point.flash_commands]
         for point in points],
    ))
    for point in points:
        emit(f"  {point.rig} digest: {point.metrics_digest}")

    if args.determinism:
        if digest_failures:
            for failure in digest_failures:
                emit(f"DETERMINISM FAILURE: {failure}")
            return 1
        emit("determinism check ok (identical digests on repeat runs)")

    if args.write_baseline:
        write_baseline(args.baseline, points, derate=args.derate)
        emit(f"baseline written to {args.baseline}")
        return 0

    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            emit(f"no baseline at {args.baseline}; "
                 "run with --write-baseline first")
            return 2
        for warning in baseline_interpreter_mismatch(baseline):
            emit("=" * 72)
            emit(f"WARNING: {warning}")
            emit("=" * 72)
        failures = check_regression(points, baseline,
                                    tolerance=args.tolerance)
        if failures:
            for failure in failures:
                emit(f"PERF REGRESSION: {failure}")
            return 1
        emit(f"perf check ok (>= {1.0 - args.tolerance:.0%} of baseline "
             "events/sec and commits/sec on every rig)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
