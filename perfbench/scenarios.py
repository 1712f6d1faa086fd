"""The three benchmark workloads: set-up, measured window and checks.

Each workload is driven only through the program's public surface: the
``repro.bench.rigs`` builders, ``run_workload``, ``DeviceFrontend``, the
telemetry registry and the ``stats`` / ``snapshot()`` objects.

A run is a few *episodes*.  Each episode builds a fresh rig from its own
sub-seed, sets it up (load or prefill, then warm-up), measures a window
and checks the outputs; the run pools the episodes (see
:func:`combine`).  Simulated time is the clock of every simulated
metric, so those are a pure function of the seed and the run length.
Host time is read only at marks that a benchmark process takes inside
the simulation; the marks read clocks and counters and change no
program state.  Host time is read from a :class:`hostclock.HostClock`, in
reference seconds: CPU time corrected for the shared host's speed.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

from repro.bench.rigs import (
    attach_database,
    build_noftl_rig,
    geometry_with_dies,
    measure_workload_footprint,
    sized_geometry,
)
from repro.core import NoFTLConfig
from repro.db import TxnAborted
from repro.device import FrontendConfig, FrontendShedError
from repro.sim import percentiles
from repro.workloads import TPCB, TPCC, VoluntaryRollback, run_workload

#: Latency limit of the open-loop workload: a step rate is sustained when
#: it sheds nothing and its read p99 stays within this.
READ_P99_LIMIT_US = 2_000.0

#: Poll interval while waiting for the terminals to park (after the window).
QUIESCE_POLL_US = 50.0


# -- window accounting --------------------------------------------------------


class Window:
    """Counter snapshots at the start and the end of the measured window."""

    #: Histograms whose window samples feed per-layer percentiles.
    HISTOGRAMS = ("noftl.read_us", "noftl.write_us", "ftl.gc.collect_us",
                  "ftl.gc.victim_valid", "flash.queue_wait_us",
                  "db.txn_commit_us")

    def __init__(self, rig, db=None):
        self.rig = rig
        self.db = db
        self.begin: Dict[str, float] = {}
        self.end: Dict[str, float] = {}
        self._hist_marks: Dict[str, List[int]] = {}

    def _counters(self) -> Dict[str, float]:
        rig = self.rig
        tm = rig.telemetry
        stats = rig.manager.stats
        out = {
            "sim_us": rig.sim.now,
            "events": rig.sim.events_processed,
            "host_writes": stats.host_writes,
            "programs": tm.value("flash.commands", op="program"),
            "copybacks": tm.value("flash.commands", op="copyback"),
            "erases": tm.value("flash.commands", op="erase"),
            "flash_reads": tm.value("flash.commands", op="read"),
            "busy_us": tm.value("flash.busy_us"),
            "lock_waits": tm.value("noftl.region_lock_waits"),
            "gc_backoff_waits": tm.value("ftl.gc.backoff_waits"),
        }
        if self.db is not None:
            snap = self.db.snapshot()
            out.update(
                buffer_hits=tm.value("db.buffer.lookups", event="hit"),
                buffer_misses=tm.value("db.buffer.lookups", event="miss"),
                dirty_stalls=tm.value("db.buffer.dirty_eviction_stalls"),
                db_commits=snap["commits"],
                wal_flushes=snap["wal"]["total_flushes"],
            )
        frontend = rig.frontend
        if frontend is not None:
            out.update(
                fe_reads=frontend.read_latency.count,
                fe_cache_hits=tm.value("frontend.cache_hits"),
                fe_acks=frontend.ack_count,
                fe_coalesced=frontend.coalesced_count,
                fe_destages=frontend.destage_count,
                fe_throttled=tm.value("frontend.destage_throttled"),
            )
        return out

    def mark_begin(self) -> None:
        self.begin = self._counters()
        tm = self.rig.telemetry
        self._hist_marks = {
            name: [len(h.samples) for h in tm.histograms_named(name)]
            for name in self.HISTOGRAMS
        }

    def mark_end(self) -> None:
        self.end = self._counters()

    def delta(self, key: str) -> float:
        return self.end.get(key, 0) - self.begin.get(key, 0)

    def samples(self, name: str) -> List[float]:
        """Samples a histogram family recorded inside the window."""
        out: List[float] = []
        marks = self._hist_marks.get(name, [])
        for index, hist in enumerate(
                self.rig.telemetry.histograms_named(name)):
            start = marks[index] if index < len(marks) else 0
            out.extend(hist.samples[start:])
        return out

    def write_amp(self) -> float:
        """Flash programs plus copybacks per logical host page write."""
        writes = self.delta("host_writes")
        if writes <= 0:
            return 0.0
        return (self.delta("programs") + self.delta("copybacks")) / writes

    def erases_per_kwrite(self) -> float:
        writes = self.delta("host_writes")
        return 1000.0 * self.delta("erases") / writes if writes else 0.0


def latency_summary(samples: List[float]) -> dict:
    """Mean, p50 and p99 with the sample count behind them."""
    if not samples:
        return {"count": 0, "mean": None, "p50": None, "p99": None,
                "beyond_p99": 0}
    p50, p99 = percentiles(samples, (50, 99))
    return {"count": len(samples), "mean": sum(samples) / len(samples),
            "p50": p50, "p99": p99,
            "beyond_p99": sum(1 for value in samples if value > p99)}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.1f}"


def _latency_line(label: str, summary: dict) -> str:
    return (f"{label}: mean {_fmt(summary['mean'])} p50 "
            f"{_fmt(summary['p50'])} p99 {_fmt(summary['p99'])} us over "
            f"{summary['count']} samples ({summary['beyond_p99']} beyond "
            f"p99)")


# -- closed-loop TPC workloads ------------------------------------------------


class _CountingWorkload:
    """Wraps a TPC workload's transaction bodies from outside.

    * Failed transactions (retries exhausted) and voluntary rollbacks
      are counted apart -- ``WorkloadStats.aborts`` merges the two.
    * After the window every terminal parks at the start of its next
      transaction, before it takes a lock, so the database is quiescent
      while the db-writers still run; :meth:`release` then rolls the
      parked transactions back once the run is over.
    """

    def __init__(self, inner, sim, max_retries: int):
        self.inner = inner
        self.sim = sim
        self.max_retries = max_retries
        self.window = (float("inf"), float("inf"))
        self.run_end = float("inf")
        self.attempted = 0
        self.completed = 0
        self.voluntary = 0
        self.failed = 0
        self.retries = 0
        self.terminals: set = set()
        self.parked: set = set()
        self._released = sim.event()

    def load(self, db):
        return self.inner.load(db)

    def quiescent(self) -> bool:
        """Every terminal is parked or has finished."""
        return all(proc in self.parked or not proc.is_alive
                   for proc in self.terminals)

    def release(self) -> None:
        self._released.succeed()

    def _park(self):
        sim = self.sim
        self.parked.add(sim.active_process)
        yield self._released
        if sim.now < self.run_end:
            yield sim.timeout(self.run_end - sim.now)
        raise VoluntaryRollback()

    def next_transaction(self, db, rng):
        sim = self.sim
        self.terminals.add(sim.active_process)
        if sim.now >= self.window[1]:
            return "parked", lambda txn: self._park()
        name, body = self.inner.next_transaction(db, rng)
        in_window = self.window[0] <= sim.now
        if in_window:
            self.attempted += 1
        attempts = [0]

        def counted(txn):
            attempts[0] += 1
            try:
                result = yield from body(txn)
            except TxnAborted:
                if in_window:
                    self.retries += 1
                    if attempts[0] > self.max_retries:
                        self.failed += 1
                raise
            except VoluntaryRollback:
                if in_window:
                    self.voluntary += 1
                raise
            self.completed += 1
            return result

        return name, counted


class TpcSpec:
    """One closed-loop TPC workload on a NoFTL rig."""

    MAX_RETRIES = 5
    #: Simulated time after the window in which the terminals park for
    #: the consistency audit.
    TAIL_US = 20_000.0

    def __init__(self, name, make, dies, writers, terminals, buffer_of,
                 geometry_of, warmup_us, sim_us_per_host_s, episodes):
        self.name = name
        self.make = make
        self.dies = dies
        self.writers = writers
        self.terminals = terminals
        self.buffer_of = buffer_of
        self.geometry_of = geometry_of
        self.warmup_us = warmup_us
        self.sim_us_per_host_s = sim_us_per_host_s
        self.episodes = episodes
        self.footprint = 0
        self.sizing_s = 0.0

    def size(self, clock) -> None:
        """Measure the data footprint once per process: it sizes the
        device and does not depend on the seed."""
        if not self.footprint:
            started = clock.mark()
            self.footprint = measure_workload_footprint(self.make())
            self.sizing_s = clock.seconds(started, clock.mark())

    def run(self, seed: int, seconds: float, clock, tracer=None) -> dict:
        """One episode: build, load and warm a rig, measure the window,
        audit the data at a quiescent point, check the mapping."""
        self.size(clock)
        footprint = self.footprint
        duration_us = seconds * self.sim_us_per_host_s
        started = clock.mark()
        rig = build_noftl_rig(
            geometry=self.geometry_of(footprint),
            config=NoFTLConfig(num_regions=self.dies, op_ratio=0.12),
            seed=seed,
        )
        db = attach_database(rig, buffer_capacity=self.buffer_of(footprint),
                             foreground_flush=False)
        db.start_writers(self.writers, policy="region")
        sim = rig.sim
        workload = _CountingWorkload(self.make(), sim, self.MAX_RETRIES)
        sim.run_process(workload.load(db))

        window = Window(rig, db)
        start_at = sim.now + self.warmup_us
        end_at = start_at + duration_us
        workload.window = (start_at, end_at)
        workload.run_end = end_at + self.TAIL_US
        marks: dict = {}

        def marker():
            yield sim.timeout(start_at - sim.now)
            marks["setup_end"] = clock.mark()
            window.mark_begin()
            if tracer is not None:
                tracer.reset()
            marks["window_start"] = clock.mark()
            yield sim.timeout(end_at - sim.now)
            marks["window_end"] = clock.mark()
            if tracer is not None:
                marks["trace"] = tracer.snapshot()
            window.mark_end()
            # Audit the data at a quiescent point while the db-writers
            # still run: terminals park at their next transaction.
            while not workload.quiescent():
                yield sim.timeout(QUIESCE_POLL_US)
            marks["consistent"] = yield from \
                workload.inner.verify_consistency(db)
            workload.release()

        sim.process(marker())
        events_before = sim.events_processed
        stats = run_workload(sim, db, workload,
                             duration_us=duration_us + self.TAIL_US,
                             num_terminals=self.terminals,
                             rng=random.Random(seed),
                             max_retries=self.MAX_RETRIES,
                             warmup_us=self.warmup_us, preloaded=True)
        # The simulator publishes its event count when run() returns, so
        # events per op span the whole run: warm-up, window and audit.
        events_per_op = ((sim.events_processed - events_before)
                         / max(1, workload.completed))

        problems = rig.manager.verify_integrity()
        checks = [
            ("verify_consistency", bool(marks.get("consistent")),
             "balances do not reconcile (or the audit never ran)"),
            ("verify_integrity", not problems, "; ".join(problems[:3])),
            ("window accounting",
             stats.commits + workload.voluntary + workload.failed
             == workload.attempted,
             f"attempted {workload.attempted} != commits {stats.commits}"
             f" + voluntary {workload.voluntary} + failed "
             f"{workload.failed}"),
        ]

        latency = latency_summary(stats.latency.samples)
        hits = window.delta("buffer_hits")
        lookups = hits + window.delta("buffer_misses")
        sim_metrics = {
            "commits": stats.commits,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "voluntary_rollbacks": workload.voluntary,
            "retries": workload.retries,
            "txn_latency": latency,
            "write_amp": window.write_amp(),
            "erases_per_kwrite": window.erases_per_kwrite(),
            "events_per_op": events_per_op,
            "buffer_hit_ratio": hits / lookups if lookups else 0.0,
        }
        lines = [
            _latency_line("txn latency", latency),
            f"voluntary rollbacks {workload.voluntary} (not failures), "
            f"retries {workload.retries}, buffer hit ratio "
            f"{sim_metrics['buffer_hit_ratio']:.4f}",
            f"footprint {footprint} pages -> {db.pages_allocated} "
            f"allocated; device {rig.geometry.total_pages} pages; buffer "
            f"{self.buffer_of(footprint)} frames",
        ]
        # Known defect, counted rather than gated: stopping the
        # db-writers mid-GC leaves the collection marked in flight, so
        # later writes to that plane starve (defect 3 in the README).
        left_in_flight = int(rig.manager.maintenance_active)
        if left_in_flight:
            lines.append("known defect seen: a GC collection is still "
                         "marked in flight after run_workload stopped the "
                         "db-writers")
        return {
            "workload": self.name,
            "seed": seed,
            "dies": self.dies,
            "setup_s": clock.seconds(started, marks["setup_end"]),
            "wall_s": clock.seconds(marks["window_start"],
                                    marks["window_end"]),
            "window_sim_s": duration_us / 1e6,
            "host_ops": stats.commits,
            "ops": stats.commits,
            "gc_left_in_flight": left_in_flight,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "latency": list(stats.latency.samples),
            "host_writes": window.delta("host_writes"),
            "flash_writes": (window.delta("programs")
                             + window.delta("copybacks")),
            "op_kind": "txn",
            "sim": sim_metrics,
            "lines": lines,
            "checks": checks,
            "window": window,
            "trace": marks.get("trace"),
        }


# -- open-loop device workload ------------------------------------------------


class DevOpenSpec:
    """Poisson arrivals straight at the device front end, stepped rates."""

    name = "dev-open"
    DIES = 8
    #: Share of the logical space the I/O mix touches (and prefill fills).
    SPAN = 0.85
    READ_FRACTION = 0.30
    QUEUE_DEPTH = 8
    #: Random overwrites after the prefill, in units of the span: enough
    #: for the free pool to drain and GC to reach its steady regime.
    WARM_SPANS = 1.25
    #: Arrival-rate steps (ops per simulated second).  The gated figures
    #: come from these; they stay below the front end's knee.
    STEPS = (200.0, 400.0, 600.0, 800.0)
    #: A last step above the knee (defect 2 in the README): its sheds and
    #: read p99 are reported, not gated, so a fix to the knee shows.
    OVERLOAD_RATE = 1500.0

    def __init__(self, sim_us_per_host_s: float, episodes: int):
        self.sim_us_per_host_s = sim_us_per_host_s
        self.episodes = episodes
        self.sizing_s = 0.0

    def _fill(self, sim, raw, lpns: List[int]) -> None:
        def writer(chunk):
            for lpn in chunk:
                yield from raw.write(lpn, data=("v", lpn, 0))

        depth = self.QUEUE_DEPTH
        for index in range(depth):
            sim.process(writer(lpns[index::depth]))
        sim.run()

    def run(self, seed: int, seconds: float, clock, tracer=None) -> dict:
        rng = random.Random(seed)
        started = clock.mark()
        rig = build_noftl_rig(geometry_with_dies(self.DIES),
                              frontend_config=FrontendConfig(), seed=seed)
        sim, raw, frontend = rig.sim, rig.adapter, rig.frontend
        span = int(raw.logical_pages * self.SPAN)
        self._fill(sim, raw, list(range(span)))
        self._fill(sim, raw, [rng.randrange(span)
                              for __ in range(int(span * self.WARM_SPANS))])
        setup_s = clock.seconds(started, clock.mark())

        # Inputs: every arrival (due time, step, kind, lpn) is drawn from
        # the seed before the window opens.
        rates = self.STEPS + (self.OVERLOAD_RATE,)
        step_us = seconds * self.sim_us_per_host_s / len(rates)
        window_start_sim = sim.now
        arrivals = []
        for step, rate in enumerate(rates):
            due = window_start_sim + step * step_us
            step_end = due + step_us
            while True:
                due += rng.expovariate(rate / 1e6)
                if due >= step_end:
                    break
                is_read = rng.random() < self.READ_FRACTION
                arrivals.append((due, step, is_read, rng.randrange(span)))

        done_version = [0] * span       # newest completed write per lpn
        issued_version = [0] * span     # newest issued write per lpn
        inflight: Dict[int, set] = {}   # lpn -> versions being written
        per_step = [{"read": [], "write": [], "sheds": 0, "issued": 0}
                    for __ in rates]
        tally = {"completed": 0, "sheds": 0, "lateness": 0.0, "bad": []}

        def io(due_at, step, is_read, lpn):
            tally["lateness"] = max(tally["lateness"], sim.now - due_at)
            record = per_step[step]
            try:
                if is_read:
                    # Legal answers: the newest completed write, any write
                    # in flight at the start, any write issued meanwhile.
                    allowed = {done_version[lpn]} | inflight.get(lpn, set())
                    issued_before = issued_version[lpn]
                    data = yield from frontend.read(lpn)
                    ok = (isinstance(data, tuple) and data[1] == lpn
                          and (data[2] in allowed
                               or issued_before < data[2]
                               <= issued_version[lpn]))
                    if not ok and len(tally["bad"]) < 5:
                        tally["bad"].append((lpn, data, sorted(allowed)))
                else:
                    version = issued_version[lpn] = issued_version[lpn] + 1
                    inflight.setdefault(lpn, set()).add(version)
                    try:
                        yield from frontend.write(
                            lpn, data=("v", lpn, version))
                    finally:
                        pending = inflight[lpn]
                        pending.discard(version)
                        if not pending:
                            del inflight[lpn]
                    done_version[lpn] = max(done_version[lpn], version)
            except FrontendShedError:
                record["sheds"] += 1
                tally["sheds"] += 1
                return
            record["read" if is_read else "write"].append(sim.now - due_at)
            tally["completed"] += 1

        def generator():
            for due_at, step, is_read, lpn in arrivals:
                if due_at > sim.now:
                    yield sim.timeout(due_at - sim.now)
                per_step[step]["issued"] += 1
                sim.process(io(due_at, step, is_read, lpn))

        window = Window(rig)
        window.mark_begin()
        if tracer is not None:
            tracer.reset()
        window_start = clock.mark()
        sim.process(generator())
        sim.run()
        # Drain the write-back cache inside the window: acked pages left
        # volatile would flatter the host rate.
        sim.run_process(frontend.flush_barrier())
        wall_s = clock.seconds(window_start, clock.mark())
        trace = tracer.snapshot() if tracer is not None else None
        window.mark_end()

        sample = random.Random(seed + 1).sample(range(span), 512)
        readback = {}

        def read_back():
            for lpn in sample:
                readback[lpn] = yield from raw.read(lpn)

        sim.run_process(read_back())
        lost = [lpn for lpn in sample
                if readback[lpn] != ("v", lpn, done_version[lpn])]
        problems = rig.manager.verify_integrity()
        issued = len(arrivals)
        gated = per_step[:len(self.STEPS)]
        overload = per_step[-1]
        checks = [
            ("read versions", not tally["bad"],
             f"stale or foreign reads: {tally['bad']}"),
            ("durable after barrier", not lost,
             f"{len(lost)} of 512 sampled pages lost their last "
             f"acknowledged write, e.g. {lost[:3]}"),
            ("verify_integrity", not problems, "; ".join(problems[:3])),
            ("window accounting",
             tally["completed"] + tally["sheds"] == issued,
             f"completed {tally['completed']} + shed {tally['sheds']} != "
             f"issued {issued}"),
        ]

        lines = []
        steps = []
        sustained = 0.0
        for rate, record in zip(rates, per_step):
            reads = latency_summary(record["read"])
            writes = latency_summary(record["write"])
            meets = (record["sheds"] == 0 and reads["p99"] is not None
                     and reads["p99"] <= READ_P99_LIMIT_US)
            if meets:
                sustained = rate
            steps.append({"rate": rate, "sheds": record["sheds"],
                          "read": reads, "write": writes})
            kind = "gated" if record is not overload else "overload"
            lines.append(f"step {rate:.0f} ops/s ({kind}): issued "
                         f"{record['issued']}, shed {record['sheds']}, "
                         f"meets limit {meets}")
            lines.append("  " + _latency_line("read", reads))
            lines.append("  " + _latency_line("write", writes))
        lines.append(
            f"sustained_ops_per_s {sustained:.0f} (zero sheds and read p99 "
            f"<= {READ_P99_LIMIT_US:.0f} us); arrivals are scheduled in "
            f"simulated time, so the generator is never late (measured "
            f"lateness {tally['lateness']} us)")
        gated_completed = sum(len(r["read"]) + len(r["write"])
                              for r in gated)
        gated_issued = sum(r["issued"] for r in gated)
        gated_sheds = sum(r["sheds"] for r in gated)
        overload_reads = steps[-1]["read"]
        sim_metrics = {
            "completed": tally["completed"],
            "attempted": gated_issued,
            "failed": gated_sheds,
            "steps": steps,
            "sustained_ops_per_s": sustained,
            "overload_shed_frac": (overload["sheds"] / overload["issued"]
                                   if overload["issued"] else 0.0),
            "overload_read_p99_us": overload_reads["p99"] or 0.0,
            "write_amp": window.write_amp(),
            "erases_per_kwrite": window.erases_per_kwrite(),
            "events_per_op": window.delta("events") / max(1, issued),
        }
        return {
            "workload": self.name,
            "seed": seed,
            "dies": self.DIES,
            "setup_s": setup_s,
            # The host rate counts every completed I/O of the window, the
            # overload step's too; the simulated figures and the failure
            # accounting cover the gated steps only.
            "wall_s": wall_s,
            "host_ops": tally["completed"],
            "window_sim_s": step_us * len(self.STEPS) / 1e6,
            "ops": gated_completed,
            "attempted": gated_issued,
            "failed": gated_sheds,
            "gc_left_in_flight": int(rig.manager.maintenance_active),
            # The end-to-end latency is the read latency over the gated
            # steps: writes acknowledge from the write-back cache in a
            # fixed 0.5 us until backpressure.
            "latency": [v for record in gated for v in record["read"]],
            "host_writes": window.delta("host_writes"),
            "flash_writes": (window.delta("programs")
                             + window.delta("copybacks")),
            "op_kind": "read",
            "sim": sim_metrics,
            "lines": lines,
            "checks": checks,
            "window": window,
            "trace": trace,
        }


def combine(episodes: List[dict]) -> dict:
    """Pool the episodes of one run into its end-to-end figures."""
    latency = latency_summary(
        [v for episode in episodes for v in episode["latency"]])
    writes = sum(e["host_writes"] for e in episodes)
    flash_writes = sum(e["flash_writes"] for e in episodes)
    return {
        "host_ops_per_s": (sum(e["host_ops"] for e in episodes)
                           / sum(e["wall_s"] for e in episodes)),
        "setup_s": statistics.median([e["setup_s"] for e in episodes]),
        "sim_ops_per_s": (sum(e["ops"] for e in episodes)
                          / sum(e["window_sim_s"] for e in episodes)),
        "latency": latency,
        "write_amp": flash_writes / writes if writes else 0.0,
        "attempted": sum(e["attempted"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes),
        "gc_left_in_flight": sum(e["gc_left_in_flight"] for e in episodes),
    }


WORKLOADS: Dict[str, object] = {
    "tpcb-gc": TpcSpec(
        "tpcb-gc",
        make=lambda: TPCB(sf=32, accounts_per_branch=2000),
        dies=8, writers=8, terminals=16,
        buffer_of=lambda fp: fp // 4,
        geometry_of=lambda fp: sized_geometry(
            fp, 8, utilization=0.85, headroom_pages=fp // 2),
        warmup_us=300_000.0,
        sim_us_per_host_s=200_000.0,
        episodes=3,
    ),
    "tpcc-cached": TpcSpec(
        "tpcc-cached",
        make=lambda: TPCC(warehouses=4, customers_per_district=100,
                          items=400),
        dies=4, writers=4, terminals=16,
        buffer_of=lambda fp: 2 * fp,
        geometry_of=lambda fp: sized_geometry(
            fp, 4, utilization=0.5, headroom_pages=4 * fp),
        warmup_us=50_000.0,
        sim_us_per_host_s=55_000.0,
        episodes=5,
    ),
    "dev-open": DevOpenSpec(sim_us_per_host_s=11_000_000.0, episodes=3),
}
