"""Golden content of the always-on trace ring.

The storage manager keeps an :class:`~repro.telemetry.EventTrace` ring
even when nobody asked for tracing, and every host I/O leaves one
``host.op`` event in it (its latency, its context's identity fields and
its cost-bucket deltas, in a fixed key order).  The attribution engine
and saved JSONL traces consume exactly that content, so any change to
how events are built must reproduce it byte for byte.

Two fixed-seed runs pin it:

* a TPC-B rig whose db-writers write back into a device in steady-state
  garbage collection (``host.op`` events carry ``gc_us`` /
  ``queue_gc_us`` deltas, and ``gc.collect`` spans interleave);
* a raw-write burst through the device front end after a prefill that
  drives the same device into GC (front-end ``host.op`` events plus the
  destage writes they cause).

Each digest hashes the JSON of every retained event's ``as_dict()``,
keys in their emitted order, together with the ring's counters.  The
digests were recorded before the event-building path was rewritten.
"""

import hashlib
import itertools
import json
import random

import pytest

from repro.bench.rigs import attach_database, build_noftl_rig
from repro.core import NoFTLConfig
from repro.device import FrontendConfig, FrontendShedError
from repro.flash import Geometry
from repro.telemetry import OpContext
from repro.workloads import TPCB, run_workload

TPCB_RING_DIGEST = (
    "4215b12581dc40f0410ec8cb7ba9bcf46634cb70d0fcd24a4f1daf266b1fe4a1"
)
FRONTEND_RING_DIGEST = (
    "7b086691a75460627a2af0cfa186b3b98d0eaab3fa410470edd5cb47f2c6f062"
)


def ring_digest(trace) -> str:
    payload = {
        "summary": trace.summary(),
        "events": [event.as_dict() for event in trace.events],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def kinds(trace) -> set:
    return {event.kind for event in trace.events}


def host_ops(trace) -> list:
    return trace.of_kind("host.op")


def small_geometry(blocks_per_plane: int) -> Geometry:
    return Geometry(channels=2, chips_per_channel=1, dies_per_chip=2,
                    planes_per_die=2, blocks_per_plane=blocks_per_plane,
                    pages_per_block=8, page_bytes=4096)


def fill(sim, device, lpns, depth=8):
    """Write ``lpns`` through ``device`` from ``depth`` concurrent
    writers; a shed write is skipped (sheds are part of the pinned
    behaviour)."""

    def writer(chunk):
        for lpn in chunk:
            try:
                yield from device.write(lpn, data=("v", lpn))
            except FrontendShedError:
                pass

    for index in range(depth):
        sim.process(writer(lpns[index::depth]))
    sim.run()


def tpcb_gc_run():
    """TPC-B on a device whose whole logical space was written first, so
    the db-writers' write-backs run against steady-state GC."""
    rig = build_noftl_rig(geometry=small_geometry(48),
                          config=NoFTLConfig(num_regions=4, op_ratio=0.12),
                          seed=9)
    fill(rig.sim, rig.adapter, list(range(rig.adapter.logical_pages)))
    db = attach_database(rig, buffer_capacity=32, foreground_flush=False)
    db.start_writers(2, policy="region")
    workload = TPCB(sf=8, accounts_per_branch=500)
    rig.sim.run_process(workload.load(db))
    run_workload(rig.sim, db, workload, duration_us=800_000.0,
                 num_terminals=8, rng=random.Random(9), preloaded=True)
    return rig


def frontend_burst_run():
    """Random writes through the device front end after a raw prefill and
    overwrite pass have put the device into GC."""
    rig = build_noftl_rig(geometry=small_geometry(32),
                          config=NoFTLConfig(num_regions=4, op_ratio=0.12),
                          frontend_config=FrontendConfig(), seed=13)
    sim, raw, frontend = rig.sim, rig.adapter, rig.frontend
    rng = random.Random(13)
    span = int(raw.logical_pages * 0.85)
    fill(sim, raw, list(range(span)))
    fill(sim, raw, [rng.randrange(span) for __ in range(span)])
    fill(sim, frontend, [rng.randrange(span) for __ in range(3000)])
    sim.run_process(frontend.flush_barrier())
    return rig


@pytest.fixture(autouse=True)
def fresh_context_ids(monkeypatch):
    """Context ids come from a process-wide counter and appear in every
    ``host.op`` event: restart it so the digests do not depend on which
    tests ran earlier in the same process."""
    monkeypatch.setattr(OpContext, "_ids", itertools.count(1))


class TestTraceRingGolden:
    def test_tpcb_gc_ring_content_is_pinned(self):
        rig = tpcb_gc_run()
        trace = rig.trace
        assert trace.dropped > 0  # the ring wrapped: a steady-state window
        ops = host_ops(trace)
        assert {event.fields["op"] for event in ops} >= {"read", "write",
                                                         "commit"}
        assert any("gc_us" in event.fields or "queue_gc_us" in event.fields
                   for event in ops)
        assert "gc.collect:end" in kinds(trace)
        assert ring_digest(trace) == TPCB_RING_DIGEST

    def test_frontend_burst_ring_content_is_pinned(self):
        rig = frontend_burst_run()
        trace = rig.trace
        assert trace.dropped > 0
        ops = host_ops(trace)
        origins = {event.fields["origin"] for event in ops}
        assert {"host", "frontend"} <= origins
        assert "gc.collect:end" in kinds(trace)
        assert ring_digest(trace) == FRONTEND_RING_DIGEST
