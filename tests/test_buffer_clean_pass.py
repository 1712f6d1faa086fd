"""The buffer pool's clean-frame pass against the broadcast it replaced.

Callers blocked until a db-writer cleans a frame (Shore-MT-style
evictors, throttled mutators) used to be woken all at once by every
cleaned frame, each re-checking the pool and most going back to sleep.
The pool now re-checks them in one pass per cleaned frame and resumes
only the ones it admits.  The simulated schedule must not change, so
``BroadcastBufferPool`` keeps the old mechanism as a reference model:
the TPC-B rigs must give identical digests on both, and the edge cases
hold both to the same expected schedule.
"""

from collections import Counter

import pytest

from repro.bench import perf
from repro.db import RAMStorageAdapter, SlottedPage, WALog
from repro.db import database
from repro.db.buffer import BufferPool
from repro.sim import Interrupt, Simulator

PAGE_BYTES = 256
TIMEOUT_US = 1_000.0


class BroadcastBufferPool(BufferPool):
    """Reference model: every cleaned frame resumes every blocked caller,
    each of which re-checks the pool itself and re-waits with a fresh
    event, deadline timeout and AnyOf."""

    def _start_clean_pass(self):
        while self._clean_waiters:
            self._clean_waiters.popleft().succeed()

    def _wait_cleaned(self):
        cleaned = self.sim.event()
        self._clean_waiters.append(cleaned)
        deadline = self.sim.timeout(self.clean_wait_timeout_us)
        fired = yield self.sim.any_of([cleaned, deadline])
        if cleaned in fired:
            return True
        try:
            self._clean_waiters.remove(cleaned)
        except ValueError:
            pass
        return False

    def _throttle_wait(self):
        limit = self.dirty_throttle_fraction * self.capacity
        while self.dirty_count > limit:
            self.throttle_waits += 1
            if not (yield from self._wait_cleaned()):
                return

    def _make_room(self, ctx=None):
        while len(self.frames) + self._reserved >= self.capacity:
            victim = self._pick_victim()
            if victim is None:
                yield from self._wait_for_unpin()
                continue
            if victim.dirty:
                if not self.foreground_flush \
                        and self.background_writers_active:
                    self.clean_waits += 1
                    if (yield from self._wait_cleaned()):
                        continue
                self.dirty_eviction_stalls += 1
                self._tm_stalls.inc()
                yield from self._flush_frame(victim, ctx)
                continue
            victim.evicting = True
            del self.frames[victim.page_id]
            self.evictions += 1
            self._tm_evictions.inc()


POOLS = (BufferPool, BroadcastBufferPool)


# -- differential runs on TPC-B rigs --------------------------------------------


def _run_tpcb(monkeypatch, pool_cls, seed, writers, throttle=None,
              timeout_us=None):
    """``perf.run_rig`` with the pool class swapped in; returns the
    simulated outcome and the pool's wait counters."""
    attached = []
    original = perf.attach_database

    def attach(*args, **kwargs):
        db = original(*args, dirty_throttle_fraction=throttle, **kwargs)
        if timeout_us is not None:
            db.buffer.clean_wait_timeout_us = timeout_us
        attached.append(db)
        return db

    with monkeypatch.context() as patch:
        patch.setattr(database, "BufferPool", pool_cls)
        patch.setattr(perf, "attach_database", attach)
        point = perf.run_rig("tpcb", seed=seed, duration_us=150_000.0,
                             dies=4, terminals=16, writers=writers)
    pool = attached[0].buffer
    assert type(pool) is pool_cls
    counters = {"clean_waits": pool.clean_waits,
                "throttle_waits": pool.throttle_waits,
                "stalls": pool.dirty_eviction_stalls}
    return (point.metrics_digest, point.sim_us, point.commits), counters


@pytest.mark.parametrize("seed, writers, throttle, timeout_us", [
    (1, 2, None, None),
    (2, 1, None, None),
    # Short deadlines: many fallbacks, and deadlines re-armed after
    # re-queues that tie at one instant.
    (3, 1, None, 300.0),
    (4, 1, None, 1_000.0),
    # Throttled mutators and blocked evictors interleaved in one queue.
    (5, 1, 0.10, 500.0),
    (6, 1, 0.10, 500.0),
])
def test_pass_matches_broadcast(monkeypatch, seed, writers, throttle,
                                timeout_us):
    outcome, counters = _run_tpcb(monkeypatch, BufferPool, seed, writers,
                                  throttle, timeout_us)
    assert (outcome, counters) == _run_tpcb(
        monkeypatch, BroadcastBufferPool, seed, writers, throttle,
        timeout_us)
    assert counters["clean_waits"] > 500
    if timeout_us is not None:
        assert counters["stalls"] > 0
    if throttle is not None:
        assert counters["throttle_waits"] > 500


# -- edge cases on a four-frame pool -------------------------------------------


def _contended_pool(pool_cls):
    """A pool whose four resident frames (pages 8-11, LRU first) are all
    dirty, with background writers nominally active but none running:
    every miss blocks until a test flushes a frame."""
    sim = Simulator()
    storage = RAMStorageAdapter(sim, logical_pages=64, latency_us=10.0)
    wal = WALog(sim, flush_latency_us=50)
    pool = pool_cls(sim, storage, wal, 4, foreground_flush=False,
                    clean_wait_timeout_us=TIMEOUT_US)

    def setup():
        for page_id in range(12):
            page = SlottedPage(page_id, PAGE_BYTES)
            page.insert(f"page-{page_id}".encode())
            yield from pool.new_page(page_id, page)
            pool.unpin(page_id)
        yield from pool.flush_all()
        for page_id in range(8, 12):
            yield from pool.fetch(page_id)
            pool.mark_dirty(page_id)
            pool.unpin(page_id)

    sim.run_process(setup())
    assert list(pool.frames) == [8, 9, 10, 11]
    pool.dirty_eviction_stalls = pool.evictions = 0  # count from here on
    pool.background_writers_active = True
    return sim, pool


def _evictors(sim, pool, log, count, resumes=None):
    """Start ``count`` processes that each miss on a fresh page, logging
    ``(time, name)`` once they hold it.  ``resumes``, when given, counts
    how often the simulator runs each of them."""

    def evictor(name, page_id):
        yield from pool.fetch(page_id)
        log.append((sim.now, name))
        pool.unpin(page_id)

    def counted(name, inner):
        value = None
        while True:
            resumes[name] += 1
            try:
                target = inner.send(value)
            except StopIteration:
                return
            value = yield target

    procs = []
    for i in range(count):
        body = evictor(f"e{i}", i)
        if resumes is not None:
            body = counted(f"e{i}", body)
        procs.append(sim.process(body))
    return procs


def _flush_at(sim, pool, when, page_id, then=None):
    def flusher():
        yield sim.timeout(when - sim.now)
        yield from pool.flush_page(page_id)
        if then is not None:
            then()

    return sim.process(flusher())


def _counters(pool):
    return (pool.clean_waits, pool.dirty_eviction_stalls, pool.evictions)


@pytest.mark.parametrize("pool_cls", POOLS)
def test_two_frames_cleaned_before_one_pass_admit_two_in_order(pool_cls):
    sim, pool = _contended_pool(pool_cls)
    t0 = sim.now
    log = []
    resumes = Counter()
    _evictors(sim, pool, log, 3, resumes)
    # Both write-backs land at one instant: the second frame goes clean
    # before the pass the first one started has run.
    _flush_at(sim, pool, t0 + 100, 8)
    _flush_at(sim, pool, t0 + 100, 9)
    sim.run(until=t0 + 500)
    assert log == [(t0 + 120, "e0"), (t0 + 120, "e1")]
    # Three first waits plus e2's re-wait; nobody fell back.
    assert _counters(pool) == (4, 0, 2)
    if pool_cls is BufferPool:
        # e2 re-waited inside the pass: started, never resumed.  (The
        # broadcast resumed it once, just to wait again.)
        assert resumes == {"e0": 3, "e1": 3, "e2": 1}
    # e2 re-waited at t0 + 110 and no frame is cleaned again: it writes
    # page 10 back itself at that deadline, and the run ends when its
    # read completes.
    sim.run()
    assert log[2:] == [(t0 + 1130, "e2")]
    assert _counters(pool) == (4, 1, 3)
    assert sim.now == t0 + 1130


@pytest.mark.parametrize("pool_cls", POOLS)
def test_stalled_writers_fall_back_at_last_rearm_plus_timeout(pool_cls):
    sim, pool = _contended_pool(pool_cls)
    t0 = sim.now
    log = []
    _evictors(sim, pool, log, 1)
    # Cleaning the most recently used frame leaves the LRU victim dirty:
    # the pass re-queues e0 with a deadline from the clean at t0 + 410.
    _flush_at(sim, pool, t0 + 400, 11)
    rearmed_deadline = t0 + 410 + TIMEOUT_US
    sim.run(until=t0 + TIMEOUT_US)
    assert pool.dirty_eviction_stalls == 0  # first deadline passed over
    sim.run(until=rearmed_deadline - 0.001)
    assert pool.dirty_eviction_stalls == 0
    sim.run(until=rearmed_deadline)
    assert pool.dirty_eviction_stalls == 1
    assert pool.clean_waits == 2
    sim.run()
    # Foreground write-back of page 8 (10 us) then the read (10 us).
    assert log == [(rearmed_deadline + 20, "e0")]


def _interrupt_scenario(pool_cls, pending, cleaned):
    """e0, e1 and e2 block on page 8; e0 is interrupted; page ``cleaned``
    is written back.  ``pending``: the interrupt is raised after the
    clean, at the same instant, so it is still undelivered when the pass
    runs."""
    sim, pool = _contended_pool(pool_cls)
    t0 = sim.now
    log = []
    procs = _evictors(sim, pool, log, 3)
    if pending:
        _flush_at(sim, pool, t0 + 100, cleaned)
        # Joins the write-back and resumes after the pass is scheduled.
        _flush_at(sim, pool, t0 + 101, cleaned,
                  then=lambda: procs[0].interrupt("crash"))
    else:
        def interrupter():
            yield sim.timeout(50)
            procs[0].interrupt("stop")

        sim.process(interrupter())
        _flush_at(sim, pool, t0 + 100, cleaned)
    sim.run(until=t0 + 500)
    return procs, log, _counters(pool), t0


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("pool_cls", POOLS)
def test_interrupted_waiter_is_skipped(pool_cls, pending):
    procs, log, counters, t0 = _interrupt_scenario(pool_cls, pending, 8)
    assert not procs[0].is_alive and not procs[0].ok
    assert isinstance(procs[0].value, Interrupt)
    # e0 did not swallow the admission: e1 took the clean frame, e2
    # re-waited, e0 was neither admitted nor re-queued.
    assert log == [(t0 + 120, "e1")]
    assert counters == (4, 0, 1)


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("pool_cls", POOLS)
def test_interrupted_waiter_is_not_requeued(pool_cls, pending):
    # Cleaning page 11 admits nobody: e1 and e2 re-wait, e0 does not.
    procs, log, counters, __ = _interrupt_scenario(pool_cls, pending, 11)
    assert isinstance(procs[0].value, Interrupt)
    assert log == []
    assert counters == (5, 0, 0)


@pytest.mark.parametrize("pool_cls", POOLS)
def test_drained_run_ends_at_the_last_deadline(pool_cls):
    """A caller re-queued and then admitted leaves its latest deadline
    behind: a run that drains its events ends there, as it did when
    every re-wait armed its own timer."""
    sim, pool = _contended_pool(pool_cls)
    t0 = sim.now
    log = []
    _evictors(sim, pool, log, 1)
    _flush_at(sim, pool, t0 + 100, 11)  # e0 re-waits at t0 + 110
    _flush_at(sim, pool, t0 + 200, 8)   # e0 admitted at t0 + 210
    sim.run()
    assert log == [(t0 + 220, "e0")]
    assert sim.now == t0 + 110 + TIMEOUT_US


def test_blocked_call_arms_one_deadline_until_requeued():
    sim, pool = _contended_pool(BufferPool)
    armed = []
    timeout_at = sim.timeout_at

    def spy(when, *args, **kwargs):
        if when > sim.now:
            armed.append(when)
        return timeout_at(when, *args, **kwargs)

    sim.timeout_at = spy
    t0 = sim.now
    _evictors(sim, pool, [], 1)
    _flush_at(sim, pool, t0 + 400, 11)  # re-queues e0 at t0 + 410
    sim.run()
    # One timer per blocked call, re-armed once, when the first fired.
    assert armed == [t0 + TIMEOUT_US, t0 + 410 + TIMEOUT_US]
