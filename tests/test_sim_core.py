"""Unit tests for the DES kernel (repro.sim.core)."""

import random

import pytest

from repro.sim import AnyOf, Granted, Interrupt, Resource, Simulator, Store


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)
        yield sim.timeout(7.5)
        return sim.now

    assert sim.run_process(proc()) == 12.5
    assert sim.now == 12.5


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(0)
        order.append(name)

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert order == ["a", "b"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(1, value="hello")
        return value

    assert sim.run_process(proc()) == "hello"


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(3)
        gate.succeed(42)

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(3, 42)]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    proc = sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert proc.value == "caught boom"


def test_process_return_value_propagates_through_subprocess():
    sim = Simulator()

    def inner():
        yield sim.timeout(2)
        return "inner-done"

    def outer():
        result = yield sim.process(inner())
        return result + "!"

    assert sim.run_process(outer()) == "inner-done!"


def test_yield_from_composition():
    sim = Simulator()

    def step(delay):
        yield sim.timeout(delay)
        return delay * 10

    def whole():
        a = yield from step(1)
        b = yield from step(2)
        return a + b

    assert sim.run_process(whole()) == 30
    assert sim.now == 3


def test_waiting_on_already_processed_event():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")

    def late_waiter():
        yield sim.timeout(5)
        value = yield gate
        return value

    assert sim.run_process(late_waiter()) == "early"
    assert sim.now == 5


def test_exception_in_process_propagates_from_run_process():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        sim.run_process(bad())


def test_run_until_stops_the_clock():
    sim = Simulator()
    hits = []

    def ticker():
        while True:
            yield sim.timeout(10)
            hits.append(sim.now)

    sim.process(ticker())
    sim.run(until=35)
    assert hits == [10, 20, 30]
    assert sim.now == 35


def test_run_until_past_raises():
    sim = Simulator()
    sim.run_process(iter_timeout(sim, 10))
    with pytest.raises(ValueError):
        sim.run(until=5)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(100, value="slow")
        fired = yield AnyOf(sim, [fast, slow])
        return list(fired.values())

    assert sim.run_process(proc()) == ["fast"]


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        first = sim.timeout(1, value=1)
        second = sim.timeout(5, value=2)
        fired = yield sim.all_of([first, second])
        return sorted(fired.values()), sim.now

    values, when = sim.run_process(proc())
    assert values == [1, 2]
    assert when == 5


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    def interrupter(target):
        yield sim.timeout(3)
        target.interrupt("wake-up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(3, "wake-up")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_anyof_detaches_callbacks_from_losing_events():
    """A long-lived event raced against timeouts in a loop must not
    accumulate one dead condition callback per race (the leak)."""
    sim = Simulator()
    gate = sim.event()

    def racer():
        for __ in range(50):
            fired = yield AnyOf(sim, [gate, sim.timeout(1)])
            assert gate not in fired

    sim.run_process(racer())
    assert gate.callbacks == []


def test_anyof_detaches_losers_on_failure():
    sim = Simulator()
    survivor = sim.event()

    def proc():
        doomed = sim.event()
        condition = AnyOf(sim, [survivor, doomed])
        doomed.fail(ValueError("boom"))
        try:
            yield condition
        except ValueError:
            return "failed"

    assert sim.run_process(proc()) == "failed"
    assert survivor.callbacks == []


def test_granted_returns_value_without_suspending():
    sim = Simulator()

    def proc():
        before = sim.now
        value = yield from Granted("instant")
        assert sim.now == before  # no event fired, no time passed
        empty = yield from Granted()
        return value, empty

    assert sim.run_process(proc()) == ("instant", None)


def test_granted_is_reusable():
    sim = Simulator()
    shared = Granted(7)

    def proc():
        first = yield from shared
        second = yield from shared
        return first + second

    assert sim.run_process(proc()) == 14


def test_determinism_same_seed_same_schedule():
    def build_and_run():
        sim = Simulator()
        rng = random.Random(7)
        trace = []

        def worker(name):
            for __ in range(5):
                yield sim.timeout(rng.randint(1, 9))
                trace.append((sim.now, name))

        for i in range(3):
            sim.process(worker(f"w{i}"))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


# -- golden-run determinism ---------------------------------------------------
#
# The scenario below exercises every scheduling path of the kernel; the
# constants were captured once and must never change: any kernel
# optimization (fast lane, proxy elimination, dispatch inlining, ...)
# has to fire the exact same events in the exact same order at the exact
# same simulated times.  If an intentional *semantic* change ever breaks
# this, recapture the constants and justify the diff in review.

KERNEL_GOLDEN_NOW = 1000.0
KERNEL_GOLDEN_LOG = [
    (1.0, 'w2:slept'),
    (1.0, 'jitter'),
    (1.0, 'w2:acquired'),
    (2.0, 'jitter'),
    (2.0, "race=['fast']"),
    (4.0, 'w0:slept'),
    (4.0, 'w1:slept'),
    (4.0, 'jitter'),
    (4.0, 'w0:acquired'),
    (4.0, 'w2:zero'),
    (5.0, 'g0:gate=open'),
    (5.0, 'g1:gate=open'),
    (5.0, 'r0:got=first'),
    (5.0, 'r1:got=second'),
    (5.0, 'g0:again=open'),
    (5.0, 'g1:again=open'),
    (6.0, 'jitter'),
    (6.0, 'caught:boom'),
    (6.0, "all=['a', 'b']"),
    (6.0, 'jitter'),
    (7.0, 'interrupted:now'),
    (7.0, 'w1:acquired'),
    (7.0, 'w0:zero'),
    (8.0, 'jitter'),
    (10.0, 'w1:zero'),
]


def kernel_scenario():
    """A deterministic scenario exercising every scheduling path of the
    kernel: zero-delay and delayed timeouts, succeed/fail events, yields
    on already-processed events, AnyOf/AllOf, interrupts, FIFO resources
    and stores.  Returns the exact (time, tag) firing order."""
    sim = Simulator()
    log = []
    gate = sim.event()
    resource = Resource(sim, capacity=1)
    store = Store(sim)

    def worker(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, f"{name}:slept"))
        yield resource.request()
        log.append((sim.now, f"{name}:acquired"))
        yield sim.timeout(3)
        resource.release()
        yield sim.timeout(0)
        log.append((sim.now, f"{name}:zero"))

    def opener():
        yield sim.timeout(5)
        gate.succeed("open")
        store.put("first")
        store.put("second")

    def gate_waiter(name):
        value = yield gate
        log.append((sim.now, f"{name}:gate={value}"))
        # gate is already processed from here on: the re-yield path
        again = yield gate
        log.append((sim.now, f"{name}:again={again}"))

    def store_reader(name):
        item = yield store.get()
        log.append((sim.now, f"{name}:got={item}"))

    def racer():
        fast = sim.timeout(2, value="fast")
        slow = sim.timeout(50, value="slow")
        fired = yield AnyOf(sim, [fast, slow])
        log.append((sim.now, f"race={sorted(fired.values())}"))
        both = yield sim.all_of([sim.timeout(1, value="a"),
                                 sim.timeout(4, value="b")])
        log.append((sim.now, f"all={sorted(both.values())}"))

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupt as exc:
            log.append((sim.now, f"interrupted:{exc.cause}"))

    def interrupter(target):
        yield sim.timeout(7)
        target.interrupt("now")

    def failer():
        yield sim.timeout(6)
        doomed = sim.event()
        doomed.fail(ValueError("boom"))
        try:
            yield doomed
        except ValueError as exc:
            log.append((sim.now, f"caught:{exc}"))

    for index, delay in enumerate((4, 4, 1)):
        sim.process(worker(f"w{index}", delay))
    sim.process(opener())
    sim.process(gate_waiter("g0"))
    sim.process(gate_waiter("g1"))
    sim.process(store_reader("r0"))
    sim.process(store_reader("r1"))
    sim.process(racer())
    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.process(failer())
    rng = random.Random(13)

    def jitter():
        for __ in range(6):
            yield sim.timeout(rng.choice((0, 1, 2)))
            log.append((sim.now, "jitter"))

    sim.process(jitter())
    sim.run()
    return sim.now, log


def test_kernel_golden_run_matches_recorded_schedule():
    now, log = kernel_scenario()
    assert now == KERNEL_GOLDEN_NOW
    assert log == KERNEL_GOLDEN_LOG


def test_kernel_golden_run_is_repeatable():
    assert kernel_scenario() == kernel_scenario()


def test_events_processed_counts_dispatches():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        yield sim.timeout(1)

    sim.run_process(proc())
    # startup resume + zero-delay timeout + delayed timeout
    assert sim.events_processed == 3


def test_timeout_at_fires_at_absolute_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)
        value = yield sim.timeout_at(12.5, value="due")
        return sim.now, value

    assert sim.run_process(proc()) == (12.5, "due")
    with pytest.raises(ValueError):
        sim.timeout_at(12.0)


def test_timeout_at_now_takes_the_place_of_a_zero_delay_timeout():
    def scenario(make_timer):
        sim = Simulator()
        order = []

        def proc(name):
            yield sim.timeout(0)
            order.append(name)

        sim.process(proc("a"))
        make_timer(sim, lambda timer: order.append("b"))
        sim.process(proc("c"))
        sim.run()
        return order

    def zero_delay(sim, callback):
        sim.timeout(0).callbacks.append(callback)

    def at_now(sim, callback):
        sim.timeout_at(sim.now, None, callback)

    assert scenario(at_now) == scenario(zero_delay) == ["b", "a", "c"]


def test_timeout_at_ticket_keeps_the_position_of_an_eager_timer():
    sim = Simulator()
    order = []

    def note(timer):
        order.append(timer.value)

    sim.timeout_at(10.0, "x", note)
    ticket = sim.ticket()
    sim.timeout_at(10.0, "y", note)
    # Armed at t=5 but ordered as if armed when the ticket was taken:
    # ahead of y, which was created after the ticket.
    sim.timeout_at(5.0, None, lambda timer: sim.timeout_at(
        10.0, "late", note, ticket))
    sim.timeout_at(5.0, None, lambda timer: sim.timeout_at(
        10.0, "untracked", note))
    sim.run()
    assert order == ["x", "late", "y", "untracked"]


def test_timeout_at_ticket_rearmed_at_its_own_instant():
    """A ticketed timer re-armed at the very instant it is due still
    fires before same-instant timers created after the ticket."""
    sim = Simulator()
    order = []

    def note(timer):
        order.append(timer.value)

    ticket_box = []
    sim.timeout_at(10.0, "first",
                   lambda timer: (note(timer), sim.timeout_at(
                       10.0, "rearmed", note, ticket_box[0])))
    ticket_box.append(sim.ticket())
    sim.timeout_at(10.0, "after-ticket", note)

    def proc():
        yield sim.timeout(10)
        order.append("process")

    sim.process(proc())
    sim.run()
    assert order == ["first", "rearmed", "after-ticket", "process"]


def test_fire_resumes_waiter_inline_from_a_callback():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append(("resumed", sim.now, value))

    def opener(timer):
        gate.fire("open")
        log.append(("fire returned", sim.now, None))

    sim.process(waiter())
    sim.timeout_at(4.0, None, opener)
    sim.run()
    assert log == [("resumed", 4.0, "open"), ("fire returned", 4.0, None)]
    assert gate.processed and gate.value == "open"


def test_fire_counts_as_a_processed_event():
    sim = Simulator()
    gate = sim.event()
    sim.timeout_at(1.0, None, lambda timer: gate.fire())
    sim.run()
    # the timeout's dispatch + the inline processing of gate
    assert sim.events_processed == 2


def test_fire_rejected_inside_a_process_and_when_triggered():
    sim = Simulator()
    gate = sim.event()

    def proc():
        yield sim.timeout(1)
        gate.fire()

    with pytest.raises(RuntimeError, match="callback"):
        sim.run_process(proc())
    done = sim.event()
    done.succeed()
    with pytest.raises(RuntimeError, match="already triggered"):
        done.fire()


def test_fire_skips_a_process_interrupted_while_waiting():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        try:
            yield gate
            log.append("resumed")
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))

    proc = sim.process(waiter())

    def crash(timer):
        assert proc.target is gate
        proc.interrupt("crash")
        assert proc.target is None
        gate.fire("too late")  # nobody listens any more
        log.append("fired")

    sim.timeout_at(3.0, None, crash)
    sim.run()
    assert log == ["fired", ("interrupted", 3.0, "crash")]
    assert not proc.is_alive
