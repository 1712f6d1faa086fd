"""Collections in flight: the O(1) count behind ``maintenance_active``,
its audit in ``verify_integrity``, and a writer stopped mid-collection.

``PageMappedSpace.collections_in_flight`` mirrors the planes'
``collecting`` sets so the front end can sample ``maintenance_active``
without scanning every plane.  These tests hold the two together
through DES garbage collection, an allocation rebuild with a collection
in flight, and a fault-injected run whose erases fail; and they pin the
executor closing a flash operation whose process is interrupted, so an
interrupted collection does not stay marked in flight.
"""

import random

from repro.bench.chaos import default_chaos_plan, run_chaos
from repro.bench.rigs import (
    attach_database,
    build_noftl_rig,
    measure_workload_footprint,
    sized_geometry,
)
from repro.core import NoFTLConfig
from repro.flash import FaultPlan, FaultSpec, Geometry
from repro.workloads import TPCB, run_workload

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)


def gc_rig(seed=3, fault_plan=None):
    return build_noftl_rig(
        geometry=GEO,
        config=NoFTLConfig(num_regions=4, op_ratio=0.25),
        seed=seed,
        fault_plan=fault_plan,
    )


def spaces(manager):
    return [region.space for region in manager.regions.regions]


def collecting(space):
    return sum(len(plane.collecting) for plane in space._planes.values())


def churn(rig, writers=8, writes_each=150, seed=1, until=None):
    """Random overwrites from concurrent writers, with a monitor that
    checks the count against the sets every 10 us.  Returns the monitor's
    log of (count agrees, maintenance_active, any plane collecting) and
    the writer processes."""
    sim, storage, manager = rig.sim, rig.storage, rig.manager
    rng = random.Random(seed)
    span = int(manager.logical_pages * 0.8)
    procs = []

    def writer(lpns):
        for step, lpn in enumerate(lpns):
            yield from storage.write(lpn, data=(lpn, step))

    for __ in range(writers):
        lpns = [rng.randrange(span) for __ in range(writes_each)]
        procs.append(sim.process(writer(lpns)))
    samples = []

    def monitor():
        while any(proc.is_alive for proc in procs):
            agree = all(space.collections_in_flight == collecting(space)
                        for space in spaces(manager))
            busy = any(collecting(space) for space in spaces(manager))
            samples.append((agree, manager.maintenance_active, busy))
            yield sim.timeout(10.0)

    sim.process(monitor())
    sim.run(until)
    return samples, procs


class TestCollectionCount:
    def test_count_follows_the_sets_through_gc(self):
        rig = gc_rig()
        samples, __ = churn(rig)
        assert rig.manager.stats.gc_erases > 0
        assert all(agree for agree, __, __ in samples)
        assert all(active == busy for __, active, busy in samples)
        assert any(active for __, active, __ in samples)
        assert not rig.manager.maintenance_active
        assert rig.manager.verify_integrity() == []

    def test_audit_reports_a_drifted_count(self):
        rig = gc_rig()
        churn(rig, writes_each=40)
        space = spaces(rig.manager)[2]
        space.collections_in_flight += 1
        problems = rig.manager.verify_integrity()
        assert problems == [
            "region 2: collections_in_flight=1 but 0 victims marked "
            "collecting"
        ]

    def test_rebuild_allocation_resets_the_count(self):
        rig = gc_rig()
        sim, manager = rig.sim, rig.manager
        __, writers = churn(rig, until=0.0)
        while not manager.maintenance_active:
            sim.step()
        busy = [space for space in spaces(manager)
                if space.collections_in_flight]
        assert busy and all(collecting(space) for space in busy)
        # Rebuild in place from the array, as a remount would.
        array = rig.array
        programmed = {
            pbn for pbn in range(GEO.total_blocks)
            if any(array.is_programmed(GEO.ppn_of(pbn, offset))
                   for offset in range(GEO.pages_per_block))
        }
        for space in spaces(manager):
            space.rebuild_allocation(programmed)
        assert not manager.maintenance_active
        assert manager.verify_integrity() == []
        # The abandoned collection unwinds after the reset: its victim is
        # not in the new set, so the count must not go below zero.
        for proc in writers:
            proc._generator.close()
        assert all(space.collections_in_flight == 0
                   for space in spaces(manager))
        assert manager.verify_integrity() == []

    def test_count_holds_when_erases_fail(self):
        plan = FaultPlan([FaultSpec(kind="erase_fail", count=3)], seed=7)
        rig = gc_rig(seed=7, fault_plan=plan)
        samples, __ = churn(rig, seed=4)
        injected = rig.array.fault_injector.injected_counts()
        assert injected.get("erase_fail") == 3
        assert rig.manager.stats.grown_bad_blocks >= 3
        assert all(agree for agree, __, __ in samples)
        assert any(active for __, active, __ in samples)
        assert rig.manager.verify_integrity() == []

    def test_chaos_run_with_erase_failures_passes_the_audit(self):
        report = run_chaos(
            workload_name="tpcb", duration_us=200_000.0, seed=7,
            fault_plan=default_chaos_plan(seed=7, erase_fail_count=3),
        )
        assert report.injected.get("erase_fail") == 3
        assert report.integrity == []
        assert report.ok


class TestWritersStoppedMidCollection:
    def test_stopped_writer_leaves_no_collection_in_flight(self):
        """``run_workload`` stops the db-writers by interrupting them at
        their current wait, often inside a GC collection.  The executor
        closes the interrupted flash operation, so the victim leaves the
        plane's in-flight set and later evictions find room."""
        workload = TPCB(sf=8, accounts_per_branch=2000)
        footprint = measure_workload_footprint(workload)
        rig = build_noftl_rig(
            geometry=sized_geometry(footprint, 4, utilization=0.85,
                                    headroom_pages=footprint // 2),
            config=NoFTLConfig(num_regions=4, op_ratio=0.12),
            seed=1,
        )
        db = attach_database(rig, buffer_capacity=footprint // 4,
                             foreground_flush=False)
        db.start_writers(4, policy="region")
        stopped_mid_gc = []
        stop = db.writers.stop

        def stop_and_note():
            stopped_mid_gc.append(rig.manager.maintenance_active)
            stop()

        db.writers.stop = stop_and_note
        stats = run_workload(rig.sim, db, workload, duration_us=150_000,
                             num_terminals=8, rng=random.Random(1))
        assert stats.commits > 0
        assert stopped_mid_gc == [True]
        assert not rig.manager.maintenance_active
        # Verification evicts dirty pages in the foreground: every plane
        # must still be able to collect.
        assert rig.sim.run_process(workload.verify_consistency(db))
        assert rig.manager.verify_integrity() == []
