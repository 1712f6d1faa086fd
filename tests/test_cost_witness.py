"""Hardware-independent cost witness for the native-flash write path.

Wall-clock rates move with the host; the number of Python-level calls
a fixed-seed run makes does not.  This test counts the calls made inside
the ``repro`` package while a raw burst of host writes runs through
:class:`~repro.core.storage.NoFTLStorage` (front end off, the always-on
trace ring on) against a device in steady-state garbage collection, and
holds calls per host write under a recorded ceiling.

Counting rules, chosen so Python 3.10, 3.11 and 3.12 agree:

* ``sys.setprofile`` ``call`` events only (a generator resume counts as
  a call; C functions do not);
* frames whose code lives under ``repro/`` only;
* code objects named ``<...>`` (comprehensions, which 3.12 inlines,
  generator expressions, lambdas) are skipped.

When a change adds per-write work on purpose, raise the ceiling in the
same change and say why; when it removes work, lower it.
"""

import os
import random
import sys

from repro.bench.rigs import build_noftl_rig
from repro.core import NoFTLConfig
from repro.flash import Geometry

#: Calls per host write measured on this path (Python 3.11).  The
#: rework that introduced this witness (one-pass trace events,
#: precomputed geometry, one recorder per latency) took it from 451.7.
MEASURED_CALLS_PER_WRITE = 299.1
#: The ceiling: the measurement plus 2% written headroom.
CEILING = 305.0

BURST_WRITES = 1500


def count_repro_calls(run) -> int:
    """Calls into ``repro`` code (see the module docstring) during
    ``run()``."""
    marker = os.sep + "repro" + os.sep
    wanted = {}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        code = frame.f_code
        keep = wanted.get(code)
        if keep is None:
            keep = wanted[code] = (marker in code.co_filename
                                   and not code.co_name.startswith("<"))
        if keep:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def write_burst_calls_per_write() -> float:
    geometry = Geometry(channels=2, chips_per_channel=1, dies_per_chip=2,
                        planes_per_die=2, blocks_per_plane=32,
                        pages_per_block=8, page_bytes=4096)
    rig = build_noftl_rig(geometry=geometry,
                          config=NoFTLConfig(num_regions=4, op_ratio=0.12),
                          seed=21)
    sim, storage = rig.sim, rig.storage
    rng = random.Random(21)
    span = int(storage.logical_pages * 0.9)

    def burst(lpns, depth=8):
        def writer(chunk):
            for lpn in chunk:
                yield from storage.write(lpn, data=("v", lpn))

        for index in range(depth):
            sim.process(writer(lpns[index::depth]))
        sim.run()

    burst(list(range(span)))
    burst([rng.randrange(span) for __ in range(span)])
    erases_before = rig.telemetry.value("flash.commands", op="erase")
    lpns = [rng.randrange(span) for __ in range(BURST_WRITES)]
    calls = count_repro_calls(lambda: burst(lpns))
    # The measured burst must run in GC, or it witnesses the easy path.
    assert rig.telemetry.value("flash.commands", op="erase") - erases_before \
        > BURST_WRITES / geometry.pages_per_block / 2
    return calls / BURST_WRITES


def test_calls_per_host_write_stay_under_ceiling():
    per_write = write_burst_calls_per_write()
    assert per_write <= CEILING, (
        f"{per_write:.1f} repro calls per host write, ceiling {CEILING} "
        f"(measured {MEASURED_CALLS_PER_WRITE})"
    )
