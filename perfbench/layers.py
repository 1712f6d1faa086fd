"""Per-layer host-time tracing, installed from outside the program.

The benchmark never edits the simulator to trace it.  Instead
:class:`LayerTracer` replaces each layer's public entry points with
wrappers while a traced rig is built and run, and restores them after.

* A **call span** wraps a boundary method (``Database.commit``,
  ``NoFTLStorage.write``, ``PageMappedSpace.ensure_space``, ...).  When
  the method is a generator function the wrapper returns a proxy
  generator that re-enters the span on *every resume*, so a DES
  generator's work is charged to its layer each time the simulator
  drives it, not only when it is created.
* A **process span** wraps the generator handed to
  ``Simulator.process``: a process whose code lives in ``repro/<layer>``
  (TPC terminals, db writers, front-end destage workers) runs inside a
  span of that layer on every resume.

Self time is span time minus the nested spans.  Whatever runs inside the
measured window but outside every span -- the event loop, callbacks, the
benchmark's own load-generating processes -- is charged to ``sim``, the
remainder of ``Simulator.run``.

A layer's *calls* are entries into it from another layer: boundary calls
made by a different layer, plus resumes of the layer's own processes by
the simulator.  They are exact counts: two traced runs of one seed give
the same numbers on any host.
"""

from __future__ import annotations

import os
import time
from types import GeneratorType

LAYERS = ("sim", "workloads", "db", "device", "core", "ftl", "flash",
          "telemetry")


def _boundaries():
    """(class, method names, layer) for every traced entry point."""
    from repro.core.storage import NoFTLStorage
    from repro.db import BTreeIndex, Database, HeapFile
    from repro.device import DeviceFrontend
    from repro.flash.device import SimFlashDevice
    from repro.ftl.pagespace import PageMappedSpace
    from repro.telemetry.registry import (
        Counter,
        CounterVec,
        Gauge,
        Histogram,
        HistogramVec,
    )

    return [
        # workloads -> db
        (Database, ("begin", "commit", "abort"), "db"),
        (HeapFile, ("insert", "read", "update", "delete", "scan"), "db"),
        (BTreeIndex, ("insert", "lookup", "range", "delete"), "db"),
        # host -> device front end
        (DeviceFrontend, ("read", "write", "trim", "flush_barrier"),
         "device"),
        # db / device -> core
        (NoFTLStorage, ("read", "write", "trim"), "core"),
        # core -> ftl
        (PageMappedSpace, ("read", "write", "trim", "ensure_space"), "ftl"),
        # ftl -> flash
        (SimFlashDevice, ("execute",), "flash"),
        # every layer -> telemetry
        (Counter, ("inc",), "telemetry"),
        (Gauge, ("set", "inc", "dec"), "telemetry"),
        (Histogram, ("observe",), "telemetry"),
        (CounterVec, ("inc", "labels"), "telemetry"),
        (HistogramVec, ("observe", "labels"), "telemetry"),
    ]


def _layer_of_file(path: str):
    """``repro/<layer>/...`` -> layer; anything else -> None."""
    parts = os.path.normpath(path).split(os.sep)
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and parts[index + 1] in LAYERS:
            return parts[index + 1]
    return None


class LayerTracer:
    """Self time and call counts per layer for one traced run."""

    def __init__(self):
        self.stack = ["sim"]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._last = [time.perf_counter()]
        self._enter, self._leave = self._span_fns()
        self._saved = []

    # -- accounting ---------------------------------------------------------

    def reset(self) -> None:
        """Zero the accumulators (called at the warm-up mark)."""
        self._charge()
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0

    def snapshot(self) -> dict:
        """Flush the running span and copy the accumulators."""
        self._charge()
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "depth": len(self.stack)}

    def _charge(self) -> None:
        now = time.perf_counter()
        self.self_s[self.stack[-1]] += now - self._last[0]
        self._last[0] = now

    # -- wrappers -------------------------------------------------------------

    def _span_fns(self):
        stack = self.stack
        self_s = self.self_s
        last = self._last
        clock = time.perf_counter

        def enter(layer):
            now = clock()
            self_s[stack[-1]] += now - last[0]
            last[0] = now
            stack.append(layer)

        def leave():
            now = clock()
            self_s[stack.pop()] += now - last[0]
            last[0] = now

        return enter, leave

    def _proxy(self, gen, layer, count_resumes):
        """Generator that runs every resume of ``gen`` inside a span."""
        enter, leave = self._enter, self._leave
        calls = self.calls
        send = gen.send
        throw = gen.throw
        value = None
        error = None
        while True:
            if count_resumes:
                calls[layer] += 1
            enter(layer)
            try:
                item = send(value) if error is None else throw(error)
            except StopIteration as stop:
                leave()
                return stop.value
            except BaseException:
                leave()
                raise
            leave()
            try:
                value = yield item
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the simulator
                error = exc

    def _wrap(self, fn, layer):
        enter, leave = self._enter, self._leave
        stack = self.stack
        calls = self.calls
        proxy = self._proxy

        def traced(*args, **kwargs):
            if stack[-1] != layer:
                calls[layer] += 1
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if type(result) is GeneratorType:
                return proxy(result, layer, False)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        """Patch every boundary.  Call before building the traced rig:
        the program hoists bound methods when it wires its objects."""
        from repro.sim import Simulator

        patched = set()
        for cls, names, layer in _boundaries():
            for name in names:
                # Patch the class that defines the method (``labels``
                # lives on the vectors' common base), once.
                owner = next(k for k in cls.__mro__ if name in k.__dict__)
                if (owner, name) in patched:
                    continue
                patched.add((owner, name))
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer))

        original_process = Simulator.__dict__["process"]
        proxy = self._proxy
        layer_cache = {}

        def process(sim, generator):
            if type(generator) is GeneratorType:
                path = generator.gi_code.co_filename
                layer = layer_cache.get(path, "?")
                if layer == "?":
                    layer = layer_cache[path] = _layer_of_file(path)
                if layer is not None:
                    generator = proxy(generator, layer, True)
            return original_process(sim, generator)

        self._saved.append((Simulator, "process", original_process))
        Simulator.process = process

    def remove(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()
