"""The native flash command set.

Section 3 of the paper defines the minimal native interface: PAGE READ and
PAGE PROGRAM with data transfer, COPYBACK PROGRAM and BLOCK ERASE without
user-data transfer, plus an identify command and page-metadata (OOB)
handling.  These dataclasses are that wire protocol; FTLs and the NoFTL
storage manager *yield* them, and an executor (sync or DES) carries them
out against a :class:`~repro.flash.array.FlashArray`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = [
    "FlashCommand",
    "ReadPage",
    "ProgramPage",
    "EraseBlock",
    "Copyback",
    "ReadOob",
    "Identify",
    "Pause",
    "CommandResult",
    "stamp_context",
    "tag_commands",
]


@dataclass(frozen=True)
class FlashCommand:
    """Base marker for all native flash commands."""

    # Causal context (an OpContext), stamped per instance by the executors
    # / tag_commands via object.__setattr__ and initialised to None by
    # __post_init__.  Deliberately a slot, not a dataclass field:
    # frozen-dataclass inheritance would force every subclass field after
    # it to take a default, and keeping it out of the fields keeps command
    # equality/hashing purely physical (subclasses use slots=True, which
    # only covers their declared fields, so the slot must live here).
    __slots__ = ("ctx",)

    def __post_init__(self):
        object.__setattr__(self, "ctx", None)


@dataclass(frozen=True, slots=True)
class ReadPage(FlashCommand):
    """PAGE READ: sense page ``ppn`` and transfer it over the channel."""

    ppn: int


@dataclass(frozen=True, slots=True)
class ProgramPage(FlashCommand):
    """PAGE PROGRAM: transfer ``data`` and program page ``ppn``.

    ``oob`` carries out-of-band page metadata (the paper's "handle Page
    Metadata"); by convention the layers above store the logical page
    number and a write timestamp there so a cold scan can rebuild mappings.
    """

    ppn: int
    data: Any = None
    oob: Any = None


@dataclass(frozen=True, slots=True)
class EraseBlock(FlashCommand):
    """BLOCK ERASE of flat physical block ``pbn`` (no data transfer)."""

    pbn: int


@dataclass(frozen=True, slots=True)
class Copyback(FlashCommand):
    """COPYBACK PROGRAM: on-die move ``src_ppn`` -> ``dst_ppn``.

    Valid only within one plane of one die; the array enforces this the
    way real NAND does.  ``oob`` optionally rewrites the destination's
    metadata (real copyback preserves OOB; NoFTL updates the mapping in
    host RAM instead, so either convention works — we keep OOB unless
    overridden).
    """

    src_ppn: int
    dst_ppn: int
    oob: Any = None


@dataclass(frozen=True, slots=True)
class ReadOob(FlashCommand):
    """Read only the OOB metadata of ``ppn`` (spare-area read).

    Much cheaper than a full page read; used by recovery scans.
    """

    ppn: int


@dataclass(frozen=True, slots=True)
class Identify(FlashCommand):
    """Device identification (the HDIO_GETGEO analogue of Section 3):
    returns the :class:`~repro.flash.geometry.Geometry` description."""


@dataclass(frozen=True, slots=True)
class Pause(FlashCommand):
    """Controller-side busy-wait: occupies no die, just time.

    FTL firmware yields this when it must let background maintenance
    catch up (e.g. FASTer's log area is saturated while a reclaim is in
    flight) — the backpressure real devices express as command latency.
    """

    duration_us: float = 100.0


def stamp_context(command: FlashCommand, ctx) -> FlashCommand:
    """Set a command's causal context in place (frozen-safe) and return it."""
    object.__setattr__(command, "ctx", ctx)
    return command


def tag_commands(operation, ctx):
    """Wrap a flash-command generator so every yielded command carries
    ``ctx`` (commands already tagged by a nested wrapper keep their more
    specific context).  Transparent to the executor protocol: results are
    sent back in and flash errors thrown through.

    This is how maintenance work deep inside an FTL gets its origin —
    e.g. ``tag_commands(self._collect_body(...), OpContext("gc"))`` —
    without any global "current context" state, which the interleaved DES
    processes could not share safely.
    """
    try:
        item = operation.send(None)
    except StopIteration as stop:
        return stop.value
    while True:
        if isinstance(item, FlashCommand) and item.ctx is None:
            stamp_context(item, ctx)
        try:
            result = yield item
        except BaseException as exc:  # noqa: BLE001 - executor protocol
            try:
                item = operation.throw(exc)
            except StopIteration as stop:
                return stop.value
        else:
            try:
                item = operation.send(result)
            except StopIteration as stop:
                return stop.value


@dataclass(slots=True)
class CommandResult:
    """Outcome of one executed command.

    The array fills the first five fields.  The DES device adds what it
    observed: ``observed_us`` (queue wait plus service; None when no
    device timed the command, as in synchronous replay, where the model
    ``latency_us`` stands in), ``queue_wait_us`` (time queued for the
    die) and ``queue_gc_us`` (the part of that wait spent behind
    maintenance).  ``fault_extra_us`` is an injected latency spike's
    extra service time, already included in ``latency_us``.
    """

    command: FlashCommand
    latency_us: float
    die: Optional[int] = None  # global die index the command occupied
    data: Any = None  # page payload (reads) / geometry (identify)
    oob: Any = None  # page metadata (reads)
    observed_us: Optional[float] = None
    queue_wait_us: float = 0.0
    queue_gc_us: float = 0.0
    fault_extra_us: float = 0.0
