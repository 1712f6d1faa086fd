"""Physical NAND geometry and address arithmetic.

The paper's native flash interface exposes *physical* addresses to the host
(``READ(PhysicalBlockNum)`` etc., Figure 1.c) and an identify command that
reports "channels, LUNs, Flash type" (Section 3).  :class:`Geometry` is the
value object returned by that identify command; all address mapping between
flat physical page numbers (PPN), flat physical block numbers (PBN) and the
(channel, chip, die, plane, block, page) tuple lives here.

Flat numbering is die-major: consecutive blocks first walk the planes of a
die, then the blocks within each plane, so integer division recovers each
coordinate cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Geometry", "FlashAddress"]


@dataclass(frozen=True)
class FlashAddress:
    """Decomposed physical address of a page (or a block when page == 0)."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    def __str__(self) -> str:
        return (
            f"ch{self.channel}/chip{self.chip}/die{self.die}"
            f"/pl{self.plane}/blk{self.block}/pg{self.page}"
        )


@dataclass(frozen=True)
class Geometry:
    """Shape of a NAND flash subsystem.

    ``die_index`` below always means the *global* die number in
    ``range(total_dies)``; the paper's die-wise striping and the region
    manager both work in terms of global dies.

    The derived sizes ``total_dies``, ``blocks_per_die``,
    ``pages_per_die``, ``total_blocks`` and ``total_pages`` are read-only
    attributes computed at construction.
    """

    channels: int = 2
    chips_per_channel: int = 2
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 128
    pages_per_block: int = 64
    page_bytes: int = 4096
    oob_bytes: int = 128

    def __post_init__(self):
        for field_name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            value = getattr(self, field_name)
            if value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value}")
        if self.oob_bytes < 0:
            raise ValueError("oob_bytes must be >= 0")
        # Derived sizes, computed once: the address helpers below read
        # them on the flash command path.  Plain instance attributes (set
        # through object.__setattr__ on the frozen instance) rather than
        # dataclass fields, so ==, hash, repr and asdict still see only
        # the shape; dataclasses.replace re-runs this and recomputes them.
        total_dies = self.channels * self.chips_per_channel * self.dies_per_chip
        blocks_per_die = self.planes_per_die * self.blocks_per_plane
        total_blocks = total_dies * blocks_per_die
        derived = {
            "total_dies": total_dies,
            "blocks_per_die": blocks_per_die,
            "pages_per_die": blocks_per_die * self.pages_per_block,
            "total_blocks": total_blocks,
            "total_pages": total_blocks * self.pages_per_block,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # -- derived sizes -------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_bytes

    # -- flat <-> structured addressing ---------------------------------------

    def ppn_of(self, pbn: int, page: int) -> int:
        """Flat physical page number from flat block number + page offset."""
        if not 0 <= page < self.pages_per_block:
            raise ValueError(f"page offset {page} out of range")
        return pbn * self.pages_per_block + page

    def block_of_ppn(self, ppn: int) -> int:
        return ppn // self.pages_per_block

    def page_offset_of_ppn(self, ppn: int) -> int:
        return ppn % self.pages_per_block

    def die_of_block(self, pbn: int) -> int:
        """Global die index that owns flat block ``pbn``."""
        if not 0 <= pbn < self.total_blocks:
            self._check_block(pbn)
        return pbn // self.blocks_per_die

    def plane_of_block(self, pbn: int) -> int:
        """Plane index (within its die) of flat block ``pbn``."""
        if not 0 <= pbn < self.total_blocks:
            self._check_block(pbn)
        return pbn // self.blocks_per_plane % self.planes_per_die

    def die_of_ppn(self, ppn: int) -> int:
        if not 0 <= ppn < self.total_pages:
            self._check_block(ppn // self.pages_per_block)
        return ppn // self.pages_per_die

    def plane_of_ppn(self, ppn: int) -> int:
        return self.plane_of_block(self.block_of_ppn(ppn))

    def channel_of_die(self, die_index: int) -> int:
        self._check_die(die_index)
        return die_index // (self.chips_per_channel * self.dies_per_chip)

    def decompose(self, ppn: int) -> FlashAddress:
        """Split a flat PPN into its full physical coordinates."""
        if not 0 <= ppn < self.total_pages:
            raise ValueError(f"ppn {ppn} out of range")
        page = ppn % self.pages_per_block
        pbn = ppn // self.pages_per_block
        die_index = pbn // self.blocks_per_die
        within_die = pbn % self.blocks_per_die
        plane = within_die // self.blocks_per_plane
        block = within_die % self.blocks_per_plane
        dies_per_channel = self.chips_per_channel * self.dies_per_chip
        channel = die_index // dies_per_channel
        within_channel = die_index % dies_per_channel
        chip = within_channel // self.dies_per_chip
        die = within_channel % self.dies_per_chip
        return FlashAddress(channel, chip, die, plane, block, page)

    def compose(self, address: FlashAddress) -> int:
        """Inverse of :meth:`decompose`."""
        die_index = (
            address.channel * self.chips_per_channel * self.dies_per_chip
            + address.chip * self.dies_per_chip
            + address.die
        )
        pbn = (
            die_index * self.blocks_per_die
            + address.plane * self.blocks_per_plane
            + address.block
        )
        return self.ppn_of(pbn, address.page)

    def blocks_of_die(self, die_index: int) -> range:
        """Flat block numbers belonging to a global die (contiguous)."""
        self._check_die(die_index)
        start = die_index * self.blocks_per_die
        return range(start, start + self.blocks_per_die)

    def blocks_of_plane(self, die_index: int, plane: int) -> range:
        """Flat block numbers of one plane of one die (contiguous)."""
        self._check_die(die_index)
        if not 0 <= plane < self.planes_per_die:
            raise ValueError(f"plane {plane} out of range")
        start = die_index * self.blocks_per_die + plane * self.blocks_per_plane
        return range(start, start + self.blocks_per_plane)

    def same_plane(self, ppn_a: int, ppn_b: int) -> bool:
        """True when two pages live in the same plane of the same die
        (the precondition for a COPYBACK transfer)."""
        pages_per_block = self.pages_per_block
        block_a = ppn_a // pages_per_block
        block_b = ppn_b // pages_per_block
        total_blocks = self.total_blocks
        if not 0 <= block_a < total_blocks:
            self._check_block(block_a)
        if not 0 <= block_b < total_blocks:
            self._check_block(block_b)
        # Planes are contiguous runs of blocks_per_plane blocks (die-major
        # numbering), so one division names a plane globally.
        blocks_per_plane = self.blocks_per_plane
        return block_a // blocks_per_plane == block_b // blocks_per_plane

    def describe(self) -> dict:
        """Identify-command payload: the device self-description."""
        return {
            "channels": self.channels,
            "chips_per_channel": self.chips_per_channel,
            "dies_per_chip": self.dies_per_chip,
            "planes_per_die": self.planes_per_die,
            "blocks_per_plane": self.blocks_per_plane,
            "pages_per_block": self.pages_per_block,
            "page_bytes": self.page_bytes,
            "oob_bytes": self.oob_bytes,
            "total_dies": self.total_dies,
            "total_blocks": self.total_blocks,
            "total_pages": self.total_pages,
            "capacity_bytes": self.capacity_bytes,
        }

    # -- internal --------------------------------------------------------------

    def _check_block(self, pbn: int) -> None:
        if not 0 <= pbn < self.total_blocks:
            raise ValueError(f"pbn {pbn} out of range (0..{self.total_blocks - 1})")

    def _check_die(self, die_index: int) -> None:
        if not 0 <= die_index < self.total_dies:
            raise ValueError(f"die {die_index} out of range (0..{self.total_dies - 1})")
