"""Unit + property tests for flash geometry and address arithmetic."""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import Geometry


SMALL = Geometry(
    channels=2,
    chips_per_channel=2,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=8,
    pages_per_block=4,
    page_bytes=512,
)


class TestDerivedSizes:
    def test_total_dies(self):
        assert SMALL.total_dies == 8

    def test_total_blocks(self):
        assert SMALL.total_blocks == 8 * 2 * 8

    def test_total_pages(self):
        assert SMALL.total_pages == SMALL.total_blocks * 4

    def test_capacity_bytes(self):
        assert SMALL.capacity_bytes == SMALL.total_pages * 512

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Geometry(channels=0)
        with pytest.raises(ValueError):
            Geometry(pages_per_block=0)


class TestAddressing:
    def test_ppn_roundtrip_block_page(self):
        ppn = SMALL.ppn_of(pbn=10, page=3)
        assert SMALL.block_of_ppn(ppn) == 10
        assert SMALL.page_offset_of_ppn(ppn) == 3

    def test_page_offset_bounds(self):
        with pytest.raises(ValueError):
            SMALL.ppn_of(0, SMALL.pages_per_block)

    def test_die_of_block_contiguous(self):
        assert SMALL.die_of_block(0) == 0
        assert SMALL.die_of_block(SMALL.blocks_per_die - 1) == 0
        assert SMALL.die_of_block(SMALL.blocks_per_die) == 1

    def test_plane_of_block(self):
        assert SMALL.plane_of_block(0) == 0
        assert SMALL.plane_of_block(SMALL.blocks_per_plane) == 1
        # second die starts again at plane 0
        assert SMALL.plane_of_block(SMALL.blocks_per_die) == 0

    def test_blocks_of_die_partition_whole_device(self):
        seen = []
        for die in range(SMALL.total_dies):
            seen.extend(SMALL.blocks_of_die(die))
        assert seen == list(range(SMALL.total_blocks))

    def test_blocks_of_plane_subdivide_die(self):
        die_blocks = list(SMALL.blocks_of_die(3))
        plane0 = list(SMALL.blocks_of_plane(3, 0))
        plane1 = list(SMALL.blocks_of_plane(3, 1))
        assert plane0 + plane1 == die_blocks

    def test_same_plane_true_within_plane(self):
        blocks = SMALL.blocks_of_plane(2, 1)
        a = SMALL.ppn_of(blocks[0], 0)
        b = SMALL.ppn_of(blocks[-1], 3)
        assert SMALL.same_plane(a, b)

    def test_same_plane_false_across_planes(self):
        a = SMALL.ppn_of(SMALL.blocks_of_plane(2, 0)[0], 0)
        b = SMALL.ppn_of(SMALL.blocks_of_plane(2, 1)[0], 0)
        assert not SMALL.same_plane(a, b)

    def test_same_plane_false_across_dies(self):
        a = SMALL.ppn_of(SMALL.blocks_of_plane(0, 0)[0], 0)
        b = SMALL.ppn_of(SMALL.blocks_of_plane(1, 0)[0], 0)
        assert not SMALL.same_plane(a, b)

    def test_channel_of_die(self):
        dies_per_channel = SMALL.chips_per_channel * SMALL.dies_per_chip
        assert SMALL.channel_of_die(0) == 0
        assert SMALL.channel_of_die(dies_per_channel - 1) == 0
        assert SMALL.channel_of_die(dies_per_channel) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SMALL.die_of_block(SMALL.total_blocks)
        with pytest.raises(ValueError):
            SMALL.decompose(SMALL.total_pages)
        with pytest.raises(ValueError):
            SMALL.blocks_of_die(SMALL.total_dies)

    def test_describe_contains_identify_fields(self):
        info = SMALL.describe()
        assert info["total_dies"] == 8
        assert info["page_bytes"] == 512
        assert info["capacity_bytes"] == SMALL.capacity_bytes


geometries = st.builds(
    Geometry,
    channels=st.integers(1, 4),
    chips_per_channel=st.integers(1, 3),
    dies_per_chip=st.integers(1, 3),
    planes_per_die=st.integers(1, 4),
    blocks_per_plane=st.integers(1, 32),
    pages_per_block=st.integers(1, 16),
    page_bytes=st.sampled_from([512, 2048, 4096]),
)


@settings(max_examples=60)
@given(geometry=geometries, data=st.data())
def test_decompose_compose_roundtrip(geometry, data):
    ppn = data.draw(st.integers(0, geometry.total_pages - 1))
    address = geometry.decompose(ppn)
    assert geometry.compose(address) == ppn
    assert 0 <= address.channel < geometry.channels
    assert 0 <= address.chip < geometry.chips_per_channel
    assert 0 <= address.die < geometry.dies_per_chip
    assert 0 <= address.plane < geometry.planes_per_die
    assert 0 <= address.block < geometry.blocks_per_plane
    assert 0 <= address.page < geometry.pages_per_block


@settings(max_examples=60)
@given(geometry=geometries, data=st.data())
def test_die_and_plane_agree_with_decompose(geometry, data):
    ppn = data.draw(st.integers(0, geometry.total_pages - 1))
    address = geometry.decompose(ppn)
    die_index = geometry.die_of_ppn(ppn)
    assert geometry.channel_of_die(die_index) == address.channel
    assert geometry.plane_of_ppn(ppn) == address.plane


@settings(max_examples=40)
@given(geometry=geometries)
def test_die_block_ranges_partition(geometry):
    total = 0
    for die in range(geometry.total_dies):
        blocks = geometry.blocks_of_die(die)
        total += len(blocks)
        for plane in range(geometry.planes_per_die):
            assert set(geometry.blocks_of_plane(die, plane)) <= set(blocks)
    assert total == geometry.total_blocks


# -- precomputed derived sizes ------------------------------------------------
#
# Geometry computes its derived sizes once, in __post_init__, and its
# address helpers read them.  The reference functions below are the
# property-chain formulas those helpers replaced; the grid holds both to
# the same answers, errors included.

GRID = [
    Geometry(channels=ch, chips_per_channel=chips, dies_per_chip=dies,
             planes_per_die=planes, blocks_per_plane=blocks,
             pages_per_block=pages, page_bytes=512)
    for ch, chips, dies, planes, blocks, pages in itertools.product(
        (1, 3), (1, 2), (1, 2), (1, 2, 4), (1, 3, 8), (1, 4))
]


def ref_sizes(g):
    total_dies = g.channels * g.chips_per_channel * g.dies_per_chip
    blocks_per_die = g.planes_per_die * g.blocks_per_plane
    return {
        "total_dies": total_dies,
        "blocks_per_die": blocks_per_die,
        "pages_per_die": blocks_per_die * g.pages_per_block,
        "total_blocks": total_dies * blocks_per_die,
        "total_pages": total_dies * blocks_per_die * g.pages_per_block,
    }


def ref_check_block(g, pbn):
    total_blocks = ref_sizes(g)["total_blocks"]
    if not 0 <= pbn < total_blocks:
        raise ValueError(f"pbn {pbn} out of range (0..{total_blocks - 1})")


def ref_die_of_block(g, pbn):
    ref_check_block(g, pbn)
    return pbn // ref_sizes(g)["blocks_per_die"]


def ref_plane_of_block(g, pbn):
    ref_check_block(g, pbn)
    return (pbn % ref_sizes(g)["blocks_per_die"]) // g.blocks_per_plane


def ref_die_of_ppn(g, ppn):
    return ref_die_of_block(g, ppn // g.pages_per_block)


def ref_same_plane(g, ppn_a, ppn_b):
    block_a = ppn_a // g.pages_per_block
    block_b = ppn_b // g.pages_per_block
    return (
        ref_die_of_block(g, block_a) == ref_die_of_block(g, block_b)
        and ref_plane_of_block(g, block_a) == ref_plane_of_block(g, block_b)
    )


def outcome(fn, *args):
    """``("ok", value)`` or ``("err", message)`` of one call."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("err", str(exc))


class TestPrecomputedGeometry:
    def test_derived_sizes_match_formulas(self):
        for g in GRID:
            for name, value in ref_sizes(g).items():
                assert getattr(g, name) == value, (g, name)
            assert g.capacity_bytes == g.total_pages * g.page_bytes

    def test_address_helpers_match_formulas(self):
        for g in GRID:
            for pbn in range(g.total_blocks):
                assert g.die_of_block(pbn) == ref_die_of_block(g, pbn)
                assert g.plane_of_block(pbn) == ref_plane_of_block(g, pbn)
            steps = (1, g.pages_per_block, g.pages_per_block * g.blocks_per_plane)
            for ppn in range(g.total_pages):
                assert g.die_of_ppn(ppn) == ref_die_of_ppn(g, ppn)
                for step in steps:
                    other = (ppn + step) % g.total_pages
                    assert g.same_plane(ppn, other) == \
                        ref_same_plane(g, ppn, other)

    def test_out_of_range_errors_match(self):
        for g in GRID:
            self.check_out_of_range_errors(g)

    @staticmethod
    def check_out_of_range_errors(g):
        bad_blocks = (-1, -g.blocks_per_plane - 1, g.total_blocks,
                      g.total_blocks + 7)
        bad_pages = (-1, -g.pages_per_block - 1, g.total_pages,
                     g.total_pages + g.pages_per_block + 1)
        for pbn in bad_blocks:
            assert outcome(g.die_of_block, pbn)[0] == "err"
            assert outcome(g.die_of_block, pbn) == \
                outcome(ref_die_of_block, g, pbn)
            assert outcome(g.plane_of_block, pbn) == \
                outcome(ref_plane_of_block, g, pbn)
        good = g.total_pages - 1
        for ppn in bad_pages:
            assert outcome(g.die_of_ppn, ppn)[0] == "err"
            assert outcome(g.die_of_ppn, ppn) == \
                outcome(ref_die_of_ppn, g, ppn)
            for a, b in ((ppn, good), (good, ppn), (ppn, bad_pages[-1])):
                assert outcome(g.same_plane, a, b) == \
                    outcome(ref_same_plane, g, a, b)

    def test_replace_recomputes_derived_sizes(self):
        for g in GRID:
            bigger = dataclasses.replace(g, channels=g.channels + 1,
                                         blocks_per_plane=g.blocks_per_plane * 2)
            for name, value in ref_sizes(bigger).items():
                assert getattr(bigger, name) == value, name
            assert bigger != g

    def test_value_semantics_cover_the_shape_only(self):
        names = [f.name for f in dataclasses.fields(Geometry)]
        assert names == ["channels", "chips_per_channel", "dies_per_chip",
                         "planes_per_die", "blocks_per_plane",
                         "pages_per_block", "page_bytes", "oob_bytes"]
        for g in GRID:
            shape = tuple(getattr(g, name) for name in names)
            twin = Geometry(*shape)
            assert twin == g and hash(twin) == hash(g)
            assert hash(g) == hash(shape)
            assert dataclasses.asdict(g) == dict(zip(names, shape))
            assert repr(g) == "Geometry(" + ", ".join(
                f"{name}={value}" for name, value in zip(names, shape)) + ")"
        assert len(set(GRID)) == len(GRID)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SMALL.total_pages = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            SMALL.channels = 1

    def test_pickle_round_trip(self):
        for g in GRID:
            for protocol in (2, pickle.HIGHEST_PROTOCOL):
                copy = pickle.loads(pickle.dumps(g, protocol=protocol))
                assert copy == g and hash(copy) == hash(g)
                assert dataclasses.asdict(copy) == dataclasses.asdict(g)
                for name, value in ref_sizes(g).items():
                    assert getattr(copy, name) == value, name
                assert copy.die_of_ppn(g.total_pages - 1) == g.total_dies - 1
