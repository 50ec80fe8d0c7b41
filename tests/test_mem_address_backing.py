"""Unit and property tests for the address space and backing memory."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.address import (
    LINE_BYTES,
    WORD_BYTES,
    WORDS_PER_LINE,
    AddressSpace,
    align_up,
    line_addr,
    word_addr,
    word_index,
)
from repro.mem.backing import MainMemory


# ----------------------------------------------------------------------
# Address helpers
# ----------------------------------------------------------------------
@given(st.integers(0, 2**48))
def test_line_addr_is_aligned_and_contains(addr):
    base = line_addr(addr)
    assert base % LINE_BYTES == 0
    assert base <= addr < base + LINE_BYTES


@given(st.integers(0, 2**48))
def test_word_index_consistent_with_word_addr(addr):
    idx = word_index(addr)
    assert 0 <= idx < WORDS_PER_LINE
    assert line_addr(addr) + idx * WORD_BYTES == word_addr(addr)


def test_align_up():
    assert align_up(0, 64) == 0
    assert align_up(1, 64) == 64
    assert align_up(64, 64) == 64
    assert align_up(65, 64) == 128


# ----------------------------------------------------------------------
# AddressSpace
# ----------------------------------------------------------------------
class TestAddressSpace:
    def test_allocations_are_line_aligned(self):
        space = AddressSpace()
        for size in (1, 7, 8, 63, 64, 65):
            assert space.alloc(size) % LINE_BYTES == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(0)

    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=50))
    def test_allocations_never_overlap(self, sizes):
        space = AddressSpace()
        spans = []
        for i, size in enumerate(sizes):
            base = space.alloc(size, f"r{i}")
            spans.append((base, base + align_up(size, LINE_BYTES)))
        spans.sort()
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b

    def test_null_address_never_allocated(self):
        space = AddressSpace()
        assert space.alloc(8) >= AddressSpace.BASE > 0

    def test_owner_of(self):
        space = AddressSpace()
        base = space.alloc(100, "blob")
        assert space.owner_of(base) == "blob"
        assert space.owner_of(base + 99) == "blob"
        assert space.owner_of(0) == "<unmapped>"

    def test_alloc_words(self):
        space = AddressSpace()
        base = space.alloc_words(10, "arr")
        region = space.region("arr")
        assert region.size >= 10 * WORD_BYTES
        assert region.contains(base + 9 * WORD_BYTES)


# ----------------------------------------------------------------------
# MainMemory
# ----------------------------------------------------------------------
class TestMainMemory:
    def test_uninitialized_memory_reads_zero(self):
        mem = MainMemory()
        assert mem.read_word(0x1000) == 0
        assert mem.read_line(0x1000) == [0] * WORDS_PER_LINE

    def test_word_roundtrip(self):
        mem = MainMemory()
        mem.write_word(0x2008, 77)
        assert mem.read_word(0x2008) == 77
        assert mem.read_word(0x2000) == 0

    def test_line_roundtrip_returns_copy(self):
        mem = MainMemory()
        words = list(range(8))
        mem.write_line(0x3000, words)
        got = mem.read_line(0x3000)
        assert got == words
        got[0] = 999
        assert mem.read_word(0x3000) == 0

    def test_write_line_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            MainMemory().write_line(0x1000, [1, 2, 3])

    def test_masked_write_merges(self):
        mem = MainMemory()
        mem.write_line(0x1000, [1, 2, 3, 4, 5, 6, 7, 8])
        mem.write_words(0x1000, [10, 20, 30, 40, 50, 60, 70, 80], mask=0b00000101)
        assert mem.read_line(0x1000) == [10, 2, 30, 4, 5, 6, 7, 8]

    @given(
        st.dictionaries(
            st.integers(0, 63).map(lambda w: 0x4000 + w * WORD_BYTES),
            st.integers(-(2**62), 2**62),
            max_size=30,
        )
    )
    def test_random_word_writes_read_back(self, writes):
        mem = MainMemory()
        for addr, value in writes.items():
            mem.write_word(addr, value)
        for addr, value in writes.items():
            assert mem.read_word(addr) == value

    def test_footprint(self):
        mem = MainMemory()
        mem.write_word(0x1000, 1)
        mem.write_word(0x1008, 1)  # same line
        mem.write_word(0x2000, 1)  # new line
        assert mem.footprint_bytes == 2 * LINE_BYTES

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)), max_size=4),
        st.integers(0, 40),
        st.lists(st.integers(-(2**62), 2**62), max_size=30),
        st.booleans(),
    )
    def test_array_write_matches_word_writes(self, earlier, start, values, as_tuple):
        """An array write leaves the same lines, in the same creation order,
        as writing its words one at a time, over lines already written."""
        by_word, by_array = MainMemory(), MainMemory()
        for mem in (by_word, by_array):
            for word, value in earlier:
                mem.write_word(0x4000 + word * WORD_BYTES, value)
        base = 0x4000 + start * WORD_BYTES
        for i, value in enumerate(values):
            by_word.write_word(base + i * WORD_BYTES, value)
        by_array.write_array(base, tuple(values) if as_tuple else values)
        assert list(by_array.export_state().items()) == list(by_word.export_state().items())
