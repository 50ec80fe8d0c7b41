"""Unit and property tests for cache line storage, tag arrays, and AMOs."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.amo import AMO_OPS, apply_amo
from repro.mem.cacheline import CacheLine, FULL_MASK, TagArray, VALID


# ----------------------------------------------------------------------
# CacheLine
# ----------------------------------------------------------------------
class TestCacheLine:
    def test_fresh_line_is_fully_valid_and_clean(self):
        line = CacheLine(0x1000, VALID)
        assert line.valid_mask == FULL_MASK
        assert line.dirty_mask == 0

    def test_set_word_dirty(self):
        line = CacheLine(0x1000, VALID)
        line.set_word(3, 42, dirty=True)
        assert line.data[3] == 42
        assert line.word_dirty(3)
        assert not line.word_dirty(2)
        assert line.dirty_word_count() == 1

    def test_set_word_clean_does_not_dirty(self):
        line = CacheLine(0x1000, VALID)
        line.set_word(1, 5, dirty=False)
        assert line.word_valid(1)
        assert not line.word_dirty(1)


# ----------------------------------------------------------------------
# TagArray
# ----------------------------------------------------------------------
class TestTagArray:
    def make(self, size=1024, assoc=2):
        return TagArray(size, assoc)  # 8 sets of 2 ways

    def test_miss_returns_none(self):
        tags = self.make()
        assert tags.lookup(0x1000) is None

    def test_insert_then_hit(self):
        tags = self.make()
        tags.insert(CacheLine(0x1000, VALID))
        assert tags.lookup(0x1000) is not None

    def test_lru_eviction_within_set(self):
        tags = self.make(size=256, assoc=2)  # 2 sets
        set_stride = 2 * 64  # lines mapping to the same set
        a, b, c = 0x1000, 0x1000 + set_stride, 0x1000 + 2 * set_stride
        tags.insert(CacheLine(a, VALID))
        tags.insert(CacheLine(b, VALID))
        tags.lookup(a)  # touch a: b becomes LRU
        victim = tags.insert(CacheLine(c, VALID))
        assert victim is not None and victim.addr == b
        assert tags.peek(a) is not None
        assert tags.peek(b) is None

    def test_reinsert_same_line_does_not_evict(self):
        tags = self.make(size=256, assoc=2)
        tags.insert(CacheLine(0x1000, VALID))
        assert tags.insert(CacheLine(0x1000, VALID)) is None

    def test_peek_does_not_touch_lru(self):
        tags = self.make(size=256, assoc=2)
        set_stride = 2 * 64
        a, b, c = 0x1000, 0x1000 + set_stride, 0x1000 + 2 * set_stride
        tags.insert(CacheLine(a, VALID))
        tags.insert(CacheLine(b, VALID))
        tags.peek(a)  # must NOT make b the LRU victim
        victim = tags.insert(CacheLine(c, VALID))
        assert victim.addr == a

    def test_clear_returns_all_lines(self):
        tags = self.make()
        for i in range(5):
            tags.insert(CacheLine(0x1000 + i * 64, VALID))
        assert tags.clear() == 5
        assert tags.resident_count() == 0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            TagArray(1000, 3)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, line_indices):
        tags = TagArray(2048, 2)  # 16 sets x 2 ways = 32 lines
        for idx in line_indices:
            tags.insert(CacheLine(idx * 64, VALID))
        assert tags.resident_count() <= 32
        per_set = {}
        for line in tags.lines():
            per_set.setdefault((line.addr // 64) % 16, []).append(line)
        assert all(len(lines) <= 2 for lines in per_set.values())


# ----------------------------------------------------------------------
# AMO semantics
# ----------------------------------------------------------------------
class TestApplyAmo:
    @pytest.mark.parametrize(
        "op,old,operand,new",
        [
            ("add", 5, 3, 8),
            ("sub", 5, 3, 2),
            ("or", 0b1010, 0b0110, 0b1110),
            ("and", 0b1010, 0b0110, 0b0010),
            ("xor", 0b1010, 0b0110, 0b1100),
            ("xchg", 5, 9, 9),
            ("min", 5, 3, 3),
            ("min", 3, 5, 3),
            ("max", 3, 5, 5),
        ],
    )
    def test_ops(self, op, old, operand, new):
        got_new, got_old = apply_amo(op, old, operand)
        assert got_new == new
        assert got_old == old

    def test_cas_success(self):
        new, old = apply_amo("cas", 7, (7, 99))
        assert (new, old) == (99, 7)

    def test_cas_failure_leaves_value(self):
        new, old = apply_amo("cas", 8, (7, 99))
        assert (new, old) == (8, 8)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            apply_amo("nope", 1, 2)

    @given(st.sampled_from([op for op in AMO_OPS if op != "cas"]),
           st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_returned_old_is_always_pre_value(self, op, old, operand):
        _, returned = apply_amo(op, old, operand)
        assert returned == old

    @given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
    def test_cas_semantics(self, old, expected, desired):
        new, returned = apply_amo("cas", old, (expected, desired))
        assert returned == old
        assert new == (desired if old == expected else old)
