"""Backing main memory (DRAM contents).

Stores line-granular data: a dict from line base address to a list of 8
word values.  Unwritten memory reads as zero, like freshly-zeroed pages.
Values are whatever the program stores (the simulator convention is plain
Python ints); the memory system never interprets them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mem.address import LINE_BYTES, WORDS_PER_LINE, line_addr, word_index


class MainMemory:
    """Word-addressable, line-organized backing store."""

    def __init__(self):
        self._lines: Dict[int, List[int]] = {}

    def read_line(self, addr: int) -> List[int]:
        """Return a *copy* of the 8-word line containing ``addr``."""
        base = line_addr(addr)
        stored = self._lines.get(base)
        if stored is None:
            return [0] * WORDS_PER_LINE
        return list(stored)

    def write_line(self, addr: int, words: List[int]) -> None:
        """Replace the full line containing ``addr``."""
        if len(words) != WORDS_PER_LINE:
            raise ValueError(f"line write needs {WORDS_PER_LINE} words")
        self._lines[line_addr(addr)] = list(words)

    def write_words(self, addr: int, words: List[int], mask: int) -> None:
        """Merge ``words`` into the line under a per-word bitmask."""
        base = line_addr(addr)
        stored = self._lines.setdefault(base, [0] * WORDS_PER_LINE)
        for i in range(WORDS_PER_LINE):
            if mask & (1 << i):
                stored[i] = words[i]

    def read_word(self, addr: int) -> int:
        base = line_addr(addr)
        stored = self._lines.get(base)
        if stored is None:
            return 0
        return stored[word_index(addr)]

    def write_word(self, addr: int, value: int) -> None:
        base = line_addr(addr)
        stored = self._lines.setdefault(base, [0] * WORDS_PER_LINE)
        stored[word_index(addr)] = value

    def write_array(self, addr: int, values) -> None:
        """Write ``values`` to consecutive words from ``addr``, a line at a
        time.  Lines are created in ascending address order, as the same
        writes made one :meth:`write_word` at a time would create them."""
        lines = self._lines
        base = line_addr(addr)
        first = word_index(addr)
        i, n = 0, len(values)
        while i < n:
            end = min(i + WORDS_PER_LINE - first, n)
            stored = lines.get(base)
            if stored is None:
                stored = lines[base] = [0] * WORDS_PER_LINE
            stored[first:first + end - i] = values[i:end]
            i, base, first = end, base + LINE_BYTES, 0

    @property
    def footprint_bytes(self) -> int:
        return len(self._lines) * LINE_BYTES

    # Checkpoint support (repro.engine.checkpoint).
    def export_state(self) -> Dict[int, List[int]]:
        return {base: list(words) for base, words in self._lines.items()}

    def load_state(self, state: Dict[int, List[int]]) -> None:
        self._lines = {base: list(words) for base, words in state.items()}
