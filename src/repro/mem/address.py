"""Simulated physical address space.

Addresses are byte addresses in a flat 64-bit space.  The machine word is
8 bytes and the cache line is 64 bytes (8 words), matching the paper's
simulated systems.  :class:`AddressSpace` is a bump allocator that hands out
line-aligned regions; it exists so that runtime structures (task deques,
task descriptors, mailboxes) and application data never overlap and so that
false sharing between structures is impossible unless requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

WORD_BYTES = 8
LINE_BYTES = 64
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES

# Precomputed shift/mask forms of the helpers below, for call-free address
# arithmetic on hot paths: ``addr & LINE_MASK`` == ``line_addr(addr)``,
# ``addr >> LINE_SHIFT`` == ``addr // LINE_BYTES`` and
# ``(addr >> WORD_SHIFT) & WORD_INDEX_MASK`` == ``word_index(addr)``.
LINE_MASK = ~(LINE_BYTES - 1)
LINE_SHIFT = LINE_BYTES.bit_length() - 1
WORD_SHIFT = WORD_BYTES.bit_length() - 1
WORD_INDEX_MASK = WORDS_PER_LINE - 1


def line_addr(addr: int) -> int:
    """Base address of the cache line containing ``addr``."""
    return addr & ~(LINE_BYTES - 1)


def word_addr(addr: int) -> int:
    """Word-aligned address containing ``addr``."""
    return addr & ~(WORD_BYTES - 1)


def word_index(addr: int) -> int:
    """Index (0..7) of the word containing ``addr`` within its line."""
    return (addr & (LINE_BYTES - 1)) // WORD_BYTES


def align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class Region:
    """A named allocated span of the address space."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class AddressSpace:
    """Line-aligned bump allocator over the simulated address space."""

    #: Allocations start above zero so that address 0 can serve as NULL.
    BASE = 0x1000

    def __init__(self):
        self._next = self.BASE
        self._regions: List[Region] = []
        self._by_name: Dict[str, Region] = {}

    def alloc(self, size_bytes: int, name: str = "anon") -> int:
        """Allocate ``size_bytes`` (rounded up to a whole line), return base."""
        if size_bytes <= 0:
            raise ValueError(f"allocation size must be positive, got {size_bytes}")
        size = align_up(size_bytes, LINE_BYTES)
        base = self._next
        self._next = base + size
        region = Region(name=name, base=base, size=size)
        self._regions.append(region)
        self._by_name.setdefault(name, region)
        return base

    def alloc_words(self, n_words: int, name: str = "anon") -> int:
        """Allocate an array of ``n_words`` machine words, return base."""
        return self.alloc(n_words * WORD_BYTES, name)

    def region(self, name: str) -> Region:
        return self._by_name[name]

    def regions(self) -> List[Region]:
        return list(self._regions)

    def owner_of(self, addr: int) -> str:
        """Name of the region containing ``addr`` (debugging aid)."""
        for region in self._regions:
            if region.contains(addr):
                return region.name
        return "<unmapped>"

    # Checkpoint support (repro.engine.checkpoint).
    def export_state(self) -> dict:
        return {
            "next": self._next,
            "regions": [(r.name, r.base, r.size) for r in self._regions],
        }

    def load_state(self, state: dict) -> None:
        self._next = state["next"]
        self._regions = [
            Region(name=name, base=base, size=size)
            for name, base, size in state["regions"]
        ]
        self._by_name = {}
        for region in self._regions:
            self._by_name.setdefault(region.name, region)
