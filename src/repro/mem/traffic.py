"""On-chip network traffic accounting by the paper's message categories.

Figure 8 of the paper breaks total NoC traffic (in bytes) into:

* ``cpu_req``    — read/ownership requests from L1 to L2
* ``wb_req``     — write-back / write-through data from L1 to L2
* ``data_resp``  — data responses from L2 to L1
* ``sync_req``   — synchronization (AMO-at-L2) requests
* ``sync_resp``  — synchronization responses
* ``coh_req``    — coherence requests (invalidations, owner recalls) L2 to L1
* ``coh_resp``   — coherence responses (acks, recalled data) L1 to L2
* ``dram_req``   — requests from L2 to DRAM
* ``dram_resp``  — responses from DRAM to L2

We count injected bytes per category (what Figure 8 plots) and additionally
byte-hops (bytes x mesh hops traversed) which feed the energy model.
"""

from __future__ import annotations

from typing import Dict

CATEGORIES = (
    "cpu_req",
    "wb_req",
    "data_resp",
    "sync_req",
    "sync_resp",
    "coh_req",
    "coh_resp",
    "dram_req",
    "dram_resp",
)

#: Message payload sizes in bytes.  Control messages are a single 8B word
#: (address/command); data messages add the 64B line or the 8B word being
#: moved.  These match the paper's 16B-flit Garnet configuration to first
#: order.
CTRL_BYTES = 8
WORD_DATA_BYTES = 16  # command + one data word
LINE_DATA_BYTES = 72  # command + full 64B line
AMO_BYTES = 16  # command + operand / old value


class TrafficMeter:
    """Accumulates NoC traffic by category."""

    def __init__(self):
        self.bytes: Dict[str, int] = {cat: 0 for cat in CATEGORIES}
        self.byte_hops: Dict[str, int] = {cat: 0 for cat in CATEGORIES}
        self.messages: Dict[str, int] = {cat: 0 for cat in CATEGORIES}

    def record(self, category: str, n_bytes: int, hops: int) -> None:
        """Count one message; an unknown ``category`` raises ``KeyError``."""
        self.bytes[category] += n_bytes
        self.byte_hops[category] += n_bytes * hops
        self.messages[category] += 1

    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def total_byte_hops(self) -> int:
        return sum(self.byte_hops.values())

    def snapshot(self) -> Dict[str, int]:
        return dict(self.bytes)

    # Checkpoint support (repro.engine.checkpoint).
    def export_state(self) -> Dict[str, Dict[str, int]]:
        return {
            "bytes": dict(self.bytes),
            "byte_hops": dict(self.byte_hops),
            "messages": dict(self.messages),
        }

    def load_state(self, state: Dict[str, Dict[str, int]]) -> None:
        self.bytes = dict(state["bytes"])
        self.byte_hops = dict(state["byte_hops"])
        self.messages = dict(state["messages"])
