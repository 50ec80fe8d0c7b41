"""Service policy: admission control, retry limits, supervision knobs.

One frozen :class:`ServePolicy` object parameterizes the whole service —
the supervisor, the admission controller, and the server all read from it
and none of them carry tuning constants of their own.  ``run_grid`` builds
one per parallel sweep (slots = jobs, attempts = retries + 1, admission
sized to the batch).  Everything is injectable for tests (a policy with
``wedged_after_s=0.05`` and a fake clock exercises the wedged-worker path
in milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.harness.retry import BackoffPolicy

#: Default service retry schedule — ``run_grid`` passes its faster
#: repro.harness.grid.GRID_BACKOFF instead; service jobs are long-lived,
#: so hammering a failing configuration helps nobody.
SERVE_BACKOFF = BackoffPolicy(base_s=0.5, cap_s=30.0, multiplier=3.0)


@dataclass(frozen=True)
class ServePolicy:
    """All service tuning in one immutable place."""

    #: Concurrent worker processes (the slot count).
    slots: int = 2
    #: Admission: total queued-but-not-started jobs before shedding load.
    #: Submissions beyond this are *explicitly* rejected ("overload"),
    #: never silently dropped.
    max_pending: int = 64
    #: Admission: non-terminal jobs any one tenant may hold ("quota").
    max_per_tenant: int = 32
    #: Attempts before a repeatedly failing job is quarantined as failed
    #: ("poison job").
    max_attempts: int = 3
    #: Wall-clock budget per attempt (None = unlimited).
    timeout_s: Optional[float] = None
    #: A running worker whose heartbeat snapshot has not been replaced for
    #: this long is presumed wedged and killed (None disables; detection
    #: also requires a heartbeat directory to be configured).
    wedged_after_s: Optional[float] = 60.0
    #: Retry schedule for failed attempts.
    backoff: BackoffPolicy = field(default_factory=lambda: SERVE_BACKOFF)
    #: Periodic checkpoint cadence for service runs (simulated cycles).
    #: Gives killed/wedged jobs a resume point.
    checkpoint_interval: Optional[int] = 50_000

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.max_per_tenant < 1:
            raise ValueError(
                f"max_per_tenant must be >= 1, got {self.max_per_tenant}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


def admission_reason(policy: ServePolicy, queue, job) -> Optional[str]:
    """Why a submission must be rejected, or None to admit.

    Load is shed *explicitly*: the caller journals the rejection and the
    client gets the reason back on the wire — a submission is never
    silently dropped.
    """
    if queue.pending_count() >= policy.max_pending:
        return "overload"
    if queue.tenant_load(job.tenant) >= policy.max_per_tenant:
        return "quota"
    return None
