"""Retry backoff policy for the grid's worker pool.

The worker pool behind every parallel ``run_grid`` sweep
(``repro.harness.worker.Supervisor``) retries failed workers with
exponential backoff with *decorrelated jitter* (the AWS architecture-blog
variant): each delay is drawn uniformly from ``[base, prev * multiplier]``
and clamped to ``cap``.  Compared with plain exponential backoff this
spreads retries of simultaneously failing workers apart (no thundering
herd after a shared-cause failure) while still growing the expected delay
geometrically.

Everything is injectable — the RNG and the clock — so the policy is unit
testable without sleeping: :class:`Backoff` tracks attempts and *when* the
next retry becomes eligible against whatever monotonic clock the caller
supplies; it never sleeps itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BackoffPolicy:
    """Delay schedule parameters (stateless, shareable, hashable).

    ``base_s`` is both the first delay's lower bound and the floor of every
    later draw; ``cap_s`` clamps the schedule; ``multiplier`` scales the
    previous *actual* delay (not the attempt number) into the next draw's
    upper bound, which is what makes the jitter decorrelated.
    """

    base_s: float = 0.25
    cap_s: float = 10.0
    multiplier: float = 3.0

    def __post_init__(self):
        if self.base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {self.base_s}")
        if self.cap_s < self.base_s:
            raise ValueError(
                f"cap_s ({self.cap_s}) must be >= base_s ({self.base_s})"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def next_delay(self, prev_delay: Optional[float], rng: random.Random) -> float:
        """The delay after a failure whose previous delay was ``prev_delay``
        (None for the first failure)."""
        if self.cap_s == 0.0:
            return 0.0
        if prev_delay is None:
            prev_delay = self.base_s
        upper = min(self.cap_s, max(self.base_s, prev_delay * self.multiplier))
        return rng.uniform(self.base_s, upper)


#: Immediate retries, for tests and callers that want the old behaviour.
NO_BACKOFF = BackoffPolicy(base_s=0.0, cap_s=0.0, multiplier=1.0)


class Backoff:
    """Stateful retry tracker for one retried unit of work.

    The caller reports failures with :meth:`fail` and asks :meth:`ready`
    whether the unit is eligible to run again.  Time never passes inside
    this class — ``clock`` is sampled only when the caller calls in — so a
    test can drive it with a plain counter.
    """

    def __init__(
        self,
        policy: BackoffPolicy,
        rng: Optional[random.Random] = None,
        clock=time.monotonic,
    ):
        self.policy = policy
        self.rng = rng if rng is not None else random.Random()
        self.clock = clock
        self.attempts = 0
        self.last_delay: Optional[float] = None
        self.eligible_at: float = float("-inf")

    def fail(self) -> float:
        """Record one failure; returns the delay before the next attempt."""
        self.attempts += 1
        delay = self.policy.next_delay(self.last_delay, self.rng)
        self.last_delay = delay
        self.eligible_at = self.clock() + delay
        return delay

    def ready(self) -> bool:
        return self.clock() >= self.eligible_at

    def remaining(self) -> float:
        """Seconds until the next attempt is eligible (0 when ready)."""
        return max(0.0, self.eligible_at - self.clock())

    def reset(self) -> None:
        """Forget history (the unit succeeded)."""
        self.attempts = 0
        self.last_delay = None
        self.eligible_at = float("-inf")
