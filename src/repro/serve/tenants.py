"""Per-tenant quotas and fair-share priority aging.

Quotas bound what any one tenant can take from the shared cluster:

- ``max_queued`` - jobs waiting for admission at once; the submit-time
  check, rejected with a structured 429-style error.
- ``max_concurrent`` - jobs of the tenant co-scheduled into one gang
  round; enforced through the scheduler's external
  :attr:`~repro.sched.scheduler.Scheduler.admission_filter` hook, so a
  flood from one tenant can never fill a whole round.
- ``memory_per_rank`` - ceiling on a job's declared (or estimated)
  per-rank footprint; a tenant cannot reserve more of a rank's memory
  than its budget says, rejected at submit time.

Fair share is *priority aging*: a job's effective admission priority
is its requested priority plus ``aging_rate`` for every round it has
already waited.  Any queued job
therefore eventually outbids a stream of fresh higher-priority work -
no tenant starves - while fresh priorities still win ties among jobs
of similar age.  The aging hook plugs into
:attr:`~repro.sched.scheduler.Scheduler.priority_fn`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.memory.limits import format_size, parse_size
from repro.sched.scheduler import SchedJob


class QuotaExceeded(Exception):
    """A structured 429-style rejection; carries the violated quota."""

    def __init__(self, tenant: str, quota: str, limit: Any, current: Any):
        self.tenant = tenant
        self.quota = quota
        self.limit = limit
        self.current = current
        super().__init__(
            f"tenant {tenant!r} exceeded quota {quota!r}: "
            f"{current} > limit {limit}")

    def to_json(self) -> dict[str, Any]:
        """The error body a client receives with the 429 status."""
        return {"error": "quota-exceeded", "tenant": self.tenant,
                "quota": self.quota, "limit": self.limit,
                "current": self.current}


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's resource bounds."""

    #: Jobs allowed to wait in the admission queue at once.
    max_queued: int = 8
    #: Jobs of this tenant co-scheduled into one gang round.
    max_concurrent: int = 2
    #: Ceiling on a job's declared/estimated per-rank footprint
    #: ("64K", bytes, or None for uncapped).
    memory_per_rank: int | str | None = None

    def __post_init__(self):
        # A tenant with no concurrent slot never leaves the queue.
        if self.max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, "
                             f"got {self.max_concurrent}")
        if self.max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, "
                             f"got {self.max_queued}")

    @property
    def memory_bytes(self) -> int | None:
        if self.memory_per_rank is None:
            return None
        return parse_size(self.memory_per_rank)


class TenantManager:
    """Quota checks + fair-share aging for all tenants of one daemon.

    ``default`` is applied to tenants never explicitly configured -
    an open service where unknown tenants get a small slice, which is
    what a local-first daemon wants.  Pass ``default=None`` to run
    closed (unknown tenants are rejected).
    """

    def __init__(self, quotas: dict[str, TenantQuota] | None = None, *,
                 default: TenantQuota | None = TenantQuota(),
                 aging_rate: float = 1.0, metrics: Any = None):
        if not math.isfinite(aging_rate):
            raise ValueError(f"aging_rate must be finite, got {aging_rate}")
        self.quotas = dict(quotas or {})
        self.default = default
        #: Effective-priority gain per round spent queued.
        self.aging_rate = aging_rate
        self.metrics = metrics

    def quota(self, tenant: str) -> TenantQuota:
        try:
            return self.quotas[tenant]
        except KeyError:
            if self.default is None:
                raise QuotaExceeded(tenant, "unknown-tenant", 0, 1) \
                    from None
            return self.default

    def _reject(self, exc: QuotaExceeded) -> None:
        if self.metrics is not None:
            self.metrics.inc("serve.rejections.quota")
        raise exc

    # ------------------------------------------------------ submit checks

    def check_submit(self, tenant: str, *, queued: int,
                     footprint: int | None) -> None:
        """Veto a submission that would blow the tenant's quota.

        ``queued`` is the tenant's jobs currently awaiting admission;
        ``footprint`` the new job's declared or estimated per-rank
        bytes (None when unknowable - then only the queue depth check
        applies).
        """
        quota = self.quota(tenant)
        if queued >= quota.max_queued:
            self._reject(QuotaExceeded(
                tenant, "max_queued", quota.max_queued, queued + 1))
        cap = quota.memory_bytes
        if footprint is not None and cap is not None and footprint > cap:
            self._reject(QuotaExceeded(
                tenant, "memory_per_rank", format_size(cap),
                format_size(footprint)))

    # --------------------------------------------------- scheduler hooks

    def admission_filter(self, job: SchedJob,
                         batch: "list[SchedJob]") -> bool:
        """Scheduler hook: cap one tenant's share of a gang round."""
        tenant = job.tenant
        if tenant is None:
            return True
        in_batch = sum(1 for other in batch if other.tenant == tenant)
        return in_batch < self.quota(tenant).max_concurrent

    def priority_fn(self, job: SchedJob, queued_rounds: int) -> float:
        """Scheduler hook: requested priority + aging."""
        return job.priority + self.aging_rate * queued_rounds

    def install(self, scheduler) -> None:
        """Wire both hooks into a :class:`~repro.sched.scheduler.Scheduler`."""
        scheduler.admission_filter = self.admission_filter
        scheduler.priority_fn = self.priority_fn
