"""repro.sched: dataflow DAG plans and multi-job scheduling.

The subsystem layers three pieces over the single-job Mimir driver:

- :mod:`repro.sched.plan` - a declarative :class:`Plan`/:class:`Dataset`
  API that composes read/map/reduce/partial_reduce/join/sort stages
  into a DAG with stable stage identities.
- :mod:`repro.sched.executor` - :class:`PlanRunner`, which lowers each
  stage onto :class:`~repro.core.job.Mimir`, reuses cached stage
  outputs, restores stage-granular checkpoints, and recomputes evicted
  intermediates from lineage.
- :mod:`repro.sched.scheduler` - :class:`Scheduler`, a submission
  queue with priorities and memory-aware admission control that
  gang-schedules batches of jobs whose combined declared footprints
  fit the per-rank budget; oversized jobs run degraded (out-of-core)
  or wait instead of OOMing; a :class:`ScalingPolicy` may resize the
  gang between rounds.

``python -m repro pipeline`` runs a self-contained demo
(:mod:`repro.sched.demo`).
"""

from repro.sched.cache import CacheEntry, CacheStats, StageCache
from repro.sched.executor import PlanRunner
from repro.sched.plan import Dataset, Plan, Stage
from repro.sched.scheduler import (
    FootprintEstimator,
    JobContext,
    JobOutcome,
    ScalingPolicy,
    SchedJob,
    Scheduler,
    SchedulerReport,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "Dataset",
    "FootprintEstimator",
    "JobContext",
    "JobOutcome",
    "Plan",
    "PlanRunner",
    "ScalingPolicy",
    "SchedJob",
    "Scheduler",
    "SchedulerReport",
    "Stage",
    "StageCache",
]
