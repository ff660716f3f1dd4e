"""Fault tolerance: checkpoint/restart and chaos injection for MapReduce jobs.

The paper notes that MR-MPI "is unable to handle system faults" and
that the authors addressed this in prior work (Guo et al., SC'15,
"Fault Tolerant MapReduce-MPI for HPC Clusters").  This package
reproduces the checkpoint/restart flavour of that design on top of the
simulated cluster, and hardens it against the failure modes that
dominate on machines like Mira (node loss, Lustre/GPFS hiccups,
partial writes):

- :class:`CheckpointManager` persists phase outputs (KVCs and small
  control state) to the parallel file system as CRC32-checksummed,
  length-framed, nonce-stamped records with collective completion
  markers - a torn, corrupt, or stale checkpoint is detected and
  recomputed, never silently replayed; a job's fault points fire
  through :meth:`repro.cluster.RankEnv.probe`;
- :class:`ChaosPlan` is the one fault plan: rank deaths at named
  points (:class:`SimulatedRankFailure`), plus seeded rates for
  transient storage errors, torn writes, bit corruption, and straggler
  ranks, all deterministic; a run reads it from its cluster
  (``Cluster(chaos=...)`` or ``cluster.chaos = plan``), never from a
  driver argument;
- :func:`run_with_recovery` restarts a failed job ``fn(env, ckpt)``
  with per-class restart budgets and a structured failure log, letting
  it skip phases whose checkpoints completed - so work lost to a
  failure is bounded by one phase instead of the whole job;
- :func:`run_chaos_sweep` (``repro.ft.chaos``, the harness module:
  its job is the WordCount Plan, plain and elastic) sweeps seeded
  random fault schedules and checks bit-identical convergence;
- :mod:`repro.ft.elastic` adds the *reactive* layer: straggler
  detection, speculative task re-execution, and elastic gang
  membership with checkpoint re-balancing (:func:`run_elastic`, whose
  job is ``fn(env, ckpt, hooks)``, and :class:`ElasticPolicy`).
"""

from repro.ft.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    CheckpointNotFoundError,
    CheckpointStaleError,
    restore_rebalanced,
)
from repro.ft.injection import (
    ChaosPlan,
    InjectedFault,
    SimulatedRankFailure,
    TornWriteFailure,
)
from repro.ft.runner import (
    FailureRecord,
    FTResult,
    classify_failure,
    run_with_recovery,
)

def __getattr__(name: str):
    # Lazy: the harness pulls in the apps, most importers (the serve
    # journal, for one) never touch the elastic layer.
    if name in ("ChaosSweepResult", "ChaosRunRecord", "run_chaos_sweep"):
        from repro.ft import chaos as module
    elif name in __all__:   # whatever was not imported above is elastic's
        from repro.ft import elastic as module
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "ChaosPlan",
    "ChaosSweepResult",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointNotFoundError",
    "CheckpointStaleError",
    "ElasticPolicy",
    "ElasticResult",
    "ElasticStageHooks",
    "FailureRecord",
    "FTResult",
    "InjectedFault",
    "MembershipChange",
    "SimulatedRankFailure",
    "SpeculationReport",
    "StragglerEvicted",
    "TornWriteFailure",
    "classify_failure",
    "restore_rebalanced",
    "run_chaos_sweep",
    "run_elastic",
    "run_with_recovery",
    "speculative_map",
]
