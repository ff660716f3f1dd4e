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
  recomputed, never silently replayed;
- :class:`ChaosPlan` is the one fault plan: rank deaths at named
  points (:class:`SimulatedRankFailure`), plus seeded rates for
  transient storage errors, torn writes, bit corruption, and straggler
  ranks, all deterministic;
- :func:`run_with_recovery` restarts a failed job with per-class
  restart budgets and a structured failure log, letting it skip phases
  whose checkpoints completed - so work lost to a failure is bounded
  by one phase instead of the whole job;
- :func:`run_chaos_sweep` (``repro.ft.chaos``, the harness module:
  its WordCount targets, plain and elastic, live there too) sweeps
  seeded random fault schedules and checks bit-identical convergence;
- :mod:`repro.ft.elastic` adds the *reactive* layer: straggler
  detection, speculative task re-execution, and elastic gang
  membership with checkpoint re-balancing (:func:`run_elastic`,
  :class:`ElasticPolicy`).
"""

from repro.ft.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    CheckpointNotFoundError,
    CheckpointStaleError,
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
    # journal, for one) never touch the elastic layer, and eager import
    # would also trip runpy's double-import warning for
    # ``python -m repro.ft.chaos``.
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
    "ElasticContext",
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
    "StragglerMonitor",
    "TornWriteFailure",
    "classify_failure",
    "restore_rebalanced",
    "run_chaos_sweep",
    "run_elastic",
    "run_with_recovery",
    "speculative_map",
]
