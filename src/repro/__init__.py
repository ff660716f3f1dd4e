"""Reproduction of Mimir (IPDPS 2017): memory-efficient MapReduce over MPI.

Top-level convenience imports; see the subpackages for the full API:

- :mod:`repro.core` - Mimir itself (the paper's contribution)
- :mod:`repro.mrmpi` - the MR-MPI baseline
- :mod:`repro.cluster` - the simulated cluster harness
- :mod:`repro.mpi`, :mod:`repro.memory`, :mod:`repro.storage` - substrates
  (:mod:`repro.io`: the engines' readers and spill streams over storage)
- :mod:`repro.apps`, :mod:`repro.datasets` - evaluation workloads
- :mod:`repro.bench` - figure-reproduction harness
"""

from repro.cluster import Cluster, ClusterResult, RankEnv
from repro.core import KVLayout, Mimir, MimirConfig, pack_u64, unpack_u64
from repro.mpi import COMET, MIRA, Platform
from repro.mrmpi import MRMPI, MRMPIConfig

__version__ = "1.0.0"

__all__ = [
    "COMET",
    "Cluster",
    "ClusterResult",
    "KVLayout",
    "MIRA",
    "MRMPI",
    "MRMPIConfig",
    "Mimir",
    "MimirConfig",
    "Platform",
    "RankEnv",
    "__version__",
    "pack_u64",
    "unpack_u64",
]
