"""Coupling a simulation to Mimir analyses, in-situ or post-hoc.

In-situ: each timestep's particle positions flow straight into a map
stage from memory - no file system involvement; this is the input
source the paper's Section III-A explicitly supports.

Post-hoc: each timestep is first written to the parallel file system
(as the producing application would normally do) and later analysed by
reading it back - the conventional workflow in-situ processing avoids.
The difference in virtual time is pure PFS traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.octree import OC_HINT_LAYOUT, make_key, morton_codes, oc_combine
from repro.cluster import RankEnv
from repro.core import MimirConfig, pack_u64, unpack_u64
from repro.datasets.points import POINT_RECORD_SIZE
from repro.insitu.simulation import ParticleSimulation
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan
from repro.stream.source import StreamSource


@dataclass
class StepSummary:
    """Density analysis of one timestep."""

    timestep: int
    #: Octants (at the analysis level) that this rank owns and that
    #: hold at least the density threshold of all particles.
    dense_octants: dict[int, int] = field(default_factory=dict)


class InSituAnalytics:
    """Per-timestep density analysis over a running simulation.

    The simulation is a *live* producer: each analysed step pushes one
    micro-batch onto a persistent :class:`~repro.stream.source.
    StreamSource`, and the analysis stages derive from
    ``Plan.source_stream`` - so their identities follow the stream
    name + batch index discipline every other stream client uses, and
    a timestep is schedulable next to other jobs.  ``runner(plan)``
    builds the :class:`PlanRunner` that carries the services (e.g. a
    scheduler's ``ctx.runner``); without it the plan runs bare.
    """

    def __init__(self, env: RankEnv, sim: ParticleSimulation, *,
                 config: MimirConfig | None = None, level: int = 2,
                 density: float = 0.01, runner=None):
        if not 1 <= level <= 21:
            raise ValueError(f"level must be in 1..21, got {level}")
        if not 0 < density <= 1:
            raise ValueError(f"density must be in (0, 1], got {density}")
        self.env = env
        self.sim = sim
        self.config = (config or MimirConfig()).with_layout(OC_HINT_LAYOUT)
        self.level = level
        self.density = density
        self.threshold = max(1, int(density * sim.total_particles))
        self._stream = StreamSource("insitu")
        self._plan = Plan("insitu", self.config)
        self._runner = runner(self._plan) if runner else \
            PlanRunner(env, self._plan)

    # ------------------------------------------------------------ in-situ

    def analyse_step(self) -> StepSummary:
        """Advance the simulation one step and analyse it in place."""
        positions = self.sim.step()
        return self._analyse(positions, self.sim.timestep)

    def _analyse(self, positions: np.ndarray, timestep: int) -> StepSummary:
        codes = morton_codes(positions, self.level) if len(positions) \
            else np.zeros(0, dtype=np.uint64)
        one = pack_u64(1)

        def map_fn(ctx, _item, _codes=codes):
            for code in _codes.tolist():
                ctx.emit(make_key(self.level, code), one)

        batch = self._stream.push([None], arrival=float(timestep))
        counts = (self._plan
                  .source_stream(self._stream, batch.index,
                                 name=f"particles-t{timestep}")
                  .map(map_fn, name="bin")
                  .partial_reduce(oc_combine, out_layout=self.config.layout,
                                  name="density"))
        dense = {}
        for key, value in self._runner.stream(counts):
            count = unpack_u64(value)
            if count >= self.threshold:
                code = int.from_bytes(key[1:9], "little")
                dense[code] = count
        return StepSummary(timestep, dense)

    # ----------------------------------------------------------- post-hoc

    def dump_step(self, prefix: str = "steps") -> str:
        """Post-hoc path, write side: advance and persist the snapshot."""
        self.sim.step()
        path = f"{prefix}/t{self.sim.timestep:05d}.{self.env.comm.rank}"
        self.env.pfs.write(self.env.comm, path, self.sim.snapshot_bytes())
        return path

    def analyse_dump(self, timestep: int,
                     prefix: str = "steps") -> StepSummary:
        """Post-hoc path, read side: load one snapshot and analyse it."""
        path = f"{prefix}/t{timestep:05d}.{self.env.comm.rank}"
        data = self.env.pfs.read(self.env.comm, path)
        positions = np.frombuffer(data, dtype="<f4").reshape(
            -1, POINT_RECORD_SIZE // 4)
        return self._analyse(positions, timestep)
