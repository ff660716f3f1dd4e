"""Load-imbalance metrics across ranks.

The paper attributes every scalability failure to imbalance: "load
imbalances cause some processes to run out of memory".  This module
quantifies that from any per-rank series (peak bytes, KV counts,
times): the max/mean imbalance factor - the standard HPC definition -
plus spread statistics and a compact report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ImbalanceReport:
    """Summary statistics of one per-rank measurement."""

    nranks: int
    mean: float
    minimum: float
    maximum: float
    stddev: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ImbalanceReport":
        if not values:
            raise ValueError("need at least one rank value")
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return cls(nranks=n, mean=mean, minimum=min(values),
                   maximum=max(values), stddev=math.sqrt(var))

    @property
    def imbalance_factor(self) -> float:
        """max/mean: 1.0 is perfectly balanced."""
        if self.mean == 0:
            return 1.0
        return self.maximum / self.mean

    @property
    def cv(self) -> float:
        """Coefficient of variation (stddev/mean)."""
        if self.mean == 0:
            return 0.0
        return self.stddev / self.mean

    @property
    def headroom_lost(self) -> float:
        """Fraction of aggregate capacity idled by the straggler.

        With per-rank capacity sized to the maximum, ``1 - mean/max``
        of the total is wasted - this is why one hot rank OOMs a job
        whose *average* footprint fits comfortably.
        """
        if self.maximum == 0:
            return 0.0
        # The mean of near-identical values can round a hair past the
        # maximum at extreme magnitudes; a fraction stays in [0, 1].
        return max(0.0, 1.0 - self.mean / self.maximum)

    def render(self, label: str = "value") -> str:
        return (f"{label}: mean={self.mean:.1f} min={self.minimum:.1f} "
                f"max={self.maximum:.1f} imbalance={self.imbalance_factor:.2f}x "
                f"cv={self.cv:.2f}")
