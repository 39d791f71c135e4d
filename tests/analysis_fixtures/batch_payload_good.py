"""Fixture: a pickling-clean *batched* task payload. Never imported.

Mirrors the shape of :class:`repro.engine.tasks.SimulationTask`: a frozen
dataclass whose replication axis is a plain tuple of seeds, whose
expansion helpers are ordinary methods, and whose fields are all plain
data — nothing a process-pool pickle refuses.
"""

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class CleanBatchTask:
    key: str
    seeds: Tuple[int, ...] = (0,)
    cycles: int = 20_000
    injection_scale: float = 1.0
    drain_limit: Optional[int] = None

    def expand(self):
        # A method returning per-replication payloads is fine: bound
        # methods are not *bound into* the payload, they live on the class.
        return tuple(
            dataclasses.replace(self, seeds=(seed,)) for seed in self.seeds
        )

    def narrow(self, indices: Tuple[int, ...]) -> "CleanBatchTask":
        return dataclasses.replace(
            self, seeds=tuple(self.seeds[i] for i in indices)
        )
