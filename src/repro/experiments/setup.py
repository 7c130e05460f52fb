"""Shared experiment configuration (paper §V-A/B).

The constants here pin down the evaluation setup: the 10-node cluster
(4 map slots per node single-user, 16 multi-user), LINEITEM at scales
5-100, skews z in {0, 1, 2} with the Table III predicates, sample size
10,000, selectivity 0.05%.

``dataset_for`` memoizes profiled datasets: experiment sweeps reuse the
same (scale, z, seed) dataset instead of re-drawing placements.
"""

from __future__ import annotations

from functools import lru_cache

from repro.data.datasets import PartitionedDataset, build_profiled_dataset, dataset_spec_for_scale
from repro.data.predicates import predicate_for_skew
from repro.engine.cluster_engine import SimulatedCluster

PAPER_POLICIES = ("Hadoop", "HA", "MA", "LA", "C")
PAPER_SCALES = (5, 10, 20, 40, 100)
PAPER_SKEWS = (0, 1, 2)
PAPER_SAMPLE_SIZE = 10_000
PAPER_FRACTIONS = (0.2, 0.4, 0.6, 0.8)
PAPER_NUM_USERS = 10


@lru_cache(maxsize=64)
def dataset_for(scale: float, z: int, seed: int = 0) -> PartitionedDataset:
    """The profiled LINEITEM dataset for one (scale, skew, seed) cell."""
    predicate = predicate_for_skew(z)
    return build_profiled_dataset(
        dataset_spec_for_scale(scale), {predicate: float(z)}, seed=seed
    )


def single_user_cluster(
    *, seed: int = 0, scheduler: str = "fifo", failures=None, trace=None
) -> SimulatedCluster:
    """The single-user configuration: 4 map slots per node (§V-C).

    ``failures`` is an optional :class:`repro.engine.failures.
    FailureConfig`; a fresh injector is built per cluster so RNG state
    never leaks between cells.
    """
    return SimulatedCluster.paper_cluster(
        map_slots_per_node=4,
        seed=seed,
        scheduler=scheduler,
        failure_injector=failures.build() if failures is not None else None,
        trace=trace,
    )


def multiuser_cluster(*, seed: int = 0, scheduler: str = "fifo") -> SimulatedCluster:
    """The multi-user configuration: 16 map slots per node (§V-D)."""
    return SimulatedCluster.paper_cluster(
        map_slots_per_node=16, seed=seed, scheduler=scheduler
    )
