"""The information exchanged between the execution framework and an
Input Provider (paper §III-A and §IV).

"The execution framework, at regular intervals of time, invokes the
Input Provider and provides it with statistics about the output produced
by finished mappers, the status of the job, the current load, and the
availability of map slots in the cluster."

These types live in :mod:`repro.core` (not the engine) because they *are*
the contract of the contribution: both execution substrates produce
them, and every Input Provider consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import JobError


@dataclass(frozen=True)
class ClusterStatus:
    """Cluster-load summary retrieved from the JobTracker.

    ``TS``/``AS`` in the policy formulas of Table I are
    ``total_map_slots`` / ``available_map_slots``.
    """

    total_map_slots: int
    available_map_slots: int
    running_map_tasks: int
    queued_map_tasks: int

    def __post_init__(self) -> None:
        if self.available_map_slots < 0 or self.total_map_slots < 0:
            raise JobError("slot counts cannot be negative")


@dataclass(frozen=True)
class JobProgress:
    """Snapshot of one job's progress, as reported to its Input Provider.

    All counters reflect *completed* map tasks except the ``pending``
    fields, which describe splits added to the job but not yet finished
    (queued or running).
    """

    job_id: str
    total_splits_known: int
    splits_added: int
    splits_completed: int
    splits_pending: int
    records_processed: int
    outputs_produced: int
    records_pending: int
