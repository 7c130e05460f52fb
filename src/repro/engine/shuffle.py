"""Shuffle: grouping map outputs by key for the reduce phase.

In real Hadoop the shuffle partitions, transfers, merges and sorts map
output. Here the data-volume cost of that is charged by the cost model
(:meth:`repro.cluster.costmodel.CostModel.reduce_task_duration`); this
module implements the *semantics* — grouping all values of each
intermediate key — used whenever map output is actually materialized.
"""

from __future__ import annotations

from typing import Any, Iterable


def group_outputs(
    map_outputs: Iterable[list[tuple[Any, Any]]]
) -> list[tuple[Any, list]]:
    """Merge per-task output lists into sorted ``(key, [values])`` groups.

    Keys are ordered by their string form, which matches Hadoop's sorted
    reduce input for string keys and gives a deterministic order for any
    key type. Within a key, values keep map-task order (task lists are
    consumed in the order given).
    """
    grouped: dict[Any, list] = {}
    for task_output in map_outputs:
        for key, value in task_output:
            grouped.setdefault(key, []).append(value)
    return sorted(grouped.items(), key=lambda item: str(item[0]))


def partition_for_key(key: Any, num_partitions: int) -> int:
    """Hadoop's default HashPartitioner: ``hash(key) mod partitions``."""
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    return hash(key) % num_partitions
