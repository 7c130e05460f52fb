"""Vectorized scan engine.

The real-execution hot path: columnar split storage
(:mod:`repro.scan.columnar`), predicate/projection compilation via
source codegen (:mod:`repro.scan.codegen`), and the map-task executor
shared by the LocalRunner and the simulated TaskTrackers
(:mod:`repro.scan.engine`).
"""

from repro.scan.columnar import ColumnStore
from repro.scan.codegen import compile_batch_matcher
from repro.scan.engine import DEFAULT_BATCH_SIZE, run_map_task

__all__ = [
    "ColumnStore",
    "DEFAULT_BATCH_SIZE",
    "compile_batch_matcher",
    "run_map_task",
]
