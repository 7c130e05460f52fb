"""Data substrate: schemas, TPC-H LINEITEM generation, skew modeling, predicates.

The paper evaluates on TPC-H LINEITEM data at scales 5-100 with the
matching records for each test predicate placed across input partitions
according to a Zipfian distribution (paper section V-B). This package
provides:

* :mod:`repro.data.schema` / :mod:`repro.data.record` — column metadata and
  row validation (rows themselves are plain dicts for speed).
* :mod:`repro.data.tpch` — a dbgen-style LINEITEM row generator.
* :mod:`repro.data.zipf` — the Zipfian distribution of paper equation (1).
* :mod:`repro.data.skew` — placement of matching records across partitions.
* :mod:`repro.data.predicates` — predicate objects, including the
  marker-value predicates used to control selectivity exactly.
* :mod:`repro.data.datasets` — dataset specs (Table II) and builders for
  materialized (small, real rows) and profiled (paper-scale, metadata-only)
  partitioned datasets.
"""

from repro.data.datasets import (
    DatasetSpec,
    PartitionData,
    PartitionedDataset,
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    TABLE2_SCALES,
)
from repro.data.predicates import (
    ColumnCompare,
    MarkerEquals,
    Predicate,
    TruePredicate,
    predicate_for_skew,
    PAPER_SELECTIVITY,
)
from repro.data.record import Row
from repro.data.schema import Field, Schema
from repro.data.skew import MatchPlacement, place_matches
from repro.data.tpch import LINEITEM_SCHEMA, LineItemGenerator, ROWS_PER_SCALE_FACTOR
from repro.data.zipf import ZipfDistribution

__all__ = [
    "ColumnCompare",
    "DatasetSpec",
    "Field",
    "LINEITEM_SCHEMA",
    "LineItemGenerator",
    "MarkerEquals",
    "MatchPlacement",
    "PAPER_SELECTIVITY",
    "PartitionData",
    "PartitionedDataset",
    "Predicate",
    "ROWS_PER_SCALE_FACTOR",
    "Row",
    "Schema",
    "TABLE2_SCALES",
    "TruePredicate",
    "ZipfDistribution",
    "build_materialized_dataset",
    "build_profiled_dataset",
    "dataset_spec_for_scale",
    "place_matches",
    "predicate_for_skew",
]
