"""Dataset specifications and builders (paper Table II).

The paper generates LINEITEM at scales 5, 10, 20, 40 and 100 and stores
each dataset evenly across the cluster's 40 disks with no replication; the
5x dataset occupies 40 partitions (paper §V-B and Figure 4), which fixes
the partitioning rule at ``8 x scale`` partitions (one ~94 MB partition
per disk per 5 scale units).

Two builders are provided:

* :func:`build_profiled_dataset` — metadata-only partitions at any scale
  (used for paper-scale performance experiments). Each partition knows its
  record count, byte size, and exact matching-record count per predicate.
* :func:`build_materialized_dataset` — real rows (small scales only), with
  matching rows stamped by marker predicates at the positions dictated by
  the same placement logic. Used by the local runtime, tests, and examples.

A materialized dataset is also a valid profiled dataset: its partitions
carry the same metadata, so both execution substrates accept either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.data.predicates import MarkerEquals, PAPER_SELECTIVITY
from repro.data.record import Row
from repro.data.skew import MatchPlacement, place_matches
from repro.data.tpch import LINEITEM_SCHEMA, LineItemGenerator
from repro.errors import DataGenerationError

TABLE2_SCALES = (5, 10, 20, 40, 100)
"""The dataset scales evaluated in the paper."""

PARTITIONS_PER_SCALE_UNIT = 8
"""Input partitions per unit of scale (5x -> 40 partitions, 100x -> 800)."""


@dataclass(frozen=True)
class DatasetSpec:
    """Static properties of a generated dataset (one Table II row)."""

    name: str
    scale: float
    num_rows: int
    num_partitions: int
    avg_row_bytes: int

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise DataGenerationError(f"num_rows must be >= 0, got {self.num_rows}")
        if self.num_partitions < 1:
            raise DataGenerationError(
                f"num_partitions must be >= 1, got {self.num_partitions}"
            )

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.avg_row_bytes

    @property
    def rows_per_partition(self) -> int:
        """Average rows per partition (individual partitions may differ by 1)."""
        return self.num_rows // self.num_partitions

    @property
    def bytes_per_partition(self) -> int:
        return self.total_bytes // self.num_partitions

    def partition_row_counts(self) -> list[int]:
        """Exact per-partition row counts (remainder spread over the head)."""
        base = self.num_rows // self.num_partitions
        remainder = self.num_rows % self.num_partitions
        return [base + (1 if i < remainder else 0) for i in range(self.num_partitions)]


def dataset_spec_for_scale(
    scale: float,
    *,
    name: str | None = None,
    num_partitions: int | None = None,
) -> DatasetSpec:
    """Spec for LINEITEM at ``scale`` using the paper's partitioning rule."""
    if scale <= 0:
        raise DataGenerationError(f"scale must be positive, got {scale}")
    rows = LineItemGenerator.rows_for_scale(scale)
    partitions = num_partitions
    if partitions is None:
        partitions = max(1, round(PARTITIONS_PER_SCALE_UNIT * scale))
    return DatasetSpec(
        name=name or f"lineitem_{scale:g}x",
        scale=scale,
        num_rows=rows,
        num_partitions=partitions,
        avg_row_bytes=LINEITEM_SCHEMA.avg_row_bytes,
    )


@dataclass
class PartitionData:
    """One input partition: metadata always, data only when materialized.

    Materialized partitions store their data in one of three layouts:
    row-major (``rows``, the original list of dicts), column-major
    (``columns``, a :class:`~repro.scan.columnar.ColumnStore`), or
    on-disk binary columnar (``mmap_ref``, a file-range reference into
    an :mod:`repro.scan.mmapstore` dataset file opened read-only via
    ``mmap``). Any layout serves both access patterns — :meth:`iter_rows`
    synthesizes dicts from a column store, and :meth:`column_store`
    transposes rows (or maps the file region, zero-copy) on first use —
    so the scan engine's batch path works on any materialized partition
    regardless of how it was built.
    """

    index: int
    num_records: int
    num_bytes: int
    match_counts: dict[str, int] = field(default_factory=dict)
    rows: list[Row] | None = None
    columns: "ColumnStore | None" = None
    mmap_ref: "MmapSplitRef | None" = None

    @property
    def materialized(self) -> bool:
        return (
            self.rows is not None
            or self.columns is not None
            or self.mmap_ref is not None
        )

    def matches_for(self, predicate_name: str) -> int:
        """Matching-record count for a predicate (0 if never placed)."""
        return self.match_counts.get(predicate_name, 0)

    def iter_rows(self):
        """The partition's rows as dicts, whichever layout holds them."""
        if self.rows is not None:
            return iter(self.rows)
        if self.columns is not None or self.mmap_ref is not None:
            return self.column_store().iter_rows()
        raise DataGenerationError(
            f"partition {self.index} is profile-only; rows are not materialized"
        )

    def column_store(self) -> "ColumnStore":
        """The column-major view, transposed from rows (once) if needed.

        mmap-backed partitions return the store of lazy zero-copy views
        over the mapped file — no column data is duplicated; values
        decode straight out of the page cache on access, except that a
        string column keeps the rows that scans read again as one
        decoded list (:meth:`ColumnStore.scan_columns`).
        """
        if self.columns is None:
            if self.mmap_ref is not None:
                from repro.scan.mmapstore import open_mmap_dataset

                self.columns = open_mmap_dataset(
                    self.mmap_ref.path
                ).partition_store(self.mmap_ref.partition)
                return self.columns
            from repro.scan.columnar import ColumnStore

            if self.rows is None:
                raise DataGenerationError(
                    f"partition {self.index} is profile-only; "
                    "no columnar view exists"
                )
            self.columns = ColumnStore.from_rows(self.rows)
        return self.columns

    def to_columnar(self) -> "PartitionData":
        """Switch this partition to column-major storage (drops the row dicts)."""
        self.column_store()
        self.rows = None
        return self


@dataclass
class PartitionedDataset:
    """A partitioned dataset plus the predicates whose placement it controls."""

    spec: DatasetSpec
    partitions: list[PartitionData]
    placements: dict[str, MatchPlacement]
    predicates: dict[str, MarkerEquals]
    seed: int

    @property
    def materialized(self) -> bool:
        return all(p.materialized for p in self.partitions)

    @property
    def total_records(self) -> int:
        return sum(p.num_records for p in self.partitions)

    @property
    def total_bytes(self) -> int:
        return sum(p.num_bytes for p in self.partitions)

    def total_matches(self, predicate_name: str) -> int:
        return sum(p.matches_for(predicate_name) for p in self.partitions)

    def placement_for(self, predicate_name: str) -> MatchPlacement:
        try:
            return self.placements[predicate_name]
        except KeyError:
            raise DataGenerationError(
                f"dataset {self.spec.name} has no controlled placement for "
                f"predicate {predicate_name!r}; known: {sorted(self.placements)}"
            ) from None

    def iter_rows(self):
        """All rows across partitions (materialized datasets only)."""
        for partition in self.partitions:
            if not partition.materialized:
                raise DataGenerationError(
                    f"partition {partition.index} of {self.spec.name} is not materialized"
                )
            yield from partition.iter_rows()


def _match_total(spec: DatasetSpec, selectivity: float) -> int:
    if not 0 <= selectivity <= 1:
        raise DataGenerationError(f"selectivity must be in [0, 1], got {selectivity}")
    return round(spec.num_rows * selectivity)


def build_profiled_dataset(
    spec: DatasetSpec,
    skew_by_predicate: dict[MarkerEquals, float],
    seed: int = 0,
    *,
    selectivity: float = PAPER_SELECTIVITY,
    placement_method: str = "multinomial",
) -> PartitionedDataset:
    """Metadata-only dataset with controlled match placement per predicate.

    ``skew_by_predicate`` maps each marker predicate to its Zipf exponent.
    Works at any scale because no rows are materialized.
    """
    rng = random.Random(seed)
    row_counts = spec.partition_row_counts()
    total_matches = _match_total(spec, selectivity)

    placements: dict[str, MatchPlacement] = {}
    predicates: dict[str, MarkerEquals] = {}
    for predicate, z in skew_by_predicate.items():
        placement = place_matches(
            spec.num_partitions, total_matches, z, rng, method=placement_method
        )
        _check_placement_fits(placement, row_counts, predicate)
        placements[predicate.name] = placement
        predicates[predicate.name] = predicate

    partitions = [
        PartitionData(
            index=i,
            num_records=row_counts[i],
            num_bytes=row_counts[i] * spec.avg_row_bytes,
            match_counts={
                name: int(placement.counts[i]) for name, placement in placements.items()
            },
        )
        for i in range(spec.num_partitions)
    ]
    return PartitionedDataset(
        spec=spec,
        partitions=partitions,
        placements=placements,
        predicates=predicates,
        seed=seed,
    )


DATASET_LAYOUTS = ("row", "columnar", "mmap")
"""The materialized-dataset layouts the builders understand."""


def build_materialized_dataset(
    spec: DatasetSpec,
    skew_by_predicate: dict[MarkerEquals, float],
    seed: int = 0,
    *,
    selectivity: float = PAPER_SELECTIVITY,
    placement_method: str = "multinomial",
    max_rows: int = 5_000_000,
    layout: str = "row",
    mmap_path: "str | None" = None,
    stats: bool = False,
    bloom_bits: "int | None" = None,
) -> PartitionedDataset:
    """Real-row dataset with matching rows stamped per the controlled placement.

    The in-memory layouts refuse to materialize more than ``max_rows``
    rows — paper-scale experiments must use :func:`build_profiled_dataset`
    instead.

    ``layout="columnar"`` stores each partition column-major (the scan
    engine's native layout) instead of as row dicts. ``layout="mmap"``
    streams each partition into the binary columnar file at ``mmap_path``
    (required) as it is generated and drops the rows immediately, so peak
    memory stays bounded by one partition no matter the scale — the
    ``max_rows`` guard does not apply. All layouts yield identical rows
    in identical order.

    ``stats=True`` (mmap layout only) makes the writer accumulate the
    per-partition zone maps and bloom filters for the footer STATS
    section as each partition streams through; ``bloom_bits`` overrides
    the default filter width. Stats never change the row data — only
    the file footer grows.
    """
    if layout not in DATASET_LAYOUTS:
        raise DataGenerationError(
            f"unknown dataset layout {layout!r}; one of {DATASET_LAYOUTS}"
        )
    if layout == "mmap" and mmap_path is None:
        raise DataGenerationError(
            "layout='mmap' needs mmap_path= naming the dataset file to write"
        )
    if stats and layout != "mmap":
        raise DataGenerationError(
            "split statistics are stored in the mmap file footer; "
            "stats=True needs layout='mmap'"
        )
    if layout != "mmap" and spec.num_rows > max_rows:
        raise DataGenerationError(
            f"refusing to materialize {spec.num_rows} rows (> {max_rows}); "
            "use build_profiled_dataset for paper-scale data, or "
            "layout='mmap' to stream rows to disk"
        )
    dataset = build_profiled_dataset(
        spec,
        skew_by_predicate,
        seed,
        selectivity=selectivity,
        placement_method=placement_method,
    )
    generator = LineItemGenerator(scale_factor=max(spec.scale, 0.01))
    gen_rng = random.Random(seed + 0x5EED)
    marker_predicates = list(dataset.predicates.values())

    writer = None
    if layout == "mmap":
        from repro.scan.mmapstore import (
            DEFAULT_BLOOM_BITS,
            MmapDatasetWriter,
            column_types_for_schema,
            dataset_meta,
        )

        writer = MmapDatasetWriter(
            mmap_path,
            LINEITEM_SCHEMA.field_names,
            column_types_for_schema(LINEITEM_SCHEMA),
            meta=dataset_meta(dataset),
            stats=stats,
            bloom_bits=DEFAULT_BLOOM_BITS if bloom_bits is None else bloom_bits,
        )

    for partition in dataset.partitions:
        rows = [generator.generate_row(gen_rng) for _ in range(partition.num_records)]
        for predicate in marker_predicates:
            for row in rows:
                predicate.ensure_non_matching(row, gen_rng)
            count = partition.matches_for(predicate.name)
            if count > len(rows):
                raise DataGenerationError(
                    f"partition {partition.index}: {count} matches for "
                    f"{predicate.name} exceed its {len(rows)} rows"
                )
            chosen = gen_rng.sample(range(len(rows)), count)
            for row_index in chosen:
                predicate.make_matching(rows[row_index])
        partition.num_bytes = partition.num_records * spec.avg_row_bytes
        if writer is not None:
            columns = {
                name: [row[name] for row in rows] for name in writer.names
            }
            partition.mmap_ref = writer.write_partition(
                columns, partition.num_records
            )
        else:
            partition.rows = rows
            if layout == "columnar":
                partition.to_columnar()
    if writer is not None:
        writer.close()
    return dataset


def _check_placement_fits(
    placement: MatchPlacement, row_counts: list[int], predicate: MarkerEquals
) -> None:
    for i, count in enumerate(placement.counts):
        if count > row_counts[i]:
            raise DataGenerationError(
                f"placement for {predicate.name} puts {int(count)} matches in "
                f"partition {i}, which has only {row_counts[i]} rows; "
                "increase dataset scale or reduce selectivity/skew"
            )
