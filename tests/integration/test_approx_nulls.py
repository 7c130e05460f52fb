"""SUM and AVG ``WITHIN ... ERROR`` ignore NULL values, as SQL does.

A matching row whose aggregated value is NULL contributes nothing to
SUM or AVG, while COUNT(*) still counts it. Covered for the map task and
for the reference fold it is held to, over in-memory and mmap
partitions, and end to end through the LocalRunner and the Hive
surface: once every split has been read, the estimate is the exact
SUM/AVG over the non-NULL values.
"""

import pytest

from repro import LocalRunner
from repro.approx.job import make_approx_conf
from repro.cluster import paper_topology
from repro.data import (
    LINEITEM_SCHEMA,
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.data.predicates import ColumnCompare
from repro.dfs import DistributedFileSystem
from repro.hive import HiveSession
from repro.scan.columnar import ColumnStore
from repro.scan.engine import run_map_task
from repro.scan.mmapstore import MmapDataset, MmapDatasetWriter, write_mmap_dataset
from tests.unit.test_scan_equivalence import StoreSplit, reference_fold

ROWS = [
    {"g": "a", "x": 1.5},
    {"g": "a", "x": None},
    {"g": "b", "x": 4.0},
]


def _store(layout, tmp_path):
    if layout == "columns":
        return ColumnStore.from_rows(ROWS)
    with MmapDatasetWriter(tmp_path / "t.rcs", ("g", "x"), ("s", "f")) as writer:
        writer.write_rows(ROWS)
    return MmapDataset(tmp_path / "t.rcs").partition_store(0)


@pytest.mark.parametrize("layout", ["columns", "mmap"])
@pytest.mark.parametrize("path", ["interpreted", "batch"])
@pytest.mark.parametrize(
    "aggregate, expected",
    [
        ("sum:x", [("a", (1, 1.5)), ("b", (1, 4.0))]),
        ("avg:x", [("a", (1, 1.5)), ("b", (1, 4.0))]),
        ("count", [("a", (2, 0.0)), ("b", (1, 0.0))]),
    ],
)
def test_map_task_skips_null_values(layout, path, aggregate, expected, tmp_path):
    """``batch`` is the map task; ``interpreted`` the reference fold."""
    predicate = ColumnCompare("g", "!=", "z")
    split = StoreSplit(_store(layout, tmp_path))
    if path == "batch":
        conf = make_approx_conf(
            name="nulls", input_path="/t", predicate=predicate,
            aggregate=aggregate, error_pct=5.0, group_by="g",
        )
        context = run_map_task(conf, split)
        outputs, records_read = context.outputs, context.records_read
    else:
        outputs, records_read = reference_fold(split, predicate, aggregate, "g")
    assert outputs == expected
    assert records_read == len(ROWS)


PREDICATE = ColumnCompare("l_quantity", "<=", 25)
NUM_PARTITIONS = 8


@pytest.fixture(scope="module", params=["row", "mmap"])
def null_table(request, tmp_path_factory):
    """(dfs, rows) of a lineitem table whose ``l_extendedprice`` is NULL
    on every third row and on every row with ``l_returnflag = 'N'``."""
    spec = dataset_spec_for_scale(0.0005, num_partitions=NUM_PARTITIONS)
    dataset = build_materialized_dataset(
        spec, {predicate_for_skew(0): 0.0}, seed=0, selectivity=0.01
    )
    rows = []
    for partition in dataset.partitions:
        for index, row in enumerate(partition.rows):
            if index % 3 == 0 or row["l_returnflag"] == "N":
                row["l_extendedprice"] = None
            rows.append(row)
    if request.param == "mmap":
        write_mmap_dataset(dataset, tmp_path_factory.mktemp("nulls") / "l.rcs")
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/nulls", dataset)
    return dfs, rows


def _exact(rows, func, group_by=None):
    """group -> exact SUM/AVG of the non-NULL values over matching rows."""
    values: dict = {}
    for row in rows:
        if PREDICATE.matches(row) and row["l_extendedprice"] is not None:
            group = row[group_by] if group_by else None
            values.setdefault(group, []).append(row["l_extendedprice"])
    return {
        group: sum(v) if func == "sum" else sum(v) / len(v)
        for group, v in values.items()
    }


def _full_scan(dfs, func, group_by=None):
    conf = make_approx_conf(
        name="nulls", input_path="/nulls", predicate=PREDICATE,
        aggregate=f"{func}:l_extendedprice", error_pct=1e-6, group_by=group_by,
    )
    result = LocalRunner(seed=0).run(conf, dfs.open_splits("/nulls"))
    assert result.splits_processed == NUM_PARTITIONS
    return {row["group"]: row for row in result.approx["groups"]}


@pytest.mark.parametrize("func", ["sum", "avg"])
def test_full_scan_estimate_is_exact_over_non_null_values(null_table, func):
    dfs, rows = null_table
    [(group, answer)] = _full_scan(dfs, func).items()
    assert group is None
    assert answer["method"] == "exact"
    assert answer["estimate"] == pytest.approx(_exact(rows, func)[None], rel=1e-12)


@pytest.mark.parametrize("func", ["sum", "avg"])
def test_group_whose_values_are_all_null_has_no_row(null_table, func):
    dfs, rows = null_table
    answers = _full_scan(dfs, func, group_by="l_returnflag")
    exact = _exact(rows, func, group_by="l_returnflag")
    assert "N" not in exact
    assert answers.keys() == exact.keys()
    for group, value in exact.items():
        assert answers[group]["estimate"] == pytest.approx(value, rel=1e-12)
    # COUNT(*) still counts the matching rows of that group.
    count = make_approx_conf(
        name="nulls", input_path="/nulls", predicate=PREDICATE,
        aggregate="count", error_pct=1e-6, group_by="l_returnflag",
    )
    result = LocalRunner(seed=0).run(count, dfs.open_splits("/nulls"))
    assert "N" in {row["group"] for row in result.approx["groups"]}


def test_hive_sum_within_error_skips_nulls(null_table):
    dfs, rows = null_table
    session = HiveSession(runner=LocalRunner(seed=0), dfs=dfs)
    session.register_table("lineitem", "/nulls", LINEITEM_SCHEMA)
    result = session.execute(
        "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity <= 25 "
        "WITHIN 0.000001% ERROR"
    )
    [row] = result.rows
    assert row["estimate"] == pytest.approx(_exact(rows, "sum")[None], rel=1e-12)
