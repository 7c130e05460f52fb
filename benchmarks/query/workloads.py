"""The five query workloads: their data, request streams and answer checks.

A workload builds its data from the seed through the ``repro`` library,
opens a :class:`~repro.hive.session.HiveSession` on one substrate, and
yields an endless seeded stream of requests. A request is a few ``SET``
statements plus one ``SELECT``. Every WHERE clause exists twice: as
HiveQL for the system under test and as a plain Python test used by the
reference, which never touches ``repro.scan`` code generation.

Sizes: the scan workloads hold 32k rows. Data generation runs at 25k to
50k rows/s and set-up is repeated three times per run, so larger tables
would not fit a run of under 30 s. Marker predicates keep 240 matches
each (0.05% of 480k rows), so LIMIT 10/50/200 stop early as they would
at full size.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from time import perf_counter as clock
from typing import Callable, ClassVar, Iterable, Iterator, NamedTuple

from repro.cluster import paper_topology
from repro.core.policy import PAPER_POLICY_NAMES
from repro.data.datasets import (
    DatasetSpec,
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
)
from repro.data.predicates import predicate_for_skew
from repro.data.tpch import LINEITEM_SCHEMA, ROWS_PER_SCALE_FACTOR
from repro.dfs import DistributedFileSystem
from repro.engine.cluster_engine import SimulatedCluster
from repro.engine.job import JobState
from repro.engine.runtime import LocalRunner
from repro.hive.session import HiveSession, QueryResult
from repro.scan.mmapstore import load_mmap_dataset

TABLE = "lineitem"
DFS_PATH = "/bench/lineitem"
MARKER_MATCHES = 240
LIMIT_KS = (10, 50, 200)
LOCAL_POLICIES = ("HA", "MA", "LA", "C")
STATS_MODES = ("prune", "rank", "stratified")
BASE_COLUMNS = ("l_orderkey", "l_partkey", "l_linenumber")


@dataclass(frozen=True)
class Pred:
    """A WHERE clause as HiveQL and as an independent Python test."""

    sql: str
    test: Callable[[dict], bool]
    columns: tuple[str, ...]
    """The columns the clause reads; LIMIT queries project them."""

    @property
    def projection(self) -> tuple[str, ...]:
        return BASE_COLUMNS + tuple(c for c in self.columns if c not in BASE_COLUMNS)


def _marker(z: int) -> Pred:
    marker = predicate_for_skew(z)
    column, value = marker.column, marker.marker
    return Pred(f"{column} = {value}", lambda r: r[column] == value, (column,))


MARKERS = {z: _marker(z) for z in (0, 1, 2)}
"""The Table III predicates, one per skew: 0.05% of rows in the paper."""

COMMON = (
    Pred("l_quantity = 7", lambda r: r["l_quantity"] == 7, ("l_quantity",)),
    Pred(
        "l_shipmode = 'RAIL' AND l_tax = 0.0",
        lambda r: r["l_shipmode"] == "RAIL" and r["l_tax"] == 0.0,
        ("l_shipmode", "l_tax"),
    ),
)
"""Organic predicates matching about 2% and 1.6% of rows."""

PRUNABLE = (
    MARKERS[2],
    Pred("l_quantity > 50", lambda r: r["l_quantity"] > 50, ("l_quantity",)),
    Pred(
        "l_quantity >= 51 AND l_shipmode <> 'FOB'",
        lambda r: r["l_quantity"] >= 51 and r["l_shipmode"] != "FOB",
        ("l_quantity", "l_shipmode"),
    ),
)
"""Predicates on the out-of-domain quantity 51: zone maps refute every
partition the marker was not stamped into."""

AGG_PREDS = (
    Pred("l_quantity <= 25", lambda r: r["l_quantity"] <= 25, ("l_quantity",)),
    Pred("l_discount <= 0.04", lambda r: r["l_discount"] <= 0.04, ("l_discount",)),
    Pred(
        "l_returnflag = 'R' AND l_tax <= 0.04",
        lambda r: r["l_returnflag"] == "R" and r["l_tax"] <= 0.04,
        ("l_returnflag", "l_tax"),
    ),
    Pred("l_shipmode = 'AIR'", lambda r: r["l_shipmode"] == "AIR", ("l_shipmode",)),
    Pred("l_quantity <= 3", lambda r: r["l_quantity"] <= 3, ("l_quantity",)),
    COMMON[0],
)
"""Selectivities from 50% down to 2%."""

AGGREGATES = (
    ("COUNT(*)", "count", None),
    ("SUM(l_extendedprice)", "sum", "l_extendedprice"),
    ("AVG(l_quantity)", "avg", "l_quantity"),
)
GROUP_BY = "l_returnflag"


@dataclass(frozen=True)
class Request:
    """One request: ``statements`` run in order; the last is the SELECT."""

    statements: tuple[str, ...]
    pred: Pred
    table: str = TABLE
    k: int | None = None
    aggregate: tuple[str, str | None] | None = None
    """``(func, column)`` of an error-bounded aggregate."""
    group_by: str | None = None


class Verdict(NamedTuple):
    ok: bool
    intervals: int = 0
    """Aggregate intervals the answer stated."""
    covered: int = 0
    """Of those, how many contain the exact answer."""
    reason: str = ""


def _limit_request(pred: Pred, k: int, sets: tuple[str, ...], table: str = TABLE) -> Request:
    select = f"SELECT {', '.join(pred.projection)} FROM {table} WHERE {pred.sql} LIMIT {k}"
    return Request(sets + (select,), pred, table=table, k=k)


# ---------------------------------------------------------------------------
# Request streams
# ---------------------------------------------------------------------------
def _deck(rng: random.Random, *choices) -> Iterator[tuple]:
    """Endless draws that deal every combination of ``choices`` once per
    shuffled round: any long prefix holds the same mix for every seed,
    so counts averaged over it do not wander with the draw."""
    combos = list(product(*choices))
    while True:
        rng.shuffle(combos)
        yield from combos


def _limit_sample_requests(rng: random.Random) -> Iterator[Request]:
    preds = tuple(MARKERS.values()) + COMMON
    for policy, pred, k in _deck(rng, LOCAL_POLICIES, preds, LIMIT_KS):
        yield _limit_request(pred, k, (f"SET dynamic.job.policy = {policy}",))


def _limit_pruned_requests(rng: random.Random) -> Iterator[Request]:
    # Three in four requests can be pruned. The weights keep the median
    # inside the fast pruned classes rather than on the edge between
    # them and the common predicates, where it would flip between runs.
    marker, above, compound = PRUNABLE
    preds = (marker,) * 5 + (above,) * 5 + (compound,) * 2 + COMMON * 2
    for mode, pred, k in _deck(rng, STATS_MODES, preds, LIMIT_KS):
        yield _limit_request(pred, k, (f"SET sampling.stats.mode = {mode}",))


def _scan_parallel_requests(rng: random.Random) -> Iterator[Request]:
    preds = tuple(MARKERS.values()) + COMMON
    for pred, k in _deck(rng, preds, LIMIT_KS):
        yield _limit_request(pred, k, ("SET dynamic.job = false",))


def _approx_requests(rng: random.Random) -> Iterator[Request]:
    for (label, func, column), group_by, error_pct, pred in _deck(
        rng, AGGREGATES, (None, GROUP_BY), (2, 5), AGG_PREDS
    ):
        grouping = f" GROUP BY {group_by}" if group_by else ""
        select = (
            f"SELECT {label} FROM {TABLE} WHERE {pred.sql}{grouping} "
            f"WITHIN {error_pct}% ERROR"
        )
        yield Request((select,), pred, aggregate=(func, column), group_by=group_by)


# ---------------------------------------------------------------------------
# Reference answers
# ---------------------------------------------------------------------------
class RowReference:
    """Exact answers from one pure-Python pass over the stored rows."""

    def __init__(
        self, rows: Iterable[dict], limit_preds: Iterable[Pred], agg_preds: Iterable[Pred]
    ) -> None:
        self.matching = {pred: Counter() for pred in limit_preds}
        """Per LIMIT predicate: its matching rows, projected, as a multiset."""
        self.totals: dict[Pred, dict] = {pred: {} for pred in agg_preds}
        """Per aggregate predicate: group -> [count, {column: sum}]; the
        ``None`` group holds the ungrouped totals."""
        sum_columns = [column for _label, _func, column in AGGREGATES if column]
        for row in rows:
            for pred, multiset in self.matching.items():
                if pred.test(row):
                    multiset[tuple(row[c] for c in pred.projection)] += 1
            for pred, groups in self.totals.items():
                if not pred.test(row):
                    continue
                for group in (None, row[GROUP_BY]):
                    entry = groups.get(group)
                    if entry is None:
                        entry = groups[group] = [0, dict.fromkeys(sum_columns, 0.0)]
                    entry[0] += 1
                    for column in sum_columns:
                        entry[1][column] += row[column]

    def exact(self, request: Request) -> dict:
        """``{group: exact aggregate}`` for an aggregate request."""
        func, column = request.aggregate
        answer = {}
        for group, (count, sums) in self.totals[request.pred].items():
            if (group is None) != (request.group_by is None):
                continue
            if func == "count":
                answer[group] = float(count)
            elif func == "sum":
                answer[group] = sums[column]
            else:
                answer[group] = sums[column] / count
        return answer

    def check(self, request: Request, result: QueryResult) -> Verdict:
        if request.aggregate is not None:
            return self._check_aggregate(request, result)
        matching = self.matching[request.pred]
        expected = min(request.k, sum(matching.values()))
        if len(result.rows) != expected:
            return Verdict(False, reason=f"{len(result.rows)} rows, expected {expected}")
        projection = request.pred.projection
        got = Counter(tuple(row[c] for c in projection) for row in result.rows)
        if got - matching:
            return Verdict(False, reason="rows that do not match, or repeated rows")
        return Verdict(True)

    def _check_aggregate(self, request: Request, result: QueryResult) -> Verdict:
        exact = self.exact(request)
        answer = {row["group"]: row for row in result.rows}
        if answer.keys() != exact.keys():
            return Verdict(False, reason=f"groups {sorted(map(str, answer))}")
        covered = 0
        for group, value in exact.items():
            estimate = answer[group]["estimate"]
            half = answer[group]["half_width"]
            if estimate is None or half is None or not math.isfinite(estimate + half):
                return Verdict(False, reason=f"group {group!r} has no finite interval")
            covered += abs(estimate - value) <= half + 1e-9 * max(1.0, abs(value))
        return Verdict(True, intervals=len(exact), covered=covered)


class SimReference:
    """Exact match totals of each profiled table, from its placement."""

    def __init__(self, matches: dict[str, int]) -> None:
        self.matches = matches

    def check(self, request: Request, result: QueryResult) -> Verdict:
        job = result.job
        expected = min(request.k, self.matches[request.table])
        if job.state is not JobState.SUCCEEDED or result.rows:
            return Verdict(False, reason=f"job {job.state}, {len(result.rows)} rows")
        if job.outputs_produced != expected:
            return Verdict(False, reason=f"{job.outputs_produced} outputs, expected {expected}")
        return Verdict(True)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass
class Data:
    """What one set-up built, with the set-up's own timings."""

    payload: object
    build_s: float
    open_s: float = 0.0
    bytes_per_row: float = 0.0


@dataclass(frozen=True)
class LocalWorkload:
    """Queries over an RCS file through the LocalRunner."""

    simulated: ClassVar[bool] = False
    session_requests: ClassVar[int | None] = None
    """One session serves the whole run."""
    name: str
    why: str
    stream: Callable[[random.Random], Iterator[Request]]
    limit_preds: tuple[Pred, ...] = ()
    agg_preds: tuple[Pred, ...] = ()
    markers: tuple[tuple[int, float], ...] = ()
    """``(Table III skew key, Zipf exponent of its placement)`` pairs."""
    stats: bool = False
    rows: int = 32_000
    partitions: int = 64
    map_workers: int = 1
    map_executor: str = "thread"

    def requests(self, seed: int) -> Iterator[Request]:
        return self.stream(random.Random(f"requests:{seed}"))

    def build(self, seed: int, workdir: str, index: int) -> Data:
        path = os.path.join(workdir, f"{self.name}-{index}.rcs")
        spec = DatasetSpec(
            name=self.name,
            scale=self.rows / ROWS_PER_SCALE_FACTOR,
            num_rows=self.rows,
            num_partitions=self.partitions,
            avg_row_bytes=LINEITEM_SCHEMA.avg_row_bytes,
        )
        start = clock()
        build_materialized_dataset(
            spec,
            {predicate_for_skew(key): z for key, z in self.markers},
            seed,
            selectivity=MARKER_MATCHES / self.rows,
            # Expected, not multinomial, counts per skew rank: with only
            # a few partitions holding a z=6 marker, a random count of
            # them would move rows read per query by 13% across seeds.
            placement_method="expected",
            layout="mmap",
            mmap_path=path,
            stats=self.stats,
        )
        built = clock()
        dataset = load_mmap_dataset(path)
        opened = clock()
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset(DFS_PATH, dataset)
        return Data(
            payload=(dataset, dfs),
            build_s=built - start,
            open_s=opened - built,
            bytes_per_row=os.path.getsize(path) / self.rows,
        )

    def open_session(self, data: Data, seed: int) -> tuple[HiveSession, Callable[[], None]]:
        _dataset, dfs = data.payload
        runner = LocalRunner(
            seed=seed, map_workers=self.map_workers, map_executor=self.map_executor
        )
        session = HiveSession(runner=runner, dfs=dfs)
        session.register_table(TABLE, DFS_PATH, LINEITEM_SCHEMA)
        return session, runner.close

    def reference(self, data: Data) -> RowReference:
        dataset, _dfs = data.payload
        return RowReference(dataset.iter_rows(), self.limit_preds, self.agg_preds)


@dataclass(frozen=True)
class SimWorkload:
    """Queries on the simulated paper cluster over profiled datasets."""

    simulated: ClassVar[bool] = True
    """Jobs report response time on the simulator's clock."""
    session_requests: ClassVar[int | None] = 60
    """Each cluster serves one round of the deck (every policy, scale,
    skew and k once), then a fresh idle cluster takes over, as each of
    the paper's cells starts on a fresh cluster. A cluster keeps every
    job it ran, so one cluster for the whole run would make the latency
    tail track garbage-collection pauses over that growing history."""
    name: str
    why: str
    scales: tuple[int, ...] = (20, 100)
    ks: tuple[int, ...] = (1000, 10_000)

    def requests(self, seed: int) -> Iterator[Request]:
        rng = random.Random(f"requests:{seed}")
        for policy, scale, z, k in _deck(rng, PAPER_POLICY_NAMES, self.scales, MARKERS, self.ks):
            yield _limit_request(
                MARKERS[z], k, (f"SET dynamic.job.policy = {policy}",),
                table=_sim_table(scale, z),
            )

    def build(self, seed: int, workdir: str, index: int) -> Data:
        start = clock()
        datasets = {
            _sim_table(scale, z): build_profiled_dataset(
                dataset_spec_for_scale(scale), {predicate_for_skew(z): float(z)}, seed=seed
            )
            for scale in self.scales
            for z in MARKERS
        }
        return Data(payload=datasets, build_s=clock() - start)

    def open_session(self, data: Data, seed: int) -> tuple[HiveSession, Callable[[], None]]:
        cluster = SimulatedCluster.paper_cluster(map_slots_per_node=4, seed=seed)
        session = HiveSession(cluster)
        for table, dataset in data.payload.items():
            cluster.load_dataset(f"/bench/{table}", dataset)
            session.register_table(table, f"/bench/{table}", LINEITEM_SCHEMA)
        return session, lambda: None

    def reference(self, data: Data) -> SimReference:
        return SimReference(
            {
                table: sum(dataset.total_matches(name) for name in dataset.predicates)
                for table, dataset in data.payload.items()
            }
        )


def _sim_table(scale: int, z: int) -> str:
    return f"lineitem_{scale}x_z{z}"


WORKLOADS = {
    w.name: w
    for w in (
        LocalWorkload(
            "limit_sample",
            "The paper's LIMIT-k query on the real substrate: scan and the "
            "sampling provider do the work; pruning, approx and the process "
            "pool sit idle.",
            _limit_sample_requests,
            limit_preds=tuple(MARKERS.values()) + COMMON,
            markers=((0, 0.0), (1, 1.0), (2, 2.0)),
        ),
        LocalWorkload(
            "limit_pruned",
            "Zone maps remove most splits, so scan.prune works and the scan "
            "does little; fixed per-query costs in hive, dfs and provider "
            "set-up dominate.",
            _limit_pruned_requests,
            limit_preds=PRUNABLE + COMMON,
            markers=((2, 6.0),),
            stats=True,
        ),
        LocalWorkload(
            "approx_agg",
            "Error-bounded COUNT/SUM/AVG: the accuracy provider, estimator, "
            "shuffle and reduce work here only; ci_coverage catches a "
            "speed-up bought by stopping early.",
            _approx_requests,
            agg_preds=AGG_PREDS,
        ),
        LocalWorkload(
            "scan_parallel",
            "The paper's Hadoop baseline (dynamic.job = false) on two "
            "worker processes: every split is read and ship/gather costs "
            "apply; the provider is idle.",
            _scan_parallel_requests,
            limit_preds=tuple(MARKERS.values()) + COMMON,
            markers=((0, 0.0), (1, 1.0), (2, 2.0)),
            partitions=16,
            map_workers=2,
            map_executor="process",
        ),
        SimWorkload(
            "sim_sample",
            "The simulator substrate at paper scale: kernel, JobTracker and "
            "scheduler do the work and no rows are scanned; response_s is "
            "the paper's Figure 5 number.",
        ),
    )
}
