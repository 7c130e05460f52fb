"""The query compiler: SELECT statements to JobConfs.

This is the analogue of the paper's Hive compiler modification (§IV):
a SELECT with a LIMIT compiles to a predicate-based sampling job whose
JobConf carries ``dynamic.job = true``, the configured
``dynamic.job.policy``, and ``dynamic.input.provider = sampling``; a
SELECT without a LIMIT compiles to a plain static scan job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.approx.estimators import AggregateSpec
from repro.approx.job import make_approx_conf
from repro.core.sampling_job import make_sampling_conf, make_scan_conf
from repro.data.predicates import Predicate, TruePredicate
from repro.data.schema import Schema
from repro.engine.jobconf import JobConf
from repro.errors import HiveAnalysisError
from repro.hive.ast import SelectStatement
from repro.hive.expressions import compile_predicate, resolve_column

# Session parameters understood by the compiler.
PARAM_POLICY = "dynamic.job.policy"
PARAM_DYNAMIC = "dynamic.job"
PARAM_PROVIDER = "dynamic.input.provider"
PARAM_FALLBACK_SELECTIVITY = "hive.scan.fallback.selectivity"
PARAM_STATS_MODE = "sampling.stats.mode"
PARAM_ERROR_PCT = "sampling.error.pct"
PARAM_ERROR_CONFIDENCE = "sampling.error.confidence"

DEFAULT_POLICY = "LA"
DEFAULT_PROVIDER = "sampling"
DEFAULT_ACCURACY_PROVIDER = "accuracy"


@dataclass(frozen=True)
class Table:
    """A catalogue entry: where a table lives and what it looks like."""

    name: str
    path: str
    schema: Schema | None = None


class TableCatalog:
    """Name -> table registry (Hive metastore stand-in)."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def register(self, name: str, path: str, schema: Schema | None = None) -> None:
        if not name:
            raise HiveAnalysisError("table name must be non-empty")
        self._tables[name.lower()] = Table(name=name.lower(), path=path, schema=schema)

    def lookup(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise HiveAnalysisError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            )
        return table

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables


class QueryCompiler:
    """Compiles parsed SELECT statements against a catalogue + session params."""

    def __init__(self, catalog: TableCatalog) -> None:
        self._catalog = catalog
        self._query_counter = 0

    def compile(
        self, statement: SelectStatement, params: dict[str, str], *, user: str = "default"
    ) -> JobConf:
        table = self._catalog.lookup(statement.table)
        predicate = (
            compile_predicate(statement.where, table.schema)
            if statement.where is not None
            else TruePredicate()
        )
        columns = self._resolve_projection(statement, table)
        self._query_counter += 1
        name = f"hive-q{self._query_counter}-{user}"

        if statement.aggregate is not None:
            conf = self._compile_aggregate(
                statement, table, predicate, params, name, user
            )
        elif statement.limit is not None:
            dynamic = params.get(PARAM_DYNAMIC, "true").lower() != "false"
            policy = params.get(PARAM_POLICY, DEFAULT_POLICY) if dynamic else None
            conf = make_sampling_conf(
                name=name,
                input_path=table.path,
                predicate=predicate,
                sample_size=statement.limit,
                policy_name=policy,
                provider_name=params.get(PARAM_PROVIDER, DEFAULT_PROVIDER),
                columns=columns,
                user=user,
                stats_mode=params.get(PARAM_STATS_MODE),
            )
        else:
            fallback = params.get(PARAM_FALLBACK_SELECTIVITY)
            conf = make_scan_conf(
                name=name,
                input_path=table.path,
                predicate=predicate,
                columns=columns,
                fallback_selectivity=float(fallback) if fallback is not None else None,
                user=user,
            )
        return conf

    def _compile_aggregate(
        self,
        statement: SelectStatement,
        table: Table,
        predicate: Predicate,
        params: dict[str, str],
        name: str,
        user: str,
    ) -> JobConf:
        """An error-bounded aggregation job over the accuracy provider.

        The error target comes from the statement's ``WITHIN p% ERROR``
        clause, falling back to the session's ``sampling.error.pct``
        parameter; without either there is no stopping rule to run, so
        the query is rejected at analysis time rather than scanning
        everything silently.
        """
        error_pct = statement.error_pct
        if error_pct is None:
            raw = params.get(PARAM_ERROR_PCT)
            if raw is None:
                raise HiveAnalysisError(
                    f"aggregate query {statement.aggregate} needs an error "
                    f"target: add WITHIN <p>% ERROR or SET {PARAM_ERROR_PCT}"
                )
            error_pct = float(raw)
        confidence_pct = statement.confidence_pct
        if confidence_pct is None:
            confidence_pct = float(params.get(PARAM_ERROR_CONFIDENCE, "95"))
        assert statement.aggregate is not None
        spec = AggregateSpec(
            func=statement.aggregate.func,
            column=(
                resolve_column(statement.aggregate.column, table.schema)
                if statement.aggregate.column is not None
                else None
            ),
        )
        group_by = (
            resolve_column(statement.group_by, table.schema)
            if statement.group_by is not None
            else None
        )
        fallback = params.get(PARAM_FALLBACK_SELECTIVITY)
        return make_approx_conf(
            name=name,
            input_path=table.path,
            predicate=predicate,
            aggregate=spec,
            error_pct=error_pct,
            confidence_pct=confidence_pct,
            group_by=group_by,
            policy_name=params.get(PARAM_POLICY, DEFAULT_POLICY),
            # Always the accuracy provider on the uniform pool: a
            # session-level provider override targets sampling queries,
            # whose demand rule is not a CI stopping rule, and a session
            # stats mode would prune splits out of the estimator's
            # population (the accuracy demand rejects it).
            provider_name=DEFAULT_ACCURACY_PROVIDER,
            fallback_selectivity=float(fallback) if fallback is not None else None,
            user=user,
        )

    def _resolve_projection(
        self, statement: SelectStatement, table: Table
    ) -> tuple[str, ...] | None:
        if statement.columns is None:
            return None
        return tuple(
            resolve_column(column, table.schema) for column in statement.columns
        )
