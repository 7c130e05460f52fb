"""The Input Provider protocol (paper §III-A).

An Input Provider is pluggable, client-side logic that decides how a
dynamic job consumes its input. At each invocation it receives the job's
progress statistics and the cluster's load summary and answers one of
three ways (Figure 3 of the paper):

* ``END_OF_INPUT`` — the job needs no more input; in-flight maps finish,
  the provider is never invoked again, and the job proceeds to shuffle.
* ``INPUT_AVAILABLE`` — here are additional partitions to process next.
* ``NO_INPUT_AVAILABLE`` — wait and see; re-assess at the next invocation.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.core.budget import LadderBudget, PolicyBudget
from repro.core.demand import AllInput, Demand, LimitDemand
from repro.core.policy import Policy
from repro.core.pool import SplitPool, split_pool
from repro.core.protocol import ClusterStatus, JobProgress
from repro.dfs.split import InputSplit
from repro.errors import InputProviderError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.engine.jobconf import JobConf


class ResponseKind(enum.Enum):
    END_OF_INPUT = "end_of_input"
    INPUT_AVAILABLE = "input_available"
    NO_INPUT_AVAILABLE = "no_input_available"


@dataclass(frozen=True)
class ProviderResponse:
    """One answer from an Input Provider evaluation."""

    kind: ResponseKind
    splits: tuple[InputSplit, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is ResponseKind.INPUT_AVAILABLE and not self.splits:
            raise InputProviderError(
                "INPUT_AVAILABLE response must carry at least one split"
            )
        if self.kind is not ResponseKind.INPUT_AVAILABLE and self.splits:
            raise InputProviderError(f"{self.kind.value} response cannot carry splits")

    @staticmethod
    def end_of_input() -> "ProviderResponse":
        return ProviderResponse(ResponseKind.END_OF_INPUT)

    @staticmethod
    def input_available(splits: list[InputSplit]) -> "ProviderResponse":
        return ProviderResponse(ResponseKind.INPUT_AVAILABLE, tuple(splits))

    @staticmethod
    def no_input() -> "ProviderResponse":
        return ProviderResponse(ResponseKind.NO_INPUT_AVAILABLE)


class InputProvider:
    """An Input Provider built from a split pool, a demand rule and a
    grab budget.

    Lifecycle: ``initialize`` once with the complete input partition set
    (paper §IV), then ``initial_input`` once at submission, then
    ``evaluate`` at each evaluation point until END_OF_INPUT.
    ``initialize`` builds the parts from the job's conf:

    * ``pool(splits, conf, rng)`` — which splits come next
      (:mod:`repro.core.pool`; default: by ``sampling.stats.mode``);
    * ``demand(conf, pool)`` — whether input is complete and how many
      more splits are needed (:mod:`repro.core.demand`; default: LIMIT k);
    * ``budget(conf, policy)`` — whose GrabLimit caps a grab
      (:mod:`repro.core.budget`; default: the job's policy).

    Custom providers may instead subclass and override ``initial_input``
    and ``evaluate``, using ``take_random``, ``take_all`` and
    ``grab_limit``.
    """

    def __init__(
        self,
        *,
        pool: Callable[..., SplitPool] = split_pool,
        demand: Callable[..., Demand] = LimitDemand,
        budget: Callable[..., PolicyBudget] = PolicyBudget,
    ) -> None:
        self._parts = (pool, demand, budget)
        self.pool: SplitPool | None = None
        self.demand: Demand | None = None
        self.budget: PolicyBudget | None = None
        self._conf: "JobConf | None" = None
        self._policy: Policy | None = None

    def initialize(
        self,
        splits: list[InputSplit],
        conf: "JobConf",
        policy: Policy,
        rng: random.Random,
    ) -> None:
        if self._conf is not None:
            raise InputProviderError("InputProvider.initialize called twice")
        self._conf = conf
        self._policy = policy
        pool, demand, budget = self._parts
        self.pool = pool(splits, conf, rng)
        self.demand = demand(conf, self.pool)
        self.budget = budget(conf, policy)

    def initial_input(self, cluster: ClusterStatus) -> tuple[list[InputSplit], bool]:
        """The initial split set, plus whether input is already complete."""
        self._check_initialized()
        if self.demand.upfront:
            return self.pool.take_all(), True
        taken = self.pool.take(self.grab_limit(cluster))
        return taken, not self.pool

    def evaluate(
        self, progress: JobProgress, cluster: ClusterStatus
    ) -> ProviderResponse:
        self._check_initialized()
        self.budget.observe(progress)
        # Enough input, or nothing left to add: the in-flight maps finish
        # the job and reduce starts once they do.
        if self.demand.complete(progress) or not self.pool:
            return ProviderResponse.end_of_input()
        need = self.demand.need(progress)
        if need is None:
            return ProviderResponse.no_input()
        limit = self.grab_limit(cluster)
        if limit <= 0:
            return ProviderResponse.no_input()
        chosen = self.pool.take(min(need, limit))
        if not chosen:
            return ProviderResponse.no_input()
        return ProviderResponse.input_available(chosen)

    def observe_split(
        self,
        split_id: str,
        *,
        records: int,
        outputs: int,
        rows: list | None = None,
    ) -> None:
        """Per-completed-split observation, passed to the demand rule.

        The execution substrate calls this once per finished map task,
        before the next :meth:`evaluate`. ``rows`` carries the task's
        materialized map outputs when the substrate has them (the
        LocalRunner, and materialized splits on the simulator) and
        ``None`` when only counters exist (simulated profile mode). For
        an error-bounded aggregate those outputs are the split's
        per-group ``(group, (count, sum))`` totals, and ``outputs``
        counts them.
        """
        self.demand.observe_split(split_id, records=records, outputs=outputs, rows=rows)

    # ------------------------------------------------------------------
    @property
    def conf(self) -> "JobConf":
        self._check_initialized()
        return self._conf  # type: ignore[return-value]

    @property
    def policy(self) -> Policy:
        self._check_initialized()
        return self._policy  # type: ignore[return-value]

    @property
    def remaining_splits(self) -> int:
        return len(self.pool)

    @property
    def splits_pruned(self) -> int:
        """Cumulative splits retired via split statistics without dispatch."""
        return self.pool.pruned

    @property
    def ci_state(self) -> dict | None:
        """The demand rule's interval snapshot (accuracy jobs only)."""
        return self.demand.ci_state

    def approx_summary(self) -> dict | None:
        """The demand rule's final answer (accuracy jobs only)."""
        return self.demand.summary()

    # ------------------------------------------------------------------
    def grab_limit(self, cluster: ClusterStatus) -> float:
        """This step's GrabLimit under the budget's policy.

        The policy boundary: whatever ``Policy.max_grab`` produced is
        validated here, so a broken policy surfaces as a clear error at
        the evaluation that used it instead of a silent empty grab (or a
        cryptic ``int(nan)`` crash) somewhere inside split selection.
        """
        self._check_initialized()
        policy = self.budget.policy_for(cluster)
        limit = policy.max_grab(
            total_slots=cluster.total_map_slots,
            available_slots=cluster.available_map_slots,
        )
        if not isinstance(limit, (int, float)) or isinstance(limit, bool):
            raise InputProviderError(
                f"policy {policy.name!r} produced a non-numeric "
                f"grab limit: {limit!r}"
            )
        if math.isnan(limit):
            raise InputProviderError(
                f"policy {policy.name!r} produced a NaN grab limit"
            )
        if limit < 0:
            raise InputProviderError(
                f"policy {policy.name!r} produced a negative grab "
                f"limit: {limit!r}"
            )
        return limit

    def grab_source(self, cluster: ClusterStatus) -> str:
        """The GrabLimit expression a grant under ``cluster`` is held to.

        ``infinity`` when the demand takes all input up front
        (:meth:`initial_input`); otherwise the budget's policy for
        ``cluster``, the one :meth:`grab_limit` applies.
        """
        self._check_initialized()
        if self.demand.upfront:
            return "infinity"
        return self.budget.policy_for(cluster).grab_limit.source

    def take_all(self) -> list[InputSplit]:
        """Remove every remaining split from the pool."""
        self._check_initialized()
        return self.pool.take_all()

    def take_random(self, count: float) -> list[InputSplit]:
        """Remove up to ``count`` splits from the pool (``inf`` = all)."""
        self._check_initialized()
        return self.pool.take(count)

    def _check_initialized(self) -> None:
        if self._conf is None:
            raise InputProviderError("InputProvider used before initialize()")


class ProviderRegistry:
    """Maps the ``dynamic.input.provider`` JobConf value to a factory.

    A factory is any zero-argument callable returning an
    :class:`InputProvider`: a subclass, or a ``functools.partial`` of
    :class:`InputProvider` naming its parts.
    """

    def __init__(self) -> None:
        self._providers: dict[str, Callable[[], InputProvider]] = {}

    def register(
        self, name: str, factory: Callable[[], InputProvider], *, replace: bool = False
    ) -> None:
        if not name:
            raise InputProviderError("provider name must be non-empty")
        if name in self._providers and not replace:
            raise InputProviderError(f"provider {name!r} already registered")
        self._providers[name] = factory

    def create(self, name: str) -> InputProvider:
        try:
            factory = self._providers[name]
        except KeyError:
            raise InputProviderError(
                f"unknown input provider {name!r}; registered: {sorted(self._providers)}"
            ) from None
        return factory()

    def names(self) -> list[str]:
        return sorted(self._providers)

    def __contains__(self, name: str) -> bool:
        return name in self._providers


def default_providers() -> ProviderRegistry:
    """Registry with the built-in compositions.

    ``sampling`` and ``static`` implement the paper; ``stats`` is the same
    composition as ``sampling`` (kept as a name: both prune, rank or
    stratify by ``sampling.stats.mode``); ``adaptive`` swaps in the
    ladder budget of the §VII future-work direction (runtime policy
    switching); ``accuracy`` stops on confidence-interval width instead
    of k matches.
    """
    # Imported here to avoid a circular import at module load.
    from repro.approx.demand import AccuracyDemand

    registry = ProviderRegistry()
    registry.register("sampling", InputProvider)
    registry.register("static", partial(InputProvider, demand=AllInput))
    registry.register("adaptive", partial(InputProvider, budget=LadderBudget))
    registry.register("stats", InputProvider)
    registry.register("accuracy", partial(InputProvider, demand=AccuracyDemand))
    return registry
