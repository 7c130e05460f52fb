"""Closed-loop users.

"We modeled a group of 10 concurrent users where each user submits a
query and waits for its completion before submitting another query (the
same query again)." (paper §V-D)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.engine.cluster_engine import SimulatedCluster
from repro.engine.job import JobResult
from repro.engine.jobconf import JobConf
from repro.errors import WorkloadError


class UserClass(enum.Enum):
    """The two user classes of the heterogeneous experiment (§V-E)."""

    SAMPLING = "sampling"
    NON_SAMPLING = "non_sampling"


@dataclass(frozen=True)
class UserSpec:
    """Static description of one workload user.

    ``conf_factory(iteration)`` builds the JobConf for the user's next
    submission — the "same query again", but as a fresh conf so job
    bookkeeping never aliases across runs.
    """

    user_id: str
    user_class: UserClass
    conf_factory: Callable[[int], JobConf]


@dataclass
class CompletionRecord:
    """One finished job of one user."""

    user_id: str
    user_class: UserClass
    result: JobResult

    @property
    def finish_time(self) -> float:
        return self.result.finish_time


class ClosedLoopUser:
    """Submit -> wait -> resubmit, forever (until the runner stops it)."""

    def __init__(
        self,
        spec: UserSpec,
        cluster: SimulatedCluster,
        on_completion: Callable[[CompletionRecord], None],
    ) -> None:
        self.spec = spec
        self._cluster = cluster
        self._on_completion = on_completion
        self._iteration = 0
        self._stopped = False
        self.completions = 0

    def start(self) -> None:
        self._submit_next()

    def stop(self) -> None:
        """Stop resubmitting (the in-flight job is left to finish)."""
        self._stopped = True

    def _submit_next(self) -> None:
        if self._stopped:
            return
        conf = self.spec.conf_factory(self._iteration)
        if not isinstance(conf, JobConf):
            raise WorkloadError(
                f"user {self.spec.user_id}: conf_factory returned {type(conf).__name__}"
            )
        self._iteration += 1
        self._cluster.submit(conf, self._job_done)

    def _job_done(self, result: JobResult) -> None:
        self.completions += 1
        self._on_completion(
            CompletionRecord(
                user_id=self.spec.user_id,
                user_class=self.spec.user_class,
                result=result,
            )
        )
        self._submit_next()
