"""Grab budgets: which policy's GrabLimit caps an Input Provider's grab.

:class:`PolicyBudget` is Table I: the job's configured policy caps
every grab. :class:`LadderBudget` is the paper's future work (§VII): "a
job could decide and change the policy at runtime, based on the
discovered characteristics of the input data together with the existing
load on the cluster". At every grab it picks the policy from a ladder:

* **Cluster load** (1 - AS/TS): an idle cluster rewards aggression
  (paper §V-C), a loaded one rewards conservatism (paper §V-D/E).
* **Observed skew**: when the per-evaluation match yield is erratic
  (high dispersion), aggressive grabbing overcomes skew faster
  (paper §V-C finding 2), so the budget escalates one rung.

The ladder and the load thresholds are JobConf parameters::

    dynamic.adaptive.ladder        comma list, conservative -> aggressive
                                   (default "C,LA,MA,HA")
    dynamic.adaptive.idle.load     load below which the most aggressive
                                   rung is used (default 0.25)
    dynamic.adaptive.busy.load     load above which the most conservative
                                   rung is used (default 0.75)

The job's ``dynamic.job.policy`` still supplies the EvaluationInterval
and WorkThreshold (the cadence); only the GrabLimit adapts. Either way
``InputProvider.grab_limit`` validates the limit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.policy import Policy, paper_policies
from repro.core.protocol import ClusterStatus, JobProgress
from repro.errors import InputProviderError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.engine.jobconf import JobConf

LADDER_PARAM = "dynamic.adaptive.ladder"
IDLE_LOAD_PARAM = "dynamic.adaptive.idle.load"
BUSY_LOAD_PARAM = "dynamic.adaptive.busy.load"

DEFAULT_LADDER = ("C", "LA", "MA", "HA")


class PolicyBudget:
    """Table I: the job's own policy caps every grab."""

    def __init__(self, conf: "JobConf", policy: Policy) -> None:
        self._policy = policy

    def observe(self, progress: JobProgress) -> None:
        """This evaluation's progress (the fixed budget ignores it)."""

    def policy_for(self, cluster: ClusterStatus) -> Policy:
        return self._policy


class LadderBudget(PolicyBudget):
    """Re-picks the policy from a ladder by cluster load and skew."""

    def __init__(self, conf: "JobConf", policy: Policy) -> None:
        super().__init__(conf, policy)
        registry = paper_policies()
        ladder_text = conf.get(LADDER_PARAM)
        names = (
            tuple(name.strip() for name in ladder_text.split(","))
            if ladder_text
            else DEFAULT_LADDER
        )
        self._ladder = tuple(registry.get(name) for name in names)
        self._idle_load = _load_param(conf, IDLE_LOAD_PARAM, 0.25)
        self._busy_load = _load_param(conf, BUSY_LOAD_PARAM, 0.75)
        if self._idle_load > self._busy_load:
            raise InputProviderError(
                f"adaptive thresholds inverted: idle {self._idle_load} > "
                f"busy {self._busy_load}"
            )
        # Per-evaluation match yields, for the skew signal.
        self._yield_history: list[float] = []
        self._last_outputs = 0
        self._last_splits = 0

    def observe(self, progress: JobProgress) -> None:
        new_splits = progress.splits_completed - self._last_splits
        if new_splits > 0:
            new_outputs = progress.outputs_produced - self._last_outputs
            self._yield_history.append(new_outputs / new_splits)
            self._last_splits = progress.splits_completed
            self._last_outputs = progress.outputs_produced

    def policy_for(self, cluster: ClusterStatus) -> Policy:
        """The ladder rung for the current load and skew signal."""
        rung = self._rung_for_load(_cluster_load(cluster))
        if self._skew_detected():
            rung = min(rung + 1, len(self._ladder) - 1)
        return self._ladder[rung]

    def _rung_for_load(self, load: float) -> int:
        """Map load onto the ladder: idle -> top rung, busy -> rung 0."""
        top = len(self._ladder) - 1
        if load <= self._idle_load:
            return top
        if load >= self._busy_load:
            return 0
        span = self._busy_load - self._idle_load
        fraction = (load - self._idle_load) / span
        return round((1.0 - fraction) * top)

    def _skew_detected(self) -> bool:
        """High dispersion of per-evaluation match yield signals skew."""
        history = [y for y in self._yield_history if not math.isnan(y)]
        if len(history) < 2:
            return False
        mean = sum(history) / len(history)
        if mean <= 0:
            return False
        variance = sum((y - mean) ** 2 for y in history) / len(history)
        return math.sqrt(variance) > mean  # coefficient of variation > 1


def _cluster_load(cluster: ClusterStatus) -> float:
    if cluster.total_map_slots <= 0:
        return 1.0
    return 1.0 - cluster.available_map_slots / cluster.total_map_slots


def _load_param(conf: "JobConf", key: str, default: float) -> float:
    raw = conf.get(key)
    if raw is None:
        return default
    value = float(raw)
    if not 0.0 <= value <= 1.0:
        raise InputProviderError(f"{key} must be in [0, 1], got {value}")
    return value
