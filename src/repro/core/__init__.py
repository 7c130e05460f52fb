"""The paper's contribution: incremental job expansion.

* :mod:`repro.core.input_provider` — the Input Provider protocol (paper
  §III-A): the three-way response (end of input / input available / no
  input available), the provider composed of the three parts below, and
  the registry mapping ``dynamic.input.provider`` names to compositions.
* :mod:`repro.core.pool` — split pools: which splits come next (uniform
  as in §IV, or pruned / ranked / stratified by split statistics).
* :mod:`repro.core.demand` — demand rules: when input is complete and
  how many more splits are needed (the LIMIT-k shortfall of §IV, or all
  input up front; the error-bounded rule lives in :mod:`repro.approx`).
* :mod:`repro.core.budget` — grab budgets: the Table I GrabLimit, or the
  adaptive policy ladder of §VII.
* :mod:`repro.core.policy` — growth policies (paper §III-B, Table I):
  EvaluationInterval, WorkThreshold, GrabLimit — the latter as a small
  expression language over ``TS`` (total map slots) and ``AS`` (available
  map slots), which is what makes a policy.xml file expressive.
* :mod:`repro.core.policy_file` — the policy.xml loader/writer (§IV).
* :mod:`repro.core.selectivity` — online selectivity estimation.
* :mod:`repro.core.sampling_job` — Algorithms 1 & 2 plus JobConf builders.
"""

from repro.core.input_provider import (
    InputProvider,
    ProviderRegistry,
    ProviderResponse,
    ResponseKind,
    default_providers,
)
from repro.core.policy import (
    GrabLimitExpression,
    Policy,
    PolicyRegistry,
    PAPER_POLICY_NAMES,
    paper_policies,
)
from repro.core.policy_file import dump_policies, load_policies
from repro.core.sampling_job import (
    SamplingMapper,
    SamplingReducer,
    make_sampling_conf,
    make_scan_conf,
)
from repro.core.selectivity import SelectivityEstimator

__all__ = [
    "GrabLimitExpression",
    "InputProvider",
    "PAPER_POLICY_NAMES",
    "Policy",
    "PolicyRegistry",
    "ProviderRegistry",
    "ProviderResponse",
    "ResponseKind",
    "SamplingMapper",
    "SamplingReducer",
    "SelectivityEstimator",
    "default_providers",
    "dump_policies",
    "load_policies",
    "make_sampling_conf",
    "make_scan_conf",
    "paper_policies",
]
