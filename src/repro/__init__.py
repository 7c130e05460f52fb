"""repro — a reproduction of *Extending Map-Reduce for Efficient
Predicate-Based Sampling* (Raman Grover & Michael J. Carey, ICDE 2012).

The package implements the paper's incremental-job-expansion mechanism
(Input Providers + growth policies) on top of a from-scratch MapReduce
stack with two execution substrates:

* :class:`repro.LocalRunner` — real in-process execution over
  materialized data (correctness).
* :class:`repro.SimulatedCluster` — a discrete-event Hadoop-cluster model
  at paper scale (performance experiments).

Quick start::

    from repro import (SimulatedCluster, build_profiled_dataset,
                       dataset_spec_for_scale, predicate_for_skew,
                       make_sampling_conf)

    pred = predicate_for_skew(1)
    data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 1.0})
    cluster = SimulatedCluster.paper_cluster()
    cluster.load_dataset("/data/lineitem_5x", data)
    conf = make_sampling_conf(name="sample", input_path="/data/lineitem_5x",
                              predicate=pred, sample_size=10_000,
                              policy_name="LA")
    result = cluster.run_job(conf)
    print(f"{result.response_time:.0f}s over {result.splits_processed} partitions")
"""

from repro.cluster import ClusterTopology, CostModel, paper_topology
from repro.core import (
    InputProvider,
    Policy,
    PolicyRegistry,
    ProviderResponse,
    ResponseKind,
    SamplingMapper,
    SamplingReducer,
    SelectivityEstimator,
    make_sampling_conf,
    make_scan_conf,
    paper_policies,
)
from repro.data import (
    LINEITEM_SCHEMA,
    LineItemGenerator,
    MarkerEquals,
    Predicate,
    ZipfDistribution,
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    place_matches,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem, InputSplit
from repro.engine import (
    JobConf,
    JobResult,
    LocalRunner,
    Mapper,
    Reducer,
    SimulatedCluster,
)
from repro.errors import ReproError
from repro.sim import RandomSource, Simulator

__version__ = "1.0.0"

__all__ = [
    "ClusterTopology",
    "CostModel",
    "DistributedFileSystem",
    "InputProvider",
    "InputSplit",
    "JobConf",
    "JobResult",
    "LINEITEM_SCHEMA",
    "LineItemGenerator",
    "LocalRunner",
    "Mapper",
    "MarkerEquals",
    "Policy",
    "PolicyRegistry",
    "Predicate",
    "ProviderResponse",
    "RandomSource",
    "Reducer",
    "ReproError",
    "ResponseKind",
    "SamplingMapper",
    "SamplingReducer",
    "SelectivityEstimator",
    "SimulatedCluster",
    "Simulator",
    "ZipfDistribution",
    "build_materialized_dataset",
    "build_profiled_dataset",
    "dataset_spec_for_scale",
    "make_sampling_conf",
    "make_scan_conf",
    "paper_policies",
    "paper_topology",
    "place_matches",
    "predicate_for_skew",
]
