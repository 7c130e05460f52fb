"""Property-based tests for the Input Provider protocol invariants.

The protocol's safety properties, checked against randomized sequences
of progress observations:

* splits handed out are unique — no split is ever offered twice;
* the provider never hands out more splits than exist;
* once END_OF_INPUT is returned, the remaining pool is irrelevant (the
  caller stops asking) — but the provider's bookkeeping stays coherent;
* grabbed amounts never exceed the policy's GrabLimit for the observed
  cluster state.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import paper_topology
from repro.core import InputProvider, paper_policies
from repro.core.input_provider import ResponseKind
from repro.core.protocol import ClusterStatus, JobProgress
from repro.core.sampling_job import make_sampling_conf
from repro.data import build_profiled_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.dfs import DistributedFileSystem


def make_provider(policy_name, num_partitions, k, seed):
    pred = predicate_for_skew(0)
    data = build_profiled_dataset(
        dataset_spec_for_scale(0.01, num_partitions=num_partitions),
        {pred: 0.0},
        seed=0,
        selectivity=0.01,
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    splits = dfs.open_splits("/t")
    conf = make_sampling_conf(
        name="prop", input_path="/t", predicate=pred, sample_size=k,
        policy_name=policy_name,
    )
    provider = InputProvider()
    provider.initialize(
        splits, conf, paper_policies().get(policy_name), random.Random(seed)
    )
    return provider, splits


@st.composite
def protocol_runs(draw):
    policy = draw(st.sampled_from(["HA", "MA", "LA", "C"]))
    partitions = draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=500))
    seed = draw(st.integers(min_value=0, max_value=999))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),   # newly completed splits
                st.floats(min_value=0.0, max_value=1.0),  # per-record match rate
                st.integers(min_value=0, max_value=40),   # available slots
            ),
            min_size=1,
            max_size=12,
        )
    )
    return policy, partitions, k, seed, steps


class TestProtocolInvariants:
    @given(run=protocol_runs())
    @settings(max_examples=40, deadline=None)
    def test_provider_never_double_issues_splits(self, run):
        policy, partitions, k, seed, steps = run
        provider, splits = make_provider(policy, partitions, k, seed)
        records_per_split = splits[0].num_records
        cluster_total = 40

        issued_ids = set()
        initial, complete = provider.initial_input(
            ClusterStatus(cluster_total, cluster_total, 0, 0)
        )
        for split in initial:
            assert split.split_id not in issued_ids
            issued_ids.add(split.split_id)

        completed_splits = 0
        outputs = 0
        ended = complete
        for new_done, rate, available in steps:
            if ended:
                break
            completed_splits = min(completed_splits + new_done, len(issued_ids))
            records_done = completed_splits * records_per_split
            # Cumulative totals must be monotone (the engine guarantees it).
            outputs = max(outputs, min(int(records_done * rate), records_done))
            pending = len(issued_ids) - completed_splits
            progress = JobProgress(
                job_id="j",
                total_splits_known=partitions,
                splits_added=len(issued_ids),
                splits_completed=completed_splits,
                splits_pending=pending,
                records_processed=records_done,
                outputs_produced=outputs,
                records_pending=pending * records_per_split,
            )
            status = ClusterStatus(
                cluster_total, min(available, cluster_total), 0, 0
            )
            response = provider.evaluate(progress, status)
            if response.kind is ResponseKind.END_OF_INPUT:
                ended = True
            elif response.kind is ResponseKind.INPUT_AVAILABLE:
                limit = paper_policies().get(policy).max_grab(
                    total_slots=cluster_total,
                    available_slots=min(available, cluster_total),
                )
                if not math.isinf(limit):
                    assert len(response.splits) <= limit
                for split in response.splits:
                    assert split.split_id not in issued_ids
                    issued_ids.add(split.split_id)
            assert len(issued_ids) <= partitions
            assert provider.remaining_splits == partitions - len(issued_ids)
