"""Ablation: "wait and see" while uninformed (DESIGN.md / provider notes).

The LIMIT-k demand rule answers NO_INPUT_AVAILABLE while it has no
selectivity signal and work is still in flight, instead of grabbing a
full GrabLimit quantum at every 4-second evaluation. This ablation
removes the wait and lets the provider grab blindly.

Expected: with blind grabbing, an aggressive policy (HA, WorkThreshold
0) queues several uninformed quanta before its first map finishes —
processing far more partitions and losing the size-independent response
time that is the paper's headline property.
"""

from functools import partial

from repro.core.demand import LimitDemand
from repro.core.input_provider import InputProvider, default_providers
from repro.core.sampling_job import make_sampling_conf
from repro.cluster import paper_topology
from repro.data.predicates import predicate_for_skew
from repro.engine.cluster_engine import SimulatedCluster
from repro.experiments.report import render_table
from repro.experiments.setup import dataset_for


class BlindDemand(LimitDemand):
    """The paper's demand rule minus the uninformed-wait guard."""

    def wait_uninformed(self, progress):
        return False


def run_variant(provider_name: str, scale: int, seed: int):
    providers = default_providers()
    providers.register("blind", partial(InputProvider, demand=BlindDemand))
    cluster = SimulatedCluster(paper_topology(), providers=providers, seed=seed)
    predicate = predicate_for_skew(0)
    cluster.load_dataset("/d", dataset_for(scale, 0, seed))
    conf = make_sampling_conf(
        name=f"blind-{provider_name}-{scale}", input_path="/d",
        predicate=predicate, sample_size=10_000, policy_name="HA",
        provider_name=provider_name,
    )
    return cluster.run_job(conf)


def test_blind_grabbing_breaks_size_independence(run_once):
    def experiment():
        rows = []
        for provider_name in ("sampling", "blind"):
            for scale in (5, 100):
                responses, partitions = [], []
                for seed in (0, 1):
                    result = run_variant(provider_name, scale, seed)
                    assert result.outputs_produced == 10_000
                    responses.append(result.response_time)
                    partitions.append(result.splits_processed)
                rows.append(
                    [
                        provider_name,
                        f"{scale}x",
                        sum(responses) / len(responses),
                        sum(partitions) / len(partitions),
                    ]
                )
        return rows

    rows = run_once(experiment)
    print()
    print(
        render_table(
            ("Provider", "Scale", "Response (s)", "Partitions/job"),
            rows,
            title="Ablation — uninformed wait vs blind grabbing (HA, uniform)",
        )
    )
    by_key = {(row[0], row[1]): row for row in rows}

    # With the wait, HA's response and work stay flat across 5x -> 100x.
    assert (
        by_key[("sampling", "100x")][2] <= by_key[("sampling", "5x")][2] * 2.0
    )
    # Blind grabbing processes several times more partitions at scale...
    assert (
        by_key[("blind", "100x")][3] >= 2 * by_key[("sampling", "100x")][3]
    )
    # ...and is no faster for it.
    assert by_key[("blind", "100x")][2] >= by_key[("sampling", "100x")][2] * 0.95
