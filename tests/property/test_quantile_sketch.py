"""Property-based tests for the log-bucket histogram as a quantile sketch.

The telemetry hub keeps one :class:`~repro.obs.metrics.Histogram` per
job and latency kind and reads p50/p95/p99 from it while the job runs.
The rank-error contract is the log-bucket guarantee: a reported quantile
and the true sample quantile always share a bucket, so their ratio is
bounded by one bucket width (``10 ** (1 / BUCKETS_PER_DECADE)``).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import BUCKETS_PER_DECADE, Histogram

#: One log-bucket width; estimate and truth always share a bucket.
BUCKET_FACTOR = 10.0 ** (1.0 / BUCKETS_PER_DECADE) * (1.0 + 1e-9)

positive_values = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)

any_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=200,
)

quantiles = st.floats(min_value=0.0, max_value=1.0)


def sketch_of(values) -> Histogram:
    return Histogram("s", values)


class TestRankError:
    @settings(max_examples=50, deadline=None)
    @given(values=positive_values, q=quantiles)
    def test_quantile_within_one_bucket_of_truth(self, values, q):
        sketch = sketch_of(values)
        estimate = sketch.quantile(q)
        rank = max(1, math.ceil(q * len(values)))
        truth = sorted(values)[rank - 1]
        assert estimate is not None
        assert truth / BUCKET_FACTOR <= estimate <= truth * BUCKET_FACTOR

    @settings(max_examples=50, deadline=None)
    @given(values=any_values, q=quantiles)
    def test_quantile_clamped_to_observed_range(self, values, q):
        sketch = sketch_of(values)
        estimate = sketch.quantile(q)
        if not values:
            assert estimate is None
        else:
            assert min(values) <= estimate <= max(values)


class TestEdges:
    def test_empty_sketch(self):
        sketch = Histogram("s")
        assert sketch.quantile(0.5) is None
        assert sketch.quantiles() == {"p50": None, "p95": None, "p99": None}

    @settings(max_examples=50, deadline=None)
    @given(
        value=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        q=quantiles,
    )
    def test_single_value_answers_exactly(self, value, q):
        # min == max, so clamping collapses every quantile to the value.
        assert sketch_of([value]).quantile(q) == value
