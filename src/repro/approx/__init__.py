"""Error-bounded aggregation (ROADMAP item 2, EARL-style).

COUNT/SUM/AVG (+ GROUP BY) answered from a growing split sample, with
the Input Provider's demand rule stopping on "CI half-width <= error
target" instead of "k matches". See DESIGN.md §10.
"""

from repro.approx.estimators import (
    AggregateEstimator,
    AggregateSpec,
    GroupEstimate,
)
from repro.approx.job import (
    ApproxAggregationMapper,
    ApproxAggregationReducer,
    finalize_rows,
    make_approx_conf,
)
from repro.approx.demand import AccuracyDemand

__all__ = [
    "AccuracyDemand",
    "AggregateEstimator",
    "AggregateSpec",
    "ApproxAggregationMapper",
    "ApproxAggregationReducer",
    "GroupEstimate",
    "finalize_rows",
    "make_approx_conf",
]
