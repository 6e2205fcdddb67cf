"""Figure 8 (NYC): effect of the pickup deadline range [rt-_min, rt-_max].

Shape to reproduce (paper Section 7.2.1):

- utilities of every approach increase as the range widens (more valid
  vehicles per rider);
- GBS+BA and BA achieve the top utilities; CF the lowest;
- CF is the fastest; BA the slowest; the GBS variants accelerate / match
  their base methods.

The runtime ordering is asserted on the median of ``TIMING_ROUNDS``
solves per method at the default range: GBS+BA and BA are within a few
percent of each other there, so one solve each orders them by noise.
"""

import statistics

from benchmarks.conftest import (
    assert_ba_family_on_top,
    assert_cf_worst_utility,
    record,
    run_once,
)
from repro.core.solver import solve
from repro.experiments.config import make_workbench
from repro.experiments.figures import fig8_deadline_range

#: Solves per method whose median runtime is compared.
TIMING_ROUNDS = 5


def median_runtimes(methods, deadline_range):
    """Median solve time of each method on the fig8 instance at
    ``deadline_range``, over rounds that each solve every method once."""
    bench = make_workbench(city="nyc")
    instance = bench.instance(pickup_deadline_range=deadline_range)
    samples = {m: [] for m in methods}
    for _ in range(TIMING_ROUNDS):
        for method in methods:
            assignment = solve(instance, method=method, plan=bench.plan)
            samples[method].append(assignment.elapsed_seconds)
    for method, times in samples.items():
        print(f"{method}: " + " ".join(f"{t:.3f}" for t in times))
    return {m: statistics.median(times) for m, times in samples.items()}


def test_fig8(benchmark):
    result = run_once(benchmark, fig8_deadline_range)
    record(result)
    # utilities grow with the deadline range for every approach
    for method in result.methods():
        series = result.series(method)
        assert series[0] < series[-1], f"{method} did not grow with the range"
    assert_cf_worst_utility(result)
    assert_ba_family_on_top(result)
    # CF fastest / BA slowest at the default range
    runtimes = median_runtimes(result.methods(), (10, 30))
    assert runtimes["cf"] == min(runtimes.values())
    assert runtimes["ba"] == max(runtimes.values())
