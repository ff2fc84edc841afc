"""Every benchmark workload builds, prepares and passes its output checks on
one operation, so a change to otfusion that breaks what ``perfbench`` uses
of it (a split's samples, a function's name or result) fails here rather
than in a refused benchmark run."""

import pytest

from test_perfbench_targets import load_perfbench

SEED = 2701

workloads = load_perfbench("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_one_operation(name):
    workload = workloads.WORKLOADS[name](SEED)
    workload.prepare()
    result = workload.op()
    checks = result if isinstance(result, list) else [result]
    assert checks and all(checks), f"{name}: checks {checks}"
