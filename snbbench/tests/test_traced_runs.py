"""Two traced runs of one seed must give identical per-layer counts."""

import pytest

import harness
from workloads import WORKLOADS

COUNT_UNITS = {"count", "ratio", "B", "KiB"}


def traced(workload, root):
    result = harness.run(
        WORKLOADS[workload], seed=3, seconds=1, trace=True, root=root,
        scale="SF1", setups=1, warmup_ops=60, trace_ops=120,
    )
    assert result.correct
    assert result.failed == 0
    # Pool workers and multiprocessing's resource tracker all end cleanly.
    assert harness.stop_child_processes() == []
    assert harness._child_pids() == []
    return harness.per_layer(result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_counts_repeat_exactly(workload, tmp_path):
    first = traced(workload, tmp_path)
    second = traced(workload, tmp_path)
    counts = [n for n, unit in harness.LAYER_UNITS.items() if unit in COUNT_UNITS]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["engine.execute_calls_per_op"] > 0
