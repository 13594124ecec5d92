"""The benchmark's workloads run against the current API at their smallest size.

Each workload in ``perfbench/workloads.py`` is built in-process at its "tiny"
size and runs one operation; its output gate and oracle must find nothing. A
change to a signature the benchmark calls then fails here, not in a benchmark
run.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    wl = workloads.build(name, 7, "tiny", str(tmp_path))
    out = wl.call()
    _digest, _stats, problems = wl.check(out)
    assert problems == []
    assert wl.oracle(out) == []
