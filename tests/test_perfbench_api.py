"""The benchmark's workloads run against the current API, and keep their stored bytes.

Each workload in ``perfbench/workloads.py`` is built in-process at its "tiny"
size and runs one operation; its output gate and oracle must find nothing. A
change to a signature the benchmark calls then fails here, not in a benchmark
run. At full size, one operation of each workload must reproduce the digest
stored in ``perfbench/reference.json`` (read only, through
``perfbench/child.py``) for seeds 0-2, on the platform that stored it. The
full stream is the one stored digest whose block spans several of the
masked product's column tiles. Traced in-process through
``perfbench/spans.py``, each tiny workload must spend time in exactly the
layers it declares.
"""

import importlib.util
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
child = _load("child")
spans = _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    wl = workloads.build(name, 7, "tiny", str(tmp_path))
    out = wl.call()
    _digest, _stats, problems = wl.check(out)
    assert problems == []
    assert wl.oracle(out) == []


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_traced_workload_runs_its_declared_layers(name, tmp_path):
    # a call that moves from one layer to another changes which layers the
    # per-layer metrics charge; the declared modules must follow it
    wl = workloads.build(name, 7, "tiny", str(tmp_path))
    recorder = spans.Recorder()
    out, _wall = recorder.run(1, workloads.MODULES, wl.call)
    m = spans.layer_metrics(recorder.spans, recorder.keys, wl.blocks_span, wl.probe_vectors(out))
    busy = {layer for layer in spans.LAYERS if m[f"{layer}.self_ms_per_block"] > 0}
    assert busy == set(workloads.META[name]["modules"])
    if wl.p.get("workers", 1) == 1:
        # serial runs: the spans' self times add up to the traced wall time
        assert m["trace.self_sum_pct"] == pytest.approx(100.0, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["ber-default", "ber-antenna-long", "sweep-small",
                                  "stream-trace"])
def test_workload_reproduces_stored_digest(name, seed, tmp_path):
    wl = workloads.build(name, seed, "full", str(tmp_path))
    stored, how = child.stored_reference(name, "full", seed, child.versions()["fingerprint"],
                                         workloads.params_digest(wl.p))
    if stored is None:
        pytest.skip(how)
    digest, _stats, problems = wl.check(wl.call())
    assert problems == []
    assert digest == stored
