"""The benchmark's own tests: trace counts repeat, and BENCHMARK.json matches.

Run from the root of a checkout with ``python3 -m pytest perfbench``; the
trace test runs every workload twice, traced, and takes a few minutes.
"""

import json
import os

import pytest

import run
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS


def _counts(metrics):
    units = dict(PER_LAYER)
    return {k: v for k, v in metrics.items() if units[k] == "count"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_between_traced_passes(workload, tmp_path):
    kposim = run.import_kposim()
    experiments = WORKLOADS[workload](7)
    counts = []
    tracer = Tracer()
    with tracer:
        for _ in range(2):
            tracer.reset()
            _, failures = run.run_pass(kposim.cli, experiments, str(tmp_path))
            assert failures == []
            counts.append(_counts(tracer.metrics()))
    assert counts[0] == counts[1]
    assert counts[0]["model.hamiltonian_at.calls"] > 0
    assert counts[0]["trace.absent_targets"] == 0


def test_wrappers_are_removed_after_the_traced_run():
    kposim = run.import_kposim()
    original = kposim.dynamics.parallel_map
    with Tracer():
        assert kposim.dynamics.parallel_map is not original
    assert kposim.dynamics.parallel_map is original


def test_missing_target_is_reported_absent(monkeypatch):
    kposim = run.import_kposim()
    monkeypatch.delattr(kposim.parallel, "parallel_map")
    with Tracer() as tracer:
        pass
    assert "parallel.parallel_map" in tracer.absent


def test_declared_metrics_match_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
