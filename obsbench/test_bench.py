"""Checks of the benchmark's traced run and of its metric declarations.

    python3 -m pytest obsbench/test_bench.py      # from the repository root

Takes a few minutes: round 0 of each workload runs twice, each time
untraced and then traced.
"""

import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
# Per-layer metrics that are work counts or ratios of counts, not times.
COUNTS = [name for name, (unit, _) in tracing.PER_LAYER.items()
          if unit in ("count", "ratio", "bytes")]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of round 0 of every workload, on one seed."""
    sys.path.insert(0, str(ROOT / "src"))
    tmp = tmp_path_factory.mktemp("obsbench")
    return {w: [run.traced_run(w, SEED, tmp / f"{w}-{i}") for i in range(2)]
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced(traced, workload):
    out = traced[workload][0]
    assert out.failures == [] and out.problems == []
    assert len(out.plain) == len(out.traced) == out.attempted
    for plain, traced_result in zip(out.plain, out.traced):
        assert run.fingerprint(plain) == run.fingerprint(traced_result)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(traced, workload):
    first, second = traced[workload]
    counts = {name: first.metrics[name][0] for name in COUNTS}
    assert counts == {name: second.metrics[name][0] for name in COUNTS}
    assert first.record["n_spans"] == second.record["n_spans"]
    assert counts["ode_core.stage_values.calls"] > 0


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
