"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/tests/selftest.py

They run each workload in-process on a small slice of its inputs.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Exact metrics: they must repeat bit for bit for one seed.
EXACT_END_TO_END = ("gen_rel_perf", "winner_runtime_geo")
EXACT_PER_LAYER = (
    "backend.served.scalar", "backend.served.interp",
    "backend.served.compiled", "backend.served.fused",
    "rewrite.enumerated", "rewrite.dedup_hit_frac",
    "rewrite.evaluated_per_finished",
)


def small(name: str, seed: int, tmp_path, trace: bool):
    """A workload on a slice of its inputs, set up."""
    scratch = str(tmp_path / f"{name}-{seed}-{int(trace)}")
    if name == "figure8":
        workload = workloads.Figure8(seed, scratch, trace,
                                     benchmarks=("nn", "gemv"))
    elif name == "explore":
        workload = workloads.Explore(seed, scratch, trace, problems=("nn",),
                                     sizes=("small",))
    else:
        workload = workloads.Serve(seed, scratch, trace)
    workload.setup()
    return workload


def measure(name: str, seed: int, tmp_path, trace: bool):
    workload = small(name, seed, tmp_path, trace)
    if trace:
        values = run.measure_traced(workload, 0)
    else:
        workload.measure(0)
        workload.close()
        values = run.end_to_end(workload, setup_s=1.0)
    return workload, values


def test_declared_metrics_are_well_formed():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in DECLARED["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in DECLARED["end_to_end"])}]
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_metric(name, trace, tmp_path):
    workload, values = measure(name, 3, tmp_path, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = run._emit(declared, values)
    assert list(emitted) == [m["name"] for m in declared]
    assert all(op.ok for op in workload.ops), [op.error for op in workload.ops]
    if not trace:
        assert all(v["value"] > 0 for v in emitted.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_wrong_output_counts_as_failed(name, tmp_path):
    from repro.compiler import kernel

    original = kernel.execute_kernel

    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        return kernel.RunResult(result.output + 1.0, result.counters)

    patcher = Tracer()
    patcher.rebind(original, wrong)
    try:
        workload = small(name, 5, tmp_path, trace=False)
        workload.measure(0)
        workload.close()
    finally:
        patcher.uninstall()
    failed = [op for op in workload.ops if not op.ok]
    assert failed and all(op.error for op in failed)
    latencies = run.end_to_end(workload, setup_s=1.0)
    assert latencies["ok_frac"] < 1


@pytest.mark.parametrize("name", ["figure8", "explore"])
def test_exact_metrics_repeat_for_one_seed(name, tmp_path):
    first = measure(name, 7, tmp_path / "a", trace=False)[1]
    second = measure(name, 7, tmp_path / "b", trace=False)[1]
    for metric in EXACT_END_TO_END:
        assert first[metric] == second[metric]
    first = measure(name, 7, tmp_path / "c", trace=True)[1]
    second = measure(name, 7, tmp_path / "d", trace=True)[1]
    for metric in EXACT_PER_LAYER:
        assert first[metric] == second[metric]
