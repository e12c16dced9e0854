"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench

Checks that each run passes its output checks, emits every metric that
``BENCHMARK.json`` names with its unit, that traced spans nest inside their
parents, and that per operation the self times add up to the operation's
traced wall time.  It also checks that the benchmark refuses to run without
the package sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "mc-ar1-p16-n32": {"p": 6},
    "estimate-arma-p128": {"p": 12, "n": 16},
}

#: Entry points each workload must reach, reached through different module
#: bindings (``bench``, ``cli``, ``likelihood`` and the defining modules).
REACHED = {
    "mc-ar1-p16-n32": {"bench.run_benchmark", "processes.sample", "estimators.tune_box_family",
                   "estimators.estimate_pgd", "likelihood.value", "likelihood.gradient",
                   "toeplitz.ar_to_autocov", "baselines.em_toeplitz", "baselines.sample_cov"},
    "estimate-arma-p128": {"cli.main", "estimators.estimate_frob", "constraints.frob_constraint",
                           "toeplitz.fib_seq", "baselines.circulant_mle", "baselines.cv_tune_mask",
                           "toeplitz.diag_sums"},
}


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(REACHED) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run(name, trace):
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    line, _, path = harness.run(name, 7, 0.01, trace, workload=workload)
    assert line["correct"], json.loads(path.read_text())["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    if not trace:
        return
    payload = json.loads(path.read_text())
    spans = [json.loads(row) for row in path.with_name(path.stem + "-spans.jsonl").read_text().splitlines()]
    assert spans and payload["untraced_targets"] == []
    assert REACHED[name] <= set(payload["span_stats"])
    _, self_times = tracing.summarize(spans)
    assert payload["mismatched_outputs"] == [] and harness.check_spans(spans, self_times) == []
    roots = [i for i, rec in enumerate(spans) if rec[tracing.PARENT] < 0]
    assert len(roots) == len(payload["ops"])
    for i, op in zip(roots, payload["ops"]):
        rec = spans[i]
        members = [j for j, other in enumerate(spans) if other[tracing.OP] == rec[tracing.OP]]
        for j in members:
            parent = spans[j][tracing.PARENT]
            if parent >= 0:
                assert spans[parent][tracing.START] <= spans[j][tracing.START]
                assert spans[j][tracing.END] <= spans[parent][tracing.END]
        wall = rec[tracing.END] - rec[tracing.START]
        assert sum(self_times[j] for j in members) == pytest.approx(wall, rel=1e-9, abs=1e-12)
        assert wall == pytest.approx(op["wall_s"], abs=1e-3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mc-ar1-p16-n32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
