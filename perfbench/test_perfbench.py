"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    python3 -m pytest -p no:cacheprovider perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5


def run(workload, cwd=ROOT, trace=1):
    # The loop checks the elapsed job time before each job, so a tiny
    # --seconds runs exactly one job: job 0, which is traced.
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1e-9", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def traced_counters(workload):
    proc = run(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    trace_file = ROOT / ".perfbench" / f"trace-{workload}-seed{SEED}.json"
    records = json.loads(trace_file.read_text())["records"]
    return [job["counters"] for job in records if job["traced"]]


#: Store entries embed build times and timestamps, so their sizes vary
#: by a few bytes between runs; every other counter repeats exactly.
STORE_BYTES = ("store.bytes_written", "store.bytes_read")


def split(counters):
    exact = [{k: v for k, v in c.items() if k not in STORE_BYTES}
             for c in counters]
    sizes = [c.get(k, 0) for c in counters for k in STORE_BYTES]
    return exact, sizes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_at_a_fixed_seed(workload):
    first = traced_counters(workload)
    assert first and all(first)
    exact, sizes = split(first)
    exact_again, sizes_again = split(traced_counters(workload))
    assert exact == exact_again
    assert sizes_again == pytest.approx(sizes, rel=1e-2)
    if workload in ("ladder-sparse-cold", "mc-family"):
        # Well-separated Π: rank 18 in 6 rounds on a cold build.  A
        # grinding Π would grow its rank towards n.
        for counters in first:
            assert 0 < counters["linalg.pi_rank"] <= 24
            assert counters["linalg.pi_rounds"] > 0
            assert counters["linalg.soft_accepts"] == 0


def test_untraced_run_prints_the_end_to_end_metrics():
    proc = run("query-mix", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"]
    for metric in BENCH["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


def test_a_missing_layer_boundary_fails_the_traced_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing
    from repro.mor.assoc import AssociatedTransformMOR

    gone = ("repro.mor.assoc", "AssociatedTransformMOR", "no_such_method",
            "mor.gone")
    monkeypatch.setattr(tracing, "_METHOD_SPANS",
                        tracing._METHOD_SPANS + [gone])
    reduce = vars(AssociatedTransformMOR)["reduce"]
    with pytest.raises(LookupError, match="no_such_method"):
        with tracing.instrument(tracing.Tracer(), full_states=1):
            pass
    # Nothing was patched before the lookup failed.
    assert vars(AssociatedTransformMOR)["reduce"] is reduce


def test_fails_without_the_program_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run(WORKLOADS[0], cwd=bare, trace=0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
