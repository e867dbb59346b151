"""Tests of the benchmark itself: seeded inputs, checksums, tracing and the
output contract.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = run.load_workloads()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(name, seed, count, workdir):
    """First inputs of a workload, with input files replaced by their text."""
    items = list(islice(WORKLOADS[name].inputs(seed, str(workdir)), count))
    if name == "single-object":
        return [(argv[:2] + argv[3:], Path(argv[2]).read_text())
                for argv in items]
    return [repr(item) for item in items]


def _digest(name, seed, count, workdir):
    workload = dataclasses.replace(WORKLOADS[name], quota=count)
    items = islice(workload.inputs(seed, str(workdir)), count)
    run.clear_caches()
    done = run.Pass().run(workload, items, 0)
    assert done.failed == 0
    return done.quota_digest


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_and_checksum(name, tmp_path):
    count = 3 if name == "single-object" else 40
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    assert _inputs(name, 5, count, first) == _inputs(name, 5, count, second)
    assert _digest(name, 5, count, first) == _digest(name, 5, count, second)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_different_seed_different_inputs(name, tmp_path):
    count = 3 if name == "single-object" else 40
    assert _inputs(name, 5, count, tmp_path) != _inputs(name, 6, count, tmp_path)
    assert _digest(name, 5, count, tmp_path) != _digest(name, 6, count, tmp_path)


def test_tracer_restores_every_function():
    from tracing import Tracer
    modules = {n: m for n, m in sys.modules.items()
               if n == "vertexsplit" or n.startswith("vertexsplit.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = Tracer()
    tracer.install()
    from vertexsplit import homology
    assert homology.betti_table is not before["vertexsplit.homology"]["betti_table"]
    tracer.uninstall()
    for n, m in modules.items():
        assert all(vars(m)[k] is v for k, v in before[n].items())


def _run(name, trace):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    return json.loads(lines[-2].removeprefix("# info ")), json.loads(lines[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_output_names_every_metric(name):
    info, result = _run(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[name].quota
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert info["checksum_verdict"] == "match"
    assert {"backend", "python", "nproc", "failed_ratio",
            "object_p99_ms"} <= set(info)
    assert info["failed_ratio"] == 0

    info, traced = _run(name, 1)
    assert traced["correct"] and info["traced_matches_untraced"]
    assert info["counts_repeat"]
    assert info["checksum_verdict"] == "match"
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    if name == "recognition":
        assert traced["metrics"]["kernel.calls"]["value"] == 0


def test_compare_refuses_different_backends(tmp_path):
    import report
    saved = []
    for backend in ("python", "c"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps({"env": {"backend": backend},
                                    "results": []}))
        saved.append(str(path))
    assert report.compare(*saved) == 2
    assert report.compare(saved[0], saved[0]) == 0


def test_missing_sources_fail_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "checksums.json").write_text("{}")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recognition",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert child.returncode != 0
    assert child.stdout == ""


# benchmarks/bench_kernel.py only compares backends, so with one backend
# built it checks nothing; these are its checksums at its default scale.
BENCH_KERNEL_SUMS = {"workload_homology": 565, "workload_koszul": 5236,
                     "workload_hochster": 11304}


def test_bench_kernel_checksums_are_pinned():
    spec = importlib.util.spec_from_file_location(
        "bench_kernel", ROOT / "benchmarks" / "bench_kernel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for factory, want in BENCH_KERNEL_SUMS.items():
        _, work = getattr(module, factory)(5)
        assert module.measure(work)[1] == want, factory
