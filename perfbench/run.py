"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports vertexsplit from
``src``.  One process runs one workload as a closed loop on one thread:
one object at a time, the next starting when the previous one finishes.
Caches start empty.  Inputs come only from ``--seed``.

``--trace 0`` checks objects until ``--seconds`` have passed and at least
the workload's quota of objects is done, then reports the end-to-end
metrics: ``objects_per_s``, ``object_p50_ms``, ``peak_rss_mb`` (peak
resident memory once the quota is done, so a faster program is not charged
for the larger caches of a longer run) and ``setup_s`` (median over fresh
processes of import time plus input generation and file writing).

``--trace 1`` repeats passes over the quota's objects, caches cleared
before each pass, alternating untraced and traced passes until
``--seconds`` have passed.  It reports the median per-layer metrics of the
traced passes and ``trace_overhead_ratio`` (median traced pass time over
median untraced pass time, minus one), and writes the spans of the last
traced pass under ``.perfbench/``.

Every run hashes the per-object outputs of its first quota objects and
compares the digest with the one recorded for the seed in
``checksums.json``.  A mismatch counts every object as failed; so does a
traced pass whose digest differs from the untraced one.  The line before
the last carries the run's environment (kernel backend, Python version,
CPU count), the checksum verdict, the failure ratio and, for runs of at
least 1,000 objects, the 99th-percentile latency.  The last line is the
result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from itertools import chain, islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
CHECKSUMS = HERE / "checksums.json"
SETUP_SAMPLES = 9
P99_MIN_OBJECTS = 1000


def load_workloads():
    """Import the workloads (and with them vertexsplit) from the checkout."""
    if not (ROOT / "src" / "vertexsplit" / "__init__.py").is_file():
        raise SystemExit(f"error: no vertexsplit sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads.WORKLOADS


def setup(name: str, seed: int, workdir: str):
    """Import, then generate the quota's inputs (writing any input files)."""
    start = time.perf_counter()
    workload = load_workloads()[name]
    stream = workload.inputs(seed, workdir)
    pool = list(islice(stream, workload.quota))
    return workload, pool, stream, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def clear_caches() -> None:
    import vertexsplit
    vertexsplit.clear_caches()


class Pass:
    """Latencies, failures and the output digest of a sequence of objects."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.quota_digest = None
        self.quota_rss = None

    def run(self, workload, items, stop, tracer=None) -> "Pass":
        clock = time.perf_counter
        begin = clock()
        for item in items:
            if workload.cold:
                clear_caches()
            t0 = clock()
            try:
                if tracer is None:
                    ok, output = workload.check(item)
                else:
                    with tracer.object():
                        ok, output = workload.check(item)
            except Exception as exc:  # a raising object counts as failed
                t1 = clock()
                ok, output = False, f"raised {type(exc).__name__}: {exc}"
                if self.failed < 3:
                    traceback.print_exc(file=sys.stderr)
            else:
                t1 = clock()
            self.latencies.append(t1 - t0)
            self.failed += not ok
            self.digest.update(repr(output).encode())
            self.digest.update(b"\n")
            done = len(self.latencies)
            if done == workload.quota:
                self.quota_digest = self.digest.hexdigest()[:16]
                self.quota_rss = peak_rss_mb()
            if done >= workload.quota and clock() - begin >= stop:
                break
        return self

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def recorded_checksum(name: str, seed: int):
    with open(CHECKSUMS, encoding="utf-8") as handle:
        return json.load(handle).get(name, {}).get(str(seed))


def environment() -> dict:
    from vertexsplit import kernel
    return {"backend": kernel.active_backend(),
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def run_plain(workload, pool, stream, seed, seconds):
    clear_caches()
    done = Pass().run(workload, chain(pool, stream), seconds)
    lat = sorted(done.latencies)
    metrics = {
        "objects_per_s": (len(lat) / done.busy, "1/s"),
        "object_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "peak_rss_mb": (done.quota_rss, "MB"),
        "setup_s": (measure_setup(workload.name, seed), "s"),
    }
    extra = {"object_p99_ms": (lat[int(0.99 * len(lat))] * 1000
                               if len(lat) >= P99_MIN_OBJECTS else None)}
    return [done], done.quota_digest, metrics, extra


def run_traced(workload, pool, seed, seconds):
    from tracing import Tracer
    passes, traced, samples = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        clear_caches()
        passes.append(Pass().run(workload, pool, 0))
        clear_caches()
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(Pass().run(workload, pool, 0, tracer))
        finally:
            tracer.uninstall()
        samples.append(tracer.layer_metrics())
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{workload.name}-{seed}.tsv"))
    metrics = {}
    for key in samples[0]:
        unit = ("s" if key.endswith("_s") else
                "ratio" if key.endswith("_ratio") else "count")
        metrics[key] = (statistics.median(s[key] for s in samples), unit)
    untraced = statistics.median(p.busy for p in passes)
    metrics["trace_overhead_ratio"] = (
        statistics.median(p.busy for p in traced) / untraced - 1, "ratio")
    digests = {p.quota_digest for p in passes + traced}
    counts = {tuple(v for k, v in s.items() if not k.endswith("_s"))
              for s in samples}
    extra = {"traced_matches_untraced": len(digests) == 1,
             "counts_repeat": len(counts) == 1}
    return passes + traced, passes[0].quota_digest, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            workload, pool, stream, setup_time = setup(
                args.workload, args.seed, str(workdir))
        except KeyError:
            parser.error(f"unknown workload {args.workload!r}")
        if args.setup_only:
            print(f"{setup_time:.9f}")
            return 0
        if args.trace:
            runs, digest, metrics, extra = run_traced(
                workload, pool, args.seed, args.seconds)
        else:
            runs, digest, metrics, extra = run_plain(
                workload, pool, stream, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    recorded = recorded_checksum(workload.name, args.seed)
    verdict = ("unrecorded" if recorded is None else
               "match" if recorded == digest else "mismatch")
    if verdict == "mismatch" or not extra.get("traced_matches_untraced", True):
        failed = attempted
    info = {"workload": workload.name, "seed": args.seed, **environment(),
            "checksum": digest, "checksum_verdict": verdict,
            "failed_ratio": failed / attempted, **extra}
    print("# info " + json.dumps(info, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
