"""Run every workload and print its metrics; compare saved reports; record
the per-seed output checksums.

    python3 perfbench/report.py [--seed N] [--seconds S] [--save FILE]
    python3 perfbench/report.py --trace [--seed N] [--seconds S]
    python3 perfbench/report.py --compare OLD.json NEW.json
    python3 perfbench/report.py --record-checksums 0-31

The first form runs each workload in its own process (so peak memory is
that workload's) and prints every end-to-end metric with its unit, the
failure ratio, the 99th-percentile latency where a run has at least 1,000
objects, and the checksum verdict.  ``--trace`` prints the per-layer table
and the tracing overhead instead.  ``--save`` writes the results together
with the kernel backend, Python version and CPU count; ``--compare``
refuses to compare two saved reports whose backends differ.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
ENV_KEYS = ("backend", "python", "nproc")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    child = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise SystemExit(f"{name} failed:\n{child.stderr}")
    lines = child.stdout.splitlines()
    info = json.loads(lines[-2].removeprefix("# info "))
    return {"workload": name, "info": info, "result": json.loads(lines[-1])}


def print_results(results: list[dict]) -> None:
    for entry in results:
        info, result = entry["info"], entry["result"]
        print(f"{entry['workload']}  seed {info['seed']}  "
              f"backend {info['backend']}  python {info['python']}  "
              f"nproc {info['nproc']}")
        print(f"  checksum {info['checksum']} ({info['checksum_verdict']})  "
              f"objects {result['attempted']}  failed_ratio "
              f"{info['failed_ratio']:.4g}  correct {result['correct']}")
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if info.get("object_p99_ms") is not None:
            rows.append(("object_p99_ms", info["object_p99_ms"], "ms"))
        for key, value, unit in rows:
            print(f"  {key:<36} {value:>14.6g} {unit}")


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    if old["env"]["backend"] != new["env"]["backend"]:
        print(f"refusing to compare: kernel backends differ "
              f"({old['env']['backend']} vs {new['env']['backend']})",
              file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    before = {e["workload"]: e["result"]["metrics"] for e in old["results"]}
    worse = False
    for entry in new["results"]:
        name = entry["workload"]
        for key, metric in entry["result"]["metrics"].items():
            if name not in before or key not in before[name]:
                continue
            was, now = before[name][key]["value"], metric["value"]
            change = now / was - 1 if was else 0.0
            note = ""
            if key in spec:
                loss = -change if spec[key]["better"] == "higher" else change
                if loss > spec[key]["bound"]:
                    note, worse = "  WORSE than bound", True
            print(f"{name:<18} {key:<36} {was:>12.6g} -> {now:<12.6g} "
                  f"{change:+.1%}{note}")
    return 1 if worse else 0


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def record_checksums(seeds: list[int]) -> int:
    """Check each seed's quota of objects and store the output digests."""
    workloads = run.load_workloads()
    with open(run.CHECKSUMS, encoding="utf-8") as handle:
        table = json.load(handle)
    workdir = run.OUT_DIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in workloads.items():
            for seed in seeds:
                _, pool, _, _ = run.setup(name, seed, str(workdir))
                run.clear_caches()
                done = run.Pass().run(workload, pool, 0)
                if done.failed:
                    print(f"{name} seed {seed}: {done.failed} objects failed; "
                          "not recorded", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = done.quota_digest
            print(f"{name}: recorded seeds {seeds[0]}-{seeds[-1]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.CHECKSUMS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true",
                        help="print the per-layer table of a traced run")
    parser.add_argument("--save", help="write the results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--record-checksums", metavar="SEEDS",
                        help="seed range such as 0-31")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record_checksums:
        return record_checksums(parse_seeds(args.record_checksums))

    results = [run_workload(name, args.seed, args.seconds, args.trace)
               for name in run.load_workloads()]
    print_results(results)
    if args.save:
        env = {key: results[0]["info"][key] for key in ENV_KEYS}
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "trace": args.trace, "results": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(e["result"]["correct"] for e in results) else 1


if __name__ == "__main__":
    sys.exit(main())
