"""Time the kernel on three workloads and check their answers.

Three workloads, all deterministic: reduced homology of random complexes,
upper-Koszul Betti tables of random splittable ideals, and full oracle
tables for edge ideals of random graphs (the subset-restriction route).
Caches are cleared before each run.  At the default scale every checksum
must equal its pinned value; a mismatch exits non-zero.

Run:  python benchmarks/bench_kernel.py [--count N]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from random import Random

# import vertexsplit from this checkout's src, installed or not
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import vertexsplit
from vertexsplit import kernel
from vertexsplit.corpus import random_complex, random_graph, random_splittable_ideal
from vertexsplit.graphs import edge_ideal
from vertexsplit.homology import QQ, hochster_betti, koszul_betti


def workload_homology(scale: int):
    rng = Random(1)
    complexes = [random_complex(7, 8, rng) for _ in range(scale * 400)]

    def run():
        total = 0
        for delta in complexes:
            dims = kernel.homology_dims(delta.sorted_facets(), 0)
            total += sum(dims)
        return total

    return "reduced homology, random complexes on 7 vertices", run


def workload_koszul(scale: int):
    rng = Random(2)
    ideals = [random_splittable_ideal(7, rng, max_gens=12)[0]
              for _ in range(scale * 150)]

    def run():
        total = 0
        for ideal in ideals:
            total += sum(koszul_betti(ideal, QQ).entries.values())
        return total

    return "upper-Koszul tables, random splittable ideals", run


def workload_hochster(scale: int):
    rng = Random(3)
    graphs = [random_graph(6, 0.4, rng) for _ in range(scale * 100)]
    ideals = [edge_ideal(G) for G in graphs if G.edges]

    def run():
        total = 0
        for ideal in ideals:
            table = hochster_betti(ideal, QQ)
            total += sum(table.entries.values())
        return total

    return "subset-restriction tables, random graph edge ideals", run


DEFAULT_COUNT = 5

# checksums at DEFAULT_COUNT; the answers are exact
PINNED_SUMS = {workload_homology: 565, workload_koszul: 5236,
               workload_hochster: 11304}


def measure(run) -> tuple[float, int]:
    vertexsplit.clear_caches()
    start = time.perf_counter()
    checksum = run()
    return time.perf_counter() - start, checksum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT,
                        help="workload scale factor")
    args = parser.parse_args()

    for factory, pinned in PINNED_SUMS.items():
        label, run = factory(args.count)
        seconds, checksum = measure(run)
        print(f"{seconds:8.3f}s  checksum {checksum:>6}  {label}")
        if args.count == DEFAULT_COUNT and checksum != pinned:
            raise SystemExit(f"CHECKSUM MISMATCH: {label}: got {checksum}, "
                             f"pinned {pinned}")


if __name__ == "__main__":
    main()
