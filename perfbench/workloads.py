"""The four benchmark workloads.

A workload turns a seed into an endless stream of inputs, one per object,
and checks one object at a time.  Object k is drawn from its own
``Random(f"{name}:{seed}:{k}")``, so inputs depend on the seed and the
object index only, never on timing.  Input generation is not timed; the
check is.  A check returns ``(ok, output)``: ``ok`` is False when a
verdict is wrong or two routes disagree.  The ``repr`` of ``output`` is
hashed into the run's checksum after the timer stops, so checks return
objects with a deterministic ``repr`` rather than formatting them.

Why each workload exists (the layer it stresses, and what it bypasses):

* ``verify-graphs`` -- the graph equivalences of the acceptance suite on
  random graphs with 6-7 vertices.  The square-free oracle dominates: the
  Hochster subset loop plus complex arithmetic.  No Koszul route, no
  certificate replay.  Caches stay warm across objects.
* ``verify-splittable`` -- sampled splittable ideals (squares allowed),
  checked by three-route Betti agreement and the splitting identity at
  every certificate node.  Corpus sampling, certificate replay and the
  Koszul route dominate.
* ``recognition`` -- random complexes with 6-8 vertices: decomposability
  and splittability of the dual facet ideal, with both certificates
  replayed.  Certificate search and monomial arithmetic only; zero kernel
  calls, so kernel or oracle changes must show no change here.
* ``single-object`` -- one-shot ``vertexsplit betti`` calls on graph files
  with caches cleared before every call, as in a fresh process.  The
  kernel's rank elimination dominates; the only workload over GF(p).
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from itertools import combinations, count
from random import Random
from typing import Callable, Iterator

# Library functions are called through their modules, so that the tracer's
# wrappers, installed as module attributes, see these calls too.
from vertexsplit import (cli, complexes, corpus, decomposition, graphs,
                         homology, splitting)
from vertexsplit.formats import format_graph


@dataclass(frozen=True)
class Workload:
    name: str
    # every run checks at least this many objects; the checksum, the peak
    # memory reading and each traced pass cover exactly these first objects
    quota: int
    make_input: Callable[[Random, int, str], object]
    check: Callable[[object], tuple[bool, object]]
    # clear every cache before each object, as a fresh process would
    cold: bool = False

    def inputs(self, seed: int, workdir: str) -> Iterator[object]:
        for k in count():
            yield self.make_input(Random(f"{self.name}:{seed}:{k}"), k, workdir)


# --- verify-graphs ---------------------------------------------------------

def _graph_input(rng: Random, k: int, workdir: str):
    n = rng.randint(6, 7)
    p = rng.uniform(0.2, 0.8)
    while True:
        G = corpus.random_graph(n, p, rng)
        if G.edges:  # the equivalences need at least one edge
            return G


def _check_graph(G):
    edge = graphs.froberg_equivalence(G)
    dual = graphs.dual_complex_equivalence(G)
    return edge.all_agree and dual.all_agree, (edge, dual)


# --- verify-splittable -----------------------------------------------------

def _splittable_input(rng: Random, k: int, workdir: str):
    # the sampler itself is part of the timed work, so the input is only
    # the variable count and the sampler's seed
    return rng.randint(2, 7), rng.getrandbits(64)


def _check_splittable(item):
    n, sample_seed = item
    ideal, tree = corpus.random_splittable_ideal(n, Random(sample_seed),
                                                 max_gens=12)
    oracle = homology.koszul_betti(ideal)
    recursive = splitting.betti_recursive(tree)
    sets_route = splitting.betti_from_sets(
        splitting.quotient_order_from_split(tree, n))
    ok = oracle == recursive == sets_route
    nodes = 0
    for node, node_ideal in splitting.split_nodes(tree, n):
        part_j, part_k = splitting.node_parts(node, n)
        if not splitting.verify_betti_splitting(node_ideal, part_j, part_k):
            ok = False
        nodes += 1
    return ok, (ideal, oracle.sorted_entries(), nodes)


# --- recognition -----------------------------------------------------------

def _complex_input(rng: Random, k: int, workdir: str):
    return corpus.random_complex(rng.randint(6, 8), 8, rng)


def _check_complex(delta):
    dtree = decomposition.vertex_decomposable(delta)
    ideal = complexes.dual_facet_ideal(delta)
    stree = splitting.vertex_split(ideal)
    d_replay = (dtree is None
                or decomposition.validate_decomposition_tree(dtree, delta))
    s_replay = stree is None or splitting.validate_split_tree(stree, ideal)
    # a complex is vertex decomposable iff its dual facet ideal splits
    ok = d_replay and s_replay and (dtree is None) == (stree is None)
    return ok, (dtree, stree, d_replay, s_replay)


# --- single-object ---------------------------------------------------------

# One cycle of calls: three edge ideals with every route cross-checked and
# two cover ideals, one of them over GF(2).  Edge counts are fixed so call
# costs vary less between seeds; the edge calls are the majority, so the
# median latency lies inside their narrow distribution.
_CALLS = (
    ("edge", 12, 30, ["--ideal", "edge", "--check"]),
    ("edge", 12, 30, ["--ideal", "edge", "--check"]),
    ("cover", 9, 14, ["--ideal", "cover"]),
    ("edge", 12, 30, ["--ideal", "edge", "--check"]),
    ("cover", 9, 14, ["--ideal", "cover", "--field", "2"]),
)


def _call_input(rng: Random, k: int, workdir: str):
    kind, n, m, flags = _CALLS[k % len(_CALLS)]
    G = graphs.graph(n, rng.sample(list(combinations(range(n), 2)), m))
    path = os.path.join(workdir, f"{k}-{kind}.g")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_graph(G))
    return ["betti", "--graph", path, "--format", "flat", *flags]


def _check_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    ok = code == 0 and ("--check" not in argv or "modes agree" in text)
    return ok, (code, text)


WORKLOADS = {w.name: w for w in (
    Workload("verify-graphs", quota=600, make_input=_graph_input,
             check=_check_graph),
    Workload("verify-splittable", quota=1000, make_input=_splittable_input,
             check=_check_splittable),
    Workload("recognition", quota=4000, make_input=_complex_input,
             check=_check_complex),
    Workload("single-object", quota=5, make_input=_call_input,
             check=_check_call, cold=True),
)}
