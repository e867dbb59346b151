"""Seeded corpus outputs pinned by digest.

The acceptance suites and the benchmark workloads draw their inputs from
these samplers, so a change that moves an RNG call, or builds a monomial
another way, changes every seeded run downstream.  The digests below were
recorded from the sampler as it stood; a deliberate change to the sampled
outputs must record new ones."""

from hashlib import sha256
from random import Random

from vertexsplit.corpus import random_graph, random_splittable_ideal
from vertexsplit.graphs import chordal_split, is_chordal


def digest(lines) -> str:
    return sha256("\n".join(lines).encode()).hexdigest()


SPLITTABLE_DIGEST = (
    "caf5c81871d02653118d56b2b6b168d5bdaafbce25e3ed870470a19a8cd39a4f")
CHORDAL_SPLIT_DIGEST = (
    "0b7477cd1093b44e50f2c493b02f2483cb4cff54b28c96d74da0234e8daa9098")


def test_random_splittable_ideals_are_pinned():
    lines = []
    for n in range(1, 11):
        for seed in range(12):
            I, tree = random_splittable_ideal(n, Random(seed), max_gens=12)
            lines.append(f"{n} {seed} {I!r} {tree!r}")
    assert digest(lines) == SPLITTABLE_DIGEST


def test_chordal_split_certificates_are_pinned():
    lines = []
    for n in range(2, 9):
        rng = Random(n)
        for _ in range(40):
            G = random_graph(n, rng.uniform(0.3, 0.9), rng)
            if is_chordal(G)[0]:
                lines.append(f"{G.sorted_edges()} {chordal_split(G)!r}")
    assert len(lines) > 100
    assert digest(lines) == CHORDAL_SPLIT_DIGEST
