"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces selected vertexsplit functions with wrappers that
record one span per call: name, start, end and parent.  A function is
replaced in every vertexsplit module that holds it, because names such as
`betti_table`, `minimalize` and `restrict_masks` are imported into other
modules and looked up there.  Spans are recorded only inside an object's
root span, kept in flat arrays in memory and written out at the end.

A recursive call (a span whose parent has the same name) is not recorded
separately, so its time stays in the outermost call.  Generator functions
are not wrapped; the functions they call are.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

# function -> layer, per module.  The span name is "<module>.<function>",
# with both kernel backends named "kernel".
LAYERS = {
    "kernel": {
        "homology_dims": "kernel", "koszul_table": "kernel",
        "rank_int": "kernel", "rank_mod": "kernel",
    },
    "homology": {
        "hochster_betti": "homology.hochster",
        "koszul_betti": "homology.koszul",
        "betti_table": "homology", "reduced_homology_dims": "homology",
        "has_linear_resolution": "homology", "is_cohen_macaulay": "homology",
    },
    "complexes": dict.fromkeys((
        "restrict_masks", "complex_of_ideal", "minimal_nonfaces",
        "stanley_reisner_ideal", "alexander_dual_complex",
        "dual_facet_ideal", "deletion", "link", "from_facets",
        "from_facet_masks", "induced_subcomplex"), "complexes"),
    "monomials": dict.fromkeys((
        "minimalize", "colon", "intersect", "is_subideal", "x_partition",
        "multiply", "alexander_dual_ideal"), "monomials"),
    "splitting": {
        "vertex_split": "splitting.search",
        "find_linear_quotients": "splitting.search",
        "_rebuild": "splitting.replay",
        "validate_split_tree": "splitting.replay",
        "node_parts": "splitting.replay",
        "quotient_order_from_split": "splitting.replay",
        "verify_linear_quotient_order": "splitting.replay",
        "betti_recursive": "splitting", "betti_from_sets": "splitting",
        "verify_betti_splitting": "splitting",
    },
    "decomposition": {
        "vertex_decomposable": "decomposition.search",
        "validate_decomposition_tree": "decomposition.replay",
    },
    "graphs": dict.fromkeys((
        "edge_ideal", "cover_ideal", "complement", "independence_complex",
        "clique_complex", "is_chordal", "froberg_equivalence",
        "dual_complex_equivalence", "domination_shedding",
        "is_scm_bipartite", "cover_betti_recursive", "chordal_split",
        "delete_vertices", "simplicial_vertex", "shedding_vertices"),
        "graphs"),
    "corpus": dict.fromkeys((
        "random_graph", "random_complex", "random_splittable_ideal"),
        "corpus"),
    "cli": {"main": "cli"},
}

_MODULES = {
    "kernel": ("vertexsplit._kernel_py", "vertexsplit._kernel_c"),
}

ROOT = "object"


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names = [ROOT]          # span-name id -> span name
        self.layer_of = {ROOT: ROOT}  # span name -> layer
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nonzero = 0              # homology_dims calls with a nonzero result
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def object(self):
        """Root span of one benchmark object; spans outside it are dropped."""
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, nid: int, orig, count_nonzero: bool):
        stack, span_name = self._stack, self.span_name
        opener, closer = self._open, self._close

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not stack or span_name[stack[-1]] == nid:
                return orig(*args, **kwargs)
            idx = opener(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                closer(idx)
            if count_nonzero and any(result):
                self.nonzero += 1
            return result

        return wrapper

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever vertexsplit looks it up."""
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "vertexsplit" or name.startswith("vertexsplit.")]
        for short, functions in LAYERS.items():
            for modname in _MODULES.get(short, ("vertexsplit." + short,)):
                module = sys.modules.get(modname)
                if module is None:
                    continue
                for func, layer in functions.items():
                    orig = getattr(module, func)
                    if inspect.isgeneratorfunction(orig):
                        raise TypeError(f"cannot span generator {modname}.{func}")
                    span = f"{short}.{func}"
                    if span not in self.layer_of:
                        self.layer_of[span] = layer
                        self.names.append(span)
                    wrapper = self._wrapper(self.names.index(span), orig,
                                            span == "kernel.homology_dims")
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is orig:
                                setattr(holder, attr, wrapper)
                                self._patched.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    # --- results ---------------------------------------------------------

    def write(self, path: str) -> None:
        """One line per span: id, parent id, name, start and end seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                handle.write(f"{i}\t{self.parent[i]}\t"
                             f"{self.names[self.span_name[i]]}\t"
                             f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer plus the call counts and hit ratios."""
        n = len(self.span_name)
        self_time = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= self.end[i] - self.start[i]
        nid = {name: k for k, name in enumerate(self.names)}
        layers = [self.layer_of[name] for name in self.names]
        by_layer = dict.fromkeys(sorted(set(layers)), 0.0)
        calls = [0] * len(self.names)
        for i in range(n):
            by_layer[layers[self.span_name[i]]] += self_time[i]
            calls[self.span_name[i]] += 1

        def count(span):
            return calls[nid[span]] if span in nid else 0

        rank_ids = {nid.get("kernel.rank_int"), nid.get("kernel.rank_mod")}
        route_ids = {nid.get("homology.hochster_betti"),
                     nid.get("homology.koszul_betti")}
        with_rank, with_route = set(), set()
        kernel_entries = 0
        for i in range(n):
            name = self.span_name[i]
            p = self.parent[i]
            if name in rank_ids:
                with_rank.add(p)
            if name in route_ids:
                with_route.add(p)
            if layers[name] == "kernel" and layers[self.span_name[p]] != "kernel":
                kernel_entries += 1
        hom_id = nid.get("kernel.homology_dims")
        table_id = nid.get("homology.betti_table")
        hom_calls = count("kernel.homology_dims")
        table_calls = count("homology.betti_table")
        hom_hits = sum(1 for i in range(n) if self.span_name[i] == hom_id
                       and i not in with_rank)
        table_hits = sum(1 for i in range(n) if self.span_name[i] == table_id
                         and i not in with_route)

        def ratio(a, b):
            return a / b if b else 0.0

        metrics = {f"{layer}.self_s": t for layer, t in by_layer.items()}
        metrics.update({
            "kernel.calls": kernel_entries,
            "kernel.rank.calls": count("kernel.rank_int")
                                 + count("kernel.rank_mod"),
            "kernel.homology.calls": hom_calls,
            "kernel.homology_cache_hit_ratio": ratio(hom_hits, hom_calls),
            "kernel.nonzero_ratio": ratio(self.nonzero, hom_calls),
            "homology.table.calls": table_calls,
            "homology.table_cache_hit_ratio": ratio(table_hits, table_calls),
            "complexes.restrict_masks.calls": count("complexes.restrict_masks"),
            "monomials.minimalize.calls": count("monomials.minimalize"),
            "corpus.calls": sum(calls[k] for k, name in enumerate(self.names)
                                if layers[k] == "corpus"),
        })
        return metrics
