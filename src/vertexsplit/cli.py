"""Command-line front end.

Subcommands: `betti` (tables by oracle, split recursion or set formula),
`classify` (predicates plus certificates), `verify` (theorem-check suites)
and `gen` (seeded corpus files).  Exit codes: 0 success, 1 property
violation or counterexample, 2 usage or parse error, or an input too large
to process (out of memory or recursion depth).
"""

from __future__ import annotations

import argparse
import os
import sys
from random import Random

from . import verify
from .betti import format_flat, format_grid
from .complexes import is_pure, stanley_reisner_ideal
from .corpus import random_complex, random_graph, random_splittable_ideal
from .decomposition import pd_reg_recursive, vertex_decomposable
from .formats import (ParseError, _check_size, default_names, format_complex,
                      format_decomposition_tree, format_graph, format_ideal,
                      format_quotient_order, format_scm_certificate,
                      format_split_tree, parse_complex, parse_graph,
                      parse_ideal)
from .graphs import (cover_ideal, domination_shedding, dual_complex_equivalence,
                     edge_ideal, froberg_equivalence, is_bipartite, is_chordal,
                     is_scm_bipartite)
from .homology import (betti_table, check_hochster_size, is_cohen_macaulay,
                       parse_field)
from .monomials import is_squarefree
from .splitting import (betti_from_sets, betti_recursive,
                        find_linear_quotients, quotient_order_from_split,
                        vertex_split)

USAGE_ERROR = 2
VIOLATION = 1


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _check_oracle_size(G) -> None:
    """Refuse a graph whose edge or cover ideal is too large for the
    oracle.  Both ideals are generated on the vertices that lie on an
    edge, and the Hochster loop visits the subsets of those."""
    check_hochster_size(len({v for e in G.edges for v in e}))


def _load_ideal_for_betti(args):
    """Resolve the (ideal, names) pair a betti/classify command works on."""
    if args.graph:
        choice = args.ideal or "edge"
        if choice not in ("edge", "cover"):
            raise ParseError("with --graph, --ideal selects `edge` or `cover`")
        G, names = parse_graph(_read(args.graph))
        if args.mode == "oracle" or args.check:
            # refuse before building the ideals, which can be slow
            _check_oracle_size(G)
        ideal = edge_ideal(G) if choice == "edge" else cover_ideal(G)
        return ideal, names
    if args.complex:
        delta, names = parse_complex(_read(args.complex))
        return stanley_reisner_ideal(delta), names
    if args.ideal:
        return parse_ideal(_read(args.ideal))
    raise ParseError("one of --ideal/--complex/--graph is required")


def _render_table(table, fmt: str) -> str:
    return format_grid(table) if fmt == "grid" else format_flat(table)


def cmd_betti(args) -> int:
    field = parse_field(args.field)
    ideal, names = _load_ideal_for_betti(args)
    tree = None
    if args.mode in ("recursive", "sets") or args.check:
        tree = vertex_split(ideal)
    if args.mode in ("recursive", "sets") and tree is None:
        print("input ideal is not vertex splittable; "
              f"mode {args.mode!r} needs a split certificate", file=sys.stderr)
        return VIOLATION

    tables = {}
    if args.mode == "oracle" or args.check:
        tables["oracle"] = betti_table(ideal, field)
    if tree is not None:
        tables["recursive"] = betti_recursive(tree)
        tables["sets"] = betti_from_sets(
            quotient_order_from_split(tree, ideal.num_vars))

    if args.check:
        reference = tables["oracle"]
        disagreement = [name for name, t in sorted(tables.items())
                        if t != reference]
        for name in sorted(tables):
            print(f"[{name}]")
            print(_render_table(tables[name], args.format))
        if disagreement:
            print(f"DISAGREEMENT between oracle and: {' '.join(disagreement)}",
                  file=sys.stderr)
            return VIOLATION
        print(f"all {len(tables)} modes agree")
        return 0

    print(_render_table(tables[args.mode], args.format))
    return 0


def _classify_ideal(ideal, names, args, field) -> None:
    print(f"variables: {' '.join(names)}")
    print(f"generators: {len(ideal.gens)}")
    print(f"square-free: {'yes' if is_squarefree(ideal) else 'no'}")
    tree = vertex_split(ideal)
    if tree is None:
        print("vertex splittable: no")
    else:
        print(f"vertex splittable: yes; certificate "
              f"{format_split_tree(tree, names)}")
    if tree is not None:
        order = quotient_order_from_split(tree, ideal.num_vars)
    else:
        order = find_linear_quotients(ideal, cap=args.max_gens)
    if order is None:
        print("linear quotients: no")
    else:
        print(f"linear quotients: yes; order "
              f"{format_quotient_order(order, names)}")


def _classify_complex(delta, names, args, field) -> None:
    print(f"vertices: {' '.join(names)}")
    print(f"facets: {len(delta.facets)}")
    print(f"pure: {'yes' if is_pure(delta) else 'no'}")
    tree = vertex_decomposable(delta)
    if tree is None:
        print("vertex decomposable: no")
    else:
        print(f"vertex decomposable: yes; certificate "
              f"{format_decomposition_tree(tree, names)}")
        pd_value, reg_value = pd_reg_recursive(delta)
        print(f"pd of the quotient: {pd_value}")
        print(f"reg of the quotient: {reg_value}")
    print(f"Cohen-Macaulay over {field.label}: "
          f"{'yes' if is_cohen_macaulay(delta, field) else 'no'}")


def _classify_graph(G, names, args, field) -> None:
    print(f"vertices: {' '.join(names)}")
    print(f"edges: {len(G.edges)}")
    chordal, peo = is_chordal(G)
    if chordal:
        print(f"chordal: yes; elimination order "
              f"{' '.join(names[v] for v in peo)}")
    else:
        print("chordal: no")
    print(f"complement chordal: {'yes' if G.complement_chordal else 'no'}")
    shedding = domination_shedding(G)
    print("dominating shedding vertices: "
          + (" ".join(names[v] for v in shedding) if shedding else "(none)"))
    if is_bipartite(G):
        scm, cert = is_scm_bipartite(G)
        if scm:
            print("sequentially Cohen-Macaulay (bipartite): yes; certificate "
                  + format_scm_certificate(cert, G, names))
        else:
            print("sequentially Cohen-Macaulay (bipartite): no")
    else:
        print("sequentially Cohen-Macaulay (bipartite): not bipartite")
    if G.edges:
        edge_report = froberg_equivalence(G, field)
        print(f"edge ideal: complement chordal={edge_report.complement_chordal} "
              f"linear resolution={edge_report.edge_ideal_linear_resolution} "
              f"vertex splittable={edge_report.edge_ideal_vertex_splittable} "
              f"agree={edge_report.all_agree}")
        dual_report = dual_complex_equivalence(G, field)
        print(f"dual complex: vertex decomposable="
              f"{dual_report.dual_vertex_decomposable} "
              f"Cohen-Macaulay={dual_report.dual_cohen_macaulay} "
              f"agree={dual_report.all_agree}")


def cmd_classify(args) -> int:
    field = parse_field(args.field)
    given = [opt for opt in ("ideal", "complex", "graph")
             if getattr(args, opt)]
    if len(given) != 1:
        raise ParseError("classify needs exactly one of --ideal/--complex/--graph")
    kind = given[0]
    if kind == "ideal":
        ideal, names = parse_ideal(_read(args.ideal))
        if len(ideal.gens) > args.max_gens:
            print(f"refusing: {len(ideal.gens)} generators exceed "
                  f"--max-gens {args.max_gens}", file=sys.stderr)
            return USAGE_ERROR
        _classify_ideal(ideal, names, args, field)
    elif kind == "complex":
        delta, names = parse_complex(_read(args.complex))
        if delta.ground_size > args.max_n:
            print(f"refusing: {delta.ground_size} vertices exceed "
                  f"--max-n {args.max_n}", file=sys.stderr)
            return USAGE_ERROR
        _classify_complex(delta, names, args, field)
    else:
        G, names = parse_graph(_read(args.graph))
        if G.n > args.max_n:
            print(f"refusing: {G.n} vertices exceed --max-n {args.max_n}",
                  file=sys.stderr)
            return USAGE_ERROR
        # the edge-ideal and dual-complex reports run the oracle; refuse
        # before the first line is printed
        _check_oracle_size(G)
        _classify_graph(G, names, args, field)
    return 0


def cmd_verify(args) -> int:
    for option, value in (("--max-n", args.max_n), ("--count", args.count)):
        if value is not None and value < 0:
            raise ParseError(f"{option} must not be negative, got {value}")
    field = parse_field(args.field)
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        result = verify.run_suite(name, max_n=args.max_n, seed=args.seed,
                                  count=args.count, field=field)
        print(result.render())
        failed = failed or not result.passed
    return VIOLATION if failed else 0


# `gen complex` draws up to --facets masks into one list before reducing
# them to an antichain; at this limit, on 63 vertices, that holds tens of MB
MAX_FACETS = 2**16


def cmd_gen(args) -> int:
    rng = Random(args.seed)
    extra = None
    # a size that no parser reads back is refused before anything is drawn
    if args.kind == "graph":
        text = format_graph(random_graph(_check_size(args.n, "vertices"),
                                         args.p, rng))
    elif args.kind == "complex":
        text = format_complex(random_complex(
            _check_size(args.n, "vertices"),
            _check_size(args.facets, "facets", MAX_FACETS), rng))
    else:  # splittable-ideal
        ideal, tree = random_splittable_ideal(
            _check_size(args.vars, "variables"), rng, max_gens=args.gens)
        names = default_names(ideal.num_vars)
        text = format_ideal(ideal, names)
        extra = format_split_tree(tree, names) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        if extra is not None:
            with open(args.out + ".tree", "w", encoding="utf-8") as handle:
                handle.write(extra)
    else:
        sys.stdout.write(text)
        if extra is not None:
            sys.stdout.write("# split-tree: " + extra)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertexsplit",
        description="vertex splittable ideals, vertex decomposable complexes "
                    "and exact graded Betti numbers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="print a graded Betti table")
    p_betti.add_argument("--ideal", help="ideal file, or edge|cover with --graph")
    p_betti.add_argument("--complex", help="facet list file")
    p_betti.add_argument("--graph", help="edge list file")
    p_betti.add_argument("--mode", choices=("oracle", "recursive", "sets"),
                         default="oracle")
    p_betti.add_argument("--check", action="store_true",
                         help="run all applicable modes and compare")
    p_betti.add_argument("--format", choices=("grid", "flat"), default="grid")
    p_betti.add_argument("--field", help="q or a prime (also p=PRIME)")
    p_betti.set_defaults(func=cmd_betti)

    p_cls = sub.add_parser("classify", help="predicates and certificates")
    p_cls.add_argument("--ideal")
    p_cls.add_argument("--complex")
    p_cls.add_argument("--graph")
    p_cls.add_argument("--field")
    p_cls.add_argument("--max-gens", type=int, default=20)
    p_cls.add_argument("--max-n", type=int, default=16)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run a theorem-check suite")
    p_ver.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--count", type=int, default=None)
    p_ver.add_argument("--field")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate seeded corpus files")
    p_gen.add_argument("kind", choices=("complex", "graph", "splittable-ideal"))
    p_gen.add_argument("--n", type=int, default=5, help="vertex count")
    p_gen.add_argument("--vars", type=int, default=6, help="variable count")
    p_gen.add_argument("--p", type=float, default=0.4, help="edge probability")
    p_gen.add_argument("--facets", type=int, default=4)
    p_gen.add_argument("--gens", type=int, default=12, help="generator cap")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", "-o", help="output path (stdout if absent)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: not an error;
        # point stdout at devnull so the interpreter's exit flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MemoryError, RecursionError) as exc:
        print(f"error: the input is too large to process "
              f"({type(exc).__name__})", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
