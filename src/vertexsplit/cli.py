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
from functools import reduce
from operator import and_
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


_PARSERS = {"ideal": parse_ideal, "complex": parse_complex,
            "graph": parse_graph}


def _load_input(paths: dict) -> tuple:
    """The one input of a betti or classify command, parsed once:
    (kind, object, names).  `paths` maps each input kind to its file or
    None; any number of files but one is a ParseError, raised before a
    file is read."""
    given = [(kind, path) for kind, path in paths.items() if path]
    if len(given) != 1:
        raise ParseError("give exactly one input file: --ideal, --complex "
                         "or --graph")
    kind, path = given[0]
    obj, names = _PARSERS[kind](_read(path))
    return kind, obj, names


def _check_oracle_size(kind: str, obj) -> None:
    """Refuse a graph or complex whose ideals are too large for the oracle,
    before any of them is built.  The Hochster loop visits the subsets of
    the union of the supports: for a graph's edge and cover ideals, the
    vertices that lie on an edge; for a complex's Stanley-Reisner ideal and
    its dual facet ideal, the vertices missing from some facet.  A parsed
    ideal is in hand, and the oracle checks its supports itself."""
    if kind == "graph":
        check_hochster_size(len({v for e in obj.edges for v in e}))
    elif kind == "complex":
        check_hochster_size(obj.ground_size
                            - reduce(and_, obj.facets).bit_count())


def _load_ideal_for_betti(args):
    """Resolve the (ideal, names) pair a betti command works on."""
    choice = args.ideal or "edge"
    if args.graph and choice not in ("edge", "cover"):
        raise ParseError("with --graph, --ideal selects `edge` or `cover`")
    # with --graph, --ideal is the selector above and names no file
    kind, obj, names = _load_input({
        "ideal": None if args.graph else args.ideal,
        "complex": args.complex, "graph": args.graph})
    if args.mode == "oracle" or args.check:
        # refuse before building the ideals, which can be slow
        _check_oracle_size(kind, obj)
    if kind == "graph":
        ideal = edge_ideal(obj) if choice == "edge" else cover_ideal(obj)
        return ideal, names
    if kind == "complex":
        return stanley_reisner_ideal(obj), names
    return obj, names


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


def _classify_ideal(ideal, names, args, field) -> list[str]:
    lines = [f"variables: {' '.join(names)}",
             f"generators: {len(ideal.gens)}",
             f"square-free: {'yes' if is_squarefree(ideal) else 'no'}"]
    tree = vertex_split(ideal)
    if tree is None:
        lines.append("vertex splittable: no")
        order = find_linear_quotients(ideal, cap=args.max_gens)
    else:
        lines.append(f"vertex splittable: yes; certificate "
                     f"{format_split_tree(tree, names)}")
        order = quotient_order_from_split(tree, ideal.num_vars)
    if order is None:
        lines.append("linear quotients: no")
    else:
        lines.append(f"linear quotients: yes; order "
                     f"{format_quotient_order(order, names)}")
    return lines


def _classify_complex(delta, names, args, field) -> list[str]:
    lines = [f"vertices: {' '.join(names)}",
             f"facets: {len(delta.facets)}",
             f"pure: {'yes' if is_pure(delta) else 'no'}"]
    tree = vertex_decomposable(delta)
    if tree is None:
        lines.append("vertex decomposable: no")
    else:
        pd_value, reg_value = pd_reg_recursive(delta)
        lines += [f"vertex decomposable: yes; certificate "
                  f"{format_decomposition_tree(tree, names)}",
                  f"pd of the quotient: {pd_value}",
                  f"reg of the quotient: {reg_value}"]
    lines.append(f"Cohen-Macaulay over {field.label}: "
                 f"{'yes' if is_cohen_macaulay(delta, field) else 'no'}")
    return lines


def _classify_graph(G, names, args, field) -> list[str]:
    lines = [f"vertices: {' '.join(names)}", f"edges: {len(G.edges)}"]
    chordal, peo = is_chordal(G)
    if chordal:
        lines.append(f"chordal: yes; elimination order "
                     f"{' '.join(names[v] for v in peo)}")
    else:
        lines.append("chordal: no")
    lines.append(f"complement chordal: "
                 f"{'yes' if G.complement_chordal else 'no'}")
    shedding = domination_shedding(G)
    lines.append("dominating shedding vertices: "
                 + (" ".join(names[v] for v in shedding) if shedding
                    else "(none)"))
    if is_bipartite(G):
        scm, cert = is_scm_bipartite(G)
        if scm:
            lines.append("sequentially Cohen-Macaulay (bipartite): yes; "
                         "certificate "
                         + format_scm_certificate(cert, G, names))
        else:
            lines.append("sequentially Cohen-Macaulay (bipartite): no")
    else:
        lines.append("sequentially Cohen-Macaulay (bipartite): not bipartite")
    if G.edges:
        edge_report = froberg_equivalence(G, field)
        dual_report = dual_complex_equivalence(G, field)
        lines += [
            f"edge ideal: complement chordal={edge_report.complement_chordal} "
            f"linear resolution={edge_report.edge_ideal_linear_resolution} "
            f"vertex splittable={edge_report.edge_ideal_vertex_splittable} "
            f"agree={edge_report.all_agree}",
            f"dual complex: vertex decomposable="
            f"{dual_report.dual_vertex_decomposable} "
            f"Cohen-Macaulay={dual_report.dual_cohen_macaulay} "
            f"agree={dual_report.all_agree}"]
    return lines


_CLASSIFIERS = {"ideal": _classify_ideal, "complex": _classify_complex,
                "graph": _classify_graph}


def cmd_classify(args) -> int:
    field = parse_field(args.field)
    kind, obj, names = _load_input({kind: getattr(args, kind)
                                    for kind in _PARSERS})
    if kind == "ideal":
        size, what, option, limit = (len(obj.gens), "generators",
                                     "--max-gens", args.max_gens)
    else:
        size, what, option, limit = (len(names), "vertices", "--max-n",
                                     args.max_n)
    if size > limit:
        print(f"refusing: {size} {what} exceed {option} {limit}",
              file=sys.stderr)
        return USAGE_ERROR
    # a graph's reports and a pure complex's Cohen-Macaulay test run the
    # oracle: refuse before any work
    if kind == "graph" or (kind == "complex" and is_pure(obj)):
        _check_oracle_size(kind, obj)
    # one write, so a refusal or an exhausted resource while classifying
    # leaves stdout empty
    print("\n".join(_CLASSIFIERS[kind](obj, names, args, field)))
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


# `gen complex` reduces up to --facets drawn masks to an antichain by
# comparing each with every maximal mask kept, quadratic in the count: on
# 63 vertices this limit takes about 0.4 s, and each doubling four times that
MAX_FACETS = 2**12


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
