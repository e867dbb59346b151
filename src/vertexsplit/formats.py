"""Text formats for ideals, complexes and graphs, plus certificate
serialization.

All three objects share one self-describing format with a ``kind:`` header;
the bare per-object formats (monomial list, facet list, edge list) are also
accepted.  Variable and vertex names are external labels: parsers return
the object together with its name list and serializers take the names as an
argument.
"""

from __future__ import annotations

import re

from .complexes import MAX_VERTICES, SimplicialComplex, from_facets, mask_to_set
from .decomposition import DecompositionTree, SimplexLeaf
from .graphs import Graph, ScmCertificate, ScmLeaf, delete_vertices, graph
from .monomials import MAX_EXPONENT, Monomial, MonomialIdeal, minimalize
from .splitting import LinearQuotientOrder, SplitLeaf, SplitTree


class ParseError(ValueError):
    pass


def _check_size(count: int, what: str, limit: int = MAX_VERTICES) -> int:
    """The declared or implied size count; ParseError above limit."""
    if count > limit:
        raise ParseError(f"{count} {what} exceed the limit of {limit}")
    return count


def _bounded_int(digits: str, limit: int, what: str) -> int:
    """The value of a non-empty run of ASCII digits; any other text is a
    ParseError that names `what`, since int() takes signs, spaces and
    underscores and refuses the rest with a message about Python literals.
    A run with more digits than limit is refused by its length before
    int() sees it, which refuses runs of more than 4,300 digits with a
    message about the interpreter, not the input."""
    shown = digits if len(digits) <= 20 else f"{digits[:8]}...{digits[-8:]}"
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} {shown!r} is not a run of digits 0-9")
    value = digits.lstrip("0") or "0"
    if len(value) > len(str(limit)):
        raise ParseError(f"{what} {shown!r} ({len(digits)} characters) is "
                         f"out of range; the limit is {limit}")
    return int(value)


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def format_monomial(m: Monomial, names) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append(f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


_TOKEN = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9']*?)(?:\^(?P<exp>\d+))?$")


def parse_monomial(text: str, names: dict[str, int], n: int) -> Monomial:
    text = text.strip()
    exps = [0] * n
    if text == "1":
        return tuple(exps)
    for token in text.split("*"):
        match = _TOKEN.match(token.strip())
        if not match:
            raise ParseError(f"bad monomial factor {token!r}")
        name = match.group("name")
        if name not in names:
            raise ParseError(f"unknown variable {name!r}")
        exp = match.group("exp")
        exps[names[name]] += (_bounded_int(exp, MAX_EXPONENT, f"exponent of {name}")
                              if exp else 1)
    return tuple(exps)


def _split_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _take_header(lines: list[str], expected_kind: str) -> tuple[list[str], list[str] | None]:
    """Strip an optional `kind:` header and name declaration; returns the
    remaining item lines and the declared names (or None)."""
    names = None
    idx = 0
    if idx < len(lines) and lines[idx].lower().startswith("kind:"):
        kind = lines[idx].split(":", 1)[1].strip().lower()
        if kind != expected_kind:
            raise ParseError(f"expected kind {expected_kind!r}, file says {kind!r}")
        idx += 1
    while idx < len(lines):
        lowered = lines[idx].lower()
        if lowered.startswith(("vars:", "vertices:", "names:")):
            names = lines[idx].split(":", 1)[1].split()
            _check_size(len(names), "declared names")
            if len(set(names)) != len(names):
                raise ParseError("duplicate names declared")
            idx += 1
        else:
            break
    return lines[idx:], names


_IMPLICIT = re.compile(r"^x(\d+)$")


def parse_ideal(text: str) -> tuple[MonomialIdeal, tuple[str, ...]]:
    """Parse a generator list; returns the ideal and its variable names.

    Without a name declaration the variables must be x1, x2, ... and the
    ambient count is the largest index used.
    """
    items, declared = _take_header(_split_lines(text), "ideal")
    if declared is None:
        top = 0
        for line in items:
            if line == "1":
                continue
            for token in line.split("*"):
                match = _TOKEN.match(token.strip())
                implicit = match and _IMPLICIT.match(match.group("name"))
                if not implicit:
                    raise ParseError(
                        f"undeclared variable in {line!r}; add a vars: line "
                        "or use x1, x2, ...")
                top = max(top, _bounded_int(implicit.group(1), MAX_VERTICES,
                                            "variable index"))
        names = list(default_names(_check_size(top, "variables")))
    else:
        names = declared
    index = {name: i for i, name in enumerate(names)}
    gens = [parse_monomial(line, index, len(names)) for line in items]
    return minimalize(gens, len(names)), tuple(names)


def format_ideal(I: MonomialIdeal, names=None) -> str:
    names = names or default_names(I.num_vars)
    lines = ["kind: ideal", "vars: " + " ".join(names)]
    lines += [format_monomial(g, names) for g in I.sorted_gens()]
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> tuple[SimplicialComplex, tuple[str, ...]]:
    """Parse a facet list: one facet per line, vertices comma-separated,
    `-` the empty facet."""
    items, declared = _take_header(_split_lines(text), "complex")
    if not items:
        raise ParseError("a complex needs at least one facet line")
    facet_labels = []
    for line in items:
        if line == "-":
            facet_labels.append([])
        else:
            facet_labels.append([tok.strip() for tok in line.split(",") if tok.strip()])
    if declared is None:
        names = sorted({v for facet in facet_labels for v in facet})
        _check_size(len(names), "vertex labels")
    else:
        names = declared
    index = {name: i for i, name in enumerate(names)}
    facets = []
    for labels in facet_labels:
        try:
            facets.append([index[v] for v in labels])
        except KeyError as exc:
            raise ParseError(f"undeclared vertex {exc.args[0]!r}") from None
    return from_facets(facets, len(names)), tuple(names)


def format_face(mask: int, names) -> str:
    members = sorted(mask_to_set(mask))
    return ",".join(names[v] for v in members) if members else "-"


def format_complex(delta: SimplicialComplex, names=None) -> str:
    names = names or default_names(delta.ground_size)
    lines = ["kind: complex", "vertices: " + " ".join(names)]
    lines += [format_face(f, names) for f in delta.sorted_facets()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> tuple[Graph, tuple[str, ...]]:
    """Parse an edge list.

    Bare form: header `n <count>`, then 0-based `u v` index pairs.  With a
    `vertices:` declaration the pairs use names instead.
    """
    items, declared = _take_header(_split_lines(text), "graph")
    if declared is None:
        header = items[0].split() if items else []
        if len(header) != 2 or not items[0].startswith("n "):
            raise ParseError("edge lists start with a header line `n <count>`")
        n = _check_size(_bounded_int(header[1], MAX_VERTICES, "vertex count"),
                        "vertices")
        items = items[1:]

        def vertex(token: str) -> int:
            return _bounded_int(token, MAX_VERTICES, "vertex")
    else:
        n = len(declared)
        vertex = {name: i for i, name in enumerate(declared)}.__getitem__
    edges = []
    for line in items:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {line!r}")
        try:
            edges.append((vertex(parts[0]), vertex(parts[1])))
        except KeyError as exc:
            raise ParseError(f"undeclared vertex {exc.args[0]!r}") from None
    return graph(n, edges), (default_names(n) if declared is None
                             else tuple(declared))


def format_graph(G: Graph, names=None) -> str:
    names = names or default_names(G.n)
    lines = ["kind: graph", "vertices: " + " ".join(names)]
    lines += [f"{names[u]} {names[v]}" for u, v in G.sorted_edges()]
    return "\n".join(lines) + "\n"


def format_split_tree(tree: SplitTree, names) -> str:
    """Nested `(x: LEFT | RIGHT)` with leaves the monomial or `0`."""
    if isinstance(tree, SplitLeaf):
        if tree.monomial is None:
            return "0"
        return format_monomial(tree.monomial, names)
    left = format_split_tree(tree.left, names)
    right = format_split_tree(tree.right, names)
    return f"({names[tree.var]}: {left} | {right})"


def format_decomposition_tree(tree: DecompositionTree, names) -> str:
    """Nested `(v: DEL | LINK)` with simplex leaves printed as facets.

    Deletion and link live on the ground set without the shedding vertex,
    so the name list shrinks along each branch.
    """
    if isinstance(tree, SimplexLeaf):
        return format_face(tree.facet, names)
    smaller = [nm for i, nm in enumerate(names) if i != tree.vertex]
    left = format_decomposition_tree(tree.deletion, smaller)
    right = format_decomposition_tree(tree.link, smaller)
    return f"({names[tree.vertex]}: {left} | {right})"


def format_scm_certificate(cert: ScmCertificate, G: Graph, names) -> str:
    """Nested `(x,y: WITHOUT-N[x] | WITHOUT-N[y])`, replayed against G."""
    if isinstance(cert, ScmLeaf):
        return "edgeless"
    x, y = cert.x, cert.y
    drop_x = G.near[x] | 1 << x
    drop_y = G.near[y] | 1 << y
    names_x = [nm for i, nm in enumerate(names) if not drop_x >> i & 1]
    names_y = [nm for i, nm in enumerate(names) if not drop_y >> i & 1]
    left = format_scm_certificate(cert.without_x, delete_vertices(G, drop_x), names_x)
    right = format_scm_certificate(cert.without_y, delete_vertices(G, drop_y), names_y)
    return f"({names[x]},{names[y]}: {left} | {right})"


def format_quotient_order(order: LinearQuotientOrder, names) -> str:
    steps = []
    for g, s in zip(order.generators, order.sets):
        varset = "{" + ",".join(names[v] for v in sorted(s)) + "}"
        steps.append(f"{format_monomial(g, names)} {varset}")
    return " < ".join(steps) if steps else "(empty order)"
