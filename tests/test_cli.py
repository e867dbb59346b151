import os
import subprocess
import sys
import tracemalloc
from hashlib import sha256
from math import comb
from pathlib import Path
from random import Random

import pytest

from test_kernel import RP2_MASKS
from vertexsplit import cli, complexes, homology, monomials
from vertexsplit.cli import main
from vertexsplit.complexes import MAX_VERTICES
from vertexsplit.corpus import random_graph
from vertexsplit.formats import format_graph
from vertexsplit.monomials import MAX_EXPONENT

P3_IDEAL = "kind: ideal\nvars: x y z\nx*y\ny*z\n"
P4_GRAPH = "n 4\n0 1\n1 2\n2 3\n"
XZ_Y_COMPLEX = "kind: complex\nvertices: x y z\nx,z\ny\n"
ZERO_IDEAL = "kind: ideal\nvars: x y\n"
TWO_K2_GRAPH = "n 4\n0 1\n2 3\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("p3.ideal", P3_IDEAL), ("p4.g", P4_GRAPH),
                       ("xz_y.cx", XZ_Y_COMPLEX), ("zero.ideal", ZERO_IDEAL),
                       ("2k2.g", TWO_K2_GRAPH)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_betti_oracle_mode(files, capsys):
    assert main(["betti", "--ideal", files["p3.ideal"], "--format", "flat"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0 2 2", "1 3 1"]


def test_betti_cover_recursive_from_graph(files, capsys):
    code = main(["betti", "--graph", files["p4.g"], "--ideal", "cover",
                 "--mode", "recursive", "--format", "flat"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0 2 3", "1 3 2"]


def test_betti_zero_ideal(files, capsys):
    assert main(["betti", "--ideal", files["zero.ideal"]]) == 0
    assert "empty" in capsys.readouterr().out


def test_betti_check_agreement(files, capsys):
    assert main(["betti", "--ideal", files["p3.ideal"], "--check"]) == 0
    out = capsys.readouterr().out
    assert "all 3 modes agree" in out


def test_betti_recursive_needs_splittable(files, tmp_path, capsys):
    p = tmp_path / "2k2.ideal"
    p.write_text("kind: ideal\nvars: w x y z\nx*w\ny*z\n")
    code = main(["betti", "--ideal", str(p), "--mode", "recursive"])
    assert code == 1
    assert "not vertex splittable" in capsys.readouterr().err


def test_betti_from_complex(files, capsys):
    assert main(["betti", "--complex", files["xz_y.cx"], "--format", "flat"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["0 2 2", "1 3 1"]


def test_betti_usage_errors(files, capsys):
    assert main(["betti"]) == 2
    assert main(["betti", "--graph", files["p4.g"], "--ideal", "nonsense"]) == 2
    assert main(["betti", "--ideal", "/nonexistent/file"]) == 2


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_resource_exhaustion_is_a_usage_error(files, monkeypatch, capsys, exc):
    def exhausted(args):
        raise exc()

    monkeypatch.setattr(cli, "_load_ideal_for_betti", exhausted)
    assert main(["betti", "--graph", files["p4.g"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_betti_refuses_a_graph_too_large_for_the_oracle(tmp_path, capsys):
    rng = Random(40)
    edges = [(u, v) for u in range(40) for v in range(u + 1, 40)
             if rng.random() < 0.1]
    p = tmp_path / "g40.g"
    p.write_text("n 40\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert main(["betti", "--graph", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_betti_refuses_a_graph_one_vertex_past_the_limit(tmp_path, capsys):
    # the oracle's table has one entry per subset of the 25 path vertices
    p = tmp_path / "p25.g"
    p.write_text("n 25\n" + "".join(f"{v} {v + 1}\n" for v in range(24)))
    assert main(["betti", "--graph", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the Hochster formula visits 2^25 vertex subsets; "
                   "the limit is 24 vertices\n")


def test_betti_oracle_counts_only_the_variables_of_the_generators(
        tmp_path, capsys):
    # x0*x1, x1*x2 in 35 variables: the Hochster loop visits 2^3 subsets
    names = [f"v{i}" for i in range(35)]
    p = tmp_path / "p3_in_35.ideal"
    p.write_text(f"kind: ideal\nvars: {' '.join(names)}\nv0*v1\nv1*v2\n")
    assert main(["betti", "--ideal", str(p), "--format", "flat"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["0 2 2", "1 3 1"]


def test_betti_oracle_counts_only_the_vertices_on_an_edge(tmp_path, capsys):
    p = tmp_path / "p3_in_40.g"
    p.write_text("n 40\n0 1\n1 2\n")
    assert main(["betti", "--graph", str(p), "--format", "flat"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["0 2 2", "1 3 1"]


def test_betti_recursive_mode_skips_the_oracle(tmp_path, capsys):
    # the edge ideal of a star on 35 vertices is x0*(x1, ..., x34): it
    # splits, so the recursion needs no 2^35-subset oracle table
    p = tmp_path / "star35.g"
    p.write_text("n 35\n" + "".join(f"0 {v}\n" for v in range(1, 35)))
    code = main(["betti", "--graph", str(p), "--ideal", "edge",
                 "--mode", "recursive", "--format", "flat"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [f"{i} {i + 2} {comb(34, i + 1)}" for i in range(34)]


def _cli_env():
    """The environment for a CLI subprocess that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_a_closed_stdout_is_not_an_error(tmp_path):
    # `betti ... | head -3` once printed "error: [Errno 32] Broken pipe"
    # and exited 2; here the reader is gone before the first write
    p = tmp_path / "star35.g"
    p.write_text("n 35\n" + "".join(f"0 {v}\n" for v in range(1, 35)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "vertexsplit.cli", "betti", "--graph",
             str(p), "--ideal", "edge", "--mode", "sets", "--format", "flat"],
            stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(),
            text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_betti_refuses_a_large_graph_before_building_its_ideal(
        tmp_path, monkeypatch, capsys):
    def unreachable(G):
        raise AssertionError("the cover ideal was built before the refusal")

    monkeypatch.setattr(cli, "cover_ideal", unreachable)
    rng = Random(40)
    edges = [(u, v) for u in range(40) for v in range(u + 1, 40)
             if rng.random() < 0.5]
    p = tmp_path / "g40.g"
    p.write_text("n 40\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert main(["betti", "--graph", str(p), "--ideal", "cover"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _refused(argv, capsys):
    """main(argv) exits 2 with one `error:` line and nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("argv", [
    ["betti", "--complex", "xz_y.cx", "--ideal", "p3.ideal"],
    ["betti", "--graph", "p4.g", "--complex", "xz_y.cx"],
    ["betti", "--graph", "p4.g", "--complex", "xz_y.cx", "--ideal", "cover"],
    ["classify", "--complex", "xz_y.cx", "--ideal", "p3.ideal"],
    ["classify", "--ideal", "p3.ideal", "--complex", "xz_y.cx", "--graph",
     "p4.g"],
    ["classify"]])
def test_exactly_one_input_file_is_read(files, capsys, argv):
    # betti once took the graph, then the complex, then the ideal, and
    # ignored the rest; with --graph, betti's --ideal names no file
    err = _refused([files.get(arg, arg) for arg in argv], capsys)
    assert "exactly one input file" in err


def test_a_graph_header_is_exactly_n_and_a_count(tmp_path, capsys):
    p = tmp_path / "bad.g"
    p.write_text("n 4 5\n0 1\n")
    assert _refused(["betti", "--graph", str(p)], capsys) == (
        "error: edge lists start with a header line `n <count>`\n")


def _edge_complements(n: int, tmp_path) -> str:
    """A file for the complex on n vertices whose facets are the
    complements of the cycle's edges {i, i+1 mod n}: every vertex misses
    a facet, so its ideals have all n vertices in their supports."""
    names = [f"v{i}" for i in range(n)]
    p = tmp_path / f"c{n}.cx"
    p.write_text(f"kind: complex\nvertices: {' '.join(names)}\n" + "".join(
        ",".join(names[v] for v in range(n) if v not in (i, (i + 1) % n))
        + "\n" for i in range(n)))
    return str(p)


def test_classify_refuses_a_complex_too_large_for_the_oracle_up_front(
        tmp_path, capsys):
    # the Cohen-Macaulay line runs the oracle on 26 vertices; the first
    # four lines were once printed before the refusal
    path = _edge_complements(26, tmp_path)
    err = _refused(["classify", "--complex", path, "--max-n", "30"], capsys)
    assert "2^26" in err


def test_betti_refuses_a_large_complex_before_building_its_ideal(
        tmp_path, monkeypatch, capsys):
    # every mode builds I_Δ by Berge's method, which runs for minutes on
    # this complex's minimal non-faces, so every mode refuses it first
    def unreachable(edges):
        raise AssertionError("minimal transversals taken before the refusal")

    for module in (complexes, homology, monomials):
        monkeypatch.setattr(module, "minimal_transversals", unreachable)
    path = _edge_complements(40, tmp_path)
    for flags in ([], ["--check"], ["--mode", "sets", "--check"],
                  ["--mode", "recursive"], ["--mode", "sets"]):
        err = _refused(["betti", "--complex", path, *flags], capsys)
        assert "2^40" in err


def test_classify_ideal(files, tmp_path, capsys):
    p = tmp_path / "y_xz.ideal"
    p.write_text("kind: ideal\nvars: x y z\ny\nx*z\n")
    assert main(["classify", "--ideal", str(p)]) == 0
    out = capsys.readouterr().out
    assert "vertex splittable: yes; certificate (y: 1 | x*z)" in out
    assert "linear quotients: yes" in out


THIRTY = " ".join(f"x{i}" for i in range(30))


def _power(i):
    return f"x28^{2 ** (i % 3 + 1)}*x29^1048576"


def _huge_splittable():
    """x_i * x28^(2, 4 or 8) * x29^1048576 for i < 12, and the stdout of
    `classify`: x0, x3, x6 and x9 split off first, over x28^2."""
    gens = [f"x{i}*{_power(i)}" for i in range(12)]
    order = [0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11]
    tree = gens[11]
    for i in reversed(order[:-1]):
        tree = f"(x{i}: {_power(i)} | {tree})"
    steps = " < ".join(
        f"{gens[i]} {{{','.join(f'x{j}' for j in sorted(order[:t]))}}}"
        for t, i in enumerate(order))
    return gens, (f"generators: 12\nsquare-free: no\n"
                  f"vertex splittable: yes; certificate {tree}\n"
                  f"linear quotients: yes; order {steps}\n")


def _huge_unsplittable():
    """Ten generators on disjoint variables: at each candidate variable the
    other nine lie outside the factor ideal."""
    gens = [f"x{3 * i}^1048576*x{3 * i + 1}*x{3 * i + 2}^7"
            for i in range(10)]
    return gens, ("generators: 10\nsquare-free: no\n"
                  "vertex splittable: no\nlinear quotients: no\n")


@pytest.mark.parametrize("make", [_huge_splittable, _huge_unsplittable])
def test_classify_ideal_with_huge_exponents(tmp_path, make):
    # the split search ranks exponents, so x^1048576 costs one bit more
    # than x, where one bit per unit of exponent would be 30M bits
    gens, want = make()
    p = tmp_path / "huge.ideal"
    p.write_text(f"kind: ideal\nvars: {THIRTY}\n" + "\n".join(gens) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "vertexsplit.cli", "classify", "--ideal",
         str(p)], capture_output=True, env=_cli_env(), text=True, timeout=20)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"variables: {THIRTY}\n" + want


def test_classify_complex(files, capsys):
    assert main(["classify", "--complex", files["xz_y.cx"]]) == 0
    out = capsys.readouterr().out
    assert "vertex decomposable: yes" in out
    assert "pd of the quotient: 2" in out
    assert "reg of the quotient: 1" in out


def test_classify_non_decomposable(files, tmp_path, capsys):
    p = tmp_path / "two.cx"
    p.write_text("kind: complex\nvertices: a b c d\na,b\nc,d\n")
    assert main(["classify", "--complex", str(p)]) == 0
    assert "vertex decomposable: no" in capsys.readouterr().out


def test_classify_graph(files, capsys):
    assert main(["classify", "--graph", files["2k2.g"]]) == 0
    out = capsys.readouterr().out
    assert "chordal: yes" in out
    assert "complement chordal: no" in out
    assert "agree=True" in out


# sha256 of the concatenated `classify --graph` stdout below, recorded
# before the graph routines moved onto neighbour masks
CLASSIFY_GRAPH_DIGEST = (
    "b1cd0c3a64d16802281f420712e1bed767849386aef5f39e671fd94ebd26a263")


def test_classify_graph_outputs_are_pinned(tmp_path, capsys):
    # the elimination order, the SCM certificate, the dominating shedding
    # vertices and both equivalence reports of 64 seeded graphs
    outs = []
    for n in range(2, 10):
        rng = Random(n)
        for k in range(8):
            G = random_graph(n, rng.uniform(0.15, 0.85), rng)
            p = tmp_path / f"{n}-{k}.g"
            p.write_text(format_graph(G))
            assert main(["classify", "--graph", str(p)]) == 0
            outs.append(capsys.readouterr().out)
    assert sum("certificate (" in out for out in outs) > 20
    assert sum("elimination order" in out for out in outs) > 40
    assert sha256("".join(outs).encode()).hexdigest() == CLASSIFY_GRAPH_DIGEST


# sha256 of `verify all --max-n 4 --count 200 --seed 3` stdout: every
# suite at a size that runs in about a second
VERIFY_SMALL_DIGEST = (
    "9e8afa04dd16488ee37c0995b622b6df1b571cf37dcfb231e18324acf918ea54")


def test_verify_all_outputs_are_pinned(capsys):
    assert main(["verify", "all", "--max-n", "4", "--count", "200",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()).hexdigest() == VERIFY_SMALL_DIGEST


def test_classify_refuses_oversize(files, capsys):
    assert main(["classify", "--graph", files["p4.g"], "--max-n", "2"]) == 2
    assert "refusing" in capsys.readouterr().err


def test_classify_refuses_a_graph_too_large_for_the_oracle_up_front(
        tmp_path, capsys):
    p = tmp_path / "p35.g"
    p.write_text("n 35\n" + "".join(f"{v} {v + 1}\n" for v in range(34)))
    assert main(["classify", "--graph", str(p), "--max-n", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_small_suite(capsys):
    assert main(["verify", "duality", "--max-n", "3", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("duality: PASS")


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_reports_are_deterministic(capsys):
    args = ["verify", "spot", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_the_environment_does_not_choose_the_field(
        tmp_path, monkeypatch, capsys):
    # RP^2 has two-torsion: its table has 3 entries over QQ and 5 over GF(2)
    p = tmp_path / "rp2.cx"
    p.write_text("kind: complex\nvertices: a b c d e f\n" + "".join(
        ",".join("abcdef"[v] for v in range(6) if f >> v & 1) + "\n"
        for f in RP2_MASKS))
    args = ["betti", "--complex", str(p), "--format", "flat"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert len(plain.splitlines()) == 3
    monkeypatch.setenv("VERTEXSPLIT_FIELD", "2")
    assert main(args) == 0
    assert capsys.readouterr().out == plain
    assert main(args + ["--field", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_pd_bight_makes_no_claim_on_a_zero_count(capsys):
    assert main(["verify", "pd-bight", "--max-n", "2", "--count", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 non-decomposable complexes where pd != bight\n" in out
    assert "vacuous" not in out


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "ideal.txt"
    assert main(["gen", "splittable-ideal", "--vars", "6", "--seed", "7",
                 "--out", str(out)]) == 0
    text = out.read_text()
    tree_text = (tmp_path / "ideal.txt.tree").read_text()
    from vertexsplit.formats import parse_ideal
    ideal, _ = parse_ideal(text)
    assert not ideal.is_zero
    assert tree_text.strip()
    # determinism: same seed, same bytes
    out2 = tmp_path / "ideal2.txt"
    assert main(["gen", "splittable-ideal", "--vars", "6", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert out2.read_text() == text


@pytest.mark.parametrize("argv", [
    ["gen", "splittable-ideal", "--gens", "0"],
    ["gen", "splittable-ideal", "--vars", "-1"],
    ["gen", "graph", "--n", "-3"],
    ["gen", "graph", "--p", "1.5"],
    ["gen", "complex", "--n", "-3"],
    ["gen", "complex", "--n", "0"],
    ["gen", "complex", "--facets", "0"],
])
def test_gen_rejects_impossible_sizes(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "randrange" not in captured.err and "shift" not in captured.err


@pytest.mark.parametrize("argv, option", [
    (["verify", "betti-agreement", "--count", "-1"], "--count"),
    (["verify", "froberg", "--max-n", "-1"], "--max-n"),
    (["verify", "betti-agreement", "--max-n", "-1"], "--max-n"),
    # splittable ideals are sampled on at least two variables
    (["verify", "betti-agreement", "--max-n", "1"], "--max-n"),
    (["verify", "linear-quotients", "--max-n", "0"], "--max-n"),
    # chordal graphs are sampled on at least two vertices
    (["verify", "chordal-split", "--max-n", "0"], "--max-n"),
    (["verify", "chordal-split", "--max-n", "1"], "--max-n"),
])
def test_verify_rejects_negative_sizes(argv, option, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert option in captured.err
    assert "randrange" not in captured.err


@pytest.mark.parametrize("suite", ["betti-agreement", "betti-splitting",
                                   "linear-quotients"])
def test_verify_reports_a_splittable_shortfall(suite):
    # two variables carry fewer than 50 distinct sampled splittable ideals;
    # the draws are capped, so the suite fails instead of drawing forever
    done = subprocess.run(
        [sys.executable, "-m", "vertexsplit.cli", "verify", suite,
         "--max-n", "2", "--count", "50"],
        capture_output=True, env=_cli_env(), text=True, timeout=20)
    assert done.returncode == 1 and done.stderr == ""
    assert done.stdout.startswith(f"{suite}: FAIL")
    assert "distinct splittable ideals found" in done.stdout


def test_betti_rejects_a_negative_vertex_count(tmp_path, capsys):
    p = tmp_path / "neg.g"
    p.write_text("n -1\n")
    assert main(["betti", "--graph", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("option, text", [("--graph", "n 99999999\n"),
                                          ("--ideal", "x99999999\n")])
def test_a_huge_declared_size_is_refused_before_allocation(
        tmp_path, capsys, option, text):
    # one name per vertex or variable would need gigabytes
    p = tmp_path / "huge"
    p.write_text(text)
    tracemalloc.start()
    try:
        code = main(["classify", option, str(p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# more digits than int() converts by default (4,300)
LONG_RUN = "9" * 5000


@pytest.mark.parametrize("option, text, what, limit", [
    ("--ideal", f"x1^{LONG_RUN}\n", "exponent of x1", MAX_EXPONENT),
    ("--ideal", f"x{LONG_RUN}\n", "variable index", MAX_VERTICES),
    ("--graph", f"n {LONG_RUN}\n", "vertex count", MAX_VERTICES),
    ("--graph", f"n 4\n0 {LONG_RUN}\n", "vertex", MAX_VERTICES)])
def test_a_long_digit_run_is_refused_by_its_length(tmp_path, capsys, option,
                                                   text, what, limit):
    p = tmp_path / "long"
    p.write_text(text)
    assert main(["classify", option, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {what} '99999999...99999999' (5000 "
                            f"characters) is out of range; the limit is "
                            f"{limit}\n")


@pytest.mark.parametrize("field, shown", [
    ("1000000000000000003", "field '1000000000000000003' (19 characters)"),
    (LONG_RUN, "field '99999999...99999999' (5000 characters)"),
    ("p=2147483659", "field characteristic 2147483659")])
def test_a_field_above_the_limit_is_refused(files, capsys, field, shown):
    # the first used to run trial division for about 10^9 steps
    assert main(["betti", "--graph", files["p4.g"], "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {shown} is out of range; the limit is "
                            f"2147483647\n")


@pytest.mark.parametrize("field, message", [
    ("p=", "field '' is not a run of digits 0-9"),
    ("", "field '' is not a run of digits 0-9"),
    ("p=0", "0 is not prime"),
    ("p=00", "0 is not prime"),
    ("xyz", "field 'xyz' is not a run of digits 0-9")])
def test_a_field_that_is_no_prime_is_refused(files, capsys, field, message):
    # the first four used to compute over QQ and exit 0
    assert main(["betti", "--graph", files["p4.g"], "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("n x\n0 1\n", "vertex count 'x' is not a run of digits 0-9"),
    ("n 4\n0 x\n", "vertex 'x' is not a run of digits 0-9")])
def test_a_graph_number_that_is_no_digit_run_is_refused(tmp_path, capsys,
                                                        text, message):
    p = tmp_path / "bad.g"
    p.write_text(text)
    assert main(["betti", "--graph", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_the_largest_field_still_answers(files, capsys):
    for field in ("q", "2147483647"):
        assert main(["betti", "--graph", files["p4.g"], "--field", field,
                     "--format", "flat"]) == 0
        assert capsys.readouterr().out == "0 2 3\n1 3 2\n"


def test_gen_refuses_sizes_that_no_parser_reads_back(tmp_path, capsys):
    from vertexsplit.formats import parse_complex, parse_graph, parse_ideal
    for kind, option, parser in [("graph", "--n", parse_graph),
                                 ("complex", "--n", parse_complex),
                                 ("splittable-ideal", "--vars", parse_ideal)]:
        over = tmp_path / f"{kind}-over.txt"
        assert main(["gen", kind, option, str(MAX_VERTICES + 1),
                     "-o", str(over)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert f"limit of {MAX_VERTICES}" in captured.err
        assert not over.exists() and not Path(str(over) + ".tree").exists()
        at = tmp_path / f"{kind}-at.txt"
        assert main(["gen", kind, option, str(MAX_VERTICES),
                     "-o", str(at)]) == 0
        _, names = parser(at.read_text())
        assert len(names) == MAX_VERTICES


def test_gen_refuses_more_facets_than_it_bounds(tmp_path, capsys):
    out = tmp_path / "complex.txt"
    assert main(["gen", "complex", "--n", "63", "--facets", "4097",
                 "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4097 facets exceed the limit of 4096\n"
    assert not out.exists()


def test_gen_graph_and_complex(tmp_path):
    for kind, flags in [("graph", ["--n", "6", "--p", "0.5"]),
                        ("complex", ["--n", "5", "--facets", "4"])]:
        out = tmp_path / f"{kind}.txt"
        assert main(["gen", kind, *flags, "--seed", "2",
                     "--out", str(out)]) == 0
        text = out.read_text()
        from vertexsplit.formats import parse_complex, parse_graph
        parser = parse_graph if kind == "graph" else parse_complex
        obj, _ = parser(text)
        assert obj is not None
