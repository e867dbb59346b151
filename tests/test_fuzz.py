"""Short random text files through the three parsers and the CLI.

The parsers may reject a file only with ParseError or another ValueError,
and `main` keeps its exit-code contract on every file: 0, 2, or 1 only for
an ideal that is not vertex splittable, with no exception escaping.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from vertexsplit.cli import main
from vertexsplit.formats import parse_complex, parse_graph, parse_ideal

# pieces of well-formed files, so that headers and items meet each other
HEADS = ["", "kind: ideal\n", "kind: complex\n", "kind: graph\n",
         "vars: x y z\n", "vertices: a b c\n", "n 4\n", "n 3\n"]
ITEMS = ["0 1\n", "1 2\n", "2 3\n", "x1*x2\n", "x2*x3\n", "x1^2\n", "x3\n",
         "1\n", "a,b\n", "b,c\n", "-\n", "x*y\n", "a b\n", "#\n"]
CHARS = "xyabn0123^*,-: #\n"


# at most 30 characters; digit runs stay whole, because the parsers refuse
# a size over the limit before they allocate for it
files = st.one_of(
    st.tuples(st.lists(st.sampled_from(HEADS), max_size=2).map("".join),
              st.lists(st.one_of(st.sampled_from(ITEMS),
                                 st.text(CHARS, max_size=4)),
                       max_size=6).map("".join)).map("".join),
    st.text(max_size=30)).map(lambda text: text[:30])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(files)
def test_parsers_reject_a_file_only_with_a_value_error(text):
    for parse in (parse_ideal, parse_complex, parse_graph):
        try:
            parse(text)
        except ValueError:  # ParseError is a ValueError
            pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(files, st.sampled_from(["--ideal", "--complex", "--graph"]),
       st.sampled_from([["betti"], ["betti", "--check"],
                        ["betti", "--mode", "sets"], ["classify"]]))
def test_the_cli_keeps_its_exit_codes_on_random_files(tmp_path_factory, text,
                                                      option, command):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command + [option, str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert "not vertex splittable" in err.getvalue()
