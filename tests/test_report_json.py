"""Reports and rep files are written byte for byte as
json.dumps(value, indent=2, sort_keys=True) would write them."""

import json
import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from daha_cc1 import cli
from daha_cc1.roots import Type2, kind_to_str
from daha_cc1.strata import sample_stratum_params


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# -- the writer against the stdlib ----------------------------------------

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ints = st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**200), st.booleans())
texts = st.one_of(
    st.text(),
    st.text(alphabet='[]{},:"\n\\ \t\x00\x1f\x7fé€ \U0001f600abc'),
)
scalars = st.one_of(st.none(), ints, floats, texts)
# all-float lists take the writer's one-call path; int lists may mix in bools
leaf_lists = st.one_of(
    st.lists(floats, max_size=4),
    st.lists(floats, max_size=4).map(tuple),
    st.lists(ints, max_size=4),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    )


# rows x cols x k lists of floats, the [re, im] grid of a rep matrix, take
# the writer's one-template path; a near-grid is one edit away from a grid
# and takes the per-item path
sizes = st.tuples(*(st.integers(min_value=1, max_value=n) for n in (4, 4, 3)))
grids = sizes.flatmap(lambda s: st.lists(
    st.lists(st.lists(floats, min_size=s[2], max_size=s[2]), min_size=s[1], max_size=s[1]),
    min_size=s[0], max_size=s[0],
))
NEAR_GRID_EDITS = ("ragged row", "long row", "empty row", "empty leaf", "short leaf",
                   "int leaf", "bool leaf", "tuple grid", "tuple row", "tuple leaf")


@st.composite
def near_grids(draw):
    grid = draw(grids)
    edit = draw(st.sampled_from(NEAR_GRID_EDITS))
    i = draw(st.integers(min_value=0, max_value=len(grid) - 1))
    j = draw(st.integers(min_value=0, max_value=len(grid[0]) - 1))
    row, leaf = grid[i], grid[i][j]
    if edit == "ragged row":
        row.pop()
    elif edit == "long row":
        row.append(list(leaf))
    elif edit == "empty row":
        grid[i] = []
    elif edit == "empty leaf":
        row[j] = []
    elif edit == "short leaf":
        leaf.pop()
    elif edit == "int leaf":
        leaf[0] = draw(st.integers())
    elif edit == "bool leaf":
        leaf[-1] = draw(st.booleans())
    elif edit == "tuple grid":
        return tuple(grid)
    elif edit == "tuple row":
        grid[i] = tuple(row)
    else:
        row[j] = tuple(leaf)
    return grid


json_trees = st.recursive(
    st.one_of(scalars, leaf_lists, grids, near_grids()), containers, max_leaves=25
)


# Mutations this catches: writing a grid without the "n" fallback spells
# nan and inf as float repr does, and writing one without the
# equal-length checks fills its template with too few or too many values
# on a ragged row or a short leaf.
@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(json_trees)
def test_the_writer_equals_the_stdlib(tree):
    assert cli._to_json(tree) == stdlib(tree)


def test_pre_encoded_text_is_reindented_to_its_depth():
    rep = {"T0": [[[1.0, -2.5]]], "dim": 1, "labels": ["x\ny"]}
    nested = {"results": {"rep": cli._Encoded(cli._to_json(rep))}, "z": [rep]}
    expected = {"results": {"rep": rep}, "z": [rep]}
    assert cli._to_json(nested) == stdlib(expected)


# -- every command's report ------------------------------------------------

ONE_DIM = [
    "--k0", "2", "--k1", "3", "--u0", "5",
    "--u1", "0.016666666666666666", "--q-half", "2",
]


def _param_args(p):
    return [f"--{k.replace('_', '-')}={getattr(p, k).real!r}{getattr(p, k).imag:+.17g}i"
            for k in ("k0", "k1", "u0", "u1", "q_half")]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def assert_stdlib_report(out: str):
    """stdout is the stdlib's encoding of its own parsed value, plus a
    newline; returns that value."""
    value = json.loads(out)
    assert out == stdlib(value) + "\n"
    return value


@pytest.mark.parametrize("argv, code", [
    (["classify", *ONE_DIM, "--n-max", "6", "--explain"], 0),
    (["ds-check", *ONE_DIM, "--rep", "REP"], 0),
    (["scan", "--count", "3", "--seed", "1", "--format", "json"], 0),
    (["spectrum", *ONE_DIM, "--kind", "T2[++,++;n=0]"], 0),
    (["selftest", "--seed", "2"], 0),
    (["classify", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7", "--q-half", "i"], 2),
    (["construct", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7", "--q-half", "2",
      "--kind", "T2[++,++;n=0]"], 3),
    (["construct", "--k0", "2", "--k1", "3", "--u0", "0.4", "--u1", "0.3", "--q-half", "1.25",
      "--kind", "T2[++,++;n=1]", "--force"], 4),
])
def test_every_command_report_is_the_stdlib_encoding(capsys, tmp_path, argv, code):
    rep_file = tmp_path / "rep.json"
    assert cli.main(["construct", *ONE_DIM, "--kind", "T2[++,++;n=0]",
                     "--out", str(rep_file)]) == 0
    capsys.readouterr()
    argv = [str(rep_file) if a == "REP" else a for a in argv]
    got, out = run(capsys, argv)
    assert got == code
    assert assert_stdlib_report(out)["exit_code"] == code


@pytest.mark.parametrize("n", [0, 3])
def test_construct_report_text_and_rep_file_are_the_stdlib_encoding(capsys, tmp_path, rng, n):
    kind = Type2(1, -1, 1, 1, n)
    args = [*_param_args(sample_stratum_params(kind, rng)), "--kind", kind_to_str(kind)]
    code, out = run(capsys, ["construct", *args])
    assert code == 0
    report = assert_stdlib_report(out)

    code, text = run(capsys, ["construct", *args, "--format", "text"])
    assert code == 0
    header, _, body = text.partition("\n")
    assert header.startswith("# construct (v")
    assert body == stdlib(json.loads(body)) + "\n"
    assert json.loads(body) == report["results"]

    rep_file = tmp_path / "rep.json"
    code, out = run(capsys, ["construct", *args, "--out", str(rep_file)])
    assert code == 0
    written = rep_file.read_text(encoding="utf-8")
    stored = json.loads(written)
    assert written == stdlib(stored)  # no trailing newline
    report = assert_stdlib_report(out)
    assert report["results"]["rep"] == stored
    assert report["results"]["rep_file"] == str(rep_file)
    assert stored["dim"] == len(stored["T0"]) == report["results"]["dim_vector"][0]
