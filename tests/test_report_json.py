"""Reports and rep files are written byte for byte as
json.dumps(value, indent=2, sort_keys=True) would write them."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from daha_cc1 import cli
from daha_cc1.rep import _matrix_to_json, build_quotient_rep, rep_from_json, rep_to_json
from daha_cc1.roots import Type1E, Type1F, Type2, enumerate_strict_roots, kind_to_str
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
# all-float and all-int lists take the writer's one-call paths; int
# lists may mix in bools, which take the per-item path
leaf_lists = st.one_of(
    st.lists(floats, max_size=4),
    st.lists(floats, max_size=4).map(tuple),
    st.lists(ints, max_size=4),
    st.lists(st.integers(), min_size=1, max_size=6),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    )


# rows x cols x k lists of floats, shaped as rep_to_json's list form of a
# matrix, and near-grids, one edit away from a grid: the writer has no
# path of its own for either (construct writes a rep's matrices from its
# arrays, below), so they pin the per-item path on list values of that shape
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


# Mutations this catches: writing an all-float list without the "n"
# fallback spells nan and inf as float repr does; taking a list with a
# bool in it as all-int spells true as 1.
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


# -- construct's rep text, from a rep's arrays -------------------------------

ZERO_PARTS = [0.0, -0.0]
EDGE_PARTS = [*ZERO_PARTS, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
              math.nan, math.inf, -math.inf]
parts = st.one_of(st.sampled_from(EDGE_PARTS), st.floats())
zero_parts = st.sampled_from(ZERO_PARTS)
# mostly zeros of either sign in either part, as in a rep matrix, then
# entries with one zero part, then any pair of parts
entries = st.one_of(
    st.tuples(zero_parts, zero_parts),
    st.tuples(parts, zero_parts),
    st.tuples(zero_parts, parts),
    st.tuples(parts, parts),
).map(lambda ri: complex(*ri))
stacks = st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(
    lambda kd: st.lists(entries, min_size=kd[0] * kd[1] ** 2, max_size=kd[0] * kd[1] ** 2)
    .map(lambda xs: np.array(xs, dtype=complex).reshape(kd[0], kd[1], kd[1]))
)


# Mutations this catches: dropping the sign-bit lookup (every zero entry
# written as [0.0, 0.0]) loses -0.0; writing a stack that holds a nan or
# an inf by float repr spells them nan and inf.
@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(stacks, st.integers(0, 3))
def test_a_matrix_stack_is_written_as_the_stdlib_writes_its_list_form(mats, depth):
    indent = "\n" + "  " * depth
    expected = [stdlib(_matrix_to_json(M)).replace("\n", indent) for M in mats]
    assert cli._grids(list(mats), indent) == expected


def _built(kinds, rng):
    for kind in kinds:
        p = sample_stratum_params(kind, rng)
        yield kind, p, build_quotient_rep(kind, None, p)


def test_every_kinds_rep_text_is_the_stdlib_encoding():
    # all 24 families at levels 0..20 (a one-leg family starts at level 1)
    kinds = [kind for kind, _ in enumerate_strict_roots(20)]
    assert len(kinds) == 16 * 21 + 8 * 20
    for kind, _, r in _built(kinds, np.random.default_rng(2023)):
        assert cli._rep_text(r) == stdlib(rep_to_json(r)), kind_to_str(kind)


@pytest.mark.parametrize("n", [0, 6, 20])
def test_a_rep_text_reads_back_to_the_bit(n):
    kinds = [kind for kind, _ in enumerate_strict_roots(n) if kind.n == n]
    assert len(kinds) == (16 if n == 0 else 24)
    for kind, _, r in _built(kinds, np.random.default_rng(n)):
        back = rep_from_json(json.loads(cli._rep_text(r)))
        for name in ("roots", "T0", "T0v", "T1", "T1v"):
            got, want = getattr(back, name), getattr(r, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, name)


@pytest.mark.parametrize("fmt, indent", [("json", "\n    "), ("text", "\n  ")])
def test_construct_writes_results_rep_as_the_stdlib_writes_the_built_rep(capsys, fmt, indent):
    kinds = [Type2(-1, -1, -1, -1, 0), Type2(1, -1, 1, 1, 6), Type1E(0, -1, 3), Type1F(1, 1, 5)]
    for kind, p, r in _built(kinds, np.random.default_rng(7)):
        code, out = run(capsys, ["construct", *_param_args(p), "--kind", kind_to_str(kind),
                                 "--format", fmt])
        assert code == 0
        body = out if fmt == "json" else out.partition("\n")[2]
        expected = stdlib(rep_to_json(r)).replace("\n", indent)
        assert f'"rep": {expected},' in body, kind_to_str(kind)
        assert body == stdlib(json.loads(body)) + "\n"
