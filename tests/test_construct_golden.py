"""construct and ds-check reports, pinned to a golden file.

For ten stratum points (two type-2 kinds at levels 0, 3 and 6, one T1E
and one T1F kind at levels 3 and 6) the golden file holds the construct
stdout and exit code, the rep file construct writes with --out, and the
ds-check stdout and exit code on that file, with the rep file's path
masked.  Any change to a report's bytes shows up here.

Regenerate the golden file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_construct_golden.py
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np

from daha_cc1 import cli
from daha_cc1.roots import Type1E, Type1F, Type2, kind_to_str
from daha_cc1.strata import sample_stratum_params
from test_cli import _param_args

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "construct_ds_check.json")
KINDS = (
    [k for n in (0, 3, 6) for k in (Type2(1, 1, 1, 1, n), Type2(-1, 1, 1, -1, n))]
    + [k for n in (3, 6) for k in (Type1E(0, 1, n), Type1F(1, -1, n))]
)
MASK = "<rep_file>"


def _run(argv, rep_file):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().replace(rep_file, MASK)


def reports(workdir: str) -> list[dict]:
    """One construct --out and one ds-check per kind, at points drawn in
    KINDS order from one seeded generator."""
    rng = np.random.default_rng(4099)
    rep_file = os.path.join(workdir, "rep.json")
    out = []
    for kind in KINDS:
        args = _param_args(sample_stratum_params(kind, rng))
        code, text = _run(["construct", *args, "--kind", kind_to_str(kind), "--out", rep_file],
                          rep_file)
        with open(rep_file, encoding="utf-8") as fh:
            stored = fh.read()
        ds_code, ds_text = _run(["ds-check", *args, "--rep", rep_file], rep_file)
        out.append({
            "kind": kind_to_str(kind), "args": args,
            "construct_exit": code, "construct_stdout": text, "rep_file": stored,
            "ds_check_exit": ds_code, "ds_check_stdout": ds_text,
        })
    return out


def test_construct_and_ds_check_reports_match_golden_file(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = reports(str(tmp_path))
    assert len(got) == len(golden) == 10
    for row, want in zip(got, golden):
        for key in want:
            assert row[key] == want[key], (want["kind"], key)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = reports(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
