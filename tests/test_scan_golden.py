"""scan CSV output, pinned by its SHA-256.

tests/data/scan_n20.sha256 holds one line per scan, in the format of
``sha256sum``: the digest of the scan's standard output, then the scan's
arguments.  The CSV must stay byte-identical across changes to the
stratum layer.  Regenerate the file (only when a change of output is
intended) with

    PYTHONPATH=src python tests/test_scan_golden.py
"""

import contextlib
import hashlib
import io
import os

from daha_cc1 import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "scan_n20.sha256")
SCANS = [
    ["scan", "--count", "200", "--seed", "7", "--format", "csv", "--n-max", str(n)]
    for n in (20, 6)
]


def _digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_scan_csv_matches_golden_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = [line.split(maxsplit=1) for line in fh if line.strip()]
    assert [argv.split() for _, argv in golden] == SCANS
    for digest, argv in golden:
        assert _digest(argv.split()) == digest, argv


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.writelines(f"{_digest(argv)}  {' '.join(argv)}\n" for argv in SCANS)
