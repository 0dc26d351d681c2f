"""scan CSV output, pinned by its SHA-256.

tests/data/scan_n20.sha256 and tests/data/scan_planted.sha256 hold one
line per scan, in the format of ``sha256sum``: the digest of the scan's
standard output, then the scan's arguments.  The first file pins random
points, which hit no stratum; the second pins scans of
tests/data/scan_planted_points.csv, points planted on the strata of all
24 families at mixed levels and |q^{1/2}|, whose rows do carry hits.  The
CSV must stay byte-identical across changes to the stratum layer.
Regenerate the digests (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_scan_golden.py

The points file is kept as it is; ``--points`` writes it afresh.
"""

import cmath
import contextlib
import hashlib
import io
import math
import os
import sys

import numpy as np

from daha_cc1 import cli, strata
from daha_cc1.roots import Imaginary, Type2, enumerate_strict_roots
from daha_cc1.strata import one_leg, random_unit

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "scan_n20.sha256")
SCANS = [
    ["scan", "--count", "200", "--seed", "7", "--format", "csv", "--n-max", str(n)]
    for n in (20, 6)
]
PLANTED_GOLDEN = os.path.join(DATA, "scan_planted.sha256")
PLANTED_POINTS = "scan_planted_points.csv"
PLANTED_SCANS = [
    ["scan", "--points-file", PLANTED_POINTS, "--format", "csv", "--n-max", str(n),
     "--jobs", str(jobs)]
    for n in (20, 6)
    for jobs in (1, 2)
]


def _digest(argv: list[str]) -> str:
    # the points file is named in the golden lines, and found in DATA
    argv = [os.path.join(DATA, a) if a == PLANTED_POINTS else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _check(path: str, scans: list[list[str]]) -> None:
    with open(path, encoding="utf-8") as fh:
        golden = [line.split(maxsplit=1) for line in fh if line.strip()]
    assert [argv.split() for _, argv in golden] == scans
    for digest, argv in golden:
        assert _digest(argv.split()) == digest, argv


def test_scan_csv_matches_golden_digests():
    _check(GOLDEN, SCANS)


def test_scan_csv_of_planted_points_matches_golden_digests():
    _check(PLANTED_GOLDEN, PLANTED_SCANS)


def test_planted_scan_is_the_same_with_a_block_boundary_between_multi_stratum_rows(monkeypatch):
    # the first two neighbouring rows that each hit two strata or more
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([os.path.join(DATA, a) if a == PLANTED_POINTS else a
                         for a in PLANTED_SCANS[0]]) == 0
    strata_hit = [line.split(",", 6)[6].count("[") for line in out.getvalue().splitlines()[1:]]
    row = next(i for i in range(len(strata_hit) - 1) if min(strata_hit[i : i + 2]) >= 2)
    # a jobs-1 scan classifies its one share in blocks; the first ends at row
    monkeypatch.setattr(strata, "_BLOCK", row + 1)
    _check(PLANTED_GOLDEN, PLANTED_SCANS)


def _planted_points_text() -> str:
    """Two points per family, 48 in all: each planted on the stratum of
    its family at a level of a shuffled 0..20 cycle (one-leg levels from
    1), with |q^{1/2}| cycling through 0.3, 0.5, 1.3, 2 and 3.  The second
    point of a family above level 0 first plants a one-leg equality of a
    level up to its own on k0, k1 or u0, so that some rows hit two
    strata.  Each value is written so that the CLI parses back the same
    doubles."""
    rng = np.random.default_rng(1515)
    kinds = [k for k, _ in enumerate_strict_roots(20) if not isinstance(k, Imaginary)]
    levels = [int(n) for n in rng.permutation(21)] * 3
    lines = []
    for j in range(48):
        family, n = j % 24, levels[j]
        n = max(n, 1) if family >= 16 else n
        kind = [k for k in kinds if k.n == n][family]
        qh = cmath.rect((0.3, 0.5, 1.3, 2.0, 3.0)[j % 5], rng.uniform(0.0, 2 * math.pi))
        vals = {name: random_unit(rng) for name in ("k0", "k1", "u0", "u1")}
        if j >= 24 and n >= 1:
            leg, s = ("k0", "k1", "u0")[j % 3], (1, -1)[j % 2]
            vals[leg] = cmath.sqrt(-((qh * qh) ** int(rng.integers(1, n + 1)))) ** s
        if isinstance(kind, Type2):
            rest = 1 + 0j
            for name, s in zip(("k0", "k1", "u0"), kind.signs):
                rest *= s * vals[name] ** s
            s = kind.signs[3]
            vals["u1"] = (qh ** (-1 - 2 * n) / (rest * s)) ** s
        else:
            g, s = one_leg(kind)
            vals[g.t] = cmath.sqrt(-((qh * qh) ** n)) ** s
        lines.append(",".join(f"{z.real!r}{z.imag:+.17g}i" for z in (*vals.values(), qh)))
    return "# points planted by tests/test_scan_golden.py --points\n" + "\n".join(lines) + "\n"


if __name__ == "__main__":
    if "--points" in sys.argv[1:]:
        with open(os.path.join(DATA, PLANTED_POINTS), "w", encoding="utf-8") as fh:
            fh.write(_planted_points_text())
    for path, scans in ((GOLDEN, SCANS), (PLANTED_GOLDEN, PLANTED_SCANS)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{_digest(argv)}  {' '.join(argv)}\n" for argv in scans)
