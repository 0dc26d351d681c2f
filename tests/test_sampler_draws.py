"""The two parameter samplers' draws, pinned to a golden file.

The acceptance corpus and the negative suite are drawn by these samplers,
so a change to either sampler's acceptance test shows up here as a
changed float.  The loose tolerances make the acceptance tests reject
draws, so the rejection path is pinned too.

Regenerate the golden file (only when a change of draws is intended) with

    PYTHONPATH=src python tests/test_sampler_draws.py
"""

import json
import os

import numpy as np

from daha_cc1.core import Tolerance
from daha_cc1.roots import enumerate_strict_roots
from daha_cc1.strata import sample_generic_params, sample_stratum_params

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sampler_draws.json")
DEFAULT = Tolerance()
# about half of the generic draws at eq_tol 1e-4, and 5% of the stratum
# draws at 1e-6, are rejected
LOOSE_GENERIC = Tolerance(eq_tol=1e-4)
LOOSE_STRATUM = Tolerance(eq_tol=1e-6)
REAL_KINDS = [k for k, _ in enumerate_strict_roots(20)]


def _floats(p):
    return [x for nm in ("k0", "k1", "u0", "u1", "q_half")
            for x in (complex(getattr(p, nm)).real, complex(getattr(p, nm)).imag)]


def draws() -> dict[str, list[list[float]]]:
    """Every pinned draw: three generic draws per seed 0..49 at each
    tolerance, and one stratum draw per real kind up to level 20 at two
    seeds, each seed's generator shared across its kinds."""
    out = {}
    for name, tol in (("generic", DEFAULT), ("generic_loose", LOOSE_GENERIC)):
        out[name] = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            out[name] += [_floats(sample_generic_params(rng, tol)) for _ in range(3)]
    for name, seed, tol in (("stratum", 1, DEFAULT), ("stratum_loose", 2, LOOSE_STRATUM)):
        rng = np.random.default_rng(seed)
        out[name] = [_floats(sample_stratum_params(k, rng, tol)) for k in REAL_KINDS]
    return out


def test_sampler_draws_match_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = draws()
    assert list(got) == list(golden)
    for name, rows in got.items():
        assert len(rows) == len(golden[name]), name
        for i, (row, want) in enumerate(zip(rows, golden[name])):
            assert row == want, (name, i)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for j, (name, rows) in enumerate(draws().items()):
            fh.write(f'"{name}": [\n')
            fh.write(",\n".join(json.dumps(row) for row in rows))
            fh.write("\n]" + (",\n" if j < 3 else "\n"))
        fh.write("}\n")
