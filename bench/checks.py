"""Answer checks.  Each returns an Outcome for one op:

- ``ok``: the program answered and the answer passed;
- ``refused``: the program raised, exited non-zero or printed an error
  row; this lowers ok_ratio only;
- ``wrong``: the program returned an answer that fails the check; this
  fails the run.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple, Optional

from daha_cc1.cli import EXIT_OFF_STRATUM, EXIT_VERIFY
from daha_cc1.roots import kind_to_str

SPECTRUM_RTOL = 1e-6
SCAN_HEADER = "idx,k0,k1,u0,u1,q_half,hits"
_LEVEL_RE = re.compile(r";n=(\d+)\]$")
# hits are joined with ";", which kind strings also hold before "n="
_HIT_SEP = re.compile(r";(?!n=)")


class Outcome(NamedTuple):
    status: str  # "ok", "refused" or "wrong"
    detail: Optional[str] = None  # exception type or failed check


OK = Outcome("ok")


def refused(exc_type: str) -> Outcome:
    return Outcome("refused", exc_type)


def wrong(reason: str) -> Outcome:
    return Outcome("wrong", reason)


def kind_level(kind_str: str) -> int:
    return int(_LEVEL_RE.search(kind_str).group(1))


# -- scan ------------------------------------------------------------------


def parse_scan_csv(text: str, n_points: int) -> list[list[str]]:
    """Hits per row; raises ValueError unless the CSV has the header and
    rows 0..n_points-1 in order."""
    lines = text.split("\n")
    if lines[0] != SCAN_HEADER or lines[-1] != "":
        raise ValueError("scan CSV header or trailing newline missing")
    rows = lines[1:-1]
    if len(rows) != n_points:
        raise ValueError(f"scan CSV has {len(rows)} rows, expected {n_points}")
    hits = []
    for i, row in enumerate(rows):
        fields = row.split(",", 6)  # kind strings in hits hold commas
        if len(fields) != 7 or fields[0] != str(i):
            raise ValueError(f"scan CSV row {i} malformed")
        hits.append(_HIT_SEP.split(fields[6]) if fields[6] else [])
    return hits


def check_scan_row(planted, hits: list[str], n_max: int) -> Outcome:
    """A planted kind at level <= n_max must be among the hits; a
    generic point has none."""
    if len(hits) == 1 and hits[0].startswith("error:"):
        return refused(hits[0][len("error:"):])
    if planted is None:
        return OK if not hits else wrong(f"generic point hit {hits}")
    name = kind_to_str(planted)
    if kind_level(name) <= n_max and name not in hits:
        return wrong(f"planted {name} missing from {hits}")
    return OK


def check_scan_levels(hits_low: list[str], hits_high: list[str], n_low: int) -> Outcome:
    """The hits at n_max = n_low are the n_max = 20 hits up to level n_low."""
    expect = [h for h in hits_high if not h.startswith("error:") and kind_level(h) <= n_low]
    if hits_low != expect and not any(h.startswith("error:") for h in hits_low + hits_high):
        return wrong(f"n_max {n_low} hits {hits_low} differ from {expect}")
    return OK


# -- construct and ds-check ------------------------------------------------


def _report_error(exit_code: int, text: str) -> str:
    """The exception type behind a non-zero CLI exit."""
    if exit_code == EXIT_OFF_STRATUM:
        return "NotOnStratumError"
    try:
        err = json.loads(text)["results"]["error"]
    except (ValueError, KeyError, TypeError):
        return f"exit{exit_code}"
    head = err.split(":", 1)[0]
    return head if ":" in err and head.isidentifier() else f"exit{exit_code}"


def check_construct(exit_code: int, text: str, root: tuple[int, ...]) -> Outcome:
    if exit_code != 0:
        return refused(_report_error(exit_code, text))
    try:
        res = json.loads(text)["results"]
        dv, comm = tuple(res["dim_vector"]), res["commutant_dim"]
    except (ValueError, KeyError, TypeError) as exc:
        return wrong(f"construct report unreadable: {type(exc).__name__}")
    if dv != root:
        return wrong(f"dim vector {dv} != root {root}")
    if comm != 1:
        return wrong(f"commutant dim {comm} != 1")
    return OK


def check_ds_check(exit_code: int, text: str) -> Outcome:
    """ds-check on a rep that construct returned must certify it.  A
    verification exit (4) means construct returned a wrong rep; any other
    failure is a refusal."""
    if exit_code == 0:
        try:
            member = json.loads(text)["results"]["class_membership"]
        except (ValueError, KeyError, TypeError):
            member = None
        return OK if member is True else wrong("ds-check exit 0 without class membership")
    if exit_code == EXIT_VERIFY:
        return wrong(f"stored rep fails verification: {_report_error(exit_code, text)}")
    return refused(_report_error(exit_code, text))


# -- library builds --------------------------------------------------------


def check_spectrum(got: list[complex], expected: list[complex]) -> Optional[str]:
    """Match the spectrum one-to-one against the expected ladder."""
    left = list(got)
    if len(left) != len(expected):
        return f"spectrum has {len(left)} values, ladder {len(expected)}"
    for e in expected:
        i = min(range(len(left)), key=lambda j: abs(left[j] - e))
        if abs(left[i] - e) > SPECTRUM_RTOL * max(1.0, abs(e)):
            return f"ladder value {e:.6g} missing from the spectrum"
        left.pop(i)
    return None


def check_build(dv: tuple[int, ...], root: tuple[int, ...], spectrum, ladder) -> Outcome:
    if dv != root:
        return wrong(f"dim vector {dv} != root {root}")
    if ladder is not None:
        problem = check_spectrum(spectrum, ladder)
        if problem:
            return wrong(problem)
    return OK
