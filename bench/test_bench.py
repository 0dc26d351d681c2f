"""Tests for the benchmark harness: seeded inputs, and answer checks that
trip on a perturbed answer.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from daha_cc1 import cli, rep, strata  # noqa: E402
from daha_cc1.core import Params, parse_scalar  # noqa: E402
from daha_cc1.roots import Type2, kind_to_str  # noqa: E402


def params(pt) -> Params:
    return Params(*pt.values)


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [inputs.scan_batches, inputs.construct_requests, inputs.ladder_sweeps]
)
def test_inputs_are_seed_deterministic(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_scan_batches_cover_every_family_and_level():
    batches = inputs.scan_batches(3)
    planted = [pt for batch in batches for pt in batch if pt.kind is not None]
    assert sorted(pt.family for pt in planted) == list(range(24))
    assert {pt.kind.n for pt in planted} == set(range(21))
    for batch in batches:
        n_planted = sum(pt.kind is not None for pt in batch)
        assert len(batch) - n_planted > n_planted  # mostly generic
        near = [pt for pt in batch if abs(abs(pt.values[4]) - 1) < 0.03]
        assert len(near) == inputs.SCAN_NEAR_UNIT


def test_construct_and_ladder_cover_their_cells():
    reqs = inputs.construct_requests(3)
    assert sorted((pt.family, pt.kind.n) for pt in reqs) == sorted(
        c for c in inputs.cells() if c[1] <= 6
    )
    sweeps = inputs.ladder_sweeps(3)
    assert {(pt.family, pt.kind.n) for sweep in sweeps for pt in sweep} == set(inputs.cells())
    assert all([pt.kind.n for pt in sweep] == list(range(21)) for sweep in sweeps)


def test_ladder_q_moduli_take_one_value_per_slice():
    mods = inputs.stratified_q_mods(np.random.default_rng(4), 10)
    lo, hi = inputs.Q_MOD
    assert sorted(int((m - lo) / (hi - lo) * 10) for m in mods) == list(range(10))
    sweeps = inputs.ladder_sweeps(4)
    assert all(lo <= abs(pt.values[4]) < hi for sweep in sweeps for pt in sweep)


def test_planted_points_lie_on_their_stratum_and_round_trip():
    rng = np.random.default_rng(5)
    for f, n in inputs.cells()[::7]:
        pt = inputs.planted_point(f, n, rng)
        assert strata.sigma_membership(params(pt), pt.kind).member, (f, n)
        assert tuple(parse_scalar(inputs.literal(v)) for v in pt.values) == pt.values


# -- scan checks -----------------------------------------------------------


def scan_outputs(tmp_path, pts):
    path = tmp_path / "pts.csv"
    path.write_text(inputs.points_file_text(pts))
    out = []
    for name, n_max, jobs in workloads.SCAN_CONFIGS:
        _, code, text, escaped = workloads.call_cli(
            ["scan", "--points-file", str(path), "--format", "csv",
             "--n-max", str(n_max), "--jobs", str(jobs)])
        out.append((name, n_max, code, text, escaped))
    return out


def scan_tally(pts, outputs):
    """Check n20, jobs2 and nmax6 outputs the way a scan run does."""
    tally = workloads.Tally()
    scan = workloads.Scan.__new__(workloads.Scan)
    scan.batches, scan.hits = [pts], 0
    n20 = (scan.check(0, outputs[0], tally), outputs[0][3])
    for out in outputs[1:]:
        scan.check(0, out, tally, n20)
    return tally


def replace_text(outputs, name, text):
    return [(nm, n, code, text if nm == name else t, esc) for nm, n, code, t, esc in outputs]


@pytest.fixture(scope="module")
def small_scan(tmp_path_factory):
    rng = np.random.default_rng(11)
    pts = [inputs.planted_point(0, 3, rng), inputs.generic_point(rng),
           inputs.planted_point(20, 9, rng), inputs.near_unit_point(rng)]
    return pts, scan_outputs(tmp_path_factory.mktemp("scan"), pts)


def test_scan_checks_pass_on_the_program_output(small_scan):
    pts, outputs = small_scan
    tally = scan_tally(pts, outputs)
    assert tally.wrong == [] and tally.ok == tally.attempted == 12


def test_scan_check_trips_on_a_dropped_planted_hit(small_scan):
    pts, outputs = small_scan
    text = outputs[0][3]
    name = kind_to_str(pts[0].kind)
    assert name in text
    assert scan_tally(pts, replace_text(outputs, "n20", text.replace(name, ""))).wrong
    assert checks.check_scan_row(pts[0].kind, [], 20).status == "wrong"


def test_scan_check_trips_on_a_changed_csv_byte(small_scan):
    pts, outputs = small_scan
    text = outputs[1][3]
    i = text.index("\n", text.index("\n") + 1) - 1  # last byte of row 0
    changed = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    tally = scan_tally(pts, replace_text(outputs, "jobs2", changed))
    assert any("differs" in w for w in tally.wrong)


def test_repeats_count_once_and_trip_on_another_answer(small_scan):
    pts, outputs = small_scan
    tally = scan_tally(pts, outputs)
    scan = workloads.Scan.__new__(workloads.Scan)
    scan.batches, scan.hits = [pts], 0
    scan.check(0, outputs[0], tally)
    assert tally.wrong == [] and tally.attempted == 12
    text = outputs[0][3].replace(kind_to_str(pts[0].kind), "")
    scan.check(0, replace_text(outputs, "n20", text)[0], tally)
    assert tally.attempted == 12 and tally.wrong


def test_scan_check_trips_on_a_generic_hit_and_level_mismatch():
    assert checks.check_scan_row(None, ["T2[++,++;n=1]"], 20).status == "wrong"
    assert checks.check_scan_levels([], ["T2[++,++;n=1]"], 6).status == "wrong"
    assert checks.check_scan_levels([], ["T2[++,++;n=7]"], 6).status == "ok"
    assert checks.check_scan_row(None, ["error:RootOfUnityError"], 20).status == "refused"


# -- construct and ds-check checks -----------------------------------------


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    pt = inputs.planted_point(5, 2, np.random.default_rng(3))
    out = tmp_path_factory.mktemp("construct") / "rep.json"
    _, code, text, _ = workloads.call_cli(
        ["construct", *inputs.param_args(pt), "--kind", kind_to_str(pt.kind),
         "--out", str(out)])
    return pt, out, code, text


def test_construct_check_trips_on_a_wrong_report(built):
    pt, _, code, text = built
    root = inputs.expected_root(pt)
    assert checks.check_construct(code, text, root) == checks.OK
    report = json.loads(text)
    report["results"]["dim_vector"][1] += 1
    assert checks.check_construct(code, json.dumps(report), root).status == "wrong"
    report = json.loads(text)
    report["results"]["commutant_dim"] = 2
    assert checks.check_construct(code, json.dumps(report), root).status == "wrong"
    assert checks.check_construct(4, text, root).status == "refused"


def test_ds_check_trips_on_one_perturbed_matrix_entry(built, tmp_path):
    pt, rep_file, _, _ = built
    argv = ["ds-check", *inputs.param_args(pt), "--rep"]
    _, code, text, _ = workloads.call_cli(argv + [str(rep_file)])
    assert checks.check_ds_check(code, text) == checks.OK
    data = json.loads(rep_file.read_text())
    data["T1"][0][1][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    _, code, text, _ = workloads.call_cli(argv + [str(bad)])
    assert checks.check_ds_check(code, text).status == "wrong"


# -- library build checks --------------------------------------------------


def test_build_check_trips_on_one_perturbed_matrix_entry():
    pt = inputs.planted_point(3, 2, np.random.default_rng(9))
    p = params(pt)
    r = rep.build_quotient_rep(pt.kind, None, p)
    ladder = rep.rho_ladder(rep.SignVector(*pt.kind.signs), 2, p)
    root = inputs.expected_root(pt)

    def outcome(r):
        return checks.check_build(rep.dim_vector(r, p).as_tuple(), root,
                                  rep.spectrum_of_z(r, p), ladder)

    assert outcome(r) == checks.OK
    r.T0[0, 1] += 1e-3 * np.abs(r.T0).max()
    assert outcome(r).status == "wrong"


def test_spectrum_check_trips_on_a_moved_eigenvalue():
    ladder = [1.5 + 0.5j, 2.0, -3.0j]
    assert checks.check_spectrum(list(ladder), ladder) is None
    assert checks.check_spectrum([1.5 + 0.5j, 2.0, -3.0j + 1e-4], ladder)
    assert checks.check_spectrum([2.0, 2.0, -3.0j], ladder)


# -- tracing ---------------------------------------------------------------


def test_tracer_restores_every_wrapped_attribute_and_keeps_output(built):
    pt = built[0]
    before = {(m, a): getattr(m, a) for _, sites in tracing.SPANS + tracing.COUNTS
              for m, a in sites}
    argv = ["classify", *inputs.param_args(pt), "--n-max", "4"]
    plain = workloads.call_cli(argv)[1:]
    tracer = tracing.Tracer()
    with tracer:
        assert cli.main is not before[(cli, "main")]
        traced = workloads.call_cli(argv)[1:]
    assert traced == plain
    assert all(getattr(m, a) is f for (m, a), f in before.items())
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["strata.sigma_membership"]["calls"] == 16 * 5 + 8 * 4


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [(0, -1, "a", 0, 10_000_000, 0), (1, 0, "b", 2_000_000, 5_000_000, 0),
                    (2, 1, "c", 3_000_000, 4_000_000, 0)]
    totals = tracer.layer_totals()
    assert totals["a"]["ms"] == pytest.approx(7.0)
    assert totals["b"]["ms"] == pytest.approx(2.0)
    assert totals["c"]["ms"] == pytest.approx(1.0)


def test_type2_kind_families_come_first():
    assert all(isinstance(inputs.make_kind(f, 1), Type2) == (f < 16) for f in range(24))
