import json
import os
import subprocess
import sys

from daha_cc1 import cli
from daha_cc1.cli import main
from daha_cc1.roots import Type1E, Type2, kind_to_str, root_of_kind
from daha_cc1.strata import sample_stratum_params

ONE_DIM = [
    "--k0", "2", "--k1", "3", "--u0", "5",
    "--u1", "0.016666666666666666", "--q-half", "2",
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_one_dim_example(capsys):
    code, out = run_cli(capsys, ["classify", *ONE_DIM, "--n-max", "3"])
    report = json.loads(out)
    assert code == 0
    assert report["exit_code"] == 0
    assert report["command"] == "classify"
    assert report["results"]["hits"] == [
        {"kind": "T2[++,++;n=0]", "root": "(1,0,0,0,0)"}
    ]


def test_classify_generic_is_empty(capsys):
    code, out = run_cli(
        capsys,
        [
            "classify", "--k0=1.3+0.4i", "--k1=0.7-0.9i",
            "--u0=-1.1+0.6i", "--u1=0.5+1.2i", "--q-half=1.25+0.3i",
        ],
    )
    assert code == 0
    assert json.loads(out)["results"]["hits"] == []


def test_root_of_unity_is_input_error(capsys):
    code, out = run_cli(
        capsys,
        ["classify", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7",
         "--q-half", "i"],
    )
    assert code == 2
    assert "RootOfUnity" in json.loads(out)["results"]["error"]


def test_missing_parameters_is_input_error(capsys):
    code, out = run_cli(capsys, ["classify", "--k0", "2"])
    assert code == 2


def test_construct_one_dim(capsys, tmp_path):
    rep_file = tmp_path / "rep.json"
    code, out = run_cli(
        capsys,
        ["construct", *ONE_DIM, "--kind", "T2[++,++;n=0]",
         "--out", str(rep_file)],
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dim_vector"] == [1, 0, 0, 0, 0]
    assert report["results"]["commutant_dim"] == 1
    assert report["results"]["rigidity_D"] == 0
    assert all(v < 1e-12 for v in report["residuals"].values())
    assert report["results"]["ds"]["class_membership"] is True
    stored = json.loads(rep_file.read_text())
    assert stored["dim"] == 1


def test_construct_off_stratum_exits_3(capsys):
    code, out = run_cli(
        capsys,
        ["construct", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7",
         "--q-half", "2", "--kind", "T2[++,++;n=0]"],
    )
    assert code == 3
    assert json.loads(out)["exit_code"] == 3


def test_construct_type2_level1(capsys, rng):
    kind = Type2(1, 1, 1, 1, 1)
    p = sample_stratum_params(kind, rng)

    def lit(z):
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"

    code, out = run_cli(
        capsys,
        ["construct", f"--k0={lit(p.k0)}", f"--k1={lit(p.k1)}",
         f"--u0={lit(p.u0)}", f"--u1={lit(p.u1)}",
         f"--q-half={lit(p.q_half)}", "--kind", "T2[++,++;n=1]"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dim_vector"] == [3, 1, 1, 1, 1]
    assert report["results"]["commutant_dim"] == 1
    assert report["results"]["rigidity_D"] == 0


def test_spectrum_command(capsys):
    code, out = run_cli(capsys, ["spectrum", *ONE_DIM, "--kind", "T2[++,++;n=0]"])
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["spectrum_z"]) == 1
    assert report["results"]["spectrum_z"] == report["results"]["expected_ladder"]


def test_ds_check_round_trip(capsys, tmp_path):
    rep_file = tmp_path / "rep.json"
    run_cli(
        capsys,
        ["construct", *ONE_DIM, "--kind", "T2[++,++;n=0]",
         "--out", str(rep_file)],
    )
    code, out = run_cli(capsys, ["ds-check", *ONE_DIM, "--rep", str(rep_file)])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["class_membership"] is True
    assert report["results"]["existence_predicate"] is True


def test_scan_single_point_matches_classify(capsys):
    code, out = run_cli(capsys, ["scan", *ONE_DIM, "--n-max", "3"])
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 1
    assert rows[0]["hits"] == ["T2[++,++;n=0]"]


def test_scan_csv_header(capsys):
    code, out = run_cli(
        capsys, ["scan", "--count", "3", "--seed", "1", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "idx,k0,k1,u0,u1,q_half,hits"
    assert len(out.splitlines()) == 4


def test_scan_points_file(capsys, tmp_path):
    pts = tmp_path / "points.csv"
    pts.write_text("2,3,5,0.016666666666666666,2\n2,3,5,7,2\n")
    code, out = run_cli(capsys, ["scan", "--points-file", str(pts)])
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert rows[0]["hits"] == ["T2[++,++;n=0]"]
    assert rows[1]["hits"] == []


def test_scan_random_generic_rarely_hits(capsys):
    code, out = run_cli(
        capsys, ["scan", "--count", "50", "--seed", "11", "--n-max", "4"]
    )
    rows = json.loads(out)["results"]["rows"]
    hits = sum(1 for row in rows if row["hits"])
    assert hits == 0


def test_scan_deterministic_across_parallelism():
    base = [
        sys.executable, "-m", "daha_cc1.cli", "scan",
        "--count", "24", "--seed", "7", "--format", "csv",
    ]
    out1 = subprocess.run(
        [*base, "--jobs", "1"], capture_output=True, check=True
    ).stdout
    out8 = subprocess.run(
        [*base, "--jobs", "8"], capture_output=True, check=True
    ).stdout
    assert out1 == out8


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "k0 = 2\nk1 = 3\nu0 = 5\nu1 = 7\nq_half = 2\nn_max = 3\n"
    )
    # flag overrides the config's u1, putting the point on the stratum
    code, out = run_cli(
        capsys,
        ["classify", "--config", str(cfg), "--u1", "0.016666666666666666"],
    )
    assert code == 0
    assert len(json.loads(out)["results"]["hits"]) == 1
    code, out = run_cli(capsys, ["classify", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["results"]["hits"] == []


def test_malformed_config_is_input_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k0 2\n")
    code, _ = run_cli(capsys, ["classify", "--config", str(cfg)])
    assert code == 2


def test_n_max_guard(capsys):
    code, _ = run_cli(capsys, ["classify", *ONE_DIM, "--n-max", "21"])
    assert code == 2


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, ["selftest", "--seed", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["summary"] == "all properties passed"
    assert report["residuals"]["relations"] < 1e-8


def test_selftest_detects_convention_flip(capsys):
    code, out = run_cli(
        capsys, ["selftest", "--seed", "2", "--debug-flip-convention"]
    )
    assert code == 1
    report = json.loads(out)
    assert "relation-suite" in report["results"]["failed"]


def test_flip_convention_is_an_argument_not_state(capsys):
    # the same failures as the module-global injector it replaced, and a
    # run without the flag afterwards is clean
    code, out = run_cli(capsys, ["selftest", "--seed", "2", "--debug-flip-convention"])
    assert json.loads(out)["results"]["failed"] == ["operator-convention", "relation-suite"]
    code, out = run_cli(capsys, ["selftest", "--seed", "2"])
    assert code == 0 and json.loads(out)["results"]["failed"] == []


def test_construct_on_coincident_roots_is_a_verification_exit(capsys):
    # k0 u0 = q^{-1/2}: two level-1 divisor roots coincide
    code, out = run_cli(capsys, [
        "construct", "--k0", "2", "--k1", "3", "--u0", "0.4", "--u1", "0.3",
        "--q-half", "1.25", "--kind", "T2[++,++;n=1]", "--force",
    ])
    assert code == 4
    assert json.loads(out)["results"]["error"].startswith("DegenerateLadderError")


def test_scan_error_row_is_unchanged(capsys, tmp_path):
    # q = 1 and q = -1 give the same rows as when the scan worker
    # validated each point before classifying it
    pts = tmp_path / "pts.csv"
    pts.write_text(
        "1.1,0.9,1.2,0.8,1\n"
        "2,3,5,0.016666666666666666,2\n"
        "0.3+1.2i,1.1,0.7-0.2i,1.3,0+1i\n"
    )
    code, out = run_cli(
        capsys, ["scan", "--points-file", str(pts), "--format", "csv", "--n-max", "4"]
    )
    assert code == 0
    assert out == (
        "idx,k0,k1,u0,u1,q_half,hits\n"
        "0,1.1,0.9,1.2,0.8,1,error:RootOfUnityError\n"
        "1,2,3,5,0.0166666666667,2,T2[++,++;n=0]\n"
        "2,0.3+1.2i,1.1,0.7-0.2i,1.3,0+1i,error:RootOfUnityError\n"
    )


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its use."""

    started = 0

    def __init__(self, max_workers):
        _RecordingPool.started += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize):
        return map(fn, jobs)


def test_scan_starts_a_pool_only_for_more_than_one_chunk(capsys, monkeypatch):
    base = ["scan", "--seed", "5", "--format", "csv", "--n-max", "6"]
    _, serial = run_cli(capsys, [*base, "--count", "8", "--jobs", "1"])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.started = 0
    _, parallel = run_cli(capsys, [*base, "--count", "8", "--jobs", "2"])
    assert _RecordingPool.started == 0
    assert parallel == serial
    run_cli(capsys, [*base, "--count", "9", "--jobs", "2"])
    assert _RecordingPool.started == 1


def test_selftest_detects_loose_tolerance(capsys):
    code, out = run_cli(capsys, ["selftest", "--seed", "2", "--tol", "0.5"])
    assert code == 1
    assert "q-power-guard" in json.loads(out)["results"]["failed"]


def test_classify_explain_output_is_unchanged(capsys):
    # near-miss point: k0^2 = -q and the level-2 product equality hold, so
    # T2[++,++;n=2] fails only its k0 inequality at m=1; the golden file is
    # the output of the per-kind classify that preceded the shared table
    golden = os.path.join(os.path.dirname(__file__), "data", "classify_explain_near_miss.json")
    argv = [
        "classify", "--explain", "--n-max", "6", "--k0=0.2-1.3i", "--k1=1.7-0.4i",
        "--u0=0.6+0.9i", "--u1=0.10176087176962838-0.009881612485368965i",
        "--q-half=1.3+0.2i",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    with open(golden, encoding="utf-8") as fh:
        assert out == fh.read()
    near = json.loads(out)["results"]["near_misses"]
    assert {"kind": "T2[++,++;n=2]", "member": False, "failed": ["neq.k0.m1"]} in near


def _param_args(p):
    """Flags that parse back to exactly the double pairs of p."""
    args = []
    for key in ("k0", "k1", "u0", "u1", "q_half"):
        z = getattr(p, key)
        args.append(f"--{key.replace('_', '-')}={z.real!r}{z.imag:+.17g}i")
    return args


# a stratum point of T2[++,++;n=15] with |q^{1/2}| = 2, where dim_vector
# cannot decide a rank
RANK_INDETERMINATE = [
    "construct", "--k0=0.03143933941407412+0.81829639469571425i",
    "--k1=-0.23823374409583042+0.51728007033106138i",
    "--u0=0.301269535874758-0.90206091020848767i",
    "--u1=-1.4609787207018013e-10+1.0396760029319382e-09i",
    "--q-half=0.4477125137693288-1.9492443420501055i", "--kind", "T2[++,++;n=15]",
]


def test_rank_indeterminate_is_a_verification_exit(capsys):
    code, out = run_cli(capsys, RANK_INDETERMINATE)
    assert code == 4
    report = json.loads(out)
    assert report["exit_code"] == 4
    assert report["results"]["error"].startswith("RankIndeterminateError")


def test_rank_indeterminate_reports_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "daha_cc1.cli", *RANK_INDETERMINATE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["exit_code"] == 4


def test_construct_and_ds_check_agree(capsys, tmp_path, rng):
    rep_file = tmp_path / "rep.json"
    kinds = [Type2(1, -1, 1, 1, n) for n in (2, 5)]
    kinds += [Type1E(0, 1, n) for n in (3, 6)]
    for kind in kinds:
        args = _param_args(sample_stratum_params(kind, rng))
        code, out = run_cli(capsys, [
            "construct", *args, "--kind", kind_to_str(kind), "--out", str(rep_file),
        ])
        assert code == 0
        built = json.loads(out)
        code, out = run_cli(capsys, ["ds-check", *args, "--rep", str(rep_file)])
        assert code == 0
        checked = json.loads(out)
        assert checked["residuals"] == built["residuals"]
        assert checked["results"]["dim_vector"] == built["results"]["dim_vector"]
        assert checked["results"]["dim_vector"] == list(root_of_kind(kind))
        for key in ("product_residual", "class_membership", "existence_predicate"):
            assert checked["results"][key] == built["results"]["ds"][key], (kind, key)


def test_the_reused_parser_keeps_no_state_between_calls(capsys):
    assert cli._make_parser() is cli._make_parser()
    off = ["construct", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7",
           "--q-half", "2", "--kind", "T2[++,++;n=0]"]
    code, _ = run_cli(capsys, [*off, "--force"])
    assert code != 3
    code, out = run_cli(capsys, off)
    assert code == 3
    assert json.loads(out)["results"]["failed"]
    run_cli(capsys, ["classify", "--explain", *ONE_DIM])
    code, out = run_cli(capsys, ["classify", *ONE_DIM])
    assert code == 0
    assert "near_misses" not in json.loads(out)["results"]
