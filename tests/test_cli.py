import ast
import contextlib
import importlib.util
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from daha_cc1 import cli, core, dsbridge, strata
from daha_cc1 import rep as rep_module
from daha_cc1.cli import main
from daha_cc1.roots import (RootVector, Type1E, Type2, kind_from_str, kind_to_str,
                            root_of_kind)
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
    # two whole shares, so that --jobs 8 forks on a host with 2 CPUs
    base = [
        sys.executable, "-m", "daha_cc1.cli", "scan",
        "--count", str(2 * cli._SCAN_SHARE), "--seed", "7", "--format", "csv",
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


@pytest.mark.parametrize("line", ["nmax = 20", "q-half = 2", "Tol = 1e-9", "explain = 1"])
def test_unknown_config_key_is_input_error(capsys, tmp_path, line):
    # a misspelt key used to be dropped: classify ran at the default n_max
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k0 = 2\nk1 = 3\nu0 = 5\nu1 = 7\nq_half = 2\n{line}\n")
    code, out = run_cli(capsys, ["classify", "--config", str(cfg)])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert repr(line.split(" = ")[0]) in report["results"]["error"]


def test_every_config_key_is_read(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "k0 = 2\nk1 = 3\nu0 = 5\nu1 = 0.016666666666666666\nq_half = 2\n"
        "tol = 1e-7\nn_max = 3\nformat = text\njobs = 1\nseed = 4\n"
    )
    code, out = run_cli(capsys, ["classify", "--config", str(cfg)])
    assert code == 0
    assert out.startswith("# classify")
    assert json.loads(out.split("\n", 1)[1])["n_max"] == 3


@pytest.mark.parametrize("command", ["construct", "spectrum"])
@pytest.mark.parametrize("kind, error", [pytest.param(kind, error, id=kind) for kind, error in [
    ("T1E[i=0,+;n=0]", "NonPositiveEntryError: "),
    ("T1F[i=1,-;n=0]", "NonPositiveEntryError: "),
    # n*Delta carries no irreducible, so it is no kind and does not parse
    ("IM[n=1]", "ValueError: cannot parse root kind 'IM[n=1]'"),
]])
def test_a_kind_that_names_no_root_is_input_error(capsys, command, kind, error):
    # k0^2 = -q^0 here, so the equality of T1E[i=0,+;n=0] holds; but no
    # root has that kind, and its build cannot be certified
    argv = [command, "--k0", "1i", "--k1", "0.7+0.2i", "--u0", "1.3-0.4i",
            "--u1", "0.9+0.5i", "--q-half", "1.3+0.2i", "--kind", kind]
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert json.loads(out)["results"]["error"].startswith(error)


def test_n_max_guard(capsys):
    code, _ = run_cli(capsys, ["classify", *ONE_DIM, "--n-max", "21"])
    assert code == 2


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, ["selftest", "--seed", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["summary"] == "all properties passed"
    assert report["residuals"]["relations"] < 1e-8


def _flip_convention(monkeypatch):
    """Negate c(z) in every generator, the operator fault that breaks
    the quadratic relation."""
    sigma_alpha_beta = rep_module._sigma_alpha_beta

    def flipped(g, sign, p):
        sigma, alpha, beta = sigma_alpha_beta(g, sign, p)
        return sigma, -alpha, -beta

    monkeypatch.setattr(rep_module, "_sigma_alpha_beta", flipped)


def test_selftest_detects_convention_flip(capsys, monkeypatch):
    _flip_convention(monkeypatch)
    code, out = run_cli(capsys, ["selftest", "--seed", "2"])
    assert code == 1
    report = json.loads(out)
    assert "relation-suite" in report["results"]["failed"]


def test_selftest_is_clean_once_the_operator_fault_is_gone(capsys, monkeypatch):
    # the fault fails the operator and relation checks, and a run after
    # it is undone is clean
    _flip_convention(monkeypatch)
    code, out = run_cli(capsys, ["selftest", "--seed", "2"])
    assert code == 1
    assert json.loads(out)["results"]["failed"] == ["operator-convention", "relation-suite"]
    monkeypatch.undo()
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


# a point on u0^2 = -1, a leg equality at m = 0: the build of
# T2[++,-+;n=0] there has the dim vector of T2[++,++;n=0]
WRONG_DIM = [
    "--kind", "T2[++,-+;n=0]", "--k0=-0.550923676069+0.33999682695i",
    "--k1=1.00920854694-0.194848680996i", "--u0=0-1i", "--u1=0.729145226095+0.897055766165i",
    "--q-half=-0.187371686483-1.28642599908i",
]


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["guarded", "forced"])
def test_construct_refuses_a_dim_vector_that_is_not_the_kinds_root(capsys, force):
    code, out = run_cli(capsys, ["construct", *WRONG_DIM, *force])
    assert code == 4
    assert json.loads(out)["results"]["error"] == (
        "DimVectorMismatchError: dim vector [1, 0, 0, 0, 0] is not the root [1, 0, 0, 1, 0] "
        "of T2[++,-+;n=0]")


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


class _CountingFork:
    """Stand-in for cli._FORK that forks as it does and counts the
    children a scan starts."""

    def __init__(self, ctx):
        self.ctx, self.started = ctx, 0

    def Pipe(self, duplex):
        return self.ctx.Pipe(duplex)

    def Process(self, target, args):
        self.started += 1
        return self.ctx.Process(target=target, args=args)


def _small_shares(monkeypatch, cpus: int = 2) -> None:
    """Scan shares of at least 4 points (a chunk, in the tests below) on
    cpus CPUs, so that a scan of a dozen points forks as a large one does,
    whatever the host's CPUs."""
    monkeypatch.setattr(cli, "_SCAN_SHARE", 4)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)


def _children_of(capsys, fork, argv) -> tuple[int, str]:
    """The children one scan started, and its output; every child is
    reaped by the time the scan returns."""
    before = fork.started
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert multiprocessing.active_children() == []
    return fork.started - before, out


def test_scan_forks_a_child_only_for_more_than_one_chunk(capsys, monkeypatch):
    # 7 points are one whole chunk, 8 are two
    _small_shares(monkeypatch)
    fork = _CountingFork(cli._FORK)
    monkeypatch.setattr(cli, "_FORK", fork)
    base = ["scan", "--seed", "5", "--format", "csv", "--n-max", "6"]
    _, serial = run_cli(capsys, [*base, "--count", "7", "--jobs", "1"])
    assert _children_of(capsys, fork, [*base, "--count", "7", "--jobs", "2"]) == (0, serial)
    _, serial = run_cli(capsys, [*base, "--count", "8", "--jobs", "1"])
    assert _children_of(capsys, fork, [*base, "--count", "8", "--jobs", "2"]) == (1, serial)


def test_scan_forks_no_more_children_than_chunks(capsys, monkeypatch):
    # 9 points are 2 whole chunks, 17 are 4: this process scans one
    # share, so a larger --jobs starts no more than chunks - 1, on a host
    # with CPUs to spare
    _small_shares(monkeypatch, cpus=64)
    fork = _CountingFork(cli._FORK)
    monkeypatch.setattr(cli, "_FORK", fork)
    base = ["scan", "--seed", "5", "--format", "csv", "--n-max", "2"]
    started = []
    for count, jobs in (("9", "500"), ("9", "2"), ("17", "500")):
        _, serial = run_cli(capsys, [*base, "--count", count])
        n, out = _children_of(capsys, fork, [*base, "--count", count, "--jobs", jobs])
        assert out == serial
        started.append(n)
    assert started == [1, 1, 3]


def test_scan_forks_no_more_processes_than_cpus(capsys, monkeypatch):
    # 64 points are 16 chunks, and --jobs asks for a million processes:
    # on 2 CPUs the scan runs in this process and one child
    _small_shares(monkeypatch)
    fork = _CountingFork(cli._FORK)
    monkeypatch.setattr(cli, "_FORK", fork)
    base = ["scan", "--seed", "5", "--format", "csv", "--n-max", "2", "--count", "64"]
    _, serial = run_cli(capsys, [*base, "--jobs", "1"])
    with _deadline():
        assert _children_of(capsys, fork, [*base, "--jobs", "1000000"]) == (1, serial)


@pytest.mark.parametrize("count, jobs, children", [
    (16, 2, 0),  # a bench scan batch
    (2 * cli._SCAN_SHARE - 1, 2, 0),
    (2 * cli._SCAN_SHARE, 2, 1),
    (4 * cli._SCAN_SHARE, 1000000, 1),  # capped by the 2 CPUs
])
def test_a_scan_forks_only_for_two_whole_shares(capsys, monkeypatch, count, jobs, children):
    fork = _CountingFork(cli._FORK)
    monkeypatch.setattr(cli, "_FORK", fork)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    base = ["scan", "--seed", "5", "--format", "csv", "--n-max", "2", "--count", str(count)]
    _, serial = run_cli(capsys, [*base, "--jobs", "1"])
    with _deadline():
        assert _children_of(capsys, fork, [*base, "--jobs", str(jobs)]) == (children, serial)


def test_an_empty_points_file_forks_nothing(capsys, monkeypatch, tmp_path):
    _small_shares(monkeypatch)
    fork = _CountingFork(cli._FORK)
    monkeypatch.setattr(cli, "_FORK", fork)
    pts = tmp_path / "pts.csv"
    pts.write_text("# no points\n")
    argv = ["scan", "--points-file", str(pts), "--format", "csv", "--jobs", "2"]
    assert _children_of(capsys, fork, argv) == (0, "idx,k0,k1,u0,u1,q_half,hits\n")


def test_the_cpu_count_is_the_affinity_set(monkeypatch):
    assert cli._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._cpu_count() == 1


@contextlib.contextmanager
def _deadline(seconds: int = 60):
    """Fail a scan that waits on its children for longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"scan still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# 12 points at --jobs 2, in _small_shares: this process scans indices
# 0..5, one child 6..11
FAN_OUT = ["scan", "--count", "12", "--seed", "5", "--n-max", "2", "--format", "csv"]


def _failing_at(idx: int, fail):
    """cli._scan_share, but calling fail(idx) on the share that holds
    index idx."""
    scan_share = cli._scan_share
    return lambda share, cfg: (
        fail(idx) if any(job[0] == idx for job in share) else scan_share(share, cfg)
    )


def _raise(exc):
    raise exc


def test_a_child_exception_reaches_the_parent_with_its_type(capsys, monkeypatch):
    # a refused type gives the same exit code and report as at --jobs 1
    _small_shares(monkeypatch)
    monkeypatch.setattr(cli, "_scan_share", _failing_at(9, lambda idx: _raise(
        OverflowError(f"complex exponentiation at {idx}"))))
    serial = run_cli(capsys, [*FAN_OUT, "--jobs", "1"])
    assert serial[0] == 2
    with _deadline():
        assert run_cli(capsys, [*FAN_OUT, "--jobs", "2"]) == serial
    assert multiprocessing.active_children() == []
    # any other type escapes cli.main as it would at --jobs 1
    monkeypatch.setattr(cli, "_scan_share", _failing_at(9, lambda idx: _raise(
        KeyError(os.getpid()))))
    with _deadline(), pytest.raises(KeyError) as exc:
        main([*FAN_OUT, "--jobs", "2"])
    assert exc.value.args[0] != os.getpid()  # raised in the child


def test_a_child_that_exits_without_its_rows_fails_the_scan(monkeypatch):
    _small_shares(monkeypatch)
    parent = os.getpid()
    monkeypatch.setattr(cli, "_scan_share", _failing_at(9, lambda idx: os._exit(3) if (
        os.getpid() != parent) else _raise(AssertionError("index 9 scanned in the parent"))))
    with _deadline(), pytest.raises(RuntimeError, match="exited without its rows"):
        main([*FAN_OUT, "--jobs", "2"])


def test_an_exception_in_this_processs_share_stops_the_children(monkeypatch):
    _small_shares(monkeypatch)
    parent = os.getpid()

    def scan_share(share, cfg):
        if os.getpid() == parent:
            raise KeyError(share[0][0])
        time.sleep(600)  # a child at work: joined without a stop, it would hang the scan

    monkeypatch.setattr(cli, "_scan_share", scan_share)
    with _deadline(), pytest.raises(KeyError):
        main([*FAN_OUT, "--jobs", "2"])


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_tracer_sites() -> list:
    """The (layer, module, attribute) sites that bench/tracing.py patches."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(name, mod, attr) for name, pairs in (*tracing.SPANS, *tracing.COUNTS)
            for mod, attr in pairs]


def test_every_attribute_the_bench_tracer_wraps_resolves():
    # a traced bench run patches these (module, attribute) pairs, and
    # fails with AttributeError on one that a refactor removed
    sites = _bench_tracer_sites()
    assert len(sites) >= 30
    for name, mod, attr in sites:
        assert callable(getattr(mod, attr, None)), (name, mod.__name__, attr)


def test_every_import_kept_for_the_bench_tracer_is_one_it_wraps():
    # the reverse of the test above: an import that src/ keeps unused,
    # marked "noqa: F401", names a (module, attribute) pair that the
    # tracer patches, so dropping one from the tracer drops the import too
    wrapped = {(mod.__name__, attr) for _, mod, attr in _bench_tracer_sites()}
    package = os.path.join(ROOT, "src", "daha_cc1")
    kept = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        module = "daha_cc1." + filename[:-3]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept += [(module, alias.asname or alias.name) for alias in node.names
                         if "# noqa: F401" in lines[alias.lineno - 1]]
    assert kept
    assert set(kept) <= wrapped, sorted(set(kept) - wrapped)


def _package_modules() -> list:
    """(module name, source lines, syntax tree) of each module of the package."""
    package = os.path.join(ROOT, "src", "daha_cc1")
    out = []
    for filename in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            source = fh.read()
        name = "daha_cc1" if filename == "__init__.py" else "daha_cc1." + filename[:-3]
        out.append((name, source.splitlines(), ast.parse(source)))
    return out


def _all_of(tree) -> list:
    """The names a module lists in its __all__."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if getattr(target, "id", None) == "__all__"
            for name in ast.literal_eval(node.value)]


def test_every_name_a_module_imports_is_used_or_marked():
    # pyflakes's F401, with the stdlib: an imported name is used where it
    # is read or listed in __all__, else its line says "# noqa: F401"
    unused = []
    for module, lines, tree in _package_modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_all_of(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [(module, alias.name) for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used
                           and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert unused == []


def test_every_public_function_of_rep_and_dsbridge_has_a_reader():
    # a function or non-exception class that rep or dsbridge lists in
    # __all__ is read by another module of the package, exported by the
    # package, or wrapped by the bench tracer
    trees = {name: tree for name, _, tree in _package_modules()}
    exported = set(_all_of(trees["daha_cc1"]))
    wrapped = {(mod.__name__, attr) for _, mod, attr in _bench_tracer_sites()}
    unread = []
    for module in ("daha_cc1.rep", "daha_cc1.dsbridge"):
        short, read = module.rsplit(".", 1)[1], set()
        for other in trees.keys() - {module}:
            for node in ast.walk(trees[other]):
                if isinstance(node, ast.ImportFrom) and node.module == short:
                    read.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == short:
                    read.add(node.attr)
        mod = importlib.import_module(module)
        for name in _all_of(trees[module]):
            obj = getattr(mod, name)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            if name not in read | exported and (module, name) not in wrapped:
                unread.append((module, name))
    assert unread == []


def test_every_all_entry_is_an_attribute_of_its_module():
    listed = 0
    for module, _, tree in _package_modules():
        names = _all_of(tree)
        missing = [name for name in names if not hasattr(importlib.import_module(module), name)]
        assert missing == [], module
        listed += len(names)
    assert listed >= 40


def test_scan_error_rows_are_the_same_from_parent_and_child(capsys, monkeypatch, tmp_path):
    # q = 1 at index 1, in this process's share, and q = i at index 8, in
    # the child's share
    lines = [f"2,3,5,{u1},2" for u1 in ("0.016666666666666666", 7)] * 5
    lines[1], lines[8] = "1.1,0.9,1.2,0.8,1", "0.3+1.2i,1.1,0.7-0.2i,1.3,0+1i"
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(lines) + "\n")
    argv = ["scan", "--points-file", str(pts), "--format", "csv", "--n-max", "4"]
    _, serial = run_cli(capsys, [*argv, "--jobs", "1"])
    rows = serial.splitlines()[1:]
    assert [i for i, row in enumerate(rows) if row.endswith(",error:RootOfUnityError")] == [1, 8]
    _small_shares(monkeypatch)
    fork = _CountingFork(cli._FORK)
    monkeypatch.setattr(cli, "_FORK", fork)
    with _deadline():
        assert _children_of(capsys, fork, [*argv, "--jobs", "2"]) == (1, serial)


def test_tol_reaches_the_irreducibility_check(capsys, monkeypatch):
    # --tol is the one tolerance that commutant_dim and dim_vector read,
    # in construct and in the self-test alike
    seen = {"commutant_dim": [], "dim_vector": []}
    commutant_dim, dim_vector = cli.commutant_dim, cli.dim_vector

    def commutant_recorder(r, p):
        seen["commutant_dim"].append(p.tol.eq_tol)
        return commutant_dim(r, p)

    def dim_vector_recorder(r, p):
        seen["dim_vector"].append(p.tol.eq_tol)
        return dim_vector(r, p)

    monkeypatch.setattr(cli, "commutant_dim", commutant_recorder)
    monkeypatch.setattr(cli, "dim_vector", dim_vector_recorder)
    code, out = run_cli(
        capsys, ["construct", *ONE_DIM, "--kind", "T2[++,++;n=0]", "--tol", "1e-7"]
    )
    assert code == 0 and json.loads(out)["results"]["commutant_dim"] == 1
    assert seen == {"commutant_dim": [1e-7], "dim_vector": [1e-7]}
    seen["commutant_dim"].clear()
    code, _ = run_cli(capsys, ["selftest", "--seed", "2", "--tol", "1e-7"])
    assert code == 0 and set(seen["commutant_dim"]) == {1e-7}


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


# the stratum point of T2[-+,++;n=0] with k0 = 2i: the lone entry of T0
# is -1/k0, whose ratio to k0 is -1/k0^2 = 1/4; under --tol 1e-3 that is
# neither within 1e-3 of 1 nor apart from 1 by the margin 1e3 * 1e-3, so
# rank(T0 - k0) is indeterminate
RANK_INDETERMINATE = [
    "construct", "--k0=2i", "--k1=3", "--u0=5", "--u1=-0.06666666666666667i",
    "--q-half=2", "--kind", "T2[-+,++;n=0]", "--tol", "1e-3",
]

# stratum points at |q^{1/2}| = 2 (bench inputs.planted_point with
# default_rng(77), levels 15 then 20, families 0..23) whose dim vector or
# commutant the dense diagnostics could not decide
AT_Q_HALF_TWO = {
    "T2[++,++;n=15]": [
        "--k0=0.03143933941407412+0.81829639469571425i",
        "--k1=-0.23823374409583042+0.51728007033106138i",
        "--u0=0.301269535874758-0.90206091020848767i",
        "--u1=-1.4609787207018013e-10+1.0396760029319382e-09i",
        "--q-half=0.4477125137693288-1.9492443420501055i",
    ],
    "T1E[i=0,+;n=15]": [
        "--k0=-11776.89107442766-30578.532676063231i",
        "--k1=0.6334487057251056-0.78626168972266974i",
        "--u0=0.6432793266822432+0.64396151649806355i",
        "--u1=-0.6599091478934319+0.5512721809453256i",
        "--q-half=-1.0421453656895874-1.7070246151628032i",
    ],
    "T1E[i=0,-;n=15]": [
        "--k0=2.7416217824708066e-05-1.3404237195888457e-05i",
        "--k1=-0.8870931433825927-0.13902017091697733i",
        "--u0=0.8622306365929628-0.096815238943678286i",
        "--u1=0.8450031929864128-1.1456760951218756i",
        "--q-half=0.06062290488601305-1.9990810047127108i",
    ],
}


def test_rank_indeterminate_is_a_verification_exit(capsys):
    code, out = run_cli(capsys, RANK_INDETERMINATE)
    assert code == 4
    report = json.loads(out)
    assert report["exit_code"] == 4
    assert report["results"]["error"].startswith("RankIndeterminateError")
    # at the default tolerance the same point has a clear rank
    code, out = run_cli(capsys, RANK_INDETERMINATE[:-2])
    assert code == 0
    assert json.loads(out)["results"]["dim_vector"] == [1, 1, 0, 0, 0]


@pytest.mark.parametrize("kind", sorted(AT_Q_HALF_TWO))
def test_construct_at_q_half_two_returns_the_root(capsys, kind):
    code, out = run_cli(capsys, ["construct", *AT_Q_HALF_TWO[kind], "--kind", kind])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dim_vector"] == list(root_of_kind(kind_from_str(kind)))
    assert results["commutant_dim"] == 1
    assert results["ds"]["class_membership"] is True


def test_a_forced_build_that_leaves_the_float_range_is_quiet(capfd):
    # off the stratum, the ladder of this point overflows: the build's
    # matrices are NaN and its ideal certificate refuses them, with no
    # numpy warning on the way
    argv = ["construct", "--k0=1.3e21", "--k1=0.7+0.2i", "--u0=1+1i", "--u1=0.9+0.5i",
            "--q-half=1e7", "--kind", "T2[++,++;n=19]", "--force"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capfd.readouterr()
    assert (code, err, caught) == (4, "", [])
    report = json.loads(out)
    assert report["exit_code"] == 4
    assert report["results"] == {"error": "IdealNotInvariantError: ideal invariance residual nan"}


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


def test_ds_check_refuses_an_entry_outside_the_pairing(capsys, tmp_path, rng):
    kind = Type2(1, 1, 1, 1, 2)
    args = _param_args(sample_stratum_params(kind, rng))
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *args, "--kind", kind_to_str(kind),
                               "--out", str(rep_file)])
    assert code == 0
    data = json.loads(rep_file.read_text())
    # root 0 is lone under s0 and root 1 is paired, so T0[0][1] is 0
    assert data["T0"][0][1] == [0.0, 0.0]
    data["T0"][0][1][1] = 1e-300
    rep_file.write_text(json.dumps(data))
    code, out = run_cli(capsys, ["ds-check", *args, "--rep", str(rep_file)])
    assert code == 4
    assert json.loads(out)["results"]["error"].startswith("PairingError")
    # a stored rep without its roots cannot be read off its pairing
    del data["provenance"]["roots"]
    rep_file.write_text(json.dumps(data))
    code, out = run_cli(capsys, ["ds-check", *args, "--rep", str(rep_file)])
    assert code == 2


@pytest.mark.parametrize("edit", ["dim+1", "dim-1", "T1 4x4"])
def test_ds_check_refuses_a_stored_rep_whose_sizes_disagree(capsys, tmp_path, rng, edit):
    kind = Type2(1, 1, 1, 1, 2)
    args = _param_args(sample_stratum_params(kind, rng))
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *args, "--kind", kind_to_str(kind),
                               "--out", str(rep_file)])
    assert code == 0
    data = json.loads(rep_file.read_text())
    assert data["dim"] == 5 == len(data["provenance"]["roots"])
    if edit == "T1 4x4":
        data["T1"] = [row[:4] for row in data["T1"][:4]]
    else:
        data["dim"] += 1 if edit == "dim+1" else -1
    rep_file.write_text(json.dumps(data))
    code, out = run_cli(capsys, ["ds-check", *args, "--rep", str(rep_file)])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert report["results"]["error"].startswith("ValueError: stored representation of dim")


@pytest.mark.parametrize("key", ["dim", "T0", "T1", "T0v", "T1v", "basis_labels", "provenance"])
def test_ds_check_refuses_a_stored_rep_missing_a_field(capsys, tmp_path, key):
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *ONE_DIM, "--kind", "T2[++,++;n=0]",
                               "--out", str(rep_file)])
    assert code == 0
    data = json.loads(rep_file.read_text())
    del data[key]
    rep_file.write_text(json.dumps(data))
    code = main(["ds-check", *ONE_DIM, "--rep", str(rep_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["exit_code"] == 2
    missing = "provenance roots" if key == "provenance" else key
    assert report["results"]["error"] == f"ValueError: stored representation has no {missing}"


@pytest.mark.parametrize("command", ["classify", "scan"])
def test_negative_n_max_is_input_error(capsys, command):
    code, out = run_cli(capsys, [command, *ONE_DIM, "--n-max", "-1"])
    assert code == 2
    assert json.loads(out)["results"] == {"error": "n_max must be >= 0"}


def test_construct_and_ds_check_read_the_ds_block_off_the_relation_check(
    capsys, tmp_path, rng, monkeypatch
):
    # the build's gate makes the one product check and the one quadratic
    # pass of a construct: the report's relation check, dim vector,
    # spectrum and commutant read the rep's diagnosis, whose rows of each
    # matrix (four generators and q^{1/2} T0) are read once; ds-check
    # makes one of each for its stored rep
    calls = {"rows": 0, "product": 0, "quadratic": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def unused(*args, **kwargs):
        raise AssertionError("the CLI reads the product off verify_relations")

    monkeypatch.setattr(rep_module, "_rows", counted("rows", rep_module._rows))
    monkeypatch.setattr(rep_module, "_product", counted("product", rep_module._product))
    monkeypatch.setattr(rep_module, "_quadratic", counted("quadratic", rep_module._quadratic))
    monkeypatch.setattr(dsbridge, "to_ds_tuple", unused)
    once = {"rows": 5, "product": 1, "quadratic": 4}
    kind = Type2(1, -1, 1, 1, 3)
    args = _param_args(sample_stratum_params(kind, rng))
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *args, "--kind", kind_to_str(kind),
                               "--out", str(rep_file)])
    assert code == 0
    assert calls == once
    calls.update(rows=0, product=0, quadratic=0)
    code, _ = run_cli(capsys, ["ds-check", *args, "--rep", str(rep_file)])
    assert code == 0
    assert calls == once
    # a library build's dim vector reads the build's own pass
    calls.update(rows=0, product=0, quadratic=0)
    p = sample_stratum_params(kind, rng)
    r = rep_module.build_quotient_rep(kind, None, p)
    assert rep_module.dim_vector(r, p).as_tuple() == tuple(root_of_kind(kind))
    assert calls == once


def test_construct_evaluates_the_stratum_verdict_once(capsys, rng, monkeypatch):
    # the build's guard gives the verdict; the ds block's existence
    # predicate reuses it, and --force evaluates it in the predicate only
    calls = []

    def recorder(p, kind, *rest):
        calls.append(kind_to_str(kind))
        return strata.sigma_membership(p, kind, *rest)

    kind = Type1E(1, -1, 4)
    argv = ["construct", *_param_args(sample_stratum_params(kind, rng)),
            "--kind", kind_to_str(kind)]
    unrecorded = [run_cli(capsys, argv), run_cli(capsys, [*argv, "--force"])]
    for module in (rep_module, dsbridge):
        monkeypatch.setattr(module, "sigma_membership", recorder)
    assert run_cli(capsys, argv) == unrecorded[0]
    assert calls == [kind_to_str(kind)]
    assert json.loads(unrecorded[0][1])["results"]["ds"]["existence_predicate"] is True
    calls.clear()
    assert run_cli(capsys, [*argv, "--force"]) == unrecorded[1]
    assert calls == [kind_to_str(kind)]


# finite parameters whose q-powers leave the float range
RANGE_PROBES = [
    (["classify", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7", "--n-max", "20",
      "--q-half", "1e9"], "OverflowError"),
    (["classify", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7", "--n-max", "20",
      "--q-half", "1e-20"], "OverflowError"),
    (["classify", "--k0", "1e200", "--k1", "3", "--u0", "5", "--u1", "7", "--n-max", "20",
      "--q-half", "2"], "OverflowError"),
    (["construct", "--k0", "2", "--k1", "3", "--u0", "5", "--u1", "7", "--q-half", "1e20",
      "--kind", "T2[++,++;n=20]"], "OverflowError"),
]


@pytest.mark.parametrize("argv, error", RANGE_PROBES)
def test_out_of_range_parameters_are_an_input_error(capsys, argv, error):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["exit_code"] == 2
    assert report["results"]["error"].startswith(f"{error}: ")


def test_scan_gives_an_out_of_range_point_an_error_row(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("2,3,5,7,1e9\n2,3,5,0.016666666666666666,2\n")
    code, out = run_cli(
        capsys, ["scan", "--points-file", str(pts), "--format", "csv", "--n-max", "20"]
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "0,2,3,5,7,1000000000,error:OverflowError",
        "1,2,3,5,0.0166666666667,2,T2[++,++;n=0]",
    ]


@pytest.mark.parametrize("key, value", [("T0", 5), ("basis_labels", 3), ("T1", [[1, 2], [3]]),
                                        ("T0v", None), ("dim", [1]),
                                        # JSON true and false are not integers, nor
                                        # numbers beside a number in a pair
                                        ("dim", True), ("basis_labels", [False]),
                                        ("T0", [[[2, False]]]), ("T1", [[[0.5, True]]]),
                                        # the labels are the root indices 0..dim-1
                                        ("basis_labels", [7, 8, 9]), ("basis_labels", []),
                                        ("basis_labels", [1])])
def test_ds_check_refuses_a_stored_rep_with_a_wrong_shaped_value(capsys, tmp_path, key, value):
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *ONE_DIM, "--kind", "T2[++,++;n=0]",
                               "--out", str(rep_file)])
    assert code == 0
    data = json.loads(rep_file.read_text())
    data[key] = value
    rep_file.write_text(json.dumps(data))
    code = main(["ds-check", *ONE_DIM, "--rep", str(rep_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["exit_code"] == 2
    assert report["results"]["error"].startswith("ValueError: stored representation")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key, entry", [("T0", (0, 0)), ("T1", (1, 1)), ("T0v", (2, 2)),
                                        ("T1v", (3, 4)), ("roots", (1,))])
def test_ds_check_refuses_a_stored_rep_with_a_nan_or_infinite_entry(
    capsys, tmp_path, key, entry, value
):
    # Python's max() drops a NaN that is not first, so such an entry used
    # to fold away in the residuals, and ds-check passed the rep
    kind = Type2(1, 1, 1, 1, 2)
    args = _param_args(sample_stratum_params(kind, np.random.default_rng(5)))
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *args, "--kind", kind_to_str(kind),
                               "--out", str(rep_file)])
    assert code == 0
    data = json.loads(rep_file.read_text())
    row = data["provenance"]["roots"] if key == "roots" else data[key][entry[0]]
    row[entry[-1]] = [float(value), 0.0]
    rep_file.write_text(json.dumps(data))
    code = main(["ds-check", *args, "--rep", str(rep_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out)["results"]["error"] == (
        f"ValueError: stored representation has a NaN or infinite entry in {key}"
    )


# one instance of each refusal whose constructor takes more than a message
_REFUSAL_SAMPLES = {type(e): e for e in (
    rep_module.NotOnStratumError(Type2(1, -1, 1, 1, 3), ["neq.k0.m1", "eq.product.3"]),
    rep_module.IdealNotInvariantError(2.5e-3),
    rep_module.RelationResidualError({"quad.T0": 1e-3, "product": float("nan")}),
    dsbridge.ProductNotIdentityError(0.25),
    rep_module.DimVectorMismatchError(Type2(1, -1, 1, 1, 0), RootVector(1, 0, 0, 0, 0)),
)}


@pytest.mark.parametrize("exc", [
    *(_REFUSAL_SAMPLES.get(t) or t("refused") for types, _ in cli._REFUSALS for t in types),
    # subclasses of the ValueError row
    core.RootOfUnityError(7),
    core.ZeroParameterError("parameter k0 is zero"),
], ids=lambda e: type(e).__name__)
def test_every_refusal_survives_a_pickle_round_trip(exc):
    # a scan child sends the exception that stopped it through a pipe
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back).keys() == vars(exc).keys()
    for name, value in vars(exc).items():
        assert repr(getattr(back, name)) == repr(value), name


@pytest.mark.parametrize("kind, error", [
    (None, "stored representation has no provenance kind"),
    (5, "stored representation has no provenance kind"),
    ("T9[++,++;n=0]", "cannot parse root kind 'T9[++,++;n=0]'"),
    ("IM[n=1]", "cannot parse root kind 'IM[n=1]'"),
    ("T2[++,++;n=1]", "stored representation of dim 1 has kind T2[++,++;n=1] of dim 3"),
], ids=["missing", "not-a-string", "unparsed", "imaginary", "other-dim"])
def test_ds_check_refuses_a_stored_rep_without_a_kind_of_its_dim(capsys, tmp_path, kind, error):
    # the pairing of a stored rep's roots is read off its kind's ladder
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *ONE_DIM, "--kind", "T2[++,++;n=0]",
                               "--out", str(rep_file)])
    assert code == 0
    data = json.loads(rep_file.read_text())
    if kind is None:
        del data["provenance"]["kind"]
    else:
        data["provenance"]["kind"] = kind
    rep_file.write_text(json.dumps(data))
    code = main(["ds-check", *ONE_DIM, "--rep", str(rep_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out)["results"]["error"] == f"ValueError: {error}"


def test_ds_check_reads_the_pairing_off_the_stored_kind(capsys, tmp_path, rng):
    # T1E[i=0,-;n=2] has the ladder of T1E[i=0,+;n=2], so its pairing;
    # T1E[i=1,+;n=2] has as many roots on the dual ladder, whose pairing
    # the matrices do not fit, and other parameters do not fit them either
    kind = Type1E(0, 1, 2)
    args = _param_args(sample_stratum_params(kind, rng))
    rep_file = tmp_path / "rep.json"
    code, _ = run_cli(capsys, ["construct", *args, "--kind", kind_to_str(kind),
                               "--out", str(rep_file)])
    assert code == 0
    data = json.loads(rep_file.read_text())
    for other, want in (("T1E[i=0,-;n=2]", 0), ("T1E[i=1,+;n=2]", 4)):
        data["provenance"]["kind"] = other
        rep_file.write_text(json.dumps(data))
        code, out = run_cli(capsys, ["ds-check", *args, "--rep", str(rep_file)])
        assert code == want, other
    assert json.loads(out)["results"]["error"].startswith("PairingError")
    data["provenance"]["kind"] = kind_to_str(kind)
    rep_file.write_text(json.dumps(data))
    other_args = _param_args(sample_stratum_params(kind, rng))
    code, _ = run_cli(capsys, ["ds-check", *other_args, "--rep", str(rep_file)])
    assert code == 4


@pytest.mark.parametrize("text", ["5", "null", '"dim T0 T1 T0v T1v basis_labels"'])
def test_ds_check_refuses_a_stored_rep_that_is_not_an_object(capsys, tmp_path, text):
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(text)
    code = main(["ds-check", *ONE_DIM, "--rep", str(rep_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["exit_code"] == 2
    assert report["results"]["error"] == "ValueError: stored representation is not a JSON object"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_input_error(capsys, jobs):
    code, out = run_cli(capsys, ["scan", "--count", "3", "--jobs", jobs])
    assert code == 2
    assert json.loads(out)["results"] == {"error": "jobs must be >= 1"}


def test_jobs_zero_in_a_config_file_is_input_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs = 0\n")
    code, out = run_cli(capsys, ["scan", "--count", "3", "--config", str(cfg)])
    assert code == 2
    assert json.loads(out)["results"] == {"error": "jobs must be >= 1"}


def _flag_and_config_runs(capsys, tmp_path, argv, key, value):
    """(code, stdout, stderr) of argv with the setting key given as a flag
    and as a config file line."""
    runs = []
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    flag = "--" + key.replace("_", "-")
    for extra in ([f"{flag}={value}"], ["--config", str(cfg)]):
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    return runs


@pytest.mark.parametrize("key,value", [
    ("k0", "-1.5+2i"), ("k0", "-i"), ("q_half", "-2"), ("tol", "-1e-9"), ("n_max", "-1"),
])
def test_a_negative_value_reads_the_same_after_a_space_as_after_equals(capsys, key, value):
    # argparse takes a separate "-1.5+2i", "-i" or "-1e-9" for an option
    flag = "--" + key.replace("_", "-")
    runs = []
    for extra in ([flag, value], [f"{flag}={value}"]):
        code = main(["classify", *ONE_DIM, *extra])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert err == "" and json.loads(out)["exit_code"] == code


@pytest.mark.parametrize("key,value", [
    ("n_max", "abc"), ("n_max", "21"), ("n_max", "-1"), ("n_max", "2.5"),
    ("tol", "x"), ("tol", "0"), ("tol", "1"), ("tol", "nan"),
    ("format", "xml"), ("format", "JSON"), ("format", ""),
    ("jobs", "x"), ("jobs", "0"), ("jobs", "1.0"),
    ("seed", "x"), ("seed", "1e3"), ("seed", "-1"),
])
def test_a_bad_setting_is_the_same_input_error_as_a_flag_and_in_a_config_file(
        capsys, tmp_path, key, value):
    flag, config = _flag_and_config_runs(capsys, tmp_path, ["classify", *ONE_DIM], key, value)
    assert flag == config
    code, out, err = flag
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["exit_code"] == 2 and report["params"] is None
    assert set(report["results"]) == {"error"}


@pytest.mark.parametrize("key,value", [
    ("n_max", " 3"), ("n_max", "+0"), ("tol", "1e-7"), ("tol", "2.5E-10"),
    ("format", "csv"), ("format", "text"), ("jobs", "2"), ("seed", "1_0"),
])
def test_a_good_setting_reads_the_same_as_a_flag_and_in_a_config_file(
        capsys, tmp_path, key, value):
    flag, config = _flag_and_config_runs(capsys, tmp_path, ["scan", "--count", "2"], key, value)
    assert flag == config
    assert (flag[0], flag[2]) == (0, "")


@pytest.mark.parametrize("text,line,message", [
    ("2,3,5,7,2\n# a comment\n\n2,3,1+e5i,7,2\n", 4,
     "cannot parse complex literal '1+e5i'"),
    ("2,3,5,7,2\n2,3,5,7\n", 2, "a point needs 5 values: '2,3,5,7'"),
    ("2,3,5,7,2,1\n", 1, "a point needs 5 values: '2,3,5,7,2,1'"),
    ("2,3,5,7,2\n1,2,3,4\n", 2, "a point needs 5 values: '1,2,3,4'"),
    # lines that a plain-literal pattern could half match
    ("2,3,5,7,2x\n", 1, "cannot parse complex literal '2x'"),
    ("2,3,5,7,i5\n", 1, "cannot parse complex literal 'i5'"),
    ("2,3,5,7,j\n", 1, "cannot parse complex literal 'j'"),
    ("2,3,5,7,1e5i+2\n", 1, "cannot parse complex literal '1e5i+2'"),
    ("2,3,5,7,2.5.5\n", 1, "cannot parse complex literal '2.5.5'"),
    ("+,1,2,3,4\n", 1, "cannot parse complex literal '+'"),
    ("2,3,5,7,2,\n", 1, "cannot parse complex literal ''"),
    ("2,3,5,,7\n", 1, "cannot parse complex literal ''"),
    ("2;3;5;7;2\n", 1, "cannot parse complex literal '2;3;5;7;2'"),
    ("(2,3,5,7,2)\n", 1, "cannot parse complex literal '(2'"),
    ("2, 3, 5, 7, 1+e5i\n", 1, "cannot parse complex literal ' 1+e5i'"),
    (" # c\n\n2,3,5,7,1i\n2,3,5,7,2+ii\n", 4, "cannot parse complex literal '2+ii'"),
])
def test_a_bad_points_file_line_is_named(capsys, tmp_path, text, line, message):
    pts = tmp_path / "points.csv"
    pts.write_text(text)
    code = main(["scan", "--points-file", str(pts)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    report = json.loads(captured.out)
    assert report["exit_code"] == 2
    assert report["results"] == {"error": f"ValueError: points file line {line}: {message}"}


def test_a_points_file_reads_each_value_as_parse_scalar(tmp_path):
    lines = [
        "2,3,5,7,2",
        "1.5+2i,-0.5-1e-3i,i,-i,+i",
        "-0,-0.0-0i,0i,-0i,+0.0+0.0i",
        "4e5,-.5i,+7.,1E-2-i,.5e1i",
        "1e308+1e308i,2e-320,1e400,-1e400i,3.25e-1-7.5e+2i",
        "1-i,-1+i,+2.-.5i,12345678901234567890,0.1",
        "",
        "# 1,2,3,4,5",
        "   ",
        " 1.5 + 2i , (3-4i) , ( -i ) ,2,\t7 ",
        "(1),(i),(-2.5e-3+1i),( 4 ),5  ",
    ]
    path = tmp_path / "points.csv"
    path.write_text("\n".join(lines) + "\n")
    want = [tuple(map(core.parse_scalar, line.split(",")))
            for line in map(str.strip, lines) if line and not line.startswith("#")]
    got = cli._load_points_file(str(path))
    assert [[(z.real.hex(), z.imag.hex()) for z in point] for point in got] == \
        [[(z.real.hex(), z.imag.hex()) for z in point] for point in want]
    assert len(got) == 8


def test_scan_refuses_count_with_a_points_file(capsys, tmp_path):
    # --count was ignored beside a points file
    pts = tmp_path / "points.csv"
    pts.write_text("2,3,5,7,2\n")
    code = main(["scan", "--count", "3", "--points-file", str(pts)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert json.loads(captured.out)["results"] == {
        "error": "ValueError: scan takes --count or --points-file, not both"
    }


@pytest.mark.parametrize("count,error", [
    ("x", "ValueError: invalid literal for int() with base 10: 'x'"),
    ("2.0", "ValueError: invalid literal for int() with base 10: '2.0'"),
    ("0", "ValueError: count must be >= 1"),
])
def test_a_bad_count_is_input_error(capsys, count, error):
    code = main(["scan", "--count", count])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert json.loads(captured.out)["results"] == {"error": error}
