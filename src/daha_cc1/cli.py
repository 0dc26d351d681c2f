"""Command-line front end.

Subcommands: classify, construct, scan, ds-check, spectrum, selftest.
Reports are JSON objects with the stable top-level fields
{tool_version, params, command, results, residuals, exit_code}; scan can
also emit CSV.  Exit codes: 0 success, 1 property failure, 2 input
error, 3 off-stratum, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from . import __version__, dsbridge
from .core import (
    DEFAULT_TOL,
    GENERATORS,
    AmbiguousMatchError,
    Params,
    Tolerance,
    format_scalar,
    match_q_power,
    parse_scalar,
    validate_params,
)
from .rep import (
    RELATION_RESIDUAL_MAX,
    DegenerateLadderError,
    IdealNotInvariantError,
    NotOnStratumError,
    PairingError,
    RankIndeterminateError,
    RelationResidualError,
    SignVector,
    build_quotient_rep,
    build_truncated_polyrep,
    commutant_dim,
    dim_vector,
    rep_from_json,
    # unused here, kept importable: the benchmark's tracer wraps it
    rep_to_json,  # noqa: F401
    rho_ladder,
    rigidity_D,
    spectrum_of_z,
    verify_relations,
)
from .roots import (
    Type1E,
    Type1F,
    Type2,
    enumerate_strict_roots,
    kind_from_str,
    kind_to_str,
    root_of_kind,
    tits_form,
)
from .strata import (
    classify_params,
    classify_points,
    random_q_half,
    random_unit,
    sample_generic_params,
    sample_stratum_params,
    # unused here, kept importable: the benchmark's tracer wraps it
    sigma_membership,  # noqa: F401
    stratum_verdicts,
    verdict_to_json,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_OFF_STRATUM = 3
EXIT_VERIFY = 4

_PARAM_KEYS = ("k0", "k1", "u0", "u1", "q_half")
_CONFIG_KEYS = (*_PARAM_KEYS, "tol", "n_max", "format", "jobs", "seed")
# (exception types, exit code); the first matching row wins, so
# NotOnStratumError, a ValueError, precedes the input-error row.  Finite
# parameters whose q-powers leave the float range are input errors too.
_REFUSALS = (
    ((NotOnStratumError,), EXIT_OFF_STRATUM),
    ((IdealNotInvariantError, DegenerateLadderError, RelationResidualError, RankIndeterminateError,
      PairingError, dsbridge.ProductNotIdentityError), EXIT_VERIFY),
    ((ValueError, OSError, OverflowError, ZeroDivisionError), EXIT_INPUT),
)
_REFUSED = tuple(t for types, _ in _REFUSALS for t in types)
# the fewest points a scan process gets: on a smaller share a fork costs
# more than it saves, so a scan forks only from 2 * _SCAN_SHARE points
_SCAN_SHARE = 256
# where scan's children come from; a fork inherits the imported modules
_FORK = multiprocessing.get_context("fork")


def _cpu_count() -> int:
    """The CPUs this process may run on, which cap scan's processes."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@dataclass
class RunConfig:
    params: Optional[Params] = None
    n_max: int = 6
    fmt: str = "json"
    jobs: int = 1
    seed: int = 0
    tol: Tolerance = DEFAULT_TOL


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {line!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} (known: {' '.join(_CONFIG_KEYS)})")
            out[key] = val
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The run's settings: each flag's text, or else its config file
    value, converted one way whichever it came from; a setting given
    neither way keeps RunConfig's default."""
    text = _read_config_file(args.config) if args.config else {}
    text.update((k, v) for k in _CONFIG_KEYS if (v := getattr(args, k)) is not None)
    scalars = {k: parse_scalar(text[k]) for k in _PARAM_KEYS if k in text}
    cfg = RunConfig()
    if "tol" in text:
        cfg.tol = Tolerance(eq_tol=float(text["tol"]))
    if "n_max" in text:
        cfg.n_max = int(text["n_max"])
        if cfg.n_max > 20:
            raise ValueError("n_max must be <= 20")
        if cfg.n_max < 0:
            raise ValueError("n_max must be >= 0")
    if "format" in text:
        cfg.fmt = text["format"]
        if cfg.fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {cfg.fmt!r}")
    if "jobs" in text:
        cfg.jobs = int(text["jobs"])
        if cfg.jobs < 1:
            raise ValueError("jobs must be >= 1")
    if "seed" in text:
        cfg.seed = int(text["seed"])
        if cfg.seed < 0:
            raise ValueError("seed must be >= 0")
    if scalars:
        missing = [k for k in _PARAM_KEYS if k not in scalars]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}")
        cfg.params = Params(tol=cfg.tol, **scalars)
    return cfg


def _params_json(p: Optional[Params]) -> Optional[dict]:
    if p is None:
        return None
    return {k: format_scalar(getattr(p, k)) for k in _PARAM_KEYS}


def _report(
    command: str,
    params: Optional[Params],
    results,
    residuals: Optional[dict] = None,
    exit_code: int = EXIT_OK,
) -> dict:
    return {
        "tool_version": __version__,
        "params": _params_json(params),
        "command": command,
        "results": results,
        "residuals": residuals or {},
        "exit_code": exit_code,
    }


class _Encoded(str):
    """JSON text written at depth 0; placed in a report, it is
    re-indented to its depth instead of being encoded again."""


_ENCODE = json.JSONEncoder().encode  # scalars, in the stdlib's spellings
_is_float = float.__instancecheck__
_ZERO_PARTS = ("0.0", "-0.0")  # a zero part's text, by its sign bit


def _grids(matrices, indent: str) -> list[str]:
    """The text of each square matrix, as _to_json writes its rows of
    [re, im] pairs (rep_to_json's list form) at indent, from one stack.
    A rep matrix row holds a diagonal entry and at most one pair entry,
    so most entries are zero: a zero entry's leaf is one of four texts,
    picked by the sign bits of its two parts, and only the parts of the
    other entries are written, by float.__repr__, or by the stdlib's
    encoder (NaN, Infinity) when the stack holds a nan or an inf."""
    i2 = indent + "  "
    i4, i6 = i2 + "  ", i2 + "    "
    mats = np.array(matrices, dtype=complex)
    parts = mats.view(float).reshape(*mats.shape, 2)
    signs = np.signbit(parts)
    zero = np.array([f"[{i6}{a},{i6}{b}{i4}]" for a in _ZERO_PARTS for b in _ZERO_PARTS],
                    dtype=object)
    leaves = zero[2 * signs[..., 0] + signs[..., 1]]
    nonzero = mats != 0
    enc = float.__repr__ if np.isfinite(parts).all() else _ENCODE
    leaves[nonzero] = [f"[{i6}{enc(a)},{i6}{enc(b)}{i4}]" for a, b in parts[nonzero].tolist()]
    s2, s4 = "," + i2, "," + i4
    return [f"[{i2}{s2.join([f'[{i4}{s4.join(row)}{i2}]' for row in m])}{indent}]"
            for m in leaves.tolist()]


def _rep_text(r) -> str:
    """json.dumps(rep_to_json(r), indent=2, sort_keys=True), byte for
    byte: the four matrices from r's arrays (see _grids), whose names
    sort before the other fields', and the rest by _to_json."""
    names = sorted(g.name for g in GENERATORS)
    rest = (("basis_labels", list(range(r.dim))), ("dim", r.dim), ("provenance", r.provenance))
    fields = [*zip(names, _grids([getattr(r, n) for n in names], "\n  ")),
              *((k, _to_json(v, "\n  ")) for k, v in rest)]
    return "{\n  " + ",\n  ".join([f'"{k}": {text}' for k, text in fields]) + "\n}"


def _to_json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for a
    value whose dict keys are strings (a non-string key raises TypeError).
    Passing indent makes the stdlib encode in pure Python; this writer
    joins each level's text at once and writes each all-float list, such
    as the [re, im] pair of a root, and each list of exact ints, such as
    basis_labels, in one call.  float repr never holds an "n", so one
    that does holds nan or inf and takes the stdlib's NaN and Infinity."""
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        if all(map(_is_float, obj)):
            body = sep.join(map(float.__repr__, obj))
            if "n" not in body:
                return f"[{inner}{body}{indent}]"
        elif set(map(type, obj)) == {int}:  # a bool spells true, so not here
            return f"[{inner}{sep.join(map(int.__repr__, obj))}{indent}]"
        return f"[{inner}{sep.join([_to_json(x, inner) for x in obj])}{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ("," + inner).join([
            f"{encode_basestring_ascii(k)}: {_to_json(v, inner)}" for k, v in sorted(obj.items())
        ])
        return f"{{{inner}{body}{indent}}}"
    if isinstance(obj, _Encoded):
        # a JSON string holds no raw newline, so every one is a line break
        return obj.replace("\n", indent)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    return _ENCODE(obj)


def _emit(report: dict, fmt: str) -> None:
    out = sys.stdout
    if fmt == "text":
        out.write(f"# {report['command']} (v{report['tool_version']})\n")
        out.write(_to_json(report["results"]))
    else:
        out.write(_to_json(report))
    out.write("\n")


def _require_params(cfg: RunConfig) -> Params:
    if cfg.params is None:
        raise ValueError("parameters k0, k1, u0, u1, q_half are required")
    return cfg.params


# -- classify ------------------------------------------------------------


def cmd_classify(cfg: RunConfig, explain: bool) -> tuple[dict, int]:
    """The hits, and with explain the near misses, from one pass of
    per-kind verdicts.  classify_params reads the same verdicts off the
    one stratum rule matrix; the command reads them kind by kind, since
    the benchmark's tracer counts the per-kind sigma_membership calls of
    a classify (16 per level, and 8 per level from 1).  The verdicts'
    table refuses a point as validate_params does."""
    p = _require_params(cfg)
    verdicts = list(stratum_verdicts(p, cfg.n_max))
    rows = [
        {"kind": kind_to_str(kind), "root": str(vec)} for kind, vec, v in verdicts if v.member
    ]
    results: dict = {"hits": rows, "n_max": cfg.n_max}
    if explain:
        results["near_misses"] = [
            {"kind": kind_to_str(kind), **verdict_to_json(v)}
            for kind, _, v in verdicts
            if not v.member and len(v.failed_conditions) <= 1
        ]
    return _report("classify", p, results), EXIT_OK


# -- construct -----------------------------------------------------------


def _ds_results(r, p: Params, on_stratum=None) -> tuple[dict, tuple, dict]:
    """The diagnosis construct and ds-check share: relation residuals, the
    dim vector and the four-matrix product problem, each read off the
    rep's kept diagnosis, so the classes are checked against the dim
    vector.  on_stratum is a kind whose stratum the build's guard found p
    on; when the dim vector is its root, that verdict is the predicate's."""
    residuals = verify_relations(r, p)
    alpha = dim_vector(r, p)
    member = True if on_stratum is not None and alpha == root_of_kind(on_stratum) else None
    ds = {
        "product_residual": dsbridge.check_product(residuals["product"]),
        "class_membership": dsbridge.verify_class_membership(r, p, alpha),
        "existence_predicate": dsbridge.ds_existence_predicate(alpha, p, member),
    }
    return residuals, alpha, ds


def _construct_results(kind, r, p: Params, guarded: bool) -> tuple[dict, dict]:
    residuals, dv, ds = _ds_results(r, p, kind if guarded else None)
    results = {
        "kind": kind_to_str(kind),
        "rep": _Encoded(_rep_text(r)),
        "dim_vector": list(dv),
        "spectrum_z": sorted(
            (format_scalar(v) for v in spectrum_of_z(r, p))
        ),
        "commutant_dim": commutant_dim(r, p),
        "rigidity_D": rigidity_D(*dv),
        "ds": ds,
    }
    return results, residuals


def cmd_construct(
    cfg: RunConfig, kind_str: str, force: bool, out_path: Optional[str]
) -> tuple[dict, int]:
    p = _require_params(cfg)
    kind = kind_from_str(kind_str)
    r = build_quotient_rep(kind, None, p, force=force)
    results, residuals = _construct_results(kind, r, p, guarded=not force)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(results["rep"])
        results["rep_file"] = out_path
    return _report("construct", p, results, residuals), EXIT_OK


# -- spectrum ------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig, kind_str: str) -> tuple[dict, int]:
    p = _require_params(cfg)
    kind = kind_from_str(kind_str)
    r = build_quotient_rep(kind, None, p)
    eigs = sorted(format_scalar(v) for v in spectrum_of_z(r, p))
    results = {"kind": kind_to_str(kind), "spectrum_z": eigs}
    if isinstance(kind, Type2):
        expected = rho_ladder(SignVector(*kind.signs), kind.n, p)
        results["expected_ladder"] = sorted(format_scalar(v) for v in expected)
    return _report("spectrum", p, results), EXIT_OK


# -- scan ----------------------------------------------------------------


def _scan_point(idx: int, values: Optional[tuple], cfg: RunConfig) -> Params:
    """The point of job (idx, values): its five parsed values, or else a
    draw from the index's own RNG stream, so points are independent of
    how jobs are shared out between processes."""
    if values is None:
        rng = np.random.default_rng([cfg.seed, idx])
        # k0, k1, u0, u1, then q_half, in draw order
        values = [*(random_unit(rng) for _ in range(4)), random_q_half(rng)]
    return Params(*values, tol=cfg.tol)


def _scan_share(share: list, cfg: RunConfig) -> list[dict]:
    """The rows of a share of scan jobs (idx, values): the points are
    classified together, and each point's hits, or its refusal, are its
    own."""
    points = [_scan_point(idx, values, cfg) for idx, values in share]
    rows = []
    for (idx, _), p, outcome in zip(share, points, classify_points(points, cfg.n_max)):
        if isinstance(outcome, Exception):
            hits = [f"error:{type(outcome).__name__}"]
        else:
            hits = [kind_to_str(k) for k, _ in outcome]
        rows.append({
            "idx": idx,
            **{k: format_scalar(getattr(p, k)) for k in _PARAM_KEYS},
            "hits": hits,
        })
    return rows


def _scan_child(share: list, cfg: RunConfig, send) -> None:
    """A forked child's body: scan its share and send the rows, or the
    exception that stopped it, to the parent."""
    try:
        send.send(_scan_share(share, cfg))
    except Exception as exc:  # the parent re-raises it
        send.send(exc)
    finally:
        send.close()


def _scan_shares(jobs: list, cfg: RunConfig, procs: int) -> list[dict]:
    """The rows of every job, in order, from procs contiguous, balanced
    shares: this process scans the first and forks one child per other
    share.  A child's exception is raised here, as is a child's exit
    without its rows; every child is joined before this returns or
    raises, and terminated first if it is still at work."""
    bounds = [len(jobs) * k // procs for k in range(procs + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            recv, send = _FORK.Pipe(duplex=False)
            with send:  # closed here, so that the child's exit ends the pipe
                child = _FORK.Process(target=_scan_child, args=(jobs[lo:hi], cfg, send))
                child.start()
            children.append((child, recv))
        rows = _scan_share(jobs[:bounds[1]], cfg)
        for child, recv in children:
            try:
                share = recv.recv()
            except EOFError:
                raise RuntimeError(f"scan child {child.pid} exited without its rows") from None
            if isinstance(share, Exception):
                raise share
            rows += share
        return rows
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


# a points-file line of plain values: over these characters complex(),
# with j for i, accepts what parse_scalar accepts, to the bit
_PLAIN_LINE = re.compile(r"[0-9.eE+\-i,]+")


def _load_points_file(path: str) -> list[tuple[complex, ...]]:
    points = []
    with open(path, encoding="utf-8") as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.strip()
            if _PLAIN_LINE.fullmatch(line):
                try:
                    values = tuple(map(complex, line.replace("i", "j").split(",")))
                except ValueError:  # parse_scalar below names the value
                    values = ()
                if len(values) == 5:
                    points.append(values)
                    continue
            if not line or line.startswith("#"):
                continue
            try:
                values = tuple(map(parse_scalar, line.split(",")))
            except ValueError as exc:
                raise ValueError(f"points file line {n}: {exc}") from None
            if len(values) != 5:
                raise ValueError(f"points file line {n}: a point needs 5 values: {line!r}")
            points.append(values)
    return points


def cmd_scan(
    cfg: RunConfig, count: Optional[str], points_file: Optional[str]
) -> tuple[dict, int]:
    if points_file is not None:
        if count is not None:
            raise ValueError("scan takes --count or --points-file, not both")
        jobs = list(enumerate(_load_points_file(points_file)))
    elif count is not None:
        n = int(count)
        if n < 1:
            raise ValueError("count must be >= 1")
        jobs = [(i, None) for i in range(n)]
    else:
        p = _require_params(cfg)
        jobs = [(0, tuple(getattr(p, k) for k in _PARAM_KEYS))]

    # up to --jobs and the CPUs, each process with at least _SCAN_SHARE points
    procs = max(1, min(cfg.jobs, len(jobs) // _SCAN_SHARE, _cpu_count()))
    rows = _scan_shares(jobs, cfg, procs)
    results = {"rows": rows, "n_points": len(rows)}
    return _report("scan", cfg.params, results), EXIT_OK


def _scan_csv(report: dict) -> str:
    lines = ["idx,k0,k1,u0,u1,q_half,hits"]
    for row in report["results"]["rows"]:
        hits = ";".join(row["hits"])
        lines.append(
            f"{row['idx']},{row['k0']},{row['k1']},{row['u0']},"
            f"{row['u1']},{row['q_half']},{hits}"
        )
    return "\n".join(lines) + "\n"


# -- ds-check ------------------------------------------------------------


def cmd_ds_check(cfg: RunConfig, rep_path: str) -> tuple[dict, int]:
    p = _require_params(cfg)
    validate_params(p)
    with open(rep_path, encoding="utf-8") as fh:
        r = rep_from_json(json.load(fh))
    residuals, dv, ds = _ds_results(r, p)
    det_prod = complex(np.prod([np.linalg.det(M) for M in dsbridge.ds_factors(r, p)]))
    results = {
        "rep_file": rep_path,
        "dim_vector": list(dv),
        **ds,
        "det_product": format_scalar(det_prod),
    }
    code = EXIT_OK if ds["class_membership"] else EXIT_VERIFY
    return _report("ds-check", p, results, residuals, code), code


# -- selftest ------------------------------------------------------------


def _selftest_properties(cfg: RunConfig) -> tuple[list[dict], dict]:
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tol
    checks: list[dict] = []
    residuals: dict[str, float] = {}

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(ok), "detail": detail})

    # truncated polynomial action: pins the operator convention
    try:
        p = sample_generic_params(rng, tol)
        worst, mats = 0.0, {}
        for side in ("P", "Pbar"):
            mats.update(build_truncated_polyrep(side, SignVector(), 5, p))
        for g in GENERATORS:
            M, t = mats[g.name], getattr(p, g.t)
            eye = np.eye(M.shape[0])
            res = np.linalg.norm((M - t * eye) @ (M + eye / t), 2)
            worst = max(worst, float(res / max(1.0, np.linalg.norm(M, 2) ** 2)))
        residuals["truncated_quadratic"] = worst
        record("operator-convention", worst < 1e-9, f"residual {worst:.3e}")
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        record("operator-convention", False, f"{type(exc).__name__}: {exc}")

    # exponent-matching guard must stay unambiguous at the working tolerance
    try:
        p = sample_generic_params(rng, tol)
        match_q_power(p.q**3, p.q, 0, 8, tol)
        record("q-power-guard", True)
    except (AmbiguousMatchError, RuntimeError) as exc:
        record("q-power-guard", False, f"{type(exc).__name__}: {exc}")

    # relation suite on a sample of kinds
    kinds = [Type2(*s, n) for n in (0, 1) for s in product((1, -1), repeat=4)]
    kinds += [Type1E(i, s, 1) for i in (0, 1) for s in (1, -1)]
    kinds += [Type1F(i, s, 1) for i in (0, 1) for s in (1, -1)]
    worst_rel = 0.0
    ok = True
    detail = ""
    for kind in kinds:
        try:
            p = sample_stratum_params(kind, rng, tol)
            r = build_quotient_rep(kind, None, p)
            worst_rel = max(worst_rel, max(verify_relations(r, p).values()))
            if dim_vector(r, p) != root_of_kind(kind):
                ok, detail = False, f"dim vector mismatch at {kind_to_str(kind)}"
                break
            if commutant_dim(r, p) != 1:
                ok, detail = False, f"reducible at {kind_to_str(kind)}"
                break
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            ok, detail = False, f"{kind_to_str(kind)}: {type(exc).__name__}"
            break
    residuals["relations"] = worst_rel
    if ok and worst_rel >= RELATION_RESIDUAL_MAX:
        ok, detail = False, f"relation residual {worst_rel:.3e}"
    record("relation-suite", ok, detail)

    # negative control: generic parameters admit nothing
    try:
        p = sample_generic_params(rng, tol)
        empty = not classify_params(p, 4)
        record("generic-empty", empty)
    except RuntimeError as exc:
        record("generic-empty", False, str(exc))

    # rigidity closed forms
    record(
        "rigidity-counts",
        rigidity_D(3, 2, 2, 2, 2) == 0 and rigidity_D(2, 1, 1, 1, 1) == 2,
    )

    # root combinatorics
    roots = enumerate_strict_roots(8)
    ok = len(roots) == 16 * 9 + 8 * 8 and all(tits_form(v) == 1 for _, v in roots)
    record("root-combinatorics", ok)
    return checks, residuals


def cmd_selftest(cfg: RunConfig) -> tuple[dict, int]:
    checks, residuals = _selftest_properties(cfg)
    failed = [c["name"] for c in checks if not c["passed"]]
    code = EXIT_OK if not failed else EXIT_PROPERTY
    results = {
        "checks": checks,
        "failed": failed,
        "summary": "all properties passed" if not failed else "failures present",
    }
    return _report("selftest", cfg.params, results, residuals, code), code


# -- argument parsing ----------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    for key in _PARAM_KEYS:
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, help=f"{key} as an a+bi literal")
    sub.add_argument("--n-max", dest="n_max")
    sub.add_argument("--tol", help="the one comparison tolerance")
    sub.add_argument("--format", help="json, csv or text")
    sub.add_argument("--jobs")
    sub.add_argument("--seed")


@lru_cache(maxsize=1)
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daha-cc1",
        description=(
            "Classify parameters and construct the finite-dimensional "
            "irreducible representations of the rank-1 four-parameter "
            "double affine Hecke algebra."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(to_csv=None)  # how a command writes --format csv
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("classify", help="list admissible strata")
    _add_common(sp)
    sp.add_argument("--explain", action="store_true")
    sp.set_defaults(run=lambda cfg, a: cmd_classify(cfg, a.explain))

    sp = subs.add_parser("construct", help="build a quotient representation")
    _add_common(sp)
    sp.add_argument("--kind", required=True, help='e.g. "T2[++,++;n=1]"')
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--out", help="write the representation to a JSON file")
    sp.set_defaults(run=lambda cfg, a: cmd_construct(cfg, a.kind, a.force, a.out))

    sp = subs.add_parser("scan", help="sweep parameter points")
    _add_common(sp)
    sp.add_argument("--count", help="number of random points")
    sp.add_argument("--points-file", help="CSV of explicit points")
    sp.set_defaults(
        run=lambda cfg, a: cmd_scan(cfg, a.count, a.points_file), to_csv=_scan_csv
    )

    sp = subs.add_parser("ds-check", help="verify a stored representation")
    _add_common(sp)
    sp.add_argument("--rep", required=True, help="representation JSON file")
    sp.set_defaults(run=lambda cfg, a: cmd_ds_check(cfg, a.rep))

    sp = subs.add_parser("spectrum", help="z-spectrum of a quotient")
    _add_common(sp)
    sp.add_argument("--kind", required=True)
    sp.set_defaults(run=lambda cfg, a: cmd_spectrum(cfg, a.kind))

    sp = subs.add_parser("selftest", help="run the property suite")
    _add_common(sp)
    sp.set_defaults(run=lambda cfg, a: cmd_selftest(cfg))
    return parser


def _join_literals(argv: Sequence[str]) -> list[str]:
    """argv with each setting's flag joined by "=" to a next token that
    starts with "-" and reads as a literal, as "--k0=-1.5+2i": argparse
    takes a separate "-1.5+2i", "-i" or "-1e-9" for an option."""
    flags = {"--" + key.replace("_", "-") for key in _CONFIG_KEYS}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-"):
            try:
                parse_scalar(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _make_parser().parse_args(_join_literals(sys.argv[1:] if argv is None else argv))
    cfg = None
    try:
        cfg = _build_config(args)
        report, code = args.run(cfg, args)
    except _REFUSED as exc:
        code = next(c for types, c in _REFUSALS if isinstance(exc, types))
        if code == EXIT_OFF_STRATUM:
            results = {"error": str(exc), "failed": exc.failed}
        elif cfg is None:  # the configuration itself was refused
            results = {"error": str(exc)}
        else:
            results = {"error": f"{type(exc).__name__}: {exc}"}
        params = None if cfg is None else cfg.params
        _emit(_report(args.command, params, results, None, code), "json")
        return code
    if cfg.fmt == "csv" and args.to_csv is not None:
        sys.stdout.write(args.to_csv(report))
    else:
        _emit(report, cfg.fmt)
    return code


if __name__ == "__main__":
    sys.exit(main())
