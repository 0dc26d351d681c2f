"""Benchmark for daha_cc1: classify scans, construct requests and the
level ladder, timed end to end, with per-layer spans in a traced run.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root; it imports the library from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
lines before it list the workload's own metrics by name and unit.  Full
results, the family x level build table and (traced) the spans go to
``bench/out/``.  The exit code is 1 when any answer is wrong.  See
bench/README.md for what each metric means on each workload.

BLAS is held to one thread, before numpy is imported: on a host with
few shared cores, threaded BLAS on these small matrices times the
scheduler more than the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("scan", "construct", "ladder")
SETUP_REPEATS = 5  # set-ups per run: this process and four fresh ones
SETUP_REFERENCES = 20  # reference loops timed after each set-up

# end-to-end slots: (name, unit); what each slot holds on each workload
# is listed in the workload's ``slots`` and in bench/README.md
SLOTS = (("op_ms", "ms"), ("op_ms.b", "ms"), ("op_ms.c", "ms"))

SPAN_LAYERS = (
    "core.validate_params", "roots.enumerate_strict_roots", "strata.classify_params",
    "strata.sigma_membership", "laurent.divide_exact", "laurent.reduce_mod",
    "laurent.divisor", "rep.build_quotient_rep", "rep.verify_relations",
    "rep.dim_vector", "rep.spectrum_of_z", "rep.commutant_dim", "rep.json",
    "dsbridge.to_ds_tuple", "dsbridge.verify_class_membership",
    "dsbridge.ds_existence_predicate",
)
ERROR_TYPES = (
    "IdealNotInvariantError", "InexactDivisionError", "RankIndeterminateError",
    "RelationResidualError", "OverflowError", "NotOnStratumError",
    "ProductNotIdentityError",
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up ----------------------------------------------------------------


def setup(name: str, seed: int):
    """Import, input generation and warm-up, in CPU seconds of this
    process and its reaped children (the scan warm-up forks jobs-2
    workers).  The first complex SVDs are timed apart (rep.cold_svd_ms)
    and left out of setup_s, because with threaded BLAS they stall in
    some fresh processes and not others."""
    t0 = cpu_seconds()
    sys.path[:0] = [SRC, HERE]
    import workloads

    t1 = cpu_seconds()
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT)
    t2 = cpu_seconds()
    cold_ms = workloads.cold_svd_ms()
    t3 = cpu_seconds()
    wl.warm_up()
    t4 = cpu_seconds()
    speed = workloads.speed_factor([workloads.reference_ms() for _ in range(SETUP_REFERENCES)])
    cpu_s = (t2 - t0) + (t4 - t3)
    timings = {
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
        "warm_up_s": t4 - t3,
        "cold_svd_ms": cold_ms,
        "cpu_s": cpu_s,
        "speed_factor": speed,
        "setup_s": cpu_s * speed,
    }
    return workloads, wl, timings


def cpu_seconds() -> float:
    """As workloads.cpu_seconds, which set-up cannot import before it
    times the import."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def fresh_setup_s(args) -> float:
    """setup_s of a fresh interpreter on the same workload and seed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# -- run context -----------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_context(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "src_lines": src_lines(),
        "cpu_pinning": "none: the run sets no CPU affinity",
        "cache_drop": "none: the run drops no caches",
    }


# -- metrics ---------------------------------------------------------------


def per_layer(wl, tally, tracer, timings, extra_tally) -> dict:
    """Per-layer metrics from the spans of a traced run, per traced op."""
    ops = max(wl.traced_ops(), 1)
    totals = tracer.layer_totals()
    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = (totals[layer]["calls"] / ops, "calls/op")
        out[f"{layer}.ms"] = (totals[layer]["ms"] / ops, "ms/op")
    out["rep.operator.calls"] = (totals["rep.operator"]["calls"] / ops, "calls/op")
    comm = totals["rep.commutant_dim"]["calls"]
    stack_mb = tracer.bytes["rep.commutant_dim"] / 2**20 / comm if comm else 0.0
    out["rep.commutant_dim.stack_mb"] = (stack_mb, "MB/call")
    out["rep.cold_svd_ms"] = (timings["cold_svd_ms"], "ms")
    for key, ratio in wl.table.ok_ratios().items():
        out[f"rep.build_ok_ratio.{key}"] = (ratio, "ratio")
    out["cli.self_ms"] = (totals["cli.main"]["ms"] / ops, "ms/op")
    kb = tally.cli_bytes / 1024 / tally.cli_calls if tally.cli_calls else 0.0
    out["cli.report_kb"] = (kb, "KiB/call")
    eff = wl.metrics().get("cli.scan.parallel_efficiency", (0.0,))[0]
    out["cli.scan.parallel_efficiency"] = (eff, "ratio")
    sigma = totals["strata.sigma_membership"]["calls"]
    out["strata.hits_per_check"] = (getattr(wl, "hits", 0) / sigma if sigma else 0.0, "ratio")
    errors = tally.errors
    for name in ERROR_TYPES:
        out[f"errors.{name}"] = (errors.get(name, 0), "count")
    out["errors.other"] = (sum(v for k, v in errors.items() if k not in ERROR_TYPES), "count")
    out["cli.uncaught"] = (tally.uncaught, "count")
    out["wrong_answers"] = (len(tally.wrong) + len(extra_tally.wrong), "count")
    out["trace.overhead_ms"] = (1000 * (wl.traced_s - wl.untraced_s) / ops, "ms/op")
    out["trace.overhead_pct"] = (100 * (wl.traced_s / wl.untraced_s - 1), "%")
    out["trace.output_mismatches"] = (tally.trace_mismatches, "count")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def end_to_end(wl, tally, setup_s: float) -> dict:
    own = wl.metrics()
    out = {"setup_s": (setup_s, "s"),
           "ok_ratio": (tally.ok / tally.attempted, "ratio"),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for (name, unit), value in zip(SLOTS, wl.slots(own)):
        out[name] = (value, unit)
    return out


# -- one workload ----------------------------------------------------------


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "daha_cc1")):
        print(f"bench: no daha_cc1 package under {SRC}", file=sys.stderr)
        return 2
    workloads, wl, timings = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(timings))
        return 0
    setups = [timings["setup_s"]] + [fresh_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(setups)

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    tally = workloads.Tally()
    t0 = time.perf_counter()
    units = wl.measure(args.seconds, tally, tracer)
    measured_s = time.perf_counter() - t0

    extra_tally = workloads.Tally()
    if args.trace:
        wl.complete_table(extra_tally)

    own = wl.metrics()
    if args.trace:
        metrics = per_layer(wl, tally, tracer, timings, extra_tally)
    else:
        metrics = end_to_end(wl, tally, setup_s)
    wrong = tally.wrong + extra_tally.wrong
    correct = not wrong and tally.trace_mismatches == 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "context": run_context(args),
        "correct": correct,
        "attempted": tally.attempted,
        "ok": tally.ok,
        "failed": tally.failed,
        "errors": dict(tally.errors),
        "uncaught": tally.uncaught,
        "wrong_answers": wrong[:50],
        "trace_mismatches": tally.trace_mismatches,
        "units": units,
        "measured_s": measured_s,
        "reference_ms": {"runs": len(wl.ref_ms), "median": statistics.median(wl.ref_ms),
                         "quartiles": statistics.quantiles(wl.ref_ms, n=4)},
        "speed_factor": workloads.speed_factor(wl.ref_ms),
        "setup": {**timings, "setup_s_runs": setups, "setup_s": setup_s},
        "workload_metrics": as_json(own),
        "workload_metrics_cpu": as_json(wl.metrics(workloads.CPU)),
        "metrics": as_json(metrics),
        "build_table": wl.table.rows(),
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"{tag}-spans.jsonl"))

    for k, (v, u) in own.items():
        print(f"{args.workload}: {k} = {v:.6g} {u}")
    print(f"{args.workload}: reference loop median {statistics.median(wl.ref_ms):.4g} ms "
          f"(scaled times assume {workloads.REFERENCE_MS:g} ms)")
    print(f"{args.workload}: ok {tally.ok}/{tally.attempted}, errors {dict(tally.errors)}, "
          f"uncaught {tally.uncaught}, wrong {len(wrong)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": as_json(metrics),
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every metric of all three."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if lines and lines[-1].startswith("{"):
            for k, m in json.loads(lines[-1])["metrics"].items():
                print(f"{name}: {k} = {m['value']:.6g} {m['unit']}")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            code = done.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
