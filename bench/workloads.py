"""The three workloads: set-up, the measured closed loop, and checks.

A run makes one counted pass over the workload's ops, then repeats them
until its time is up.  Only the first pass counts in ``attempted`` and
``failed``, so those depend on the seed alone; every repeat must give
the same outcome and output as the first, or it counts as a wrong
answer.  Every op runs under a catch-all, so an exception the CLI lets
escape is counted by type and never ends the run.

Each call is timed in CPU time of this process and of the children it
has reaped (the jobs-2 scan workers), and each input's timing is the
median of its repeats.  After every unit the run times a fixed
reference loop that calls nothing of the program, and each call's time
is also given scaled by the host speed the loops before and after it
measured (see ``median_ms``).  A traced run runs each unit of work twice,
untraced and then traced, compares the two outputs byte for byte, and
reports the difference in time as the tracing overhead.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

import numpy as np

import checks
import inputs
from daha_cc1 import cli, rep
from daha_cc1.core import Params
from daha_cc1.roots import Type2, kind_to_str

SCAN_CONFIGS = (("n20", 20, 1), ("jobs2", 20, 2), ("nmax6", 6, 1))
LEVEL_BANDS = (("L0-6", 0, 6), ("L7-13", 7, 13), ("L14-20", 14, 20))

# A round figure near the reference loop's median CPU ms (3.8 to 5.3 ms
# per run) on the host the baseline was taken on, a shared 2-core Intel
# Xeon virtual machine with Python 3.11 and numpy 2.4.
REFERENCE_MS = 5.0
_REF_MATRIX = np.exp(2j * np.pi * np.arange(64).reshape(8, 8) / 67) / 8
_REF_POLY = {d: cmath.rect(1 + d % 3, d) for d in range(-40, 41)}
_REF_POINTS = [cmath.rect(1.1, k / 7) for k in range(90)]


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reference_ms() -> float:
    """CPU ms of a fixed loop in the program's mix of work, calling
    nothing of the program: Laurent polynomials, held as dicts of complex
    coefficients, evaluated at points with generator sums as laurent and
    rep do, then small complex matrix products as in rep."""
    t0 = time.process_time()
    worst = 0.0
    for r in _REF_POINTS:
        scale = sum(abs(c) * abs(r) ** d for d, c in _REF_POLY.items())
        worst = max(worst, abs(sum(c * r**d for d, c in _REF_POLY.items())) / scale)
    m = _REF_MATRIX
    for _ in range(100):
        m = m @ _REF_MATRIX + _REF_MATRIX
    return 1000 * (time.process_time() - t0)


def speed_factor(ref_ms: list[float]) -> float:
    """REFERENCE_MS over the median of some reference times: multiplying
    a time taken alongside those reference loops by this gives that time
    on a host as fast as the baseline's.  On a shared host the speed
    drifts by a quarter or more within seconds to minutes, in CPU time as
    in wall time.  The reference loop sees the same drift and the program
    does not enter it, so a scaled time moves with the program only."""
    return REFERENCE_MS / statistics.median(ref_ms)


class Tally:
    """Op outcomes of one run, counted once per op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.errors: Counter = Counter()
        self.wrong: list[str] = []
        self.uncaught = 0
        self.trace_mismatches = 0
        self.cli_calls = 0
        self.cli_bytes = 0
        self.outputs: dict[object, bytes] = {}  # op key -> digest of its first answer

    def add(self, key, outcome: checks.Outcome, output=None, escaped: bool = False) -> bool:
        """Count the outcome of op `key` on its first run, and whether an
        exception escaped cli.main; a repeat must give the same outcome
        and output.  Returns whether it was the first run."""
        digest = hashlib.blake2b(repr((outcome, output)).encode(), digest_size=16).digest()
        if key in self.outputs:
            if self.outputs[key] != digest:
                self.wrong.append(f"{key}: a repeat gave another answer")
            return False
        self.outputs[key] = digest
        self.attempted += 1
        self.uncaught += escaped
        if outcome.status == "ok":
            self.ok += 1
        elif outcome.status == "refused":
            self.errors[outcome.detail] += 1
        else:
            self.wrong.append(f"{key}: {outcome.detail}")
        return True

    def cli_output(self, text: str) -> None:
        """Account one untraced CLI call."""
        self.cli_calls += 1
        self.cli_bytes += len(text)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def call_cli(argv: list[str]) -> tuple[tuple[float, float], Optional[int], str, Optional[str]]:
    """Run cli.main in-process: ((CPU s, wall s), exit code, stdout,
    escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None
    c0, w0 = cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # anything main lets escape
        escaped = type(exc).__name__
    took = (cpu_seconds() - c0, time.perf_counter() - w0)
    return took, code, out.getvalue(), escaped


# a timed call: [CPU s, wall s, ms of the reference loops around it]
Sample = list
CPU, WALL, SCALED = "cpu", "wall", "scaled"


def median_ms(samples: list[Sample], how: str = SCALED) -> float:
    """Median over one input's repeats of their CPU, wall or scaled ms;
    a scaled time is CPU time times REFERENCE_MS over the mean of the
    reference loops run just before and just after the call."""
    if how == CPU:
        return 1000 * statistics.median(s[0] for s in samples)
    if how == WALL:
        return 1000 * statistics.median(s[1] for s in samples)
    return 1000 * statistics.median(s[0] * REFERENCE_MS / s[2] for s in samples)


class Workload:
    """What the three workloads share: the traced/untraced double run
    and the closed loop over units."""

    traced_s = untraced_s = 0.0
    n_units = 0
    ref_ms: list[float]
    _pending: list[Sample]

    def record(self, samples: list[Sample], took: tuple[float, float]) -> None:
        """Add a call's (CPU s, wall s) to an input's samples; the
        reference loops around it are filled in after the unit."""
        sample = [took[0], took[1], None]
        samples.append(sample)
        self._pending.append(sample)

    def twice(self, run: Callable[[], tuple], tracer, tally: Tally,
              key: Callable[[tuple], object] = lambda res: res[1:]) -> tuple:
        """Run one unit of work, whose result starts with its (CPU s,
        wall s).  In a traced run, run it again traced and compare the
        results; the untraced result is returned."""
        first = run()
        if tracer is None:
            return first
        with tracer:
            second = run()
        if key(first) != key(second):
            tally.trace_mismatches += 1
        self.untraced_s += first[0][0]
        self.traced_s += second[0][0]
        return first

    def measure(self, seconds: float, tally: Tally, tracer) -> int:
        """Run every unit once, then repeat them in order until `seconds`
        have passed, with a reference loop before the first unit and
        after each; returns the number of units run."""
        self.ref_ms = [reference_ms()]
        self._pending = []
        t0 = time.perf_counter()
        n = 0
        while n < self.n_units or time.perf_counter() - t0 < seconds:
            if tracer is not None:
                tracer.op = n
            self.unit(n % self.n_units, tally, tracer)
            n += 1
            self.ref_ms.append(reference_ms())
            around = (self.ref_ms[-2] + self.ref_ms[-1]) / 2
            for sample in self._pending:
                sample[2] = around
            self._pending.clear()
        return n

    def complete_table(self, tally: Tally) -> None:
        """Untimed extra work a traced run does for the build table."""


def cold_svd_ms() -> float:
    """Time the first complex SVDs at the commutant stack shapes
    (4d^2 x d^2, d = 1..13).  With threaded BLAS the first of these
    sometimes stalls for about a second; this absorbs and reports it."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for d in range(1, 14):
        a = rng.normal(size=(4 * d * d, d * d)) + 1j * rng.normal(size=(4 * d * d, d * d))
        np.linalg.svd(a, compute_uv=False)
    return 1000 * (time.perf_counter() - t0)


def percentile(xs: list[float], q: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


# -- scan ------------------------------------------------------------------


class Scan(Workload):
    """cli scan over points files, at (n_max 20, jobs 1), (20, 2) and (6, 1).

    A pass scans every batch at (20, 1) and (6, 1), then every batch at
    (20, 2).  Each pass runs the calls in the same order, so the
    copy-on-write cost the jobs-2 fork leaves in this process falls on
    the same call every time.
    """

    name = "scan"

    def __init__(self, seed: int, workdir: str) -> None:
        self.batches = inputs.scan_batches(seed)
        self.files = []
        for b, pts in enumerate(self.batches):
            path = os.path.join(workdir, f"scan-{b}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.points_file_text(pts))
            self.files.append(path)
        self.warm_file = os.path.join(workdir, "scan-warm.csv")
        with open(self.warm_file, "w", encoding="utf-8") as fh:
            fh.write(inputs.points_file_text(self.batches[0][:4]))
        self.n_units = 3 * len(self.batches)
        # per (config, batch), the (CPU s, wall s) of each repeat
        self.calls: dict[tuple[str, int], list[tuple[float, float]]] = defaultdict(list)
        self.reference: dict[int, tuple] = {}  # batch -> (rows, CSV) of its (20, 1) scan
        self.hits = 0
        self.table = BuildTable()

    def warm_up(self) -> None:
        # jobs 2 first: its fork's copy-on-write cost is paid before the
        # jobs-1 calls that follow
        for _, n_max, jobs in sorted(SCAN_CONFIGS, key=lambda c: -c[2]):
            call_cli(self._argv(self.warm_file, n_max, jobs))

    @staticmethod
    def _argv(path: str, n_max: int, jobs: int) -> list[str]:
        return ["scan", "--points-file", path, "--format", "csv",
                "--n-max", str(n_max), "--jobs", str(jobs)]

    def unit(self, i: int, tally: Tally, tracer) -> None:
        n_batches = len(self.batches)
        if i < 2 * n_batches:
            b, (name, n_max, jobs) = i // 2, (SCAN_CONFIGS[0], SCAN_CONFIGS[2])[i % 2]
        else:
            b, (name, n_max, jobs) = i - 2 * n_batches, SCAN_CONFIGS[1]
        # only the (20, 1) calls are traced, one config being enough; the
        # jobs-2 workers are forked processes, whose spans would be lost
        run = lambda: call_cli(self._argv(self.files[b], n_max, jobs))
        took, code, text, escaped = self.twice(run, tracer if name == "n20" else None, tally)
        self.record(self.calls[name, b], took)
        tally.cli_output(text)
        rows = self.check(b, (name, n_max, code, text, escaped), tally, self.reference.get(b))
        if name == "n20" and b not in self.reference:
            self.reference[b] = (rows, text)

    def check(self, b: int, output, tally: Tally, n20=None):
        """Check one (name, n_max, exit code, CSV, escaped) output for
        batch b.  The jobs-2 and n_max 6 outputs are held against n20,
        the (rows, CSV) of the batch's n_max 20, jobs 1 scan.  Returns
        the parsed hits, or None."""
        pts = self.batches[b]
        name, n_max, code, text, escaped = output
        keys = [(name, b, i) for i in range(len(pts))]
        if escaped or code != 0:
            for key in keys:
                tally.add(key, checks.refused(escaped or f"exit{code}"), text, bool(escaped))
            return None
        try:
            rows = checks.parse_scan_csv(text, len(pts))
        except ValueError as exc:
            for key in keys:
                tally.add(key, checks.wrong(f"bad scan CSV: {exc}"), text)
            return None
        for i, (key, pt, hits) in enumerate(zip(keys, pts, rows)):
            outcome = checks.check_scan_row(pt.kind, hits, n_max)
            if outcome.status == "ok" and n20 and n20[0] is not None:
                if name == "jobs2" and text != n20[1]:
                    outcome = checks.wrong("jobs 2 CSV differs from jobs 1")
                elif name == "nmax6":
                    outcome = checks.check_scan_levels(hits, n20[0][i], n_max)
            tally.add(key, outcome, hits)
        if name == "n20":
            self.hits += sum(1 for hits in rows for h in hits if not h.startswith("error:"))
        return rows

    def _ms_per_point(self, name: str, how: str) -> float:
        """Summed per-batch medians over the points scanned."""
        ms = sum(median_ms(self.calls[name, b], how) for b in range(len(self.batches)))
        return ms / sum(len(pts) for pts in self.batches)

    def metrics(self, how: str = SCALED) -> dict[str, tuple[float, str]]:
        """Points per (scaled or plain) CPU second at each config; jobs 2
        also per wall second, which is what its two workers are for."""
        rate = {name: 1000 / self._ms_per_point(name, how) for name, _, _ in SCAN_CONFIGS}
        wall = {name: 1000 / self._ms_per_point(name, WALL) for name in ("n20", "jobs2")}
        return {
            "points_per_s": (rate["n20"], "1/s"),
            "points_per_s.nmax6": (rate["nmax6"], "1/s"),
            "points_per_s.jobs2": (rate["jobs2"], "1/s"),
            "points_per_wall_s": (wall["n20"], "1/s"),
            "points_per_wall_s.jobs2": (wall["jobs2"], "1/s"),
            "cli.scan.parallel_efficiency": (wall["jobs2"] / wall["n20"] / 2, "ratio"),
        }

    def traced_ops(self) -> int:
        return sum(len(self.calls["n20", b]) * len(pts) for b, pts in enumerate(self.batches))

    def slots(self, m) -> tuple[float, float, float]:
        return (1000 / m["points_per_s"][0], 1000 / m["points_per_s.nmax6"][0],
                1000 / m["points_per_s.jobs2"][0])


# -- build-success table -------------------------------------------------


class BuildTable:
    """Build attempts and successes per (family, level) cell."""

    def __init__(self) -> None:
        self.cells: dict[tuple[int, int], list[int]] = {}

    def add(self, family: int, level: int, ok: bool) -> None:
        cell = self.cells.setdefault((family, level), [0, 0])
        cell[0] += 1
        cell[1] += ok

    def rows(self) -> list[str]:
        """The table as text: ok/attempts per cell, "-" where none ran."""
        levels = range(inputs.MAX_LEVEL + 1)
        out = ["family".ljust(12) + "".join(f"{n:>6}" for n in levels)]
        for f in range(len(inputs.FAMILIES)):
            row = inputs.family_name(f).ljust(12)
            for n in levels:
                a, ok = self.cells.get((f, n), (0, 0))
                row += (f"{ok}/{a}" if a else "-").rjust(6)
            out.append(row)
        return out

    def ok_ratios(self) -> dict[str, float]:
        """Success share per kind type and level band; 0 where none ran."""
        out = {}
        for fam, type2 in (("type2", True), ("oneleg", False)):
            for band, lo, hi in LEVEL_BANDS:
                a = ok = 0
                for (f, n), (ca, cok) in self.cells.items():
                    if inputs.is_type2(f) == type2 and lo <= n <= hi:
                        a, ok = a + ca, ok + cok
                out[f"{fam}.{band}"] = ok / a if a else 0.0
        return out


# -- construct -------------------------------------------------------------


class Construct(Workload):
    """One closed-loop client: construct --out f, then ds-check --rep f,
    for every family at levels 0..6."""

    name = "construct"

    def __init__(self, seed: int, workdir: str) -> None:
        self.requests = inputs.construct_requests(seed)
        self.n_units = len(self.requests)
        self.rep_file = os.path.join(workdir, "construct-rep.json")
        # per request index, the (CPU s, wall s) of each repeat
        self.construct_s: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self.dscheck_s: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self.table = BuildTable()

    def _construct(self, pt):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.rep_file)
        argv = ["construct", *inputs.param_args(pt), "--kind", kind_to_str(pt.kind),
                "--out", self.rep_file]
        res = call_cli(argv)
        try:
            with open(self.rep_file, "rb") as fh:
                return res + (fh.read(),)
        except FileNotFoundError:
            return res + (b"",)

    def _ds_check(self, pt):
        return call_cli(["ds-check", *inputs.param_args(pt), "--rep", self.rep_file])

    def warm_up(self) -> None:
        for n in inputs.CONSTRUCT_LEVELS:
            pt = next(p for p in self.requests if p.kind.n == n)
            self._construct(pt)
            self._ds_check(pt)

    def _timed(self, run, tracer, tally: Tally):
        res = self.twice(run, tracer, tally)
        tally.cli_output(res[2])
        return res

    def unit(self, i: int, tally: Tally, tracer) -> None:
        pt = self.requests[i]
        took, code, text, escaped, rep_bytes = self._timed(
            lambda: self._construct(pt), tracer, tally)
        self.record(self.construct_s[i], took)
        built = code == 0
        answer = [code, text, escaped, rep_bytes]
        outcome = checks.refused(escaped) if escaped else \
            checks.check_construct(code, text, inputs.expected_root(pt))
        if outcome.status == "ok":
            took, code, text, escaped = self._timed(lambda: self._ds_check(pt), tracer, tally)
            self.record(self.dscheck_s[i], took)
            answer += [code, text, escaped]
            outcome = checks.refused(escaped) if escaped else \
                checks.check_ds_check(code, text)
        if tally.add(i, outcome, answer, escaped is not None):
            self.table.add(pt.family, pt.kind.n, built)

    def metrics(self, how: str = SCALED) -> dict[str, tuple[float, str]]:
        """Percentiles over requests of each request's median repeat."""
        construct = [median_ms(s, how) for s in self.construct_s.values()]
        dscheck = [median_ms(s, how) for s in self.dscheck_s.values()]
        return {
            "construct_p50_ms": (percentile(construct, 50), "ms"),
            "construct_p90_ms": (percentile(construct, 90), "ms"),
            "dscheck_p50_ms": (percentile(dscheck, 50), "ms"),
            "construct.requests": (len(construct), "count"),
            "construct.repeats": (self.traced_ops() / len(construct), "count"),
        }

    def traced_ops(self) -> int:
        return sum(len(s) for s in self.construct_s.values())

    def slots(self, m) -> tuple[float, float, float]:
        return (m["construct_p50_ms"][0], m["construct_p90_ms"][0], m["dscheck_p50_ms"][0])


# -- ladder ----------------------------------------------------------------


class Ladder(Workload):
    """Library builds at every level 0..20: build_quotient_rep, then
    dim_vector, then (type-2 only) spectrum_of_z against rho_ladder.
    A pass builds LADDER_CYCLE sweeps of the 21 levels."""

    name = "ladder"

    def __init__(self, seed: int, workdir: str) -> None:
        self.sweeps = inputs.ladder_sweeps(seed)
        self.n_units = inputs.LADDER_CYCLE * (inputs.MAX_LEVEL + 1)
        # per (sweep, level), the (CPU s, wall s) of each repeat
        self.build_s: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
        self.table = BuildTable()

    @staticmethod
    def _build(pt):
        p = Params(*pt.values)
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            r = rep.build_quotient_rep(pt.kind, None, p)
            dv = rep.dim_vector(r, p).as_tuple()
            spec = rep.spectrum_of_z(r, p) if isinstance(pt.kind, Type2) else None
        except Exception as exc:  # every refusal is counted by type
            took = (cpu_seconds() - c0, time.perf_counter() - w0)
            return took, type(exc).__name__, None, None, None
        took = (cpu_seconds() - c0, time.perf_counter() - w0)
        mats = b"".join(M.tobytes() for M in r.generators())
        return took, None, dv, spec, mats

    def warm_up(self) -> None:
        for pt in self.sweeps[-1][:8]:
            self._build(pt)

    def _build_one(self, key, pt, tally: Tally, tracer) -> tuple[float, float]:
        """One build and its checks; returns the untraced (CPU s, wall s)."""
        took, exc, dv, spec, mats = self.twice(
            lambda: self._build(pt), tracer, tally, key=lambda res: (res[1], res[2], res[4]))
        if exc is not None:
            outcome = checks.refused(exc)
        else:
            ladder = None
            if isinstance(pt.kind, Type2):
                sv = rep.SignVector(*pt.kind.signs)
                ladder = rep.rho_ladder(sv, pt.kind.n, Params(*pt.values))
            outcome = checks.check_build(dv, inputs.expected_root(pt), spec, ladder)
        if tally.add(key, outcome, (exc, dv, mats)):
            self.table.add(pt.family, pt.kind.n, outcome.status == "ok")
        return took

    def unit(self, i: int, tally: Tally, tracer) -> None:
        s, n = divmod(i, inputs.MAX_LEVEL + 1)
        self.record(self.build_s[s, n], self._build_one((s, n), self.sweeps[s][n], tally, tracer))

    def complete_table(self, tally: Tally) -> None:
        """Build the rest of the rotation, untimed, so every (family,
        level) cell has at least one build."""
        for j in range(inputs.LADDER_CYCLE, len(self.sweeps)):
            for n, pt in enumerate(self.sweeps[j]):
                self._build_one((j, n), pt, tally, None)

    def _ms_per_build(self, lo: int, hi: int, how: str) -> float:
        """Mean over the builds at levels lo..hi of each build's median
        repeat."""
        return statistics.fmean(
            median_ms(s, how) for (_, n), s in self.build_s.items() if lo <= n <= hi)

    def metrics(self, how: str = SCALED) -> dict[str, tuple[float, str]]:
        return {
            "builds_per_s": (1000 / self._ms_per_build(0, inputs.MAX_LEVEL, how), "1/s"),
            "build_ms.L7-13": (self._ms_per_build(7, 13, how), "ms"),
            "build_ms.L14-20": (self._ms_per_build(14, 20, how), "ms"),
        }

    def traced_ops(self) -> int:
        return sum(len(s) for s in self.build_s.values())

    def slots(self, m) -> tuple[float, float, float]:
        return (1000 / m["builds_per_s"][0], m["build_ms.L14-20"][0], m["build_ms.L7-13"][0])


WORKLOADS = {cls.name: cls for cls in (Scan, Construct, Ladder)}
