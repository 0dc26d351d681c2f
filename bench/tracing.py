"""In-memory spans around the library's public functions.

Wrappers are installed only for a traced run, on the module attribute
each caller looks up (``daha_cc1.rep.divide_exact`` is what the
operator code calls, ``daha_cc1.cli.classify_params`` what the scan
worker calls), and removed afterwards.  A span records its name, start,
end, parent span and the op it belongs to; a layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from daha_cc1 import cli, dsbridge, rep, strata

# (layer name, [(module, attribute), ...]): every place the layer's
# public function is looked up at call time
SPANS = (
    ("cli.main", [(cli, "main")]),
    ("core.validate_params", [(cli, "validate_params"), (strata, "validate_params"),
                              (rep, "validate_params")]),
    ("roots.enumerate_strict_roots", [(strata, "enumerate_strict_roots"),
                                      (cli, "enumerate_strict_roots")]),
    ("strata.classify_params", [(cli, "classify_params")]),
    ("strata.sigma_membership", [(strata, "sigma_membership"), (rep, "sigma_membership"),
                                 (dsbridge, "sigma_membership"), (cli, "sigma_membership")]),
    ("laurent.divide_exact", [(rep, "divide_exact")]),
    ("laurent.reduce_mod", [(rep, "reduce_mod")]),
    ("laurent.divisor", [(rep, "build_E"), (rep, "build_E_dual")]),
    ("rep.build_quotient_rep", [(rep, "build_quotient_rep"), (cli, "build_quotient_rep")]),
    ("rep.verify_relations", [(rep, "verify_relations"), (cli, "verify_relations")]),
    ("rep.dim_vector", [(rep, "dim_vector"), (cli, "dim_vector")]),
    ("rep.spectrum_of_z", [(rep, "spectrum_of_z"), (cli, "spectrum_of_z")]),
    ("rep.commutant_dim", [(cli, "commutant_dim")]),
    ("rep.json", [(cli, "rep_to_json"), (cli, "rep_from_json")]),
    ("dsbridge.to_ds_tuple", [(dsbridge, "to_ds_tuple")]),
    ("dsbridge.verify_class_membership", [(dsbridge, "verify_class_membership")]),
    ("dsbridge.ds_existence_predicate", [(dsbridge, "ds_existence_predicate")]),
)

# counted, not timed: these run thousands of times per build
COUNTS = (
    ("rep.operator", [(rep, "apply_T0"), (rep, "apply_T1"), (rep, "apply_T0v_bar"),
                      (rep, "apply_T1v_bar")]),
)


class Tracer:
    """Holds the spans and counters of one run."""

    def __init__(self) -> None:
        # (span id, parent id, name, start ns, end ns, op)
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.bytes: Counter = Counter()
        self.op = 0
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        stack_bytes = name == "rep.commutant_dim"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; parents precede children
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, t0, t1, self.op)
                if stack_bytes:
                    # the Sylvester stack: 4 d^2 x d^2 complex128 entries
                    d = args[0].dim
                    self.bytes[name] += 4 * d**4 * 16
        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for name, sites in SPANS:
            for mod, attr in sites:
                self._patch(mod, attr, self._span(name, getattr(mod, attr)))
        for name, sites in COUNTS:
            for mod, attr in sites:
                self._patch(mod, attr, self._count(name, getattr(mod, attr)))

    def _patch(self, mod, attr, wrapper) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> defaultdict:
        """Per layer: span (or call) count and summed self time in ms;
        a layer with no spans reads as zeros."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: defaultdict = defaultdict(lambda: {"calls": 0, "ms": 0.0})
        for sid, _, name, t0, t1, _ in self.spans:
            out[name]["calls"] += 1
            out[name]["ms"] += (t1 - t0 - child_ns[sid]) / 1e6
        for name, n in self.counts.items():
            out[name]["calls"] += n
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines, written once at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start_ns": t0, "end_ns": t1, "op": op}
                ) + "\n")
