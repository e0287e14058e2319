"""Instrumentation of resverify from the outside, and per-layer metrics.

Every wrapper is installed at the name its caller looks up, because the
package binds some functions by name at import (checks.py and sweep.py
import parse, pseudo_division, resultant*, gcd_subresultant and
build_core) and reaches the kernels as attributes of the kernels
module.  Two kinds of patch exist:

* capture (always on): sweep._case_worker and sweep.resultant_interp,
  so that each CaseResult carries the resultant polynomial back to the
  parent for the oracle, also from pool workers;
* trace (on only during traced passes): one span per call of every
  function in trace_targets(), kept in memory as
  [name id, parent index, owner id, start, end, extra].

Pool workers must be forked from the process that installed the
patches (the default start method of ProcessPoolExecutor on Linux up
to Python 3.13); they ship their spans back on the CaseResult they
return.
"""

from __future__ import annotations

import os
from time import perf_counter

import pace

_ACTIVE: "Instrument | None" = None  # the patches installed in this process


def _det_extra(args, kwargs):
    rows = args[0]
    bits = max((abs(e).bit_length() for row in rows for e in row), default=0)
    return (len(rows), bits)


def _mul_extra(args, kwargs):
    return len(args[0]) * len(args[1])


def _interp_extra(args, kwargs, result):
    return max(result.degree(args[3]), 0) + 1  # args[3] is the spectator


def trace_targets(rv) -> list[tuple]:
    """(holder, attribute, span name, extra before call, extra after call)."""
    sweep, catalog, checks, parser = rv.sweep, rv.catalog, rv.checks, rv.parser
    resultant, kernels, poly = rv.resultant, rv.kernels, rv.poly
    return [
        (sweep, "run_case", "sweep.run_case", None, None),
        (sweep, "build_core", "catalog.build_core", None, None),
        (checks, "build_core", "catalog.build_core", None, None),
        (catalog, "manifest", "catalog.manifest", None, None),
        (checks, "manifest", "catalog.manifest", None, None),
        (catalog, "reduce_to_z", "catalog.reduce_to_z", None, None),
        (checks, "dominant_coef_value", "catalog.closed_form", None, None),
        (checks, "res_special_value", "catalog.closed_form", None, None),
        (checks, "fp_square_to_s", "catalog.fp_square_to_s", None, None),
        (catalog, "load_manifest", "parser.load_manifest", None, None),
        (parser, "parse", "parser.parse", None, None),
        (checks, "parse", "parser.parse", None, None),
        (sweep, "resultant_interp", "resultant.resultant_interp", None, _interp_extra),
        (checks, "resultant_interp", "resultant.resultant_interp", None, _interp_extra),
        (checks, "resultant", "resultant.resultant", None, None),
        (resultant, "resultant", "resultant.resultant", None, None),
        (resultant, "sylvester", "resultant.sylvester", None, None),
        (resultant, "bareiss_det", "resultant.bareiss_det", None, None),
        (checks, "gcd_subresultant", "resultant.gcd_subresultant", None, None),
        (kernels, "mul_dicts", "kernels.mul_dicts", _mul_extra, None),
        (kernels, "addmul_term", "kernels.addmul_term", None, None),
        (kernels, "bareiss_det_int", "kernels.bareiss_det_int", _det_extra, None),
        (poly.MultiPoly, "exact_div", "poly.exact_div", None, None),
        (poly, "gcd", "poly.gcd", None, None),
        (poly, "pseudo_division", "poly.pseudo_division", None, None),
        (checks, "pseudo_division", "poly.pseudo_division", None, None),
        (checks, "run_check", "checks.run_check", None, None),
    ]


class Tracer:
    """In-memory span store of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.owners: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.owner = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def owner_id(self, owner: str) -> int:
        if owner not in self.owners:
            self.owners.append(owner)
        return self.owners.index(owner)

    def wrap(self, fn, name: str, pre=None, post=None):
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, self.owner, 0.0, 0.0,
                   pre(args, kwargs) if pre else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if post:
                rec[5] = post(args, kwargs, out)
            return out

        return traced

    def call(self, name: str, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself;
        returns (result, span index)."""
        index = len(self.spans)
        return self.wrap(fn, name)(*args), index

    def merge(self, shipped: tuple, root: int) -> None:
        """Append spans shipped back by a pool worker under span root."""
        owner, first, names, recs = shipped
        oid = self.owner_id(owner)
        offset = len(self.spans) - first
        for nid, parent, _, start, end, extra in recs:
            self.spans.append([self.name_id(names[nid]),
                               parent + offset if parent >= first else root,
                               oid, start, end, extra])

    def dump(self) -> dict:
        return {"names": self.names, "owners": self.owners,
                "columns": ["name", "parent", "owner", "start", "end", "extra"],
                "spans": self.spans}


class Instrument:
    """The patches of one benchmark process (and of its forked workers)."""

    def __init__(self, rv, trace: bool):
        self.rv = rv
        self.pid = os.getpid()
        self.tracer = Tracer() if trace else None
        self.tracing = False
        self.last_result = None
        self._saved: list[tuple] = []
        self._capture_depth = 0

    def _patch(self, holder, attr, replacement) -> None:
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, replacement)

    def _unpatch_to(self, depth: int) -> None:
        while len(self._saved) > depth:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def install(self) -> "Instrument":
        global _ACTIVE
        sweep = self.rv.sweep
        self.original_case_worker = sweep._case_worker
        interp = sweep.resultant_interp

        def capture(*args, **kwargs):
            self.last_result = interp(*args, **kwargs)
            return self.last_result

        self._patch(sweep, "resultant_interp", capture)
        self._patch(sweep, "_case_worker", case_worker)
        self._capture_depth = len(self._saved)
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        self._unpatch_to(0)
        _ACTIVE = None

    def set_tracing(self, on: bool) -> None:
        if on == self.tracing:
            return
        if on:
            for holder, attr, name, pre, post in trace_targets(self.rv):
                fn = holder.__dict__[attr]
                self._patch(holder, attr, self.tracer.wrap(fn, name, pre, post))
        else:
            self._unpatch_to(self._capture_depth)
        self.tracing = on

    def set_owner(self, owner: str) -> None:
        if self.tracer:
            self.tracer.owner = self.tracer.owner_id(owner)

    def original(self, holder, attr):
        """The unwrapped object behind a possibly traced attribute."""
        for h, a, original in self._saved:
            if h is holder and a == attr:
                return original
        return getattr(holder, attr)

    def run_case(self, args):
        mm, rr, cc, var = args[:4]
        tracer = self.tracer if self.tracing else None
        in_worker = os.getpid() != self.pid
        if tracer:
            if in_worker:
                tracer.stack.clear()
            first = len(tracer.spans)
            saved_owner = tracer.owner
            tracer.owner = tracer.owner_id(f"{mm},{rr},{cc}")
        self.last_result = None
        try:
            if in_worker:
                # a pool worker paces its own case (pace.pooled); not
                # while tracing, so that the spans hold no samples
                res, timing = pace.Meter().time(self.original_case_worker, args,
                                                interleave=not tracer)
                res.perfbench_timing = timing
            else:
                res = self.original_case_worker(args)
        finally:
            if tracer:
                tracer.owner = saved_owner
        poly = self.last_result
        if poly is not None and not res.timed_out:
            spectator = self.rv.poly.VAR_NAMES.index("f" if var == "k" else "k")
            res.perfbench_poly = {exps[spectator]: coeff for exps, coeff in poly.terms()}
        if tracer and in_worker:
            res.perfbench_spans = (f"{mm},{rr},{cc}", first, list(tracer.names),
                                   tracer.spans[first:])
            del tracer.spans[first:]
        return res


def case_worker(args):
    """Stands in for sweep._case_worker; importable, so pool workers can
    unpickle it."""
    if _ACTIVE is None:
        raise RuntimeError("pool worker was not forked from the benchmark "
                           "process, so it carries no instrumentation")
    return _ACTIVE.run_case(args)


# -- per-layer metrics from the spans of one pass ---------------------

LAYERS = ("sweep", "catalog", "parser", "resultant", "kernels", "poly", "checks")

# exact counts: repeat exactly for one seed and one version of the program
EXACT = ("kernels.det_calls", "kernels.det_dim", "kernels.det_bits",
         "kernels.mul_calls", "kernels.mul_term_pairs", "kernels.addmul_calls",
         "resultant.interp_calls", "resultant.samples", "parser.parse_calls")


def per_layer_units(check_names) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "kernels.det_calls": "count", "kernels.det_s": "s",
        "kernels.det_dim": "rows", "kernels.det_bits": "bits",
        "kernels.mul_calls": "count", "kernels.mul_term_pairs": "count",
        "kernels.mul_s": "s", "kernels.addmul_calls": "count",
        "kernels.addmul_s": "s",
        "poly.exact_div_s": "s", "poly.gcd_s": "s", "poly.pseudo_division_s": "s",
        "resultant.bareiss_sym_s": "s", "resultant.gcd_s": "s",
        "resultant.interp_calls": "count", "resultant.interp_self_s": "s",
        "resultant.samples": "count", "resultant.sample_yield": "ratio",
        "sweep.case_self_s": "s", "sweep.parallel_eff": "ratio",
        "catalog.build_core_s": "s", "catalog.closed_form_s": "s",
        "catalog.reduce_to_z_s": "s", "catalog.manifest_s": "s",
        "parser.parse_calls": "count", "parser.parse_s": "s",
        "parser.load_manifest_s": "s",
    }
    for name in check_names:
        units[f"checks.{name}_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def _self_times(spans: list, lo: int, hi: int) -> list[float]:
    """Duration of each span in [lo, hi) minus the part of it that its
    children cover (children of a pool sweep overlap)."""
    children: dict[int, list] = {}
    for i in range(lo, hi):
        parent = spans[i][1]
        if parent >= lo:
            children.setdefault(parent, []).append((spans[i][3], spans[i][4]))
    out = []
    for i in range(lo, hi):
        start, end = spans[i][3], spans[i][4]
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, start), min(b, end)
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, lo: int, hi: int, jobs: int, check_names) -> dict:
    """Per-layer metrics of the spans [lo, hi) of one traced pass."""
    spans, names = tracer.spans, tracer.names
    self_s = _self_times(spans, lo, hi)
    by_name: dict[str, list[int]] = {}
    for i in range(lo, hi):
        by_name.setdefault(names[spans[i][0]], []).append(i)

    def dur(i):
        return spans[i][4] - spans[i][3]

    def outermost(name):
        nid = names.index(name) if name in names else -1
        for i in by_name.get(name, ()):
            parent = spans[i][1]
            while parent >= lo and spans[parent][0] != nid:
                parent = spans[parent][1]
            if parent < lo:
                yield i

    def incl(*span_names):
        return sum(dur(i) for name in span_names for i in outermost(name))

    def count(name):
        return len(by_name.get(name, ()))

    det = by_name.get("kernels.bareiss_det_int", [])
    interp = by_name.get("resultant.resultant_interp", [])
    interp_set = set(interp)
    samples = sum(1 for i in det if spans[i][1] in interp_set)
    sweeps = by_name.get("sweep.run_sweep", [])
    cases = by_name.get("sweep.run_case", [])
    sweep_wall = sum(dur(i) for i in sweeps)
    out = {
        "kernels.det_calls": len(det),
        "kernels.det_s": sum(dur(i) for i in det),
        "kernels.det_dim": sum(spans[i][5][0] for i in det) / len(det) if det else 0,
        "kernels.det_bits": sum(spans[i][5][1] for i in det) / len(det) if det else 0,
        "kernels.mul_calls": count("kernels.mul_dicts"),
        "kernels.mul_term_pairs": sum(spans[i][5] for i in by_name.get("kernels.mul_dicts", ())),
        "kernels.mul_s": incl("kernels.mul_dicts"),
        "kernels.addmul_calls": count("kernels.addmul_term"),
        "kernels.addmul_s": incl("kernels.addmul_term"),
        "poly.exact_div_s": incl("poly.exact_div"),
        "poly.gcd_s": incl("poly.gcd"),
        "poly.pseudo_division_s": incl("poly.pseudo_division"),
        "resultant.bareiss_sym_s": incl("resultant.bareiss_det"),
        "resultant.gcd_s": incl("resultant.gcd_subresultant"),
        "resultant.interp_calls": len(interp),
        "resultant.interp_self_s": sum(self_s[i - lo] for i in interp),
        "resultant.samples": samples / len(interp) if interp else 0,
        "resultant.sample_yield": (sum(spans[i][5] for i in interp) / samples
                                   if samples else 0),
        "sweep.case_self_s": sum(self_s[i - lo] for i in cases),
        "sweep.parallel_eff": (sum(dur(i) for i in cases) / (jobs * sweep_wall)
                               if sweep_wall else 0),
        "catalog.build_core_s": incl("catalog.build_core"),
        "catalog.closed_form_s": incl("catalog.closed_form"),
        "catalog.reduce_to_z_s": incl("catalog.reduce_to_z"),
        "catalog.manifest_s": incl("catalog.manifest"),
        "parser.parse_calls": count("parser.parse"),
        "parser.parse_s": incl("parser.parse"),
        "parser.load_manifest_s": incl("parser.load_manifest"),
    }
    for name in check_names:
        out[f"checks.{name}_s"] = sum(
            dur(i) for i in by_name.get("checks.run_check", ())
            if tracer.owners[spans[i][2]] == name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_s[i - lo] for i in range(lo, hi)
            if names[spans[i][0]].startswith(layer + "."))
    return out
