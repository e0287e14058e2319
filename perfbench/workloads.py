"""The four workloads: seeded inputs, one pass of work, and its verdicts.

A pass is the unit a run repeats in a closed loop: a fixed list of
calls into the public API (run_sweep or run_check).  run_pass() times
each call with a pace.Meter and returns the timings with the results;
verdict() runs afterwards, checks every result and gives each case or
check its paced time.  Garbage left by earlier calls is collected
before each call, untimed, as it would be gone in a fresh `verify`
process; otherwise a call's time would depend on its predecessors.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle
import pace

M_GRID = tuple(range(4, 16))
SYMBOLIC_CHECKS = ("res-pq", "special-case", "relation1-delta", "biconservative",
                   "nonic", "mod-delta-chain", "kfconst")
SCAN_CHECKS = ("scan-factors", "appendix-c-leading")


def sweep_draw(seed: int) -> list[tuple[int, int, int]]:
    """Units (m, r, c), each standing for the cases (m, r, c) and
    (m + 1, r, c), for m = 4, 6, ..., 14.

    A case's cost grows with m (about 2x from m=4 to m=15), so every
    draw holds each m of 4..15 exactly once.  r comes from the lower
    half of 2..m-1 in the units at m = 4, 8, 12 and from the upper half
    at m = 6, 10, 14, which evens out the smaller effect of r.  At m=6
    r is 4, so each draw holds one exception case (7, 4, c) of the k
    elimination.  Each c of -1, 0, 1 occurs in two units.
    """
    rng = random.Random(seed)
    cs = [-1, -1, 0, 0, 1, 1]
    rng.shuffle(cs)
    units = []
    for i, (mm, cc) in enumerate(zip(range(4, 16, 2), cs)):
        rs = list(range(2, mm))
        half = len(rs) // 2
        rr = 4 if mm == 6 else rng.choice(rs[half:] if i % 2 else rs[:half])
        units.append((mm, rr, cc))
    return units


def draw_cases(units) -> list[tuple[int, int, int]]:
    return [(mm + i, rr, cc) for mm, rr, cc in units for i in (0, 1)]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@dataclass
class Verdict:
    item_s: dict[str, float]  # paced seconds per case or check
    digest: str
    problems: dict[str, list[str]] = field(default_factory=dict)


class SweepWorkload:
    """Resultants over a seeded draw of (m, r, c).  With jobs=1 each case
    is one run_sweep call, timed in this process; with a pool, each unit
    (two cases) is one call, and a case's time is the one its worker
    measured and paced (spans.Instrument.run_case)."""

    def __init__(self, rv, inst, var: str, jobs: int, seed: int):
        self.rv, self.inst, self.var, self.jobs, self.seed = rv, inst, var, jobs, seed
        self.units = sweep_draw(seed)
        # the cases of each run_sweep call
        self.groups = ([[case] for case in draw_cases(self.units)] if jobs == 1
                       else [draw_cases([unit]) for unit in self.units])
        self.configs = [rv.sweep.SweepConfig(var=var, m_lo=cases[0][0], m_hi=cases[-1][0],
                                             r_list=(cases[0][1],), c_list=(cases[0][2],),
                                             jobs=jobs)
                        for cases in self.groups]
        self.pass_items = 2 * len(self.units)
        self._oracle: dict = {}

    def expect_zero(self, case) -> bool:
        return self.var == "f" or case[:2] == (7, 4)

    def run_pass(self, meter, interleave: bool):
        tracer = self.inst.tracer if self.inst.tracing else None
        out, timings = [], []
        for cfg in self.configs:
            gc.collect()
            if tracer:
                result, timing = meter.time(tracer.call, "sweep.run_sweep",
                                            self.rv.sweep.run_sweep, cfg, interleave=interleave)
            else:
                result, timing = meter.time(self.rv.sweep.run_sweep, cfg, interleave=interleave)
                result = (result, None)
            if self.jobs > 1:
                timing = pace.pooled(timing, [res.perfbench_timing for res in result[0].results])
            out.append(result)
            timings.append(timing)
        if tracer:
            for report, root in out:
                for res in report.results:
                    if hasattr(res, "perfbench_spans"):
                        tracer.merge(res.perfbench_spans, root)
        return timings, [report for report, _ in out]

    def oracle_value(self, case):
        if case not in self._oracle:
            self._oracle[case] = oracle.resultant_at(
                self.rv.catalog.MANIFEST_TEXT, case, self.var, f"{self.seed}:{case}")
        return self._oracle[case]

    def case_problems(self, res) -> list[str]:
        if res.timed_out:
            return ["timed out"]
        out = []
        if res.zero != self.expect_zero(res.key()):
            out.append(f"zero={res.zero}, expected {self.expect_zero(res.key())}")
        coeffs = getattr(res, "perfbench_poly", None)
        if coeffs is None:
            return out + ["no resultant captured"]
        if res.zero != (not coeffs):
            out.append("reported zero flag disagrees with the resultant")
        elif coeffs and (res.degree != max(coeffs)
                         or Fraction(res.leading) != coeffs[max(coeffs)]):
            out.append("reported degree or leading coefficient disagrees "
                       "with the resultant")
        mismatch = oracle.check_case(self.oracle_value(res.key()), coeffs)
        if mismatch:
            out.append(mismatch)
        return out

    def verdict(self, reports, timings) -> Verdict:
        sweep = self.rv.sweep
        stable = [sweep.report_to_dict(rep, stable=True) for rep in reports]
        v = Verdict({}, digest(stable))
        for want, rep, timing in zip(self.groups, reports, timings):
            got = [res.key() for res in rep.results]
            call_problems = []
            if got != want:
                call_problems.append(f"cases {got}, expected {want}")
            if rep.exceptions != [k for k in want if self.expect_zero(k)]:
                call_problems.append(f"exception set {rep.exceptions}")
            for res in rep.results:
                key = f"{self.var}{res.key()}"
                v.item_s[key] = (timing if len(want) == 1 else res.perfbench_timing).paced_s
                problems = call_problems + self.case_problems(res)
                if problems:
                    v.problems[key] = problems
        return v


class ChecksWorkload:
    """Named checks, each one verdict, in the catalog's order.  The checks
    take no input, so the seed changes nothing."""

    def __init__(self, rv, inst, names):
        self.rv, self.inst = rv, inst
        self.names = names
        self.pass_items = len(names)
        self.jobs = 1

    def run_pass(self, meter, interleave: bool):
        checks = self.rv.checks
        outcomes, timings = [], []
        for name in self.names:
            self.inst.set_owner(name)
            gc.collect()
            outcome, timing = meter.time(checks.run_check, name, interleave=interleave)
            outcomes.append(outcome)
            timings.append(timing)
        return timings, outcomes

    def verdict(self, outcomes, timings) -> Verdict:
        v = Verdict({o.name: t.paced_s for o, t in zip(outcomes, timings)},
                    digest([[o.name, o.passed, o.witness, o.detail] for o in outcomes]))
        for outcome in outcomes:
            if not outcome.passed:
                v.problems[outcome.name] = [f"check failed: {outcome.witness}"]
        return v


WORKLOADS = ("sweep-k", "sweep-f", "checks-symbolic", "checks-scan")


def make(name: str, rv, inst, seed: int, cpus: int):
    if name == "sweep-k":
        return SweepWorkload(rv, inst, "k", 1, seed)
    if name == "sweep-f":
        return SweepWorkload(rv, inst, "f", min(2, cpus), seed)
    if name == "checks-symbolic":
        return ChecksWorkload(rv, inst, SYMBOLIC_CHECKS)
    return ChecksWorkload(rv, inst, SCAN_CHECKS)
