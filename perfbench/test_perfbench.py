"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

import importlib
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from time import perf_counter

import pytest

import oracle
import pace
import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
RV = types.SimpleNamespace(**{name: importlib.import_module(f"resverify.{name}")
                              for name in run.MODULES})


def test_draw_is_deterministic_and_stratified():
    draws = [workloads.sweep_draw(seed) for seed in range(20)]
    assert draws[3] == workloads.sweep_draw(3)
    assert len({tuple(d) for d in draws}) > 1
    for units in draws:
        cases = workloads.draw_cases(units)
        assert sorted(mm for mm, _, _ in cases) == list(range(4, 16))
        assert all(2 <= rr <= mm - 1 for mm, rr, _ in cases)
        assert sorted(cc for _, _, cc in units) == [-1, -1, 0, 0, 1, 1]
        for i, (mm, rr, _) in enumerate(units):
            mid = 2 + (mm - 2) // 2
            assert (rr >= mid) == (i % 2 == 1)
        assert sum(1 for case in cases if case[:2] == (7, 4)) == 1


@pytest.mark.parametrize("n, label, rank", [
    (5, "max", 5), (19, "max", 19), (20, "p50", 10), (39, "p50", 20),
    (40, "p75", 30), (99, "p75", 75), (100, "p90", 90), (199, "p90", 180),
    (200, "p95", 190), (1000, "p99", 990), (10000, "p99.9", 9990)])
def test_tail_percentile_rank(n, label, rank):
    values = list(range(n, 0, -1))  # value == rank once sorted
    assert run.tail_percentile(values) == (label, rank, n)


def _captured(case, var):
    core = RV.catalog.build_core(case)
    spectator = "f" if var == "k" else "k"
    res = RV.resultant.resultant_interp(core.H, core.K, var, spectator)
    i = RV.poly.VAR_NAMES.index(spectator)
    return {exps[i]: coeff for exps, coeff in res.terms()}


def test_oracle_agrees_and_a_planted_wrong_polynomial_fails():
    for case, var in (((4, 2, 1), "k"), ((7, 4, 0), "k"), ((5, 3, -1), "f")):
        expected = oracle.resultant_at(RV.catalog.MANIFEST_TEXT, case, var, "t")
        coeffs = _captured(case, var)
        assert oracle.check_case(expected, coeffs) is None
        planted = dict(coeffs)
        planted[0] = planted.get(0, Fraction(0)) + 1
        assert "Sylvester determinant" in oracle.check_case(expected, planted)


def _tiny(var, jobs, trace):
    inst = spans.Instrument(RV, trace).install()
    work = workloads.SweepWorkload(RV, inst, var, jobs, seed=0)
    calls = 2 if jobs == 1 else 1  # the cases m=4 and 5, r=2
    work.units, work.groups, work.configs = work.units[:1], work.groups[:calls], work.configs[:calls]
    return inst, work


def test_planted_wrong_resultant_fails_the_verdict(monkeypatch):
    interp = RV.sweep.resultant_interp
    monkeypatch.setattr(RV.sweep, "resultant_interp",
                        lambda *a, **kw: interp(*a, **kw) + RV.poly.MultiPoly.const(1))
    inst, work = _tiny("k", 1, False)
    try:
        timings, reports = work.run_pass(pace.Meter(), interleave=True)
    finally:
        inst.uninstall()
    verdict = work.verdict(reports, timings)
    assert len(verdict.item_s) == 2 and len(verdict.problems) == 2
    assert all(any("Sylvester determinant" in msg for msg in msgs)
               for msgs in verdict.problems.values())


def test_traced_pool_pass_ships_worker_spans():
    inst, work = _tiny("f", 2, True)
    try:
        inst.set_tracing(True)
        timings, reports = work.run_pass(pace.Meter(), interleave=False)
        inst.set_tracing(False)
    finally:
        inst.uninstall()
    verdict = work.verdict(reports, timings)
    assert not verdict.problems and len(verdict.item_s) == 2
    m = spans.layer_metrics(inst.tracer, 0, len(inst.tracer.spans), 2, ())
    assert m["resultant.interp_calls"] == 2
    assert m["kernels.det_calls"] == 2 * m["resultant.samples"] > 0
    assert m["resultant.sample_yield"] == 1 / m["resultant.samples"]
    assert 0 < m["sweep.parallel_eff"] <= 1
    assert RV.sweep._case_worker.__module__ == "resverify.sweep"


def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_meter_takes_interleaved_samples_out_of_the_call():
    meter = pace.Meter()
    _, t = meter.time(_busy, 0.35)
    assert len(t.samples) >= 4 and 0 < t.net_s < t.wall_s
    assert t.paced_s == t.net_s * pace.REF_S / t.pace_s
    _, t = meter.time(_busy, 0.35, interleave=False)
    assert len(t.samples) == 2 and t.net_s == t.wall_s


def test_pooled_call_loses_the_handler_time_of_the_part_that_ended_last():
    call = pace.Timing(1.0, 1.0, [0.01, 0.01], 10.0)
    parts = [pace.Timing(0.9, 0.8, [0.02], 9.9), pace.Timing(0.5, 0.45, [0.02], 9.5)]
    pooled = pace.pooled(call, parts)
    assert pooled.net_s == pytest.approx(0.9)
    assert pooled.pace_s == pytest.approx(4 / (2 / 0.01 + 2 / 0.02))


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == spans.per_layer_units(RV.checks.CHECK_NAMES))


def test_run_without_a_source_tree_fails():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-k",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
