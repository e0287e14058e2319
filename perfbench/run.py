#!/usr/bin/env python3
"""Layered benchmark of resverify's exact eliminations.

    python3 perfbench/run.py --workload sweep-k --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from
./src.  A run repeats passes of its workload in a closed loop (one
client; a pass starts when the previous one has ended) for about
--seconds; every pass does the same work.  Times are paced: corrected
for the machine's speed at the time (pace.py).  The run checks every
verdict and prints one JSON object as its last line of output: the
end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Exit status: 0 all verdicts correct, 1 some verdict wrong,
2 usage error or no source tree.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {"setup_s": "s", "cases_per_s": "1/s", "case_s.p50": "s",
              "case_s.tail": "s", "checks_s": "s", "peak_rss_mb": "MB"}
MODULES = ("catalog", "checks", "kernels", "parser", "poly", "ratio", "resultant", "sweep")
SETUP_RUNS = 7
SETUP_CODE = "import resverify\nfrom resverify import catalog\ncatalog.manifest()\n"
# percentiles in per mille, highest first
TAIL_LADDER = (999, 990, 950, 900, 750, 500)


def tail_percentile(values) -> tuple[str, float, int]:
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it (nearest rank); the maximum when there is none."""
    xs = sorted(values)
    n = len(xs)
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)
        if n - rank >= 10:
            return f"p{per_mille / 10:g}", xs[rank - 1], n
    return "max", xs[-1], n


def measure_setup() -> float:
    """Median wall time of a fresh interpreter through `import resverify`
    and catalog.manifest(); one unmeasured start fills the bytecode
    cache.  Not paced: process start and imports do not follow the
    pace of pace.unit() (their paced times spread as much as wall)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        if i:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def source_digest() -> str:
    """sha256 of the package's and the benchmark's Python files."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "resverify").glob("*.py"),
                        *Path(__file__).resolve().parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the source tree; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_loop(work, inst, meter, seconds: float, traced: bool) -> tuple[list, list[str]]:
    """Passes back to back until the next one would end after `seconds`:
    at least one, and in a traced run at least two, alternating
    untraced and traced.  Pace samples are interleaved with the calls of
    untraced passes whose work runs in this process (jobs=1); a traced
    pass takes them only around its calls, so that the spans hold no
    samples."""
    passes, errors = [], []
    start = perf_counter()
    while True:
        tracing = traced and len(passes) % 2 == 1
        lo = len(inst.tracer.spans) if tracing else 0
        inst.set_tracing(tracing)
        began = perf_counter()
        try:
            timings, raw = work.run_pass(meter, interleave=not tracing and work.jobs == 1)
        except Exception:
            errors.append(traceback.format_exc())
            return passes, errors
        finally:
            inst.set_tracing(False)
        hi = len(inst.tracer.spans) if tracing else 0
        passes.append({"traced": tracing, "timings": timings, "raw": raw, "spans": (lo, hi)})
        now = perf_counter()
        if len(passes) >= 1 + traced and (now - start) + (now - began) > seconds:
            return passes, errors


def compare_with_earlier(name: str, seed: int, src: str, record: dict) -> list[str]:
    """Digest and exact counts must equal those of any earlier run of
    this workload and seed on the same source; the record is kept."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"repeat-{name}-seed{seed}-{src[:16]}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{key} differs from an earlier run: {earlier[key]} != {value}"
                for key, value in record.items() if key in earlier and earlier[key] != value]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**earlier, **record}, sort_keys=True))
    os.replace(tmp, path)
    return problems


def pass_s(p: dict, attr: str = "paced_s") -> float:
    return sum(getattr(t, attr) for t in p["timings"])


def end_to_end(untraced: list, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, and what lies behind
    them.  Every pass repeats the same calls, so a case's or check's
    time is its median over the passes, and a pass's time is the median
    over the passes; all of them paced."""
    items: dict[str, list[float]] = {}
    for _, v in untraced:
        for key, seconds in v.item_s.items():
            items.setdefault(key, []).append(seconds)
    per_item = [statistics.median(times) for times in items.values()]
    label, tail, n = tail_percentile(per_item)
    checks_s = statistics.median(pass_s(p) for p, _ in untraced)
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": len(per_item) / checks_s,
        "case_s.p50": statistics.median(per_item),
        "case_s.tail": tail,
        "checks_s": checks_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    behind = {
        "case_s.tail": {"percentile": label, "samples": n},
        "pass_wall_s": statistics.median(pass_s(p, "wall_s") for p, _ in untraced),
        "pace_s": statistics.median(t.pace_s for p, _ in untraced for t in p["timings"]),
    }
    return metrics, behind


def per_layer(passes: list, tracer, jobs: int, check_names, setup: dict) -> tuple[dict, dict, list]:
    """Per-layer metrics (medians over the traced passes), the exact
    counts, and problems if the counts differ between passes."""
    per_pass = [spans.layer_metrics(tracer, *p["spans"], jobs, check_names)
                for p in passes if p["traced"]]
    counts = [{k: m[k] for k in spans.EXACT} for m in per_pass]
    problems = ([f"exact counts differ between passes: {counts}"]
                if any(c != counts[0] for c in counts) else [])
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["catalog.manifest_s"] = setup["catalog.manifest_s"]
    metrics["parser.load_manifest_s"] = setup["parser.load_manifest_s"]
    metrics["trace.overhead_frac"] = (
        statistics.median(pass_s(p) for p in passes if p["traced"])
        / statistics.median(pass_s(p) for p in passes if not p["traced"]) - 1.0)
    return metrics, counts[0], problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "resverify" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'resverify'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # modules by import path: the package rebinds some of their names
    # (resverify.resultant is the function) to its public API
    rv = types.SimpleNamespace(**{name: importlib.import_module(f"resverify.{name}")
                                  for name in MODULES})
    check_names = rv.checks.CHECK_NAMES

    traced = bool(args.trace)
    meter = pace.Meter()
    setup_s = None if traced else measure_setup()
    inst = spans.Instrument(rv, traced).install()
    try:
        work = workloads.make(args.workload, rv, inst, args.seed, os.cpu_count() or 1)
        if traced:
            # the manifest parse is set-up work; trace it once from cold
            inst.original(rv.catalog, "manifest").cache_clear()
            inst.set_tracing(True)
            rv.catalog.manifest()
            inst.set_tracing(False)
            setup = spans.layer_metrics(inst.tracer, 0, len(inst.tracer.spans), 1, ())
        rv.catalog.manifest()
        passes, errors = run_loop(work, inst, meter, args.seconds, traced)
    finally:
        inst.uninstall()

    verdicts = [work.verdict(p["raw"], p["timings"]) for p in passes]
    problems = {f"pass {i} {key}": msgs for i, v in enumerate(verdicts)
                for key, msgs in v.problems.items()}
    attempted = sum(len(v.item_s) for v in verdicts)
    failed = len(problems)
    if errors:
        problems["error"] = errors
        failed += work.pass_items
        attempted += work.pass_items
    digests = sorted({v.digest for v in verdicts})
    if len(digests) > 1:
        problems["digest"] = [f"passes of one run differ: {digests}"]
    code = source_digest()
    report = {
        "workload": args.workload,
        "environment": {"python": platform.python_version(),
                        "RAT_BACKEND": rv.ratio.RAT_BACKEND,
                        "KERNEL_BACKEND": rv.kernels.BACKEND,
                        "cpu_count": os.cpu_count(), "seed": args.seed,
                        "git_commit": git_commit(), "code_sha256": code},
        "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
        "digest": digests[0] if digests else None,
    }

    metrics, units = {}, END_TO_END
    if not errors and traced:
        units = spans.per_layer_units(check_names)
        metrics, report["counts"], problems["counts"] = per_layer(
            passes, inst.tracer, work.jobs, check_names, setup)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {**inst.tracer.dump(), "passes": [p["spans"] for p in passes if p["traced"]]}))
    elif not errors:
        metrics, behind = end_to_end([(p, v) for p, v in zip(passes, verdicts)], setup_s)
        report.update(behind)
    if not errors:
        record = {"digest": report["digest"]}
        if traced:
            record["counts"] = report["counts"]
        problems["repeat"] = compare_with_earlier(args.workload, args.seed, code, record)
    problems = {key: msgs for key, msgs in problems.items() if msgs}
    # a digest or count that does not repeat discredits the whole run
    if problems.keys() & {"digest", "counts", "repeat"}:
        failed = attempted
    report["fail_frac"] = failed / max(attempted, 1)
    report["problems"] = problems
    for key, value in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {units[key]}")
    print(f"{args.workload} fail_frac = {report['fail_frac']:.6g} ({failed}/{attempted})")
    for key, msgs in problems.items():
        for msg in msgs:
            print(f"FAIL {key}: {msg}", file=sys.stderr)
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
