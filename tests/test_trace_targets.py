"""The names the benchmark uses resolve against the package.

`perfbench/spans.py` wraps each (holder, attribute) of `trace_targets()`
by `holder.__dict__[attr]`, and `perfbench/run.py`, `workloads.py` and
`spans.py` read further names off the modules and off the results they
get back.  A refactor that drops or renames one of those names would
only show when a benchmark run starts.  These tests check every name,
without running the benchmark.
"""

import dataclasses
import importlib
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the modules perfbench/run.py imports by path into its namespace
MODULES = ("catalog", "checks", "kernels", "parser", "poly", "ratio",
           "resultant", "sweep")

# module attributes that perfbench reads (beyond the trace targets)
READ_NAMES = {
    "catalog": ("MANIFEST_TEXT", "manifest", "build_core"),
    "checks": ("CHECK_NAMES", "run_check"),
    "kernels": ("BACKEND",),
    "poly": ("VAR_NAMES",),
    "ratio": ("RAT_BACKEND",),
    "resultant": ("resultant_interp",),
    "sweep": ("SweepConfig", "run_sweep", "report_to_dict"),
}

# the fields it sets or reads on sweep configs, case results, sweep
# reports and check outcomes
FIELDS = {
    "sweep.SweepConfig": ("var", "m_lo", "m_hi", "r_list", "c_list", "jobs"),
    "sweep.CaseResult": ("zero", "degree", "leading", "timed_out"),
    "sweep.SweepReport": ("results", "exceptions"),
    "checks.CheckOutcome": ("name", "passed", "witness"),
}


def _modules():
    # by import path: the package's `resultant` attribute is the function
    return types.SimpleNamespace(**{name: importlib.import_module(f"resverify.{name}")
                                    for name in MODULES})


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans imports pace
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rv = _modules()
    assert isinstance(rv.resultant, types.ModuleType)
    targets = [(holder, attr) for holder, attr, *_ in spans.trace_targets(rv)]
    # the capture patches that Instrument.install sets on every pass
    targets += [(rv.sweep, "resultant_interp"), (rv.sweep, "_case_worker")]
    missing = [f"{getattr(holder, '__name__', holder)}.{attr}"
               for holder, attr in targets if attr not in holder.__dict__]
    assert not missing


def test_every_read_name_resolves():
    rv = _modules()
    missing = [f"{module}.{attr}" for module, attrs in READ_NAMES.items()
               for attr in attrs if not hasattr(getattr(rv, module), attr)]
    for path, names in FIELDS.items():
        module, cls = path.split(".")
        have = {f.name for f in dataclasses.fields(getattr(getattr(rv, module), cls))}
        missing += [f"{path}.{name}" for name in names if name not in have]
    # reading CaseResult.key off each result
    if not callable(getattr(rv.sweep.CaseResult, "key", None)):
        missing.append("sweep.CaseResult.key")
    assert not missing
