"""The benchmark's trace targets resolve against the package.

`perfbench/spans.py` wraps each (holder, attribute) of `trace_targets()`
by `holder.__dict__[attr]`; a refactor that drops or renames one of those
names would only show when a traced benchmark pass starts.  This test
reads spans.py and checks every name, without running the benchmark.
"""

import importlib
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the modules perfbench/run.py imports by path into its namespace
MODULES = ("catalog", "checks", "kernels", "parser", "poly", "ratio",
           "resultant", "sweep")


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans imports pace
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # by import path: the package's `resultant` attribute is the function
    rv = types.SimpleNamespace(**{name: importlib.import_module(f"resverify.{name}")
                                  for name in MODULES})
    assert isinstance(rv.resultant, types.ModuleType)
    targets = [(holder, attr) for holder, attr, *_ in spans.trace_targets(rv)]
    # the capture patches that Instrument.install sets on every pass
    targets += [(rv.sweep, "resultant_interp"), (rv.sweep, "_case_worker")]
    missing = [f"{getattr(holder, '__name__', holder)}.{attr}"
               for holder, attr in targets if attr not in holder.__dict__]
    assert not missing
