"""Parameter sweeps: resultant(H, K, var) over a grid of (m, r, c).

Each case is independent (immutable inputs, one worker computes one
case), so results are deterministic and independent of worker count;
the report lists them in grid order.

With --jobs N > 1 the sweep forks min(N, cases) workers itself
(`_fork_map`).  Fork, not spawn: the workers inherit the case-build
cache that the parent fills first (`catalog._cleared_core`), and the
cases themselves, so nothing is sent per case but its index.  Before
forking, the parent writes every case index into one pipe and closes
it; each worker reads the next index when it is free, so a faster
worker takes more cases, names the index on its own pipe and then
writes the result back there.  A worker that dies costs only the case
it was running, which is reported as an ERROR with that worker's exit
status.  Fork needs POSIX.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .catalog import _cleared_core, build_core
from .resultant import ComputationTimeout, resultant_interp


class UsageError(ValueError):
    pass


M_HARD_MAX = 30

# a frame header with this bit set names the case a worker takes next;
# any other header is the length of a pickled (index, result)
_TAKING = 1 << 63


@dataclass
class SweepConfig:
    var: str = "k"
    m_lo: int = 4
    m_hi: int = 15
    r_list: tuple[int, ...] | None = None  # None: all valid 2..m-1
    c_list: tuple[int, ...] = (-1, 0, 1)
    jobs: int = 1
    case_timeout: float = 300.0

    def validate(self) -> None:
        if self.var not in ("k", "f"):
            raise UsageError("elimination variable must be k or f")
        # bool is an int subclass and 1.0 == 1: both must be refused
        if not (type(self.m_lo) is int and type(self.m_hi) is int
                and 4 <= self.m_lo <= self.m_hi <= M_HARD_MAX):
            raise UsageError(f"m range must be integers 4 <= lo <= hi <= {M_HARD_MAX}")
        if not self.c_list or any(type(cc) is not int or cc not in (-1, 0, 1)
                                  for cc in self.c_list):
            raise UsageError("c values must be integers from {-1, 0, 1}")
        if self.r_list is not None and not self.r_list:
            raise UsageError("empty r list")
        if self.r_list is not None and any(type(rr) is not int for rr in self.r_list):
            raise UsageError("r values must be integers")
        if type(self.jobs) is not int or self.jobs < 1:
            raise UsageError("jobs must be an integer >= 1")
        if self.jobs > 1 and not hasattr(os, "fork"):
            raise UsageError("jobs > 1 needs os.fork, which this platform lacks")
        if not (type(self.case_timeout) in (int, float)
                and self.case_timeout >= 0):
            raise UsageError("case timeout must be a number >= 0 seconds")

    def cases(self) -> list[tuple[int, int, int]]:
        """The admissible (m, r, c) grid points, sorted, each once."""
        out = set()
        for mm in range(self.m_lo, self.m_hi + 1):
            rs = (range(2, mm) if self.r_list is None
                  else [rr for rr in self.r_list if 2 <= rr <= mm - 1])
            out.update((mm, rr, cc) for rr in rs for cc in self.c_list)
        return sorted(out)

    def as_dict(self) -> dict:
        return {
            "var": self.var,
            "m": [self.m_lo, self.m_hi],
            "r": ("all" if self.r_list is None
                  else list(dict.fromkeys(self.r_list))),
            "c": sorted(set(self.c_list)),
            "jobs": self.jobs,
            "case_timeout_s": self.case_timeout,
        }


@dataclass
class CaseResult:
    m: int
    r: int
    c: int
    var: str
    zero: bool
    degree: int | None
    leading: str | None
    ms: float
    timed_out: bool = False
    error: str | None = None  # "Type: message" of what the case raised

    def key(self) -> tuple[int, int, int]:
        return (self.m, self.r, self.c)


@dataclass
class SweepReport:
    config: dict
    results: list[CaseResult]
    exceptions: list[tuple[int, int, int]] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def timed_out(self) -> bool:
        return any(res.timed_out for res in self.results)

    @property
    def failed(self) -> bool:
        return any(res.error is not None for res in self.results)


def run_case(mm: int, rr: int, cc: int, var: str,
             timeout_s: float | None = None) -> CaseResult:
    """One grid point: build H and K exactly and eliminate var.  A case
    that times out or raises is recorded as such, not propagated, so that
    the rest of the sweep is still reported."""
    start = time.monotonic()
    deadline = None if not timeout_s else start + timeout_s
    spectator = "f" if var == "k" else "k"
    try:
        core = build_core((mm, rr, cc))
        res = resultant_interp(core.H, core.K, var, spectator, deadline=deadline)
    except ComputationTimeout:
        return CaseResult(mm, rr, cc, var, False, None, None,
                          (time.monotonic() - start) * 1000.0, timed_out=True)
    except Exception as exc:
        return CaseResult(mm, rr, cc, var, False, None, None,
                          (time.monotonic() - start) * 1000.0,
                          error=f"{type(exc).__name__}: {exc}")
    ms = (time.monotonic() - start) * 1000.0
    if res.is_zero():
        return CaseResult(mm, rr, cc, var, True, None, None, ms)
    deg = res.degree(spectator)
    lead = str(res.coefficient(spectator, deg).constant_value())
    return CaseResult(mm, rr, cc, var, False, deg, lead, ms)


def _case_worker(args) -> CaseResult:
    return run_case(*args)


def _fork_map(fn, args: list, workers: int) -> list[CaseResult]:
    """[fn(a) for a in args], computed by `workers` forked processes.

    The case indices go into one task pipe as 4-byte records before the
    first fork; each worker runs `_serve` on it and its own result pipe,
    which the parent drains as data arrives.  A case whose worker died
    has no result: it is reported as an error naming how the worker that
    took it ended, or how every worker ended for a case that none took.
    If the parent raises, it kills every worker; no worker outlives the
    call."""
    import pickle
    import selectors
    import signal

    tasks, feed = os.pipe()
    # M_HARD_MAX allows 1215 cases, 4860 bytes: the pipe buffer holds them
    with open(feed, "wb") as out:
        out.write(b"".join(i.to_bytes(4, "little") for i in range(len(args))))
    results: list = [None] * len(args)
    taken: dict[int, int] = {}  # case index -> the worker that took it
    readers: list[int] = []
    pids: list[int] = []
    codes: list[int] = []
    drained = False
    try:
        for _ in range(workers):
            r, w = os.pipe()
            readers.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, args, tasks, w, readers)
            finally:
                os.close(w)
            pids.append(pid)
        with selectors.DefaultSelector() as sel:
            for w, r in enumerate(readers):
                sel.register(r, selectors.EVENT_READ, (w, bytearray()))
            while sel.get_map():
                for key, _ in sel.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:  # worker gone; drop a truncated frame
                        sel.unregister(key.fd)
                        continue
                    w, buf = key.data
                    buf += chunk
                    while len(buf) >= 8:
                        n = int.from_bytes(buf[:8], "little")
                        if n & _TAKING:
                            taken[n ^ _TAKING] = w
                            n = 0
                        elif len(buf) < 8 + n:
                            break
                        else:
                            i, res = pickle.loads(buf[8:8 + n])
                            results[i] = res
                        del buf[:8 + n]
        drained = True
    finally:
        for fd in (tasks, *readers):
            os.close(fd)
        for pid in pids:
            if not drained:
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    ends = [f"signal {signal.Signals(-code).name}" if code < 0
            else f"exit status {code}" for code in codes]
    died = ", ".join(dict.fromkeys(end for end, code in zip(ends, codes) if code))
    for i, res in enumerate(results):
        if res is None:
            mm, rr, cc, var = args[i][:4]
            end = ends[taken[i]] if i in taken else died
            results[i] = CaseResult(mm, rr, cc, var, False, None, None, 0.0,
                                    error=f"WorkerDied: {end}")
    return results


def _serve(fn, args: list, tasks: int, out_fd: int, readers: list[int]):
    """A forked worker: close the parent's result pipe ends, then until
    the task pipe is empty read an index i, write the header
    _TAKING | i to out_fd before running the case, and then an 8-byte
    length and the pickle of (i, fn(args[i])).  Never returns."""
    import pickle

    code = 1
    try:
        for fd in readers:
            os.close(fd)
        with open(out_fd, "wb") as out:
            while rec := os.read(tasks, 4):
                i = int.from_bytes(rec, "little")
                out.write((_TAKING | i).to_bytes(8, "little"))
                out.flush()
                frame = pickle.dumps((i, fn(args[i])))
                out.write(len(frame).to_bytes(8, "little") + frame)
                out.flush()
        code = 0
    except BaseException:
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


def run_sweep(config: SweepConfig) -> SweepReport:
    config.validate()
    start = time.monotonic()
    cases = config.cases()
    args = [(mm, rr, cc, config.var, config.case_timeout)
            for (mm, rr, cc) in cases]
    if config.jobs > 1 and len(cases) > 1:
        # fill the case-build cache here, once: forked workers inherit it
        # instead of each clearing the entries and planning their
        # specialization again
        _cleared_core()
        results = _fork_map(_case_worker, args, min(config.jobs, len(cases)))
    else:
        results = [_case_worker(a) for a in args]
    exceptions = [res.key() for res in results if res.zero]
    return SweepReport(config.as_dict(), results, exceptions,
                       (time.monotonic() - start) * 1000.0)


def expected_exceptions(config: SweepConfig) -> list[tuple[int, int, int]]:
    """The exception set the sweep must produce to exit 0."""
    if config.var == "f":
        return config.cases()
    return [case for case in config.cases() if case[0] == 7 and case[1] == 4]


def report_to_dict(report: SweepReport, stable: bool = False) -> dict:
    results = []
    for res in report.results:
        entry: dict = {"m": res.m, "r": res.r, "c": res.c, "var": res.var,
                       "zero": res.zero}
        if res.degree is not None:
            entry["degree"] = res.degree
            entry["leading"] = res.leading
        if res.timed_out:
            entry["timeout"] = True
        if res.error is not None:
            entry["error"] = res.error
        if not stable:
            entry["ms"] = round(res.ms, 3)
        results.append(entry)
    out = {
        "config": report.config,
        "results": results,
        "exceptions": [{"m": mm, "r": rr, "c": cc}
                       for (mm, rr, cc) in report.exceptions],
    }
    if not stable:
        out["elapsed_ms"] = round(report.elapsed_ms, 3)
    return out


def report_to_text(report: SweepReport, stable: bool = False) -> str:
    lines = []
    for res in report.results:
        base = f"m={res.m} r={res.r} c={res.c} var={res.var}"
        if res.timed_out:
            body = "TIMEOUT"
        elif res.error is not None:
            body = f"ERROR {res.error}"
        elif res.zero:
            body = "resultant: zero polynomial (exception)"
        else:
            body = f"degree={res.degree} leading={res.leading}"
        tail = "" if stable else f" [{res.ms:.0f} ms]"
        lines.append(f"{base} {body}{tail}")
    lines.append(f"exceptions: {report.exceptions or 'none'}")
    if not stable:
        lines.append(f"elapsed: {report.elapsed_ms:.0f} ms")
    return "\n".join(lines)
