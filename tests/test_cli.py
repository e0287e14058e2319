"""Sweep machinery and the verify CLI: reports, exit codes, formats."""

import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from resverify import catalog, sweep
from resverify.checks import run_check
from resverify.cli import main
from resverify.resultant import resultant_interp
from resverify.sweep import (SweepConfig, UsageError, _serve,
                             expected_exceptions, report_to_dict, run_case,
                             run_sweep)


def _failing(a, b, var, spectator, deadline=None, divisor=None):
    if a == sweep.build_core((4, 2, 0)).H:
        raise ArithmeticError("planted failure")
    return resultant_interp(a, b, var, spectator, deadline=deadline,
                            divisor=divisor)


@pytest.fixture
def pool_starts(monkeypatch):
    """(worker count, case-build cache entries, names of the cached
    specialization plans of the sweep pair, and of P and Q) at each
    parallel map; the stand-in for `sweep._fork_map` runs the cases in
    this process, so no count of workers asked for starts a process."""
    starts = []

    def in_process_map(fn, args, workers):
        filled = catalog._cleared_core.cache_info().currsize
        plans = catalog._cleared_core()[-1] if filled else ()
        pq = (catalog._pq_plans()
              if catalog._pq_plans.cache_info().currsize else ())
        starts.append((workers, filled, [plan.names for plan in plans],
                       [plan.names for plan in pq]))
        return [fn(a) for a in args]

    monkeypatch.setattr(sweep, "_fork_map", in_process_map)
    return starts


def _planting_worker(args):
    # runs in this process or in a forked worker, which inherits the patch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "resultant_interp", _failing)
        return run_case(*args)


def _dying_worker(args):
    if args[:3] == (4, 2, 0):
        os._exit(1)
    return run_case(*args)


def _dying_twice_worker(args):
    if args[:3] in ((4, 2, -1), (4, 2, 1)):
        os._exit(1 if args[2] < 0 else 2)
    return run_case(*args)


def _serve_leaving_half_a_frame(fn, args, tasks, out_fd, readers):
    # the worker writes the start of a frame before it dies
    def worker(a):
        if a[:3] == (4, 2, 0):
            os.write(out_fd, (64).to_bytes(8, "little") + b"\x80")
        return fn(a)
    _serve(worker, args, tasks, out_fd, readers)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweep:
    def test_config_validation(self):
        with pytest.raises(UsageError):
            run_sweep(SweepConfig(var="x"))
        with pytest.raises(UsageError):
            run_sweep(SweepConfig(m_lo=3))
        with pytest.raises(UsageError):
            run_sweep(SweepConfig(m_hi=31))
        with pytest.raises(UsageError):
            run_sweep(SweepConfig(c_list=(2,)))
        with pytest.raises(UsageError):
            run_sweep(SweepConfig(case_timeout=-1))
        # 1.0 == 1 and True == 1 pass a value check and then fail in the
        # workers, so validate() refuses them by type
        for bad in ({"c_list": (1.0,)}, {"c_list": (True,)}, {"m_lo": 4.0},
                    {"m_hi": 5.5}, {"r_list": (2.0,)}, {"jobs": 1.0}):
            with pytest.raises(UsageError):
                SweepConfig(**bad).validate()

    @pytest.mark.parametrize("timeout", ["5", None, True, float("nan")])
    def test_case_timeout_validation(self, timeout):
        # a string or None fails in the comparison, and True would be a
        # deadline of 1 s: all are usage errors, as for m, r, c and jobs;
        # an int is a number of seconds like a float
        with pytest.raises(UsageError):
            SweepConfig(case_timeout=timeout).validate()
        SweepConfig(case_timeout=2).validate()

    def test_case_enumeration_sorted(self):
        cfg = SweepConfig(m_lo=4, m_hi=5, c_list=(1, -1))
        cases = cfg.cases()
        assert cases == sorted(cases)
        assert (4, 2, -1) in cases and (5, 4, 1) in cases
        assert all(2 <= rr <= mm - 1 for mm, rr, _ in cases)
        repeated = SweepConfig(m_lo=4, m_hi=4, r_list=(2, 2), c_list=(1, 1))
        assert repeated.cases() == [(4, 2, 1)]
        assert repeated.as_dict()["r"] == [2] and repeated.as_dict()["c"] == [1]

    def test_exception_case(self):
        res = run_case(7, 4, 1, "k")
        assert res.zero and res.degree is None and res.leading is None

    def test_regular_case(self):
        res = run_case(5, 3, 1, "k")
        assert not res.zero
        assert res.degree == 107
        assert res.leading.startswith("-")

    def test_var_f_case(self):
        res = run_case(5, 3, 1, "f")
        assert res.zero

    def test_case_timeout_reported_distinctly(self):
        res = run_case(15, 8, 1, "k", timeout_s=1e-9)
        assert res.timed_out
        assert not res.zero and res.degree is None and res.leading is None
        entry = report_to_dict(
            run_sweep(SweepConfig(var="k", m_lo=15, m_hi=15, r_list=(8,),
                                  c_list=(1,), case_timeout=1e-9))
        )["results"][0]
        assert entry["timeout"] is True and entry["zero"] is False

    def test_cli_timeout_exit_code(self, capsys):
        code = main(["sweep", "--var", "k", "--m", "15..15", "--r", "8",
                     "--c", "1", "--case-timeout", "1e-9"])
        assert code == 3
        capsys.readouterr()

    def test_small_sweep_var_k(self):
        cfg = SweepConfig(var="k", m_lo=7, m_hi=7, c_list=(1,))
        report = run_sweep(cfg)
        assert report.exceptions == [(7, 4, 1)]
        assert report.exceptions == expected_exceptions(cfg)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_worker_count_invariance(self, jobs):
        cfg1 = SweepConfig(var="k", m_lo=4, m_hi=6, c_list=(1,), jobs=1)
        cfg2 = SweepConfig(var="k", m_lo=4, m_hi=6, c_list=(1,), jobs=jobs)
        d1 = report_to_dict(run_sweep(cfg1), stable=True)
        d2 = report_to_dict(run_sweep(cfg2), stable=True)
        d1["config"]["jobs"] = d2["config"]["jobs"]
        assert d1 == d2
        assert len(d2["results"]) == 9

    @pytest.mark.parametrize("raised", [None, KeyboardInterrupt,
                                        pickle.UnpicklingError])
    def test_no_worker_outlives_the_sweep(self, monkeypatch, raised):
        # the parent kills and reaps every worker when its drain raises
        cfg = SweepConfig(var="f", m_lo=4, m_hi=5, c_list=(1,), jobs=2)
        if raised is None:
            assert not run_sweep(cfg).failed
        else:
            def broken_loads(data):
                raise raised("planted")
            monkeypatch.setattr(pickle, "loads", broken_loads)
            with pytest.raises(raised):
                run_sweep(cfg)
        _assert_no_child_left()

    def test_jobs_without_fork_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(UsageError, match="fork"):
            SweepConfig(jobs=2).validate()
        SweepConfig(jobs=1).validate()
        assert main(["sweep", "--var", "f", "--m", "4..4", "--jobs", "2"]) == 2
        assert "fork" in capsys.readouterr().err

    def test_pool_capped_at_case_count(self, pool_starts):
        cfg = SweepConfig(var="k", m_lo=4, m_hi=4, c_list=(1,), jobs=100000)
        report = run_sweep(cfg)
        assert [res.key() for res in report.results] == [(4, 2, 1), (4, 3, 1)]
        assert [start[0] for start in pool_starts] == [2]

    def test_case_build_cache_filled_before_pool(self, pool_starts):
        # forked workers inherit the cleared catalog entries and their
        # specialization plans instead of each building them again, and
        # the plans of P and Q that the divisor of each k-case needs
        catalog._cleared_core.cache_clear()
        catalog._pq_plans.cache_clear()
        run_sweep(SweepConfig(var="k", m_lo=4, m_hi=4, c_list=(1,), jobs=2))
        assert [start[1:] for start in pool_starts] == \
            [(1, [("m", "r", "c")] * 3, [("m", "r", "c")] * 2)]

    def test_import_loads_no_process_pool(self):
        # only --jobs > 1 forks workers: a fresh start through the
        # package and the manifest loads no process pool, nor the pickle
        # and selectors modules that the forked workers' pipes use
        src = str(Path(sweep.__file__).resolve().parents[1])
        code = ("import sys\n"
                "import resverify\n"
                "from resverify import catalog\n"
                "catalog.manifest()\n"
                "print(sorted(m for m in ('concurrent.futures.process',\n"
                "                         'multiprocessing', 'pickle',\n"
                "                         'selectors')\n"
                "             if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_report_schema(self):
        cfg = SweepConfig(var="k", m_lo=7, m_hi=7, r_list=(3, 4), c_list=(1,))
        data = report_to_dict(run_sweep(cfg))
        assert set(data) == {"config", "results", "exceptions", "elapsed_ms"}
        zero_entries = [e for e in data["results"] if e["zero"]]
        other = [e for e in data["results"] if not e["zero"]]
        assert zero_entries and other
        for e in zero_entries:
            assert "degree" not in e and "leading" not in e
        for e in other:
            assert isinstance(e["degree"], int)
            assert e["leading"].lstrip("-").split("/")[0].isdigit()
        assert data["exceptions"] == [{"m": 7, "r": 4, "c": 1}]

    def test_empty_r_selection(self):
        cfg = SweepConfig(var="k", m_lo=4, m_hi=4, r_list=(9,), c_list=(1,))
        report = run_sweep(cfg)
        assert report.results == []
        assert report_to_dict(report, stable=True)["results"] == []


class TestCli:
    def test_sweep_exit_zero_and_json_roundtrip(self, capsys):
        code = main(["sweep", "--var", "k", "--m", "7..7", "--c", "1",
                     "--format", "json", "--stable-output"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["exceptions"] == [{"m": 7, "r": 4, "c": 1}]
        assert "elapsed_ms" not in data

    def test_sweep_stable_output_deterministic(self, capsys):
        args = ["sweep", "--var", "k", "--m", "4..4", "--c=-1,1",
                "--format", "json", "--stable-output"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_sweep_exit_one_on_unexpected_exceptions(self, capsys):
        # variable f over a range with no (7,4) still expects all-zero;
        # restricting to a single case that IS zero keeps exit 0, while
        # var k over (7,4) only is the designed exception set
        code = main(["sweep", "--var", "f", "--m", "5..5", "--r", "3",
                     "--c", "1", "--format", "json"])
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("args, digest", [
        (["--var", "k", "--m", "6..8", "--r", "3,4", "--c", "0,1"],
         "5a0c99bd5372151974871f0f2d68df6b44d38c650ddbdcfec25c65b46dd0f22b"),
        (["--var", "f", "--m", "7..7", "--r", "3,4,5", "--c=-1,1",
          "--format", "json"],
         "a31a4d67784e84105c430e0d3d6cef5f608f115ff00c34bef26d6339a53608b6"),
    ])
    def test_sweep_stable_output_bytes_pinned(self, capsys, args, digest):
        # the stable report is a reproducibility contract: any change to
        # the elimination that alters one byte of it fails here
        code = main(["sweep", *args, "--stable-output"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_case_reported_and_exit_three(self, capsys, monkeypatch,
                                                 jobs):
        # one case raises: it is reported with its exception, the other
        # two keep their verdicts, in both formats and with forked
        # workers, which inherit the planted case worker
        monkeypatch.setattr(sweep, "_case_worker", _planting_worker)
        base = ["sweep", "--var", "k", "--m", "4..4", "--r", "2",
                "--c=-1,0,1", "--jobs", jobs, "--stable-output"]
        assert main([*base, "--format", "json"]) == 3
        entries = json.loads(capsys.readouterr().out)["results"]
        assert [(e["c"], e.get("error")) for e in entries] == [
            (-1, None), (0, "ArithmeticError: planted failure"), (1, None)]
        assert "degree" not in entries[1] and not entries[1]["zero"]
        assert entries[0]["degree"] == entries[2]["degree"] == 107
        assert main(base) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("m=4 r=2 c=0 var=k ERROR ArithmeticError: "
                            "planted failure")
        assert lines[0].startswith("m=4 r=2 c=-1 var=k degree=107 ")
        assert lines[2].startswith("m=4 r=2 c=1 var=k degree=107 ")

    @pytest.mark.parametrize("truncated", [False, True])
    def test_dead_worker_costs_only_its_case(self, capsys, monkeypatch,
                                             truncated):
        # a worker that dies at (4, 2, 0) loses that case alone, and the
        # part of a frame it wrote is dropped; the other worker runs the
        # rest.  Only with --jobs 2: in this process the dying worker
        # would end the test run
        monkeypatch.setattr(sweep, "_case_worker", _dying_worker)
        if truncated:
            monkeypatch.setattr(sweep, "_serve", _serve_leaving_half_a_frame)
        assert main(["sweep", "--var", "k", "--m", "4..4", "--r", "2",
                     "--c=-1,0,1", "--jobs", "2", "--stable-output",
                     "--format", "json"]) == 3
        entries = json.loads(capsys.readouterr().out)["results"]
        assert [(e["c"], e.get("error")) for e in entries] == [
            (-1, None), (0, "WorkerDied: exit status 1"), (1, None)]
        assert entries[0]["degree"] == entries[2]["degree"] == 107
        _assert_no_child_left()

    def test_each_lost_case_names_its_own_worker(self, capsys, monkeypatch):
        # both workers die, one at (4, 2, -1) with status 1 and one at
        # (4, 2, 1) with status 2; (4, 2, 0) runs in whichever lives
        # longer, and each lost case reads the status of the worker that
        # took it, not those of both
        monkeypatch.setattr(sweep, "_case_worker", _dying_twice_worker)
        assert main(["sweep", "--var", "k", "--m", "4..4", "--r", "2",
                     "--c=-1,0,1", "--jobs", "2", "--stable-output",
                     "--format", "json"]) == 3
        entries = json.loads(capsys.readouterr().out)["results"]
        assert [(e["c"], e.get("error")) for e in entries] == [
            (-1, "WorkerDied: exit status 1"), (0, None),
            (1, "WorkerDied: exit status 2")]
        assert entries[1]["degree"] == 107
        _assert_no_child_left()

    def test_sweep_usage_error(self, capsys):
        code = main(["sweep", "--var", "k", "--m", "oops"])
        assert code == 2
        assert "verify:" in capsys.readouterr().err

    def test_sweep_empty_grid_is_usage_error(self, capsys):
        code = main(["sweep", "--var", "k", "--m", "4..5", "--r", "9"])
        assert code == 2
        assert "no (m, r, c) case" in capsys.readouterr().err

    def test_check_pass(self, capsys):
        code = main(["check", "biconservative", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["check"] == "biconservative" and data["pass"] is True

    def test_check_text_format(self, capsys):
        code = main(["check", "relation1-delta"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS: relation1-delta")
        assert re.match(r"PASS: relation1-delta \(\d+ ms; manifest \d+ ms\)\n",
                        out)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_check_times_the_manifest_apart(self, monkeypatch, capsys, fmt):
        # the manifest is parsed under its own timer, before the check
        # starts its clock
        from resverify import cli
        loaded = []

        def spy(name, **kwargs):
            loaded.append(catalog.manifest.cache_info().currsize)
            return run_check(name, **kwargs)

        monkeypatch.setattr(cli, "run_check", spy)
        catalog.manifest.cache_clear()
        assert main(["check", "biconservative", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert loaded == [1]
        if fmt == "json":
            data = json.loads(out)
            assert data["manifest_ms"] > data["ms"] >= 0
        else:
            check_ms, manifest_ms = map(int, re.match(
                r"PASS: biconservative \((\d+) ms; manifest (\d+) ms\)\n",
                out).groups())
            assert manifest_ms >= check_ms

    def test_case_timeout_help_says_cooperative(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "checked only between samples" in text
        assert "one stuck worker stalls the sweep" in text

    @pytest.mark.parametrize("c", ["-1", "0", "1"])
    def test_check_special_case_at_fixed_c(self, capsys, c):
        code = main(["check", "special-case", "--c", c])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS: special-case")

    def test_check_c_mode_passed_only_when_given(self, monkeypatch, capsys):
        from resverify import cli
        calls = []

        def spy(name, **kwargs):
            calls.append((name, kwargs))
            return run_check(name, **kwargs)

        monkeypatch.setattr(cli, "run_check", spy)
        assert main(["check", "special-case"]) == 0
        assert main(["check", "special-case", "--c=-1"]) == 0
        assert main(["check", "special-case", "--c", "symbolic"]) == 0
        assert calls == [("special-case", {}),
                         ("special-case", {"c_mode": "-1"}),
                         ("special-case", {"c_mode": "symbolic"})]

    def test_check_c_outside_choices_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "special-case", "--c", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("c", ["1", "symbolic"])
    def test_check_c_only_for_special_case(self, capsys, c):
        code = main(["check", "res-pq", "--c", c])
        assert code == 2
        assert "--c applies to special-case only" in capsys.readouterr().err

    def test_check_unknown_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "definitely-not-a-check"])
        assert err.value.code == 2

    def test_resultant_subcommand(self, tmp_path, capsys):
        path = tmp_path / "man.txt"
        path.write_text("a := k - 2\nb := k - 5\n")
        code = main(["resultant", "--manifest", str(path),
                     "--a", "a", "--b", "b", "--var", "k"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "-3"

    def test_resultant_zero(self, tmp_path, capsys):
        path = tmp_path / "man.txt"
        path.write_text("a := k^2 - 1\nb := k - 1\n")
        code = main(["resultant", "--manifest", str(path),
                     "--a", "a", "--b", "b", "--var", "k"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_resultant_embedded_pq_specialized(self, tmp_path, capsys):
        from resverify.catalog import manifest
        from resverify.parser import format_poly, parse
        from resverify.ratio import Rat
        man = manifest()

        def spec(name):
            return (man[name].substitute("m", 7).substitute("r", 4)
                    .substitute("c", 1))

        path = tmp_path / "pq.txt"
        path.write_text(f"a := {format_poly(spec('P'))}\n"
                        f"b := {format_poly(spec('Q'))}\n")
        code = main(["resultant", "--manifest", str(path),
                     "--a", "a", "--b", "b", "--var", "k"])
        out = capsys.readouterr().out
        assert code == 0
        res = parse(out.splitlines()[0])
        assert res.degree("f") == 9
        want = man["coefF3"].evaluate({"m": 7, "r": 4, "c": 1})
        assert res.coefficient("f", 3).constant_value() == want / Rat(4096)

    def test_resultant_proportional_entries(self, tmp_path, capsys):
        from resverify.catalog import MANIFEST_TEXT
        path = tmp_path / "embedded.txt"
        path.write_text(MANIFEST_TEXT)
        code = main(["resultant", "--manifest", str(path),
                     "--a", "sc1conic", "--b", "delta", "--var", "k"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_resultant_bad_name(self, tmp_path, capsys):
        path = tmp_path / "man.txt"
        path.write_text("a := k\n")
        code = main(["resultant", "--manifest", str(path),
                     "--a", "a", "--b", "zzz", "--var", "k"])
        assert code == 2
        capsys.readouterr()

    def test_resultant_zero_entry_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "man.txt"
        path.write_text("a := 0\nb := k - 1\n")
        code = main(["resultant", "--manifest", str(path),
                     "--a", "a", "--b", "b", "--var", "k"])
        assert code == 2
        assert "zero polynomial" in capsys.readouterr().err

    def test_resultant_bad_var(self, tmp_path, capsys):
        path = tmp_path / "man.txt"
        path.write_text("a := k\nb := k - 1\n")
        code = main(["resultant", "--manifest", str(path),
                     "--a", "a", "--b", "b", "--var", "w"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["resultant", "--manifest", "{dir}", "--a", "a", "--b", "b",
         "--var", "k"],
        ["resultant", "--manifest", "{dir}/missing.txt", "--a", "a",
         "--b", "b", "--var", "k"],
        ["export-manifest", "{dir}"],
        ["export-manifest", "{dir}/missing/out.txt"],
    ])
    def test_unusable_path_is_usage_error(self, tmp_path, capsys, argv):
        # a directory or a missing file named on the command line is the
        # user's error (exit 2), not an internal one (exit 3)
        code = main([arg.format(dir=tmp_path) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: [Errno ") and str(tmp_path) in err
        assert "internal error" not in err

    @pytest.mark.parametrize("content", [
        b"a := f +* 2\nb := k\n",
        b"a := k\na := f\nb := k\n",
        b"a := k + q\nb := k\n",
        b"a := f^40000\nb := k\n",
        b"a := k\xff\nb := k\n",
        b"a := " + b"(" * 5000 + b"k" + b")" * 5000 + b"\nb := k\n",
    ], ids=["syntax-error", "duplicate-name", "unknown-name",
            "exponent-overflow", "not-utf8", "nested-too-deep"])
    def test_unusable_manifest_is_usage_error(self, tmp_path, capsys,
                                              content):
        # a file that is no manifest is the user's error (exit 2), as an
        # unreadable one is, not an internal one (exit 3)
        path = tmp_path / "man.txt"
        path.write_bytes(content)
        code = main(["resultant", "--manifest", str(path),
                     "--a", "a", "--b", "b", "--var", "k"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"verify: {path}: ")
        assert "internal error" not in err

    def test_export_manifest(self, tmp_path, capsys):
        from resverify.catalog import MANIFEST_TEXT
        out_path = tmp_path / "exported.txt"
        code = main(["export-manifest", str(out_path)])
        assert code == 0
        assert out_path.read_text() == MANIFEST_TEXT
        code = main(["export-manifest"])
        assert code == 0
        assert capsys.readouterr().out == MANIFEST_TEXT

    def test_exported_manifest_reloads(self, tmp_path):
        from resverify.catalog import MANIFEST_TEXT
        from resverify.parser import load_manifest
        man = load_manifest(MANIFEST_TEXT)
        assert "P" in man and "nonic" in man
