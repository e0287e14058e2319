"""Sweep machinery and the verify CLI: reports, exit codes, formats."""

import hashlib
import json

import pytest

from resverify import sweep
from resverify.cli import main
from resverify.resultant import resultant_interp
from resverify.sweep import (SweepConfig, UsageError, expected_exceptions,
                             report_to_dict, run_case, run_sweep)


def _failing(a, b, var, spectator, deadline=None):
    if a == sweep.build_core((4, 2, 0)).H:
        raise ArithmeticError("planted failure")
    return resultant_interp(a, b, var, spectator, deadline=deadline)


def _planting_worker(args):
    # runs in this process or in a pool worker of any start method
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "resultant_interp", _failing)
        return run_case(*args)


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

    def test_worker_count_invariance(self):
        cfg1 = SweepConfig(var="k", m_lo=4, m_hi=5, c_list=(1,), jobs=1)
        cfg2 = SweepConfig(var="k", m_lo=4, m_hi=5, c_list=(1,), jobs=2)
        d1 = report_to_dict(run_sweep(cfg1), stable=True)
        d2 = report_to_dict(run_sweep(cfg2), stable=True)
        d1["config"]["jobs"] = d2["config"]["jobs"]
        assert d1 == d2

    def test_pool_capped_at_case_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Runs cases in this process and records the pool size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
        cfg = SweepConfig(var="k", m_lo=4, m_hi=4, c_list=(1,), jobs=100000)
        report = run_sweep(cfg)
        assert [res.key() for res in report.results] == [(4, 2, 1), (4, 3, 1)]
        assert sizes == [2]

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
        # two keep their verdicts, in both formats and with a pool.  The
        # failure is planted by the case worker, which a pool pickles by
        # reference, so it reaches forked and spawned workers alike
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
