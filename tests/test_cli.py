"""End-to-end tests of the hshadow command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import homodyne_shadows
from homodyne_shadows import cli
from homodyne_shadows import states as states_mod
from homodyne_shadows.cli import (
    EXIT_DATA,
    EXIT_DESIGN_FAILED,
    EXIT_INCOMPLETE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from homodyne_shadows.povm import BinningScheme, PhaseGrid, build_povm, design_bins
from homodyne_shadows.records import Records, write_records
from homodyne_shadows.shadow import DEFAULT_THRESHOLD, frame_operator, invert_frame, snapshots
from homodyne_shadows.sim import MultiModeConfig, estimate_local, joint_distribution, sample_multi

from conftest import random_hermitian, rebuild_povm
from test_blocks import DenseReference


def run(argv):
    return main(list(argv))


class TestDesignBins:
    def test_writes_complete_scheme(self, tmp_path, capsys):
        out = tmp_path / "scheme.json"
        code = run(
            [
                "design-bins",
                "--nmax", "1",
                "--phases", "3",
                "--bins", "2",
                "--l0", "1.0",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["rank"] == 4 and doc["required"] == 4
        assert doc["n_max"] == 1 and doc["N"] == 3 and doc["M"] == 2
        assert len(doc["edges"]) == 3
        assert doc["edges"][0] == pytest.approx(-1.0)
        assert "complete scheme" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_impossible_configuration_exits_2(self, tmp_path, capsys):
        code = run(
            [
                "design-bins",
                "--nmax", "5",
                "--phases", "4",
                "--bins", "6",
                "--max-iter", "10",
            ]
        )
        assert code == EXIT_DESIGN_FAILED
        assert "design-bins" in capsys.readouterr().err

    def test_missing_required_flag_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["design-bins", "--phases", "3", "--bins", "2"])
        assert excinfo.value.code == EXIT_USAGE

    def test_scheme_on_stdout_is_readable(self, tmp_path, capsys):
        # Without --out the scheme goes to stdout and the status line to
        # stderr, so `design-bins ... > s.json` gives a loadable file.
        assert run(["design-bins", "--nmax", "3", "--phases", "7", "--bins", "5"]) == EXIT_OK
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["rank"] == doc["required"] == 16
        assert captured.err.startswith("design-bins: complete scheme with rank 16/16 over [")
        scheme = tmp_path / "piped.json"
        scheme.write_text(captured.out)
        assert run(["check-ic", "--scheme", str(scheme)]) == EXIT_OK


class TestCheckIC:
    def test_complete_scheme_exits_0(self, tmp_path, capsys):
        scheme = tmp_path / "scheme.json"
        assert run(
            [
                "design-bins",
                "--nmax", "1", "--phases", "3", "--bins", "2",
                "--out", str(scheme),
            ]
        ) == EXIT_OK
        capsys.readouterr()
        code = run(["check-ic", "--scheme", str(scheme), "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["complete"] is True
        assert doc["rank"] == 4
        assert doc["n_max"] == 1 and doc["N"] == 3 and doc["M"] == 2
        assert len(doc["spectrum_tail"]) <= 5
        assert doc["lambda_min"] > 0

    def test_json_reports_condition_number(self, capsys):
        code = run(["check-ic", "--nmax", "1", "--phases", "3", "--bins", "3", "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert 1.0 <= doc["condition_number"] < 1e12

    def test_incomplete_scheme_exits_3(self, capsys):
        # Two phases can never resolve a two-level coherence grid.
        code = run(["check-ic", "--nmax", "1", "--phases", "2", "--bins", "2"])
        assert code == EXIT_INCOMPLETE
        assert "incomplete" in capsys.readouterr().out

    def test_rank_deficient_povm_reports_singular_frame(self, capsys):
        # Rank 21 of 25: lambda_min and the condition number used to report
        # the roundoff of the missing directions (9.8e-35 and 1.45e33).
        code = run(["check-ic", "--nmax", "4", "--phases", "6", "--bins", "9", "--json"])
        assert code == EXIT_INCOMPLETE
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 21
        assert doc["lambda_min"] == 0.0
        assert doc["condition_number"] is None

    @pytest.mark.parametrize("rtol", ["nan", "inf", "-inf", "0", "-1e-10"])
    def test_bad_rtol_exits_64(self, rtol, capsys):
        # A NaN rtol used to count no singular value as nonzero (rank 0, exit 3).
        code = run(["check-ic", "--nmax", "1", "--phases", "3", "--bins", "3", "--rtol=" + rtol])
        assert code == EXIT_USAGE
        assert "--rtol must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("rtol", [float("nan"), None, "nan", [1e-10]])
    def test_bad_rtol_from_config_exits_64(self, rtol, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rtol": rtol}))
        code = run(["check-ic", "--nmax", "1", "--phases", "3", "--bins", "3", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "--rtol" in capsys.readouterr().err

    def test_missing_scheme_file_exits_65(self, tmp_path, capsys):
        code = run(["check-ic", "--scheme", str(tmp_path / "nope.json")])
        assert code == EXIT_DATA

    # A negative cutoff used to reach math.sqrt and print "math domain error".
    @pytest.mark.parametrize("argv, nmax", [
        (["check-ic", "--nmax", "-2", "--phases", "7", "--bins", "5"], -2),
        (["design-bins", "--nmax", "-1", "--phases", "7", "--bins", "5"], -1),
    ], ids=["check-ic", "design-bins"])
    def test_negative_nmax_exits_65(self, argv, nmax, capsys):
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err == "hshadow: n_max must be >= 0, got %d\n" % nmax

    # A non-finite half-width used to be reported as non-finite bin edges.
    @pytest.mark.parametrize("flags, name", [
        (["design-bins", "--l0", "nan"], "L0"),
        (["design-bins", "--dl", "inf"], "dL"),
        (["check-ic", "--half-width", "inf"], "half_width"),
    ], ids=["l0-nan", "dl-inf", "half-width-inf"])
    def test_non_finite_half_width_exits_65(self, flags, name, capsys):
        argv = flags[:1] + ["--nmax", "3", "--phases", "7", "--bins", "5"] + flags[1:]
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert name in err and "must be finite and positive" in err

    def test_explicit_edges(self, capsys):
        code = run(
            [
                "check-ic",
                "--nmax", "1",
                "--phases", "3",
                "--edges=-4,0,4",
                "--tail-mode", "strict-finite",
            ]
        )
        # Mirror-symmetric bins: rank 3 of 4.
        assert code == EXIT_INCOMPLETE


class TestSimulate:
    ARGS = [
        "simulate",
        "--nmax", "1",
        "--phases", "3",
        "--bins", "3",
        "--state", "fock:1",
        "--T", "200",
        "--seed", "42",
    ]

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(self.ARGS + ["--out", str(a)]) == EXIT_OK
        assert run(self.ARGS + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "t,mode,k,i"
        assert len(a.read_text().splitlines()) == 201

    def test_seed_changes_the_stream(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(self.ARGS + ["--out", str(a)]) == EXIT_OK
        args = [v if v != "42" else "43" for v in self.ARGS]
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

    def test_zero_shots_exits_64(self, tmp_path, capsys):
        args = [v if v != "200" else "0" for v in self.ARGS]
        assert run(args + ["--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    def test_scheme_file_supplies_cutoff_and_phases(self, tmp_path, capsys):
        # A designed scheme records n_max and N, so simulate/estimate work
        # without repeating --nmax/--phases on the command line.
        scheme = tmp_path / "scheme.json"
        assert run(
            [
                "design-bins",
                "--nmax", "1", "--phases", "3", "--bins", "2",
                "--out", str(scheme),
            ]
        ) == EXIT_OK
        records = tmp_path / "records.csv"
        assert run(
            [
                "simulate",
                "--scheme", str(scheme),
                "--state", "fock:1",
                "--T", "100", "--seed", "3",
                "--out", str(records),
            ]
        ) == EXIT_OK
        capsys.readouterr()
        assert run(
            ["estimate", "--records", str(records), "--scheme", str(scheme), "--json"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["T"] == 100

    def test_missing_geometry_flags_exit_64(self, tmp_path, capsys):
        code = run(
            [
                "simulate",
                "--state", "fock:1",
                "--T", "5", "--seed", "1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert "--nmax" in capsys.readouterr().err

    def test_unknown_state_spec_exits_64(self, tmp_path, capsys):
        args = [v if v != "fock:1" else "squeezed:2" for v in self.ARGS]
        assert run(args + ["--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    # A seed outside 0..2**64-1 once drew the stream of its value mod 2**64.
    def test_seed_outside_64_bits_exits_65(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = [v if v != "42" else "-1" for v in self.ARGS]
        assert run(args + ["--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "hshadow: seed must lie in 0..18446744073709551615, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc, text", [
        ({"n_max": 1}, "cannot parse matrix file"),
        ({"n_max": 1, "matrix": [[[0.5, 0], [1, 0]], [[0, 0], [0.5, 0]]]},
         "is not Hermitian within 1e-8"),
    ], ids=["parse", "hermitian"])
    def test_bad_state_file_exits_65(self, doc, text, tmp_path, capsys):
        path, out = tmp_path / "bad.json", tmp_path / "x.csv"
        path.write_text(json.dumps(doc))
        args = [v if v != "fock:1" else "file:%s" % path for v in self.ARGS]
        assert run(args + ["--out", str(out)]) == EXIT_DATA
        assert text in capsys.readouterr().err
        assert not out.exists()


# Each spec is truncated at n_max = 3, so most of them warn.
@pytest.mark.filterwarnings("ignore::UserWarning")
class TestStateAndObservableSpecs:
    GEOMETRY = ["--nmax", "3", "--phases", "7", "--bins", "5"]

    def _simulate(self, spec, out, T=300):
        return run(["simulate", *self.GEOMETRY, "--state", spec,
                    "--T", str(T), "--seed", "5", "--out", str(out)])

    @pytest.mark.parametrize("spec", ["thermal:0.5", "cat:1.0", "cat:1.0:-1", "cat:1.0:1"])
    def test_valid_spec_writes_T_rows(self, spec, tmp_path):
        out = tmp_path / "records.csv"
        assert self._simulate(spec, out) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mode,k,i" and len(lines) == 301

    def test_file_spec_matches_the_factory(self, tmp_path):
        path = tmp_path / "state.json"
        states_mod.cat(1.0, -1, 3).to_file(path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self._simulate("cat:1.0:-1", a) == EXIT_OK
        assert self._simulate("file:%s" % path, b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("spec", ["cat:0:-1", "cat:1:2", "thermal:-1"])
    def test_invalid_spec_exits_64(self, spec, tmp_path, capsys):
        assert self._simulate(spec, tmp_path / "x.csv") == EXIT_USAGE
        assert "bad state spec %r" % spec in capsys.readouterr().err

    def test_observable_file_matches_number(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        assert self._simulate("cat:1.0:-1", records, T=2000) == EXIT_OK
        path = tmp_path / "n.json"
        states_mod.number_operator(3).to_file(path)
        reports = []
        for spec in ("number", "file:%s" % path):
            capsys.readouterr()
            assert run(["estimate", *self.GEOMETRY, "--records", str(records),
                        "--observable", spec, "--json"]) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["observable_label"] == "n"


    @pytest.mark.parametrize("tail, line", [
        ([], "truncation deficit 7.262e-03"),
        (["--tail-mode", "strict-finite"], "truncation deficit 7.262e-03, tail mass 5.996e-05"),
    ], ids=["extend-tails", "strict-finite"])
    def test_status_line_names_each_deficit(self, tail, line, tmp_path, capsys):
        # The state loses 7.262e-03 to the cutoff; the unmeasured tail mass
        # exists only in strict-finite mode.
        out = tmp_path / "records.csv"
        assert run(["simulate", *self.GEOMETRY, *tail, "--state", "cat:1.0:-1",
                    "--T", "300", "--seed", "5", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "simulate: wrote 300 records to %s (seed 5, %s)\n" % (out, line))


class TestNonFiniteInput:
    """NaN and infinite input exits 64 or 65 naming it, and never prints NaN as JSON."""

    GEOMETRY = ["--nmax", "3", "--phases", "7", "--bins", "5"]

    @pytest.mark.parametrize("spec, text", [
        ("coherent:nan", "coherent amplitude alpha must be finite, got (nan+0j)"),
        ("thermal:nan", "mean photon number nbar must be finite, got nan"),
        ("thermal:inf", "mean photon number nbar must be finite, got inf"),
        ("cat:nan", "cat amplitude alpha must be finite, got (nan+0j)"),
        ("coherent:100", "coherent(alpha=(100+0j), n_max=3) keeps no probability below "
         "the cutoff"),
    ])
    def test_state_parameter_exits_64(self, spec, text, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", *self.GEOMETRY, "--state", spec, "--T", "10", "--seed", "1",
                    "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "hshadow: error: bad state spec %r: %s\n" % (spec, text)
        assert not out.exists()

    # |alpha|^2 overflows a float: once an OverflowError traceback and exit 1.
    @pytest.mark.parametrize("spec, what", [
        ("coherent:1e200", "coherent(alpha=(1e+200+0j), n_max=3)"),
        ("cat:1e200", "cat(alpha=(1e+200+0j), parity=+1, n_max=3)"),
        ("cat:1e200:-1", "cat(alpha=(1e+200+0j), parity=-1, n_max=3)"),
    ])
    def test_huge_amplitude_exits_64(self, spec, what, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", *self.GEOMETRY, "--state", spec, "--T", "10", "--seed", "1",
                    "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "hshadow: error: bad state spec %r: %s keeps no probability below the cutoff\n"
            % (spec, what))
        assert not out.exists()

    @pytest.fixture
    def records(self, tmp_path):
        path = tmp_path / "records.csv"
        assert run(["simulate", *self.GEOMETRY, "--state", "fock:1", "--T", "200",
                    "--seed", "1", "--out", str(path)]) == EXIT_OK
        return path

    def test_nan_observable_file_exits_65(self, records, tmp_path, capsys):
        path = tmp_path / "nan.json"
        states_mod.number_operator(3).to_file(path)
        doc = json.loads(path.read_text())
        doc["matrix"][0][0] = [math.nan, 0.0]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["estimate", *self.GEOMETRY, "--records", str(records),
                    "--observable", "file:%s" % path, "--json"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hshadow: observable has a non-finite entry at (0, 0)\n"

    @pytest.mark.parametrize("flags", [["--json"], ["--out"], ["--json", "--out"]])
    def test_nan_estimate_report_exits_65(self, flags, records, tmp_path, capsys, monkeypatch):
        real = cli.shadow_mod.estimate_observable

        def nan_report(*args, **kwargs):
            report = real(*args, **kwargs)
            report.mean = math.nan
            return report

        monkeypatch.setattr(cli.shadow_mod, "estimate_observable", nan_report)
        out = tmp_path / "report.json"
        argv = [f if f != "--out" else "--out=%s" % out for f in flags]
        capsys.readouterr()
        assert run(["estimate", *self.GEOMETRY, "--records", str(records), *argv]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and "not JSON compliant" in captured.err
        assert not out.exists()

    def test_nan_check_ic_report_exits_65(self, capsys, monkeypatch):
        real = cli.povm_mod.is_informationally_complete

        def nan_report(*args, **kwargs):
            report = real(*args, **kwargs)
            report.lambda_min = math.nan
            return report

        monkeypatch.setattr(cli.povm_mod, "is_informationally_complete", nan_report)
        assert run(["check-ic", *self.GEOMETRY, "--json"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and "not JSON compliant" in captured.err


class TestEstimate:
    def _simulate(self, tmp_path, T=400):
        records = tmp_path / "records.csv"
        assert run(
            [
                "simulate",
                "--nmax", "1", "--phases", "3", "--bins", "3",
                "--state", "fock:1",
                "--T", str(T), "--seed", "7",
                "--out", str(records),
            ]
        ) == EXIT_OK
        return records

    def test_end_to_end_report(self, tmp_path, capsys):
        records = self._simulate(tmp_path)
        capsys.readouterr()
        code = run(
            [
                "estimate",
                "--records", str(records),
                "--nmax", "1", "--phases", "3", "--bins", "3",
                "--observable", "number",
                "--seed", "7",
                "--json",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "observable_label", "mean", "stderr", "T", "variant", "seed",
            "povm_cache_key", "inversion", "threshold",
        }
        assert doc["inversion"] == "strict"
        assert doc["T"] == 400
        assert doc["observable_label"] == "n"
        assert doc["seed"] == 7
        # |1> has <n> = 1; 400 shots should land within a broad window
        assert abs(doc["mean"] - 1.0) <= 6 * doc["stderr"]

    def test_json_reports_pseudo_inversion(self, tmp_path, capsys):
        records = self._simulate(tmp_path)
        out = tmp_path / "report.json"
        capsys.readouterr()
        code = run(
            [
                "estimate",
                "--records", str(records),
                "--nmax", "1", "--phases", "3", "--bins", "3",
                "--inversion", "pseudo", "--threshold", "1e-10",
                "--json", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["inversion"], doc["threshold"]) == ("pseudo", 1e-10)
        assert json.loads(out.read_text()) == doc

    def test_report_file_output(self, tmp_path):
        records = self._simulate(tmp_path)
        out = tmp_path / "report.json"
        code = run(
            [
                "estimate",
                "--records", str(records),
                "--nmax", "1", "--phases", "3", "--bins", "3",
                "--variant", "median-of-means:4",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["variant"] == "median-of-means:4"

    @pytest.mark.parametrize(
        "variant", ["median-of-means:abc", "median-of-means:", "median-of-means:0", "bogus"]
    )
    def test_malformed_variant_exits_64_before_reading_records(self, variant, tmp_path, capsys):
        records = self._simulate(tmp_path)
        capsys.readouterr()
        for path in (records, tmp_path / "missing.csv"):
            code = run(
                [
                    "estimate",
                    "--records", str(path),
                    "--nmax", "1", "--phases", "3", "--bins", "3",
                    "--variant", variant,
                ]
            )
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert repr(variant) in err and "median-of-means:B" in err
            assert "invalid literal" not in err

    @pytest.mark.parametrize("inversion", ["strict", "pseudo"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_threshold_exits_64_before_reading_records(
        self, threshold, inversion, tmp_path, capsys
    ):
        # NaN or inf in pseudo mode used to drop every direction and report
        # a mean of 0; -1 in strict mode divided by zero on a singular frame.
        records = self._simulate(tmp_path)
        capsys.readouterr()
        for path in (records, tmp_path / "missing.csv"):
            code = run(
                [
                    "estimate",
                    "--records", str(path),
                    "--nmax", "1", "--phases", "3", "--bins", "3",
                    "--inversion", inversion,
                    "--threshold=" + threshold,
                ]
            )
            assert code == EXIT_USAGE
            assert "--threshold must be finite and >= 0" in capsys.readouterr().err

    def test_malformed_records_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,mode,k,i\n0,0,zero,0\n")
        code = run(
            [
                "estimate",
                "--records", str(bad),
                "--nmax", "1", "--phases", "3", "--bins", "3",
            ]
        )
        assert code == EXIT_DATA

    def test_non_utf8_records_exit_65_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,mode,k,i\n0,0,\xff,2\n")
        code = run(
            [
                "estimate",
                "--records", str(bad),
                "--nmax", "1", "--phases", "3", "--bins", "3",
            ]
        )
        assert code == EXIT_DATA
        assert "line 2: byte 0xff is not UTF-8 text" in capsys.readouterr().err

    def test_empty_records_exit_65(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,mode,k,i\n")
        code = run(
            [
                "estimate",
                "--records", str(empty),
                "--nmax", "1", "--phases", "3", "--bins", "3",
            ]
        )
        assert code == EXIT_DATA

    def test_strict_inversion_on_singular_frame_exits_65(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("t,mode,k,i\n0,0,0,0\n1,0,1,1\n")
        base = [
            "estimate",
            "--records", str(records),
            "--nmax", "1", "--phases", "3",
            "--edges=-4,0,4",
            "--tail-mode", "strict-finite",
        ]
        assert run(base) == EXIT_DATA
        assert "pseudo" in capsys.readouterr().err
        assert run(base + ["--inversion", "pseudo"]) == EXIT_OK

    @pytest.mark.parametrize("variant", ["plain-mean", "median-of-means:7"])
    def test_decoded_file_reports_as_its_crlf_copy(self, variant, tmp_path, capsys):
        # The writer's exact format is decoded in blocks; a CRLF copy is parsed by numpy.
        records = self._simulate(tmp_path, T=20_000)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(records.read_bytes().replace(b"\n", b"\r\n"))
        outs = []
        for path in (records, crlf):
            capsys.readouterr()
            assert run(["estimate", "--records", str(path), "--nmax", "1", "--phases", "3",
                        "--bins", "3", "--variant", variant, "--json"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and '"T": 20000' in outs[0]

    # Faults after the first pieces of a decoded file: a format fault sends
    # its piece to numpy's parse, and the rules are checked on the records.
    @pytest.mark.parametrize("faults, message", [
        ({"i": 15_000}, "record 15000 references outcome (i=3, k=0) outside the 3 x 3 "
         "outcome grid"),
        ({"mode": 15_000}, "record 15000 has mode 3 but the stream began with mode 0; a "
         "single-mode estimate takes one mode at a time"),
        ({"line": 15_000}, "line 15002: k 'x' is not a 64-bit decimal integer"),
        ({"i": 15_000, "line": 17_000}, "line 17002: k 'x' is not a 64-bit decimal integer"),
        ({"i": 15_000, "singular": True}, "frame operator is singular"),
    ], ids=["grid", "mode", "format", "grid-then-format", "grid-on-singular-frame"])
    def test_fault_in_a_later_piece_exits_65(self, faults, message, tmp_path, capsys):
        T = 20_000  # 14 bytes a line: five pieces of 2**16 bytes
        t = np.arange(T)
        cols = {"t": t, "mode": np.zeros(T, dtype=np.int64), "k": t % 3, "i": t % 3}
        for name in ("i", "mode"):
            if name in faults:
                cols[name][faults[name]] = 3
        path = tmp_path / "records.csv"
        write_records(path, Records(*cols.values()))
        if "line" in faults:
            body = path.read_bytes().split(b"\n")
            body[faults["line"] + 1] = b"%d,0,x,0" % faults["line"]
            path.write_bytes(b"\n".join(body))
        geometry = (["--nmax", "1", "--phases", "3", "--edges=-4,-1,1,4",
                     "--tail-mode", "strict-finite", "--threshold", "1e3"]
                    if "singular" in faults else ["--nmax", "1", "--phases", "3", "--bins", "3"])
        capsys.readouterr()
        assert run(["estimate", "--records", str(path), *geometry]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("hshadow: " + message)

    def test_strict_inversion_of_incomplete_povm_exits_65_at_threshold_0(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        grid = ["--nmax", "4", "--phases", "6", "--bins", "9"]
        assert run(
            ["simulate"] + grid
            + ["--state", "fock:1", "--T", "2000", "--seed", "3", "--out", str(records)]
        ) == EXIT_OK
        capsys.readouterr()
        code = run(["estimate", "--records", str(records), "--threshold", "0"] + grid)
        assert code == EXIT_DATA
        assert "singular" in capsys.readouterr().err

    # The threshold passes lambda_max = 0.105 of the designed (3,7,5) frame.
    # Every snapshot was zero, and the report read 0.0 +- 0.0 with exit 0.
    def test_pseudo_threshold_above_the_spectrum_exits_65(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        grid = ["--nmax", "3", "--phases", "7", "--bins", "5"]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*loses probability", UserWarning)
            assert run(["simulate", *grid, "--state", "coherent:1.0", "--T", "500", "--seed", "1",
                        "--out", str(records)]) == EXIT_OK
        capsys.readouterr()
        code = run(["estimate", "--records", str(records), *grid, "--inversion", "pseudo",
                    "--threshold", "1e300", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_DATA and captured.out == ""
        assert "threshold 1.000e+300 >= lambda_max = 1.049e-01" in captured.err


class TestVarianceScan:
    # At a cutoff of 1 the unit coherent probe is heavily truncated and
    # incomplete grid points fall back to pseudo inversion; both warn.
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_csv_shape_and_ic_flags(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "variance-scan",
                "--sweep", "phases",
                "--range", "2:4",
                "--nmax", "1",
                "--bins", "3",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,variance,ic_flag"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["phases"] * 3
        assert [int(r[1]) for r in rows] == [2, 3, 4]
        # Two phases cannot be complete for n_max = 1; three can.
        assert int(rows[0][3]) == 0
        assert int(rows[1][3]) == 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_explicit_values_grid(self, capsys):
        code = run(
            [
                "variance-scan",
                "--sweep", "bins",
                "--values", "3,5",
                "--nmax", "1",
                "--phases", "3",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert [line.split(",")[1] for line in lines[1:]] == ["3", "5"]

    @pytest.mark.parametrize("flag", ["--threshold=nan", "--threshold=-1", "--rtol=nan"])
    def test_bad_tolerance_exits_64(self, flag, capsys):
        base = ["variance-scan", "--sweep", "bins", "--values", "3", "--nmax", "1"]
        assert run(base + [flag]) == EXIT_USAGE
        assert flag.split("=")[0] in capsys.readouterr().err

    def test_grid_flag_validation(self, capsys):
        base = ["variance-scan", "--sweep", "bins", "--nmax", "1", "--phases", "3"]
        assert run(base) == EXIT_USAGE
        assert run(base + ["--range", "2:4", "--values", "3"]) == EXIT_USAGE
        assert run(base + ["--range", "4:2"]) == EXIT_USAGE


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": 1, "phases": 3, "bins": 2}))
        code = run(["check-ic", "--json", "--config", str(cfg)])
        assert code in (EXIT_OK, EXIT_INCOMPLETE)
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_max"] == 1 and doc["N"] == 3 and doc["M"] == 2

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bins": 4}))
        code = run(
            [
                "check-ic", "--json",
                "--nmax", "1", "--phases", "3", "--bins", "2",
                "--config", str(cfg),
            ]
        )
        assert code in (EXIT_OK, EXIT_INCOMPLETE)
        doc = json.loads(capsys.readouterr().out)
        assert doc["M"] == 2

    def test_unknown_key_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": 1}))
        code = run(
            [
                "check-ic",
                "--nmax", "1", "--phases", "3", "--bins", "2",
                "--config", str(cfg),
            ]
        )
        assert code == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, flag",
        [
            ({"nmax": 3.7}, "--nmax"),  # used to run with n_max = 3
            ({"bins": 7.9}, "--bins"),  # used to run with 7 bins
            ({"tail_mode": "bogus"}, "--tail-mode"),  # used to exit 65
            ({"edges": [-2, 0, 2]}, "--edges"),  # used to crash with an AttributeError
            ({"json": "yes"}, "--json"),
            ({"json": 1}, "--json"),
        ],
        ids=["float-nmax", "float-bins", "bad-choice", "edge-list", "switch-string",
             "switch-number"],
    )
    def test_entry_is_parsed_like_its_flag(self, entry, flag, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict({"nmax": 3, "bins": 9}, **entry)))
        code = run(["check-ic", "--phases", "9", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "records.csv"
        cfg.write_text(json.dumps({
            "nmax": 1, "phases": 3, "bins": 3, "state": "fock:1", "T": 20, "seed": 4,
            "out": str(out),
        }))
        assert run(["simulate", "--config", str(cfg)]) == EXIT_OK
        explicit = tmp_path / "explicit.csv"
        assert run(["simulate", "--nmax", "1", "--phases", "3", "--bins", "3", "--state",
                    "fock:1", "--T", "20", "--seed", "4", "--out", str(explicit)]) == EXIT_OK
        assert out.read_bytes() == explicit.read_bytes()

    def test_switch_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        base = ["check-ic", "--nmax", "1", "--phases", "3", "--bins", "3", "--config", str(cfg)]
        cfg.write_text(json.dumps({"json": True}))
        assert run(base) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rank"] == 4
        cfg.write_text(json.dumps({"json": False}))
        assert run(base) == EXIT_OK
        assert "verdict: complete" in capsys.readouterr().out


class TestPovmCache:
    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "povm.json"
        args = [
            "simulate",
            "--nmax", "1", "--phases", "3", "--bins", "3",
            "--state", "fock:0",
            "--T", "50", "--seed", "3",
            "--povm-cache", str(cache),
        ]
        a = tmp_path / "a.csv"
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert cache.exists()
        b = tmp_path / "b.csv"
        assert run(args + ["--out", str(b)]) == EXIT_OK  # loads the cache
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_cache_exits_65(self, tmp_path, capsys):
        cache = tmp_path / "povm.json"
        args = [
            "check-ic",
            "--nmax", "1", "--phases", "3", "--bins", "3",
            "--povm-cache", str(cache),
        ]
        assert run(args) == EXIT_OK
        doc = json.loads(cache.read_text())
        doc["n_max"] = 3
        cache.write_text(json.dumps(doc))
        assert run(args) == EXIT_DATA

    def test_cache_of_another_povm_exits_65(self, tmp_path, capsys):
        cache = tmp_path / "povm.json"
        small = ["--nmax", "1", "--phases", "3", "--bins", "3"]
        assert run(["check-ic"] + small + ["--povm-cache", str(cache)]) == EXIT_OK
        other = ["--nmax", "2", "--phases", "5", "--bins", "3"]
        assert run(["check-ic"] + other + ["--povm-cache", str(cache)]) == EXIT_DATA
        assert "cache" in capsys.readouterr().err
        partial = ["--nmax", "2", "--phases", "5"]
        assert run(["check-ic"] + partial + ["--povm-cache", str(cache)]) == EXIT_DATA
        tail = ["--tail-mode", "strict-finite"]
        assert run(["check-ic"] + tail + ["--povm-cache", str(cache)]) == EXIT_DATA
        # The same POVM, or no description at all, still loads the cache.
        assert run(["check-ic"] + small + ["--povm-cache", str(cache)]) == EXIT_OK
        assert run(["check-ic", "--povm-cache", str(cache)]) == EXIT_OK

    @pytest.mark.parametrize(
        "flags",
        [
            ["--edges=-1,0,1"],
            ["--half-width", "9"],
            ["--nmax", "1", "--edges=-1,0,1"],
            ["--nmax", "1", "--phases", "3", "--half-width", "9"],  # no --bins
        ],
    )
    def test_edges_outside_a_whole_povm_exit_64(self, tmp_path, capsys, flags):
        # A partial description is compared field by field with the cache,
        # and the edges are not one of those fields: they used to be ignored.
        cache = tmp_path / "povm.json"
        small = ["--nmax", "1", "--phases", "3", "--bins", "3"]
        assert run(["check-ic"] + small + ["--povm-cache", str(cache)]) == EXIT_OK
        capsys.readouterr()
        assert run(["check-ic", "--povm-cache", str(cache)] + flags) == EXIT_USAGE
        assert "compared with a cache only in a whole POVM" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")  # coherent:1.0 truncated at n_max = 3
    def test_cache_of_other_weights_exits_65(self, tmp_path, capsys):
        # The estimator weights are the bin widths.  A file whose weights
        # differ from them is rejected, where it used to select another
        # estimator under the same cache key; a file that holds the widths,
        # as files written before the field was dropped do, still loads.
        plain, weighted, widths = (tmp_path / n for n in ("s.json", "w.json", "widths.json"))
        records = tmp_path / "r.csv"
        assert run(
            ["design-bins", "--nmax", "3", "--phases", "7", "--bins", "5", "--out", str(plain)]
        ) == EXIT_OK
        doc = json.loads(plain.read_text())
        edges = doc["edges"]
        weighted.write_text(json.dumps(dict(doc, weights=[1, 2, 3, 4, 5])))
        widths.write_text(json.dumps(dict(doc, weights=[b - a for a, b in zip(edges, edges[1:])])))
        assert run(
            [
                "simulate", "--scheme", str(plain), "--state", "coherent:1.0",
                "--T", "20000", "--seed", "3", "--out", str(records),
            ]
        ) == EXIT_OK
        estimate = ["estimate", "--records", str(records), "--json"]
        for flag in ("--scheme", "--povm-cache"):
            capsys.readouterr()
            assert run(estimate + [flag, str(weighted)]) == EXIT_DATA
            assert "weights are not the bin widths" in capsys.readouterr().err
        outputs = []
        for source in (plain, widths):
            assert run(estimate + ["--scheme", str(source)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_cache_file_serves_as_scheme(self, tmp_path, capsys):
        scheme, cache, records = (tmp_path / n for n in ("s.json", "c.json", "r.csv"))
        assert run(
            ["design-bins", "--nmax", "3", "--phases", "7", "--bins", "5", "--out", str(scheme)]
        ) == EXIT_OK
        assert run(
            [
                "simulate", "--scheme", str(scheme), "--povm-cache", str(cache),
                "--state", "fock:1", "--T", "5000", "--seed", "3",
                "--out", str(records),
            ]
        ) == EXIT_OK
        capsys.readouterr()
        outputs = []
        for source in (["--scheme", str(scheme)], ["--povm-cache", str(cache)],
                       ["--scheme", str(cache)]):
            assert run(["estimate", "--records", str(records), "--json"] + source) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]


class TestParameterFile:
    """Scheme and cache files share one reader, which checks that their fields agree."""

    @pytest.fixture
    def files(self, tmp_path):
        scheme, cache = tmp_path / "s.json", tmp_path / "c.json"
        grid = ["--nmax", "3", "--phases", "7", "--bins", "5"]
        assert run(["design-bins"] + grid + ["--out", str(scheme)]) == EXIT_OK
        assert run(["check-ic"] + grid + ["--povm-cache", str(cache)]) == EXIT_OK
        return {"--scheme": scheme, "--povm-cache": cache}

    @pytest.mark.parametrize("flag", ["--scheme", "--povm-cache"])
    @pytest.mark.parametrize(
        "change",
        [
            {"n_max": 3.7},  # used to run at n_max 3
            {"N": 7.9},  # used to run at N 7
            {"n_max": True},  # used to run at n_max 1
            {"M": 9},  # used to be ignored next to 6 edges
            {"tail_mode": "bogus"},
            {"cache_key": "0" * 64},  # used to be ignored in a scheme file
            {"weights": [1, 2, 3, 4, 5]},  # used to select another estimator
        ],
        ids=["float-nmax", "float-N", "bool-nmax", "M", "tail-mode", "cache-key", "weights"],
    )
    def test_disagreeing_field_exits_65(self, files, flag, change, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(files[flag].read_text()), **change)))
        capsys.readouterr()
        assert run(["check-ic", flag, str(bad)]) == EXIT_DATA
        assert "bad parameter file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--bins", "9"], ["--edges=-2,0,2"], ["--half-width", "3"],
         ["--tail-mode", "strict-finite"], ["--tail-mode", "extend-tails"]],
        ids=["bins", "edges", "half-width", "strict", "extend"],
    )
    def test_binning_flag_with_scheme_exits_64(self, files, extra, tmp_path, capsys):
        # The scheme fixes the binning: the flag used to be dropped silently.
        # The check comes before any file is read, so a missing file exits 64 too.
        flag = extra[0].split("=")[0]
        for scheme in (files["--scheme"], tmp_path / "missing.json"):
            capsys.readouterr()
            assert run(["check-ic", "--scheme", str(scheme)] + extra) == EXIT_USAGE
            assert flag in capsys.readouterr().err


_POVM = ["--nmax", "1", "--phases", "3", "--bins", "2"]
_SCAN = ["variance-scan", "--sweep", "phases"]


class TestTopLevel:
    def test_no_command_exits_64(self, capsys):
        assert run([]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["check-ic", "--config", "{tmp}/config.json"],
             "config {tmp}/config.json must hold a JSON object"),
            (["check-ic", "--nmax", "1", "--phases", "3", "--edges", "0.5"],
             "--edges needs at least two values"),
            (["estimate", *_POVM, "--records", "{tmp}/r.csv", "--observable", "bogus"],
             "unknown observable spec 'bogus'"),
            ([*_SCAN, "--values", "6,x"], "cannot parse --values '6,x'"),
            ([*_SCAN, "--range", "1:2:3:4"], "--range must look like A:B or A:B:STEP"),
            ([*_SCAN, "--range", "a:b"], "cannot parse --range 'a:b'"),
            ([*_SCAN, "--values", "7", "--alpha", "zz"], "cannot parse --alpha 'zz'"),
        ],
        ids=["config-not-object", "one-edge", "observable", "values", "range-shape",
             "range-parse", "alpha"],
    )
    def test_usage_error_names_the_flag(self, argv, named, tmp_path, capsys):
        # Each check runs before any record file is read.
        (tmp_path / "config.json").write_text("[1, 2]")
        capsys.readouterr()
        assert run([a.format(tmp=tmp_path) for a in argv]) == EXIT_USAGE
        assert named.format(tmp=tmp_path) in capsys.readouterr().err

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate"])
        assert excinfo.value.code == EXIT_USAGE

    def test_exit_codes_are_distinct(self):
        codes = [EXIT_OK, EXIT_DESIGN_FAILED, EXIT_INCOMPLETE, EXIT_USAGE, EXIT_DATA]
        assert len(set(codes)) == len(codes)
        assert cli.EXIT_OK == 0

    def test_module_run_is_warning_free(self):
        # ``python -m homodyne_shadows.cli`` must not find the module already
        # imported by the package, which makes runpy warn on every call.
        src = str(Path(homodyne_shadows.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning", "-m", "homodyne_shadows.cli",
                "check-ic", "--nmax", "1", "--phases", "3", "--bins", "3", "--json",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""


class TestStatisticalOracle:
    """``design-bins -> simulate -> estimate --json`` against the estimator's exact limit.

    For the stream the CLI samples, the estimate of X converges to
    mu = sum_ik P(i,k) v_ik with single-shot variance sigma^2 =
    sum_ik P(i,k) v_ik^2 - mu^2, where v_ik = Tr(rho_hat_ik X).  Both come
    from the dense reference of ``test_blocks`` (``element(i, k)`` and a
    dense inverse), not from the block path the CLI runs.  Each cell must
    land within 5 sigma / sqrt(T) of mu; on these complete grids, where
    both inversions invert the whole frame, mu is Tr(rho X) itself.  The
    number operator ignores the LO phase and the quadrature a + a^dagger
    does not.  Two-mode cells run ``sample_multi -> estimate_local`` on a
    product state, where the per-shot value is the product of independent
    mode values: mu = prod mu_j and sigma^2 = prod E[v_j^2] - mu^2.
    """

    T = 10**5
    GRIDS = [(3, 7, 5), (4, 7, 9)]

    @staticmethod
    def limit(povm, rho, X, inversion="strict"):
        """The exact mean mu and second moment E[v^2] of one shot's value, from the dense path."""
        ref = DenseReference(povm)
        assert ref.rank == povm.dim**2
        snaps = ref.snapshots(inversion, DEFAULT_THRESHOLD)
        P = np.array([[np.trace(rho @ povm.element(i, k)).real for k in range(ref.N)]
                      for i in range(ref.M)])
        v = np.einsum("ikab,ba->ik", snaps, X).real
        mu = float(np.sum(P * v))
        assert abs(mu - np.trace(rho @ X).real) <= 1e-9
        return mu, float(np.sum(P * v**2))

    @staticmethod
    def observables(n_max):
        """The number operator and the quadrature a + a^dagger at cutoff n_max."""
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
        return {"number": np.diag(np.arange(n_max + 1.0)), "quadrature": a + a.T}

    @pytest.fixture(scope="class", params=GRIDS, ids=["3-7-5", "aliased-4-7-9"])
    def chain(self, request, tmp_path_factory):
        """The scheme design-bins writes for a grid (n_max, N, M), ``records(state)``,
        the records simulate writes for a state spec (one run per spec), and the
        observables with their ``--observable`` specs."""
        n_max, N, M = request.param
        d = tmp_path_factory.mktemp("oracle")
        scheme = str(d / "scheme.json")
        with warnings.catch_warnings():
            # The aliased grid sits below the sufficiency threshold on purpose.
            warnings.simplefilter("ignore", UserWarning)
            assert run(["design-bins", "--nmax", str(n_max), "--phases", str(N), "--bins", str(M),
                        "--out", scheme]) == EXIT_OK
        runs = {}

        def records(state):
            if state not in runs:
                runs[state] = str(d / ("records-%d.csv" % len(runs)))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    assert run(["simulate", "--scheme", scheme, "--state", state, "--T",
                                str(self.T), "--seed", "11", "--out", runs[state]]) == EXIT_OK
                # Coherent and cat states lose probability to the cutoff; a Fock state does not.
                lossy = any("truncation" in str(w.message) for w in caught)
                assert lossy == (not state.startswith("fock:"))
            return runs[state]

        X = self.observables(n_max)
        observables = {"number": ("number", X["number"]),
                       "quadrature": ("file:" + str(d / "x.json"), X["quadrature"])}
        states_mod._write_matrix_file(d / "x.json", X["quadrature"])
        return n_max, scheme, records, observables

    def check_cell(self, chain, state, observable, variant, inversion, capsys):
        n_max, scheme, records, observables = chain
        spec, X = observables[observable]
        path = records(state)
        capsys.readouterr()
        assert run(["estimate", "--records", path, "--scheme", scheme, "--observable", spec,
                    "--inversion", inversion, "--variant", variant, "--json"]) == EXIT_OK
        estimate = json.loads(capsys.readouterr().out)["mean"]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*loses probability", UserWarning)
            rho = cli._parse_state_spec(state, n_max).matrix
        mu, second = self.limit(rebuild_povm(scheme), rho, X, inversion)
        assert abs(estimate - mu) <= 5 * math.sqrt(second - mu**2) / math.sqrt(self.T)

    @pytest.mark.parametrize("inversion", ["strict", "pseudo"])
    @pytest.mark.parametrize("variant", ["plain-mean", "median-of-means:7"])
    @pytest.mark.parametrize("observable", ["number", "quadrature"])
    def test_estimate_is_near_the_exact_limit(self, chain, observable, variant, inversion, capsys):
        self.check_cell(chain, "coherent:1.0", observable, variant, inversion, capsys)

    @pytest.mark.parametrize("inversion", ["strict", "pseudo"])
    @pytest.mark.parametrize("observable", ["number", "quadrature"])
    @pytest.mark.parametrize("state", ["fock:2", "cat:1.0:-1"], ids=["fock-2", "odd-cat-1"])
    def test_other_states_are_near_the_exact_limit(self, chain, state, observable, inversion,
                                                   capsys):
        self.check_cell(chain, state, observable, "plain-mean", inversion, capsys)

    # (n_max, N, M) = (3, 6, 8) over [-3.5, 3.5]: N is even and below 2 n_max + 1,
    # so no binning is complete, and only the pseudo inverse runs.
    INCOMPLETE = ["--nmax", "3", "--phases", "6", "--bins", "8", "--half-width", "3.5"]

    @pytest.fixture(scope="class")
    def incomplete_records(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("incomplete") / "records.csv")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*loses probability", UserWarning)
            assert run(["simulate", *self.INCOMPLETE, "--state", "coherent:1.0", "--T",
                        str(self.T), "--seed", "11", "--out", path]) == EXIT_OK
        return path

    # The default threshold drops only the null direction; 0.01 drops five
    # directions of the spectrum as well, so a threshold that is ignored shows.
    @pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, 0.01])
    @pytest.mark.parametrize("observable", ["quadrature", "random"])
    def test_aliased_incomplete_grid_is_near_its_biased_limit(self, incomplete_records,
                                                              observable, threshold, tmp_path,
                                                              capsys):
        # The pseudo estimator converges to mu = Tr(rho Y) with Y = sum_ik v_ik Pi_ik,
        # the part of X the POVM sees, so |mu - Tr(rho X)| <= beta = ||Y - X||_inf.
        if observable == "quadrature":
            X = self.observables(3)["quadrature"]
        else:
            X = random_hermitian(4, np.random.default_rng(6))
            X /= np.max(np.abs(np.linalg.eigvalsh(X)))  # ||X||_inf = 1
        states_mod._write_matrix_file(tmp_path / "x.json", X)
        capsys.readouterr()
        assert run(["estimate", "--records", incomplete_records, *self.INCOMPLETE,
                    "--observable", "file:" + str(tmp_path / "x.json"), "--inversion", "pseudo",
                    "--threshold", repr(threshold), "--json"]) == EXIT_OK
        estimate = json.loads(capsys.readouterr().out)["mean"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # below the sufficiency threshold
            povm = build_povm(PhaseGrid(6), BinningScheme.equal_spaced(8, 3.5), 3)
            rho = cli._parse_state_spec("coherent:1.0", 3).matrix
        ref = DenseReference(povm)
        assert ref.rank < povm.dim**2
        snaps = ref.snapshots("pseudo", threshold)
        v = np.einsum("ikab,ba->ik", snaps, X).real
        elements = [[povm.element(i, k) for k in range(ref.N)] for i in range(ref.M)]
        P = np.array([[np.trace(rho @ E).real for E in row] for row in elements])
        Y = sum(v[i, k] * elements[i][k] for i in range(ref.M) for k in range(ref.N))
        beta = np.max(np.abs(np.linalg.eigvalsh(Y - X)))
        mu = float(np.sum(P * v))
        assert abs(mu - np.trace(rho @ X).real) <= beta + 1e-12
        assert abs(estimate - mu) <= 5 * math.sqrt(np.sum(P * v**2) - mu**2) / math.sqrt(self.T)

    # (state, observable) of mode 0 on the 3-7-5 grid and of mode 1 on the aliased 4-7-9 grid.
    @pytest.mark.parametrize("modes", [
        (("coherent:1.0", "quadrature"), ("fock:2", "number")),
        (("cat:1.0:-1", "number"), ("coherent:1.0", "quadrature")),
    ], ids=["coherent-x-fock-n", "odd-cat-n-coherent-x"])
    def test_two_mode_local_estimate_is_near_the_exact_limit(self, modes):
        povms, rhos, Xs = [], [], {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # aliased grid; truncated states
            for j, ((n_max, N, M), (state, observable)) in enumerate(zip(self.GRIDS, modes)):
                povms.append(build_povm(PhaseGrid(N), design_bins(n_max, N, M), n_max))
                rhos.append(cli._parse_state_spec(state, n_max))
                Xs[j] = self.observables(n_max)[observable]
        config = MultiModeConfig(povms)
        records = sample_multi(joint_distribution(rhos, config), self.T, seed=11)
        tables = {j: snapshots(p, invert_frame(frame_operator(p))) for j, p in enumerate(povms)}
        estimate = estimate_local(records, config, tables, Xs).mean
        limits = [self.limit(p, r.matrix, Xs[j]) for j, (p, r) in enumerate(zip(povms, rhos))]
        mu = math.prod(m for m, _ in limits)
        sigma = math.sqrt(math.prod(e for _, e in limits) - mu**2)
        assert abs(estimate - mu) <= 5 * sigma / math.sqrt(self.T)
