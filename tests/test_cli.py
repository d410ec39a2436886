"""CLI tests: dispatch, serialization, exit codes, and report round-trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from scipy import stats

import hdpower
from hdpower import BlindSpotReport, MixtureDiagnostics, __version__, distributions, harness
from hdpower.cli import build_parser, main

SUBCOMMANDS = (
    "simulate",
    "power-curve",
    "blind-spot",
    "bounds",
    "lan-check",
    "embed-check",
    "nontestability",
    "demo",
)

# stdout and exit code of the criterion-9 argv set in both formats, captured
# before the CLI's output path was rewritten; any byte change is a regression
with open(Path(__file__).parent / "golden" / "criterion9_outputs.json", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bounds", "--n", "10", "--d", "4", "--frequency", "2"])
        assert excinfo.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_help_enumerates_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for sub in SUBCOMMANDS:
            assert sub in out

    def test_import_skips_thread_pool(self):
        # serial runs never build an executor, so the CLI should not pay for
        # importing one (and logging with it)
        code = "import sys, hdpower.cli; print('concurrent.futures' in sys.modules)"
        src = str(Path(hdpower.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_defaults(self):
        args = build_parser().parse_args(["blind-spot", "--test", "chi2:alpha=0.05", "--n", "16", "--d", "4"])
        assert args.seed == 0
        assert args.reps == 10_000
        assert args.workers == 1


class TestBounds:
    def test_spec_example_values(self, capsys):
        code, out, _ = run_cli(["bounds", "--d", "16", "--n", "100"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["second_moment_minus_one"] == pytest.approx(0.1875, abs=1e-12)
        assert payload["power_gap_bound"] == pytest.approx(0.4330127018922193, abs=1e-12)
        # re-parses and validates against the type's invariants
        MixtureDiagnostics.from_dict(payload)


class TestBlindSpot:
    def test_json_report_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["blind-spot", "--test", "chi2:alpha=0.05", "--n", "64", "--d", "8",
             "--reps", "1000", "--seed", "1"],
            capsys,
        )
        assert code == 0
        report = BlindSpotReport.from_dict(json.loads(out))
        assert 1 <= report.coordinate <= 8
        assert report.suggested_component == f"spike:i={report.coordinate}"


class TestNontestability:
    def test_csv_rows_decreasing(self, capsys):
        code, out, _ = run_cli(["nontestability", "--n-grid", "100,1000,10000"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "n,tv_bound"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 3
        assert all(b < a for a, b in zip(values, values[1:]))


class TestSimulate:
    def test_null_size_json(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--test", "chi2:alpha=0.05", "--n", "100", "--d", "5",
             "--reps", "4000", "--seed", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["estimate"]["mean"] - 0.05) < 0.02
        assert payload["estimate"]["seed"] == 3

    def test_scaled_model_membership_violation_exits_3(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--model", "scaled", "--test", "chi2:alpha=0.05",
             "--n", "100", "--d", "2", "--theta", "1.0,0"],
            capsys,
        )
        assert code == 3
        assert "(-1, 1)" in err

    def test_bad_alpha_exits_3(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--test", "chi2:alpha=2.0", "--n", "10", "--d", "2"],
            capsys,
        )
        assert code == 3
        assert "alpha" in err

    def test_degenerate_truncation_radius_exits_3(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--test", "tscore:C=0.001", "--n", "20", "--d", "4"],
            capsys,
        )
        assert code == 3
        assert "increase C" in err

    def test_seed_outside_64_bits_exits_3(self, capsys):
        # taken mod 2^64, these would alias seeds 0, 1 and 2^64 - 1
        for spec, seed in (
            ("chi2:alpha=0.05", str(1 << 64)),
            ("halfspace:seed=18446744073709551617", "0"),
            ("halfspace:seed=-1", "0"),
        ):
            code, _, err = run_cli(
                ["simulate", "--test", spec, "--n", "20", "--d", "4", "--reps", "100", "--seed", seed],
                capsys,
            )
            assert code == 3
            assert "2^64" in err

    def test_spike_theta_shortcut(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--test", "spike:i=1", "--n", "100", "--d", "100",
             "--theta", "spike:i=1", "--reps", "2000", "--seed", "4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"][0] == pytest.approx(0.15174271293851466, abs=1e-12)


class TestOutputs:
    def test_unwritable_path_exits_1(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "out.json"
        code, _, err = run_cli(
            ["bounds", "--d", "4", "--n", "10", "--out", str(target)], capsys
        )
        assert code == 1
        assert "cannot write" in err

    def test_output_file_written(self, capsys, tmp_path):
        target = tmp_path / "bounds.json"
        code, out, _ = run_cli(["bounds", "--d", "4", "--n", "10", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["d"] == 4

    def test_power_curve_csv(self, capsys):
        code, out, _ = run_cli(
            ["power-curve", "--test", "chi2:alpha=0.05", "--d-rule", "linear",
             "--n-grid", "16,32", "--reps", "1000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "n,d,test,theta,size,power,enhanced_power,gap_bound"
        assert len(lines) == 3

    def test_consistency_curve_csv(self, capsys):
        code, out, _ = run_cli(
            ["power-curve", "--curve", "consistency", "--theta-rule", "spike",
             "--d-rule", "linear", "--n-grid", "100,1000"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "n,d,criterion,exact_chi2_power"
        assert len(lines) == 3

    @pytest.mark.parametrize("rule", ["decay:c=abc", "decay:c="])
    def test_bad_decay_scale_exits_3(self, rule, capsys):
        code, out, err = run_cli(
            ["power-curve", "--curve", "consistency", "--theta-rule", rule,
             "--d-rule", "fixed:5", "--n-grid", "100"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "decay" in err

    @pytest.mark.parametrize("command", ["demo", "power-curve"])
    def test_observation_test_refused_before_the_scan(self, command, monkeypatch, capsys):
        def scan(*args, **kwargs):
            raise AssertionError("the blind-spot scan ran")

        monkeypatch.setattr(harness, "find_blind_spot", scan)
        code, out, err = run_cli(
            [command, "--test", "tscore", "--d-rule", "linear", "--n-grid", "64,128",
             "--reps", "1000", "--seed", "1"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "cannot combine tests consuming different inputs" in err

    def test_unconverged_kernel_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(distributions, "_POISSON_MAX_STEPS", 10)
        code, out, err = run_cli(
            ["power-curve", "--curve", "consistency", "--theta-rule", "decay:c=10",
             "--d-rule", "fixed:5", "--n-grid", "1000"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "failed to converge" in err

    @pytest.mark.parametrize(
        "d_rule, theta_rule, grid",
        [
            # the central series once stopped at 500 terms: 0.789 at n = 1e6
            ("linear", "decay:c=1.7", "1000,10000,100000,1000000"),
            # the Poisson sum once stalled at noncentrality 3e4 for ~25 s
            ("fixed:5", "decay:c=10", "100,1000,10000,90000"),
        ],
    )
    def test_consistency_curve_matches_scipy_at_scale(self, capsys, d_rule, theta_rule, grid):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["power-curve", "--curve", "consistency", "--d-rule", d_rule,
             "--theta-rule", theta_rule, "--n-grid", grid],
            capsys,
        )
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert elapsed < 1.0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == grid.split(",")
        for r in rows:
            d = int(r["d"])
            lam = float(r["criterion"]) * math.sqrt(d)
            want = stats.ncx2.sf(stats.chi2.isf(0.05, d), d, lam)
            assert abs(float(r["exact_chi2_power"]) - want) <= 1e-9, r

    def test_demo_rejects_csv_format(self, capsys):
        code, _, err = run_cli(
            ["demo", "--d-rule", "linear", "--n-grid", "16,32", "--reps", "1000",
             "--format", "csv"],
            capsys,
        )
        assert code == 3
        assert "json" in err

    def test_demo_json_parses(self, capsys):
        code, out, _ = run_cli(
            ["demo", "--test", "chi2:alpha=0.05", "--d-rule", "linear",
             "--n-grid", "16,32", "--reps", "1000", "--seed", "6"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["at_d"] == 32
        assert set(payload["checks"]) >= {"pointwise_dominance", "enhanceable_signature"}

    def test_lan_check_json(self, capsys):
        code, out, _ = run_cli(
            ["lan-check", "--model", "gaussian", "--h", "1.0,-0.5",
             "--n-grid", "100,400", "--reps", "1000"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert all(row["remainder_p95"] < 1e-12 for row in payload["rows"])

    def test_embed_check_json(self, capsys):
        code, out, _ = run_cli(
            ["embed-check", "--d1", "2", "--d2", "4", "--theta", "1.0,0",
             "--n", "64", "--reps", "4000"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert all(item["p_value"] > 1e-3 for item in payload["ks"])


class TestWorkerByteIdentity:
    def test_blind_spot_bytes_match(self, capsys):
        outputs = []
        for workers in ("1", "4", "8"):
            code, out, _ = run_cli(
                ["blind-spot", "--test", "supnorm", "--n", "32", "--d", "8",
                 "--reps", "1500", "--seed", "7", "--workers", workers],
                capsys,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]


    @pytest.mark.parametrize("test", ["spike:i=3", "enhance(spike:i=3,spike:i=3)"])
    def test_single_column_simulate_bytes_match(self, test, capsys):
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run_cli(
                ["simulate", "--test", test, "--n", "100", "--d", "400", "--theta", "spike:i=3",
                 "--reps", "20000", "--seed", "8", "--workers", workers, "--format", "csv"],
                capsys,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestGoldenOutputs:
    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_bytes_match_golden(self, name, fmt, capsys):
        case = GOLDEN[name]
        code, out, _ = run_cli(case["argv"] + ["--format", fmt], capsys)
        assert code == case[fmt]["exit"]
        assert out.encode("utf-8") == case[fmt]["stdout"].encode("utf-8")
