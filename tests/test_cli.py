"""Command line entry points, exercised through cli.main(argv)."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cemkit
from cemkit import cli, harness

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CFG = {
    "problem": {"kind": "onemax", "n": 6},
    "variant": "batch",
    "N": 20,
    "T": 5,
    "replicates": 3,
    "base_seed": 77,
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CFG))
    return str(p)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_stdout_csv(self, capsys, cfg_path):
        code, out, err = _run(capsys, ["run", "--config", cfg_path])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "# cemkit-results-v1"
        assert lines[1].startswith("replicate,seed,variant,")
        assert len(lines) == 2 + 3
        assert lines[2].split(",")[1] == "77"

    def test_out_file_matches_stdout(self, capsys, cfg_path, tmp_path):
        code, out, _ = _run(capsys, ["run", "--config", cfg_path])
        dest = tmp_path / "r.csv"
        code2, out2, _ = _run(
            capsys, ["run", "--config", cfg_path, "--out", str(dest)]
        )
        assert code == code2 == 0
        assert out2 == f"wrote {dest}\n"
        assert dest.read_text() == out

    def test_json_format(self, capsys, cfg_path):
        code, out, _ = _run(capsys, ["run", "--config", cfg_path, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "cemkit-results-v1"
        assert len(data["rows"]) == 3

    def test_seed_override(self, capsys, cfg_path):
        _, base, _ = _run(capsys, ["run", "--config", cfg_path])
        _, bumped, _ = _run(capsys, ["run", "--config", cfg_path, "--seed", "900"])
        assert base != bumped
        assert bumped.splitlines()[2].split(",")[1] == "900"

    def test_jobs_do_not_change_output(self, capsys, cfg_path):
        _, seq, _ = _run(capsys, ["run", "--config", cfg_path])
        _, par, _ = _run(capsys, ["run", "--config", cfg_path, "--jobs", "2"])
        assert seq == par

    def test_repeat_invocations_byte_identical(self, capsys, cfg_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, ["run", "--config", cfg_path, "--out", str(a)])
        _run(capsys, ["run", "--config", cfg_path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("patch", [
        {"variant": "window", "N": 100, "alpha": 5e-16, "K": 150},
        {"variant": "batch", "N": 20, "alpha": 1e-17, "T": 3},
    ])
    def test_step_below_half_ulp_of_one(self, capsys, tmp_path, patch):
        # alpha1 of about 5e-17 and 1e-17: 1 - alpha1 rounds to 1, and each
        # replicate's miss bound is still computed.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**CFG, "problem": {"kind": "onemax", "n": 60}, **patch}))
        code, out, err = _run(capsys, ["run", "--config", str(p)])
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 2 + 3


    @pytest.mark.parametrize("command", ["run", "config-dump"])
    @pytest.mark.parametrize("variant", ["batch", "window", "memoryless"])
    def test_step_that_underflows(self, capsys, tmp_path, variant, command):
        # The online step alpha/ceil(rho*N) rounds to 0.0; the batch step
        # is alpha itself, so batch runs, as run_experiment runs it.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**CFG, "variant": variant, "alpha": 5e-324}))
        code, out, err = _run(capsys, [command, "--config", str(p)])
        if variant == "batch":
            assert (code, err) == (0, "") and out
            return
        assert (code, out) == (2, "")
        assert err.startswith("config error: alpha: per-update step alpha1 underflows to 0.0")


class TestFailureModes:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["run", "--config", str(tmp_path / "no.json")])
        assert code == 2
        assert err.startswith("config error:")

    def test_invalid_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code, _, err = _run(capsys, ["run", "--config", str(p)])
        assert code == 2 and "config error:" in err

    @pytest.mark.parametrize("command", ["run", "config-dump"])
    def test_config_that_is_not_utf8(self, capsys, tmp_path, command):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"problem": {"kind": "onemax", "n": 6}, "N": 20, "T": 5, "note": "\xff"}')
        code, out, err = _run(capsys, [command, "--config", str(p)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: config: cannot decode {p} as UTF-8: ")
        assert "0xff" in err

    def test_unknown_field(self, capsys, tmp_path):
        p = tmp_path / "weird.json"
        p.write_text(json.dumps({**CFG, "turbo": True}))
        code, _, err = _run(capsys, ["run", "--config", str(p)])
        assert code == 2 and "turbo" in err

    @pytest.mark.parametrize("command", ["run", "config-dump"])
    @pytest.mark.parametrize(
        "text, key",
        [
            # json.load alone would run these with N = 30 and n = 6.
            ('{"problem": {"kind": "onemax", "n": 6}, "N": 20, "T": 5, "N": 30}', "N"),
            ('{"problem": {"kind": "onemax", "n": 8, "n": 6}, "N": 20, "T": 5}', "n"),
        ],
    )
    def test_repeated_key(self, capsys, tmp_path, command, text, key):
        p = tmp_path / "twice.json"
        p.write_text(text)
        code, out, err = _run(capsys, [command, "--config", str(p)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {key}: repeated key")

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"alphas": "0.5"}, "alphas"),
            ({"output": None}, "output"),
            ({"variant": "memoryless", "delta_init": float("nan")}, "delta_init"),
        ],
    )
    def test_mistyped_field_is_a_config_error(self, capsys, tmp_path, patch, field):
        p = tmp_path / "typed.json"
        p.write_text(json.dumps({**CFG, **patch}))
        code, out, err = _run(capsys, ["run", "--config", str(p)])
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {field}:")

    @pytest.mark.parametrize("command", ["run", "config-dump"])
    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"snapshot_stride": -5}, "snapshot_stride"),
            ({"K": 0}, "K"),
            ({"variant": "window", "K": 200, "T": -3}, "T"),
            ({"estimator": "bogus"}, "estimator"),
            ({"variant": "window", "K": 200, "beta": 7.0}, "beta"),
            ({"delta0_mode": "weird"}, "delta0_mode"),
            ({"problem": {"kind": "onemax", "n": 6, "k": 3}}, "k"),
            ({"problem": {"kind": "onemax", "n": 6, "weights": [1, 2]}}, "weights"),
        ],
    )
    def test_unread_key_out_of_range_is_a_config_error(self, capsys, tmp_path, command, patch, field):
        # Checked whether or not the variant (or problem kind) reads it.
        p = tmp_path / "unread.json"
        p.write_text(json.dumps({**CFG, **patch}))
        code, out, err = _run(capsys, [command, "--config", str(p)])
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {field}:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights", [[1e308, 1e308, 1.0], [1.0, -1e308, -1e308]])
    def test_weights_whose_sum_overflows_are_a_config_error(self, capsys, tmp_path, weights):
        p = tmp_path / "overflow.json"
        problem = {"kind": "weighted_linear", "n": 3, "weights": weights}
        p.write_text(json.dumps({**CFG, "variant": "window", "K": 200, "problem": problem}))
        code, out, err = _run(capsys, ["run", "--config", str(p)])
        assert code == 2 and out == ""
        assert err.startswith("config error: weights:")

    def test_unwritable_out(self, capsys, cfg_path, tmp_path):
        dest = tmp_path / "missing_dir" / "r.csv"
        code, _, err = _run(capsys, ["run", "--config", cfg_path, "--out", str(dest)])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["run", "--config"],
        ["sweep-alpha", "--alphas", "0.2,0.5", "--config"],
        ["compare", "--config"],
        ["calibrate-delta0", "--reps", "10000", "--config"],
        ["calibrate-delta0", "--reps", "10000"],
        ["config-dump", "--config"],
        ["config-dump"],
    ])
    def test_empty_out_is_a_write_error(self, capsys, tmp_path, argv):
        # An empty --out names no file: every command fails to write it,
        # and none falls back to the config's output path or to stdout.
        if argv[-1] == "--config":
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps({**CFG, "K": 100}))
            argv = argv + [str(p)]
        code, out, err = _run(capsys, argv + ["--out", ""])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write : ")

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys, cfg_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg_path, "--warp", "9"])
        assert exc.value.code == 2


def _no_runs(*args, **kwargs):
    raise AssertionError("a replicate ran before the grid was checked")


class TestSweep:
    def test_grid_from_flag(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps({**CFG, "variant": "window", "K": 150, "replicates": 2})
        )
        code, out, _ = _run(
            capsys, ["sweep-alpha", "--config", str(p), "--alphas", "0.9,0.5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# cemkit-sweep-v1"
        assert len(lines) == 2 + 2
        assert lines[2].startswith("0.9,") and lines[3].startswith("0.5,")

    def test_bad_grid(self, capsys, cfg_path):
        code, _, err = _run(
            capsys, ["sweep-alpha", "--config", cfg_path, "--alphas", "abc"]
        )
        assert code == 2 and "config error:" in err

    @pytest.mark.parametrize("grid, message", [
        ("0.5,nan", "alphas: every entry must be in (0,1], got nan"),
        ("", "alphas: must be non-empty when given"),
    ])
    def test_grid_checked_as_alphas(self, capsys, monkeypatch, cfg_path, grid, message):
        # A --alphas grid gets the config's `alphas` check, which names
        # the grid, before any replicate runs.
        monkeypatch.setattr(harness, "run_experiment", _no_runs)
        code, out, err = _run(capsys, ["sweep-alpha", "--config", cfg_path, "--alphas", grid])
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    def test_underflowed_phi1(self, capsys, tmp_path):
        # 2^-1100 underflows to 0.0, so the bound column is exactly 1.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            **CFG, "problem": {"kind": "onemax", "n": 1100},
            "variant": "window", "K": 100, "replicates": 1,
        }))
        code, out, err = _run(
            capsys, ["sweep-alpha", "--config", str(p), "--alphas", "0.5", "--format", "json"]
        )
        assert code == 0 and err == ""
        assert [row["miss_bound"] for row in json.loads(out)["rows"]] == [1.0]


class TestCompare:
    def test_budget_mismatch(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**CFG, "K": 999}))
        code, _, err = _run(capsys, ["compare", "--config", str(p)])
        assert code == 2 and err.startswith("config error: K:")

    def test_three_rows(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**CFG, "K": 100}))
        code, out, _ = _run(capsys, ["compare", "--config", str(p)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# cemkit-compare-v1"
        assert [ln.split(",")[0] for ln in lines[2:]] == [
            "batch", "window", "memoryless",
        ]


    def test_objective_built_once(self, capsys, tmp_path, monkeypatch):
        # Parse-time validation and the run share one cached objective.
        built = []
        make = harness.make_objective
        monkeypatch.setattr(harness, "make_objective", lambda spec: built.append(spec) or make(spec))
        harness._cached_objective.cache_clear()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**CFG, "K": 100}))
        code, _, _ = _run(capsys, ["compare", "--config", str(p)])
        harness._cached_objective.cache_clear()
        assert code == 0
        assert len(built) == 1


class TestCalibrate:
    def test_csv_keys(self, capsys):
        code, out, _ = _run(capsys, ["calibrate-delta0", "--reps", "10000"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# cemkit-calibration-v1"
        assert lines[1] == "key,value"
        keys = [ln.split(",")[0] for ln in lines[2:]]
        assert keys == sorted(keys)
        for want in (
            "N", "rho", "reps", "seed",
            "delta0_gauss_nominal", "delta0_gauss_calibrated",
            "delta0_gauss_empirical", "nominal_over_empirical",
            "uniform01.mean_gap", "uniform01.model_gap", "uniform01.ratio",
            "normal01.mean_absdiff", "normal01.se_gap",
        ):
            assert want in keys, want

    def test_json_ratio_near_four(self, capsys):
        code, out, _ = _run(
            capsys, ["calibrate-delta0", "--reps", "20000", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "cemkit-calibration-v1"
        # The closed form overshoots real normal spacings by about 4x.
        assert 3.8 < data["nominal_over_empirical"] < 4.6
        calibrated = data["delta0_gauss_calibrated"] / data["delta0_gauss_empirical"]
        assert 0.9 < calibrated < 1.15

    def test_config_supplies_population(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**CFG, "rho": 0.2}))
        code, out, _ = _run(
            capsys,
            [
                "calibrate-delta0", "--config", str(p),
                "--reps", "10000", "--format", "json",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 20 and data["rho"] == 0.2
        # The config's base_seed is the default seed; --seed overrides it.
        assert data["seed"] == CFG["base_seed"]
        code, out, _ = _run(
            capsys,
            [
                "calibrate-delta0", "--config", str(p),
                "--reps", "10000", "--format", "json", "--seed", "3",
            ],
        )
        assert code == 0 and json.loads(out)["seed"] == 3

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_jobs_is_rejected(self, capsys, jobs):
        # The calibration runs in-process; --jobs belongs to run,
        # sweep-alpha and compare only.
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate-delta0", "--reps", "10000", "--jobs", jobs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --jobs" in err

    def test_too_few_reps_is_a_config_error(self, capsys):
        code, out, err = _run(capsys, ["calibrate-delta0", "--reps", "5"])
        assert code == 2 and out == ""
        assert err.startswith("config error: reps:")

    def test_negative_seed_is_a_config_error(self, capsys):
        code, out, err = _run(capsys, ["calibrate-delta0", "--reps", "10000", "--seed", "-1"])
        assert code == 2 and out == ""
        assert err.startswith("config error: seed:")

    @pytest.mark.parametrize("n_pop, rho", [(10, 0.1), (2, 0.99)])
    def test_population_too_small_is_a_config_error(self, capsys, tmp_path, n_pop, rho):
        # N*rho = 1: the Gaussian delta0 needs 1 - rho + 1/N below 1.
        # ceil(rho*N) = N: no value ranks below the elite boundary.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**CFG, "N": n_pop, "rho": rho}))
        code, out, err = _run(
            capsys, ["calibrate-delta0", "--config", str(p), "--reps", "10000"]
        )
        assert code == 2 and out == ""
        assert err.startswith("config error: N:")


class TestConfigDump:
    def test_default_dump(self, capsys):
        code, out, _ = _run(capsys, ["config-dump"])
        assert code == 0
        data = json.loads(out)
        assert data["problem"]["kind"] == "onemax"
        assert data["variant"] == "batch"

    def test_default_dump_bytes(self, capsys):
        # Byte-frozen: every top-level key even when null, the nested
        # output block, and only the set keys of the problem block.
        expect = """{
  "K": 5000,
  "N": 100,
  "T": 50,
  "alpha": 0.7,
  "alphas": null,
  "base_seed": 12345,
  "beta": 0.1,
  "delta0": null,
  "delta0_mode": "nominal",
  "delta_init": 0.0,
  "delta_min": 0.0,
  "eps_binary": 0.001,
  "eps_conv": null,
  "estimator": "gauss_model",
  "gamma0": null,
  "jobs": 1,
  "output": {
    "format": "csv",
    "path": null
  },
  "problem": {
    "kind": "onemax",
    "n": 20
  },
  "replicates": 100,
  "rho": 0.1,
  "snapshot_stride": null,
  "variant": "batch"
}
"""
        code, out, _ = _run(capsys, ["config-dump"])
        assert code == 0 and out == expect

    def test_round_trip(self, capsys, cfg_path, tmp_path):
        code, out, _ = _run(capsys, ["config-dump", "--config", cfg_path])
        assert code == 0
        p = tmp_path / "echo.json"
        p.write_text(out)
        code2, out2, _ = _run(capsys, ["config-dump", "--config", str(p)])
        assert code2 == 0 and out2 == out


def _pinned_env():
    """Child environment that imports the cemkit under test, not another one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cemkit.__file__).resolve().parent.parent)
    return env


def _declared_script():
    """The ``cemkit`` target declared under ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "cemkit" in scripts, f"no cemkit entry under [project.scripts] in {PYPROJECT}"
    return scripts["cemkit"]


def _run_entry_point(spec, argv, cwd):
    """Run ``module:attr`` the way pip's generated console-script wrapper does."""
    module, _, attr = spec.partition(":")
    code = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, env=_pinned_env(), cwd=cwd, timeout=120,
    )


def _installed_dist():
    try:
        return importlib.metadata.distribution("cemkit")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_script_installed(capsys, cfg_path, tmp_path):
    spec = _declared_script()
    assert spec == "cemkit.cli:main"
    argv = ["run", "--config", cfg_path]
    proc = _run_entry_point(spec, argv, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    code, expected, _ = _run(capsys, argv)
    assert code == 0
    assert proc.stdout == expected.encode()


@pytest.mark.skipif(
    _installed_dist() is None, reason="cemkit distribution is not installed"
)
def test_console_script_on_path(cfg_path, tmp_path):
    spec = _declared_script()
    installed = [
        ep.value for ep in _installed_dist().entry_points
        if ep.group == "console_scripts" and ep.name == "cemkit"
    ]
    assert installed == [spec]
    exe = shutil.which("cemkit")
    assert exe is not None, "cemkit is installed but no cemkit executable is on PATH"
    argv = ["run", "--config", cfg_path]
    proc = subprocess.run(
        [exe, *argv], capture_output=True, env=_pinned_env(), cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == _run_entry_point(spec, argv, tmp_path).stdout


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cemkit", "config-dump"],
        capture_output=True, text=True, env=_pinned_env(), cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
