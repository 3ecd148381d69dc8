"""Command-line interface tests: config handling, artifacts, manifests,
error paths, and sweep aggregation.  Short horizons keep these fast; the
physics itself is graded elsewhere.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffesc
from diffesc.cli import (EXIT_FAILURE, EXIT_OK, EXIT_USAGE, SWEEP_PARAMS, RunPlan, _file_sha256,
                         _parse_ini, _resolve_config, _sweep_member, main)
from diffesc.heat import MAX_NODES, SCHEMES, SolverConfig
from diffesc.loop import ScenarioConfig

SHORT_ESC = """
[scenario]
kind = esc
duration = {duration}
record_every = 10
snapshot_every = {snapshot}

[map]
y_star = 5.0
theta_star = 2.0
curvature = -2.0

[dither]
amplitude = {amplitude}
frequency = 10.0

[gains]
K = {K}
corner = 10.0

[actuator]
length = 1.0
nodes = 51
dt = 0.001
scheme = {scheme}
diffusion = {diffusion}
"""


def write_cfg(tmp_path, name="run.cfg", duration=2.0, amplitude=0.2, snapshot=0,
              scheme="crank_nicolson", diffusion=1.0, extra="", K=0.2):
    path = tmp_path / name
    text = SHORT_ESC.format(duration=duration, amplitude=amplitude, snapshot=snapshot,
                            scheme=scheme, diffusion=diffusion, K=K)
    path.write_text(text + extra)
    return path


class TestDesignDither:
    def test_prints_constants_and_table(self, capsys):
        assert main(["design-dither", "--a", "0.2", "--omega", "10", "--L", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "A   = 0.134816" in out
        assert "phi = -1.439606" in out
        assert "a*sin(wt)" in out
        assert "B   =" not in out and "psi" not in out

    def test_amplitude_doubles_phase_fixed(self, capsys):
        main(["design-dither", "--a", "0.2", "--omega", "10", "--L", "1"])
        first = capsys.readouterr().out
        main(["design-dither", "--a", "0.4", "--omega", "10", "--L", "1"])
        second = capsys.readouterr().out

        def grab(text, key):
            line = next(l for l in text.splitlines() if l.startswith(key))
            return float(line.split("=")[1].split()[0])

        assert grab(second, "A") == pytest.approx(2 * grab(first, "A"), abs=5e-6)
        assert grab(second, "phi") == grab(first, "phi")

    def test_rejects_nonpositive(self, capsys):
        assert main(["design-dither", "--a", "-0.2", "--omega", "10", "--L", "1"]) == EXIT_USAGE
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--a", "--omega", "--L"])
    def test_rejects_nan(self, capsys, flag):
        args = {"--a": "0.2", "--omega": "10", "--L": "1", flag: "nan"}
        assert main(["design-dither", *[x for kv in args.items() for x in kv]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "positive" in err and "nan" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_rejects_fewer_than_one_sample(self, capsys, samples):
        argv = ["design-dither", "--a", "0.2", "--omega", "10", "--L", "1", "--samples", samples]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"--samples must be at least 1, got {samples}" in captured.err
        assert captured.out == ""

    def test_one_sample_prints_one_row(self, capsys):
        argv = ["design-dither", "--a", "0.2", "--omega", "10", "--L", "1", "--samples", "1"]
        assert main(argv) == EXIT_OK
        table = capsys.readouterr().out.split("a*sin(wt)")[1].split("max |integral")[0]
        assert len(table.split()) == 1 + 4      # the header's last word, then one row

    def test_rejects_overflowing_design(self, capsys):
        # L*sqrt(2*omega) = 894 overflows the exponential of the probe design
        assert main(["design-dither", "--a", "0.2", "--omega", "10", "--L", "200"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "L = 200" in err and "omega = 10" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--omega", "1e-100"), ("--L", "1e-200")])
    def test_vanishing_q_prints_a_finite_design(self, capsys, flag, value):
        # q = L*sqrt(omega/2) far below the cancellation of the two travelling phasors
        args = {"--a": "0.2", "--omega": "10", "--L": "1", flag: value}
        assert main(["design-dither", *[x for kv in args.items() for x in kv]]) == EXIT_OK
        A = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert math.isfinite(A) and A == pytest.approx(0.2 / float(args["--L"]), rel=1e-6)

    @pytest.mark.parametrize("omega, L, message", [("1e-320", "1", "period"),
                                                   ("10", "1e-320", "dither overflows")])
    def test_design_beyond_the_float_range_is_usage_error(self, capsys, omega, L, message):
        assert main(["design-dither", "--a", "0.2", "--omega", omega, "--L", L]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_reader_closing_early_ends_quietly(self, unbuffered):
        # as `diffesc design-dither ... | head -1`: the table is far larger than the
        # pipe's buffer, so the writer meets the closed pipe mid-table
        env = {**os.environ, "PYTHONPATH": str(Path(diffesc.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        code = "import sys; from diffesc.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "design-dither", "--a", "0.2", "--omega", "10",
             "--L", "1", "--samples", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().startswith(b"A   = 0.134816")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (EXIT_OK, b"")


FREEZE_PROBE = """
import contextlib, gc, io, json
state = lambda: [gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()]
before = state()
import diffesc, diffesc.cli
imported = state()
args = ["design-dither", "--a", "0.2", "--omega", "10", "--L", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [diffesc.cli.main(args)]
    first = state()
    kept = [[] for _ in range(1000)]     # a second freeze would add these
    codes.append(diffesc.cli.main(args))
print(json.dumps([before, imported, first, state(), codes]))
"""


class TestGcFreeze:
    def test_main_freezes_the_imported_heap_once_and_import_does_not(self):
        # in a subprocess: the first main() call would freeze the pytest process's heap
        env = {**os.environ, "PYTHONPATH": str(Path(diffesc.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-c", FREEZE_PROBE], capture_output=True,
                             text=True, check=True, env=env)
        before, imported, first, second, codes = json.loads(res.stdout.splitlines()[-1])
        assert codes == [EXIT_OK, EXIT_OK]
        assert before[0] == 0 and imported == before        # importing leaves the GC alone
        assert first[0] > 0 and first[1:] == before[1:]     # frozen, still enabled
        # only the first call freezes; frozen objects can still be freed, which lowers
        # the count, but a second freeze would add the 1000 lists kept between the calls
        assert second[0] <= first[0] and second[1:] == first[1:]


class TestRun:
    def test_empty_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "empty" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["run", "--config", "no_such_thing", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_forbidden_gain_rejected_with_message(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra=f"\n[average]\nK_bar = {-math.pi**2/4!r}\n")
        # force the average path to read K_bar by making it an average scenario
        text = cfg.read_text().replace("kind = esc", "kind = average")
        cfg.write_text(text)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert "singular value" in capsys.readouterr().err

    def test_esc_run_writes_artifacts_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, snapshot=200)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("trajectory.csv", "field.csv", "report.txt", "manifest.json",
                     "output.svg", "control.svg", "input.svg", "dither.svg", "field.svg"):
            assert (out / name).is_file(), name
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {f["name"] for f in manifest["files"]}
        actual = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert listed == actual
        assert not (out / ".failed").exists()

    def test_run_with_snapshots_loads_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma lazily (~15 ms cold); no artifact writer needs it
        cfg = write_cfg(tmp_path, duration=1.0, snapshot=100)
        out = tmp_path / "out"
        probe = ("import sys; from diffesc.cli import main; "
                 f"code = main(['run', '--config', {str(cfg)!r}, '--out', {str(out)!r}]); "
                 "print(code, 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(diffesc.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=env)
        assert res.stdout.splitlines()[-1] == f"{EXIT_OK} False"
        assert (out / "field.svg").is_file() and (out / "field.csv").is_file()

    @pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                        reason="no built-in SHA-256 module: hashlib is the only digest")
    def test_run_loads_neither_openssl_nor_cmath(self, tmp_path):
        # _hashlib maps OpenSSL's libcrypto (~3.6 MiB resident) and cmath adds ~0.3 MiB
        # to every command's peak memory; neither is needed
        cfg = write_cfg(tmp_path, duration=1.0, snapshot=100)
        out = tmp_path / "out"
        probe = ("import sys; from diffesc.cli import main; "
                 f"code = main(['run', '--config', {str(cfg)!r}, '--out', {str(out)!r}]); "
                 "print(code, [m for m in ('_hashlib', 'cmath') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(diffesc.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=env)
        assert res.stdout.splitlines()[-1] == f"{EXIT_OK} []"
        assert (out / "manifest.json").is_file() and (out / "field.svg").is_file()

    def test_no_command_calls_lapack(self, tmp_path, monkeypatch):
        # the first LAPACK call of a process costs ~1 MiB of resident memory; the
        # decay and scaling fits are closed-form lines
        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np, "polyfit", lapack)
        monkeypatch.setattr(np.linalg, "lstsq", lapack)
        cfg = tmp_path / "avg.cfg"
        cfg.write_text(_resolve_config("average_system").read_text()
                       .replace("duration = 20.0", "duration = 2.0"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "avg")]) == EXIT_OK
        assert "fit_degenerate: False" in (tmp_path / "avg" / "report.txt").read_text()
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_cfg(tmp_path)), "--param", "a",
                     "--values", "0.2,0.25,0.3", "--out", str(out)]) == EXIT_OK
        assert "scaling_inconclusive: False" in (out / "sweep_report.txt").read_text()

    def test_rerun_reproduces_identical_checksums(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        m1 = json.loads((out1 / "manifest.json").read_text())["files"]
        m2 = json.loads((out2 / "manifest.json").read_text())["files"]
        assert m1 == m2

    def test_nonunit_diffusion_rejected_for_esc(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, diffusion=0.5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "diffusion" in capsys.readouterr().err

    def test_runtime_failure_writes_failed_marker(self, tmp_path):
        # an admissible but far too large adaptation gain diverges inside
        # the run (t = 0.285 s), after the output directory exists
        cfg = write_cfg(tmp_path, K=5.0)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_FAILURE
        assert (out / ".failed").is_file()
        assert "non-finite" in (out / ".failed").read_text()

    def test_unstable_explicit_step_rejected_before_run(self, tmp_path, capsys):
        # dt = 1e-3 is five times the explicit bound dx^2/2 = 2e-4 at 51 nodes
        cfg = write_cfg(tmp_path, scheme="explicit_euler")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "unstable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("corner = 10.0", "corner = -1"),
        ("duration = 2.0", "duration = nan"),
        ("y_star = 5.0", "y_star = nan"),
        ("record_every = 10", "record_every = 0"),
        ("corner = 10.0", "corner = 10.0\nwashout_corner = -1"),
    ])
    def test_invalid_value_is_usage_error_before_run(self, tmp_path, capsys, old, new):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not (out / ".failed").exists()

    def test_average_run_artifacts(self, tmp_path):
        assert main(["run", "--config", "average_system", "--out", str(tmp_path / "avg")]) == EXIT_OK
        report = (tmp_path / "avg" / "report.txt").read_text()
        assert "fitted_decay_rate" in report
        rate = float(next(l for l in report.splitlines()
                          if l.startswith("fitted_decay_rate")).split(":")[1])
        assert rate > 0.5

    def test_gain_probe_reports_growth(self, tmp_path):
        assert main(["run", "--config", "gain_probe", "--out", str(tmp_path / "probe")]) == EXIT_OK
        report = (tmp_path / "probe" / "report.txt").read_text()
        rate = float(next(l for l in report.splitlines()
                          if l.startswith("fitted_decay_rate")).split(":")[1])
        assert rate < 0.0


class TestRunValidation:
    def test_negative_standard_gain_is_usage_error_before_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("kind = esc", "kind = standard")
                       .replace("K = 0.2", "K = -0.1"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "adaptation gain" in capsys.readouterr().err
        assert not out.exists()

    def test_sub_demodulation_amplitude_is_usage_error_before_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, amplitude=1e-10)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "demodulation" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_initial_estimate_is_usage_error_before_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra="initial_theta_hat = nan\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "initial input estimate" in capsys.readouterr().err
        assert not out.exists()

    def test_length_that_overflows_the_probe_design_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("length = 1.0", "length = 200"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "L = 200" in err and "omega = 10" in err
        assert not out.exists()

    @pytest.mark.parametrize("length", ["100", "150"])
    def test_long_domain_on_default_grid_is_usage_error(self, tmp_path, capsys, length):
        # 101 nodes put k*dx = sqrt(omega/2)*dx at 2.24 and 3.35, where the run
        # would diverge mid-run (exit 1) if validation let it start
        cfg = tmp_path / "long.cfg"
        cfg.write_text(_resolve_config("baseline").read_text()
                       .replace("length = 1.0", f"length = {length}"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"L = {length}" in err and "nodes = 101" in err and "k*dx" in err
        assert not out.exists()

    def test_resolution_bound_sits_between_three_and_four_nodes(self, tmp_path, capsys):
        # omega = 10, L = 1: k*dx = 1.12 at 3 nodes, 0.745 at 4
        cfg = write_cfg(tmp_path, duration=1.0)
        cfg.write_text(cfg.read_text().replace("nodes = 51", "nodes = 3"))
        out = tmp_path / "o3"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "k*dx = sqrt(omega/2)*dx = 1.12 > 0.75; use nodes >= 4" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(cfg.read_text().replace("nodes = 3", "nodes = 4"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o4")]) == EXIT_OK

    @pytest.mark.parametrize("nodes", [MAX_NODES + 1, 20001])
    def test_grid_beyond_the_node_cap_is_usage_error_before_run(self, tmp_path, capsys, nodes):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("nodes = 51", f"nodes = {nodes}"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"nodes = {nodes} exceeds the cap of {MAX_NODES}" in err and "FFT" in err
        assert not out.exists()

    def test_diverging_standard_run_fails_with_marker(self, tmp_path, capsys):
        cfg = tmp_path / "std.cfg"
        cfg.write_text(_resolve_config("standard_esc").read_text()
                       .replace("K = 0.2", "K = 1000").replace("duration = 40.0", "duration = 1.0"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_FAILURE
        assert "non-finite signal" in capsys.readouterr().err
        assert "Theta=" in (out / ".failed").read_text()
        assert not (out / "manifest.json").exists()

    def test_unknown_boolean_word_is_usage_error(self, tmp_path, capsys):
        text = (_resolve_config("average_system").read_text()
                .replace("allow_unstable = false", "allow_unstable = tru")
                .replace("duration = 20.0", "duration = 1.0"))
        cfg = tmp_path / "avg.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "[average] allow_unstable: 'tru'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_initial_average_error_is_usage_error_before_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra="\n[average]\ninitial_vartheta = inf\n")
        cfg.write_text(cfg.read_text().replace("kind = esc", "kind = average"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "initial_vartheta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["average", "standard"])
    def test_nonunit_diffusion_is_usage_error_for_every_kind(self, tmp_path, capsys, kind):
        cfg = write_cfg(tmp_path, diffusion=0.5)
        cfg.write_text(cfg.read_text().replace("kind = esc", f"kind = {kind}"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "diffusion" in capsys.readouterr().err
        assert not out.exists()


def test_standard_run_starts_at_configured_estimate(tmp_path):
    cfg = write_cfg(tmp_path, extra="initial_theta_hat = 1.9\n")
    cfg.write_text(cfg.read_text().replace("kind = esc", "kind = standard"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert first["Theta"] == 1.9


class TestGainContract:
    """The compensator gain is K*H, checked before the run for every kind."""

    def test_average_gain_override_rejected_for_esc(self, tmp_path, capsys):
        # K*H = -pi^2/4 is the first singular value; the override never
        # reaches the esc loop, so it must not hide that
        text = (_resolve_config("baseline").read_text()
                .replace("K = 0.2", "K = 1.2337005501361697")
                .replace("duration = 100.0", "duration = 1.0"))
        cfg = tmp_path / "found.cfg"
        cfg.write_text(text + "\n[average]\nK_bar = -0.4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "K_bar" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("keys", [
        "initial_vartheta = inf",                           # used to exit 2 over this value
        "allow_unstable = true\ninitial_vartheta = 3",      # used to run, both ignored
    ])
    def test_average_keys_rejected_for_standard(self, tmp_path, capsys, keys):
        cfg = write_cfg(tmp_path, extra=f"\n[average]\n{keys}\n")
        cfg.write_text(cfg.read_text().replace("kind = esc", "kind = standard"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'standard'" in err
        assert all(line.split(" = ")[0] in err for line in keys.splitlines())
        assert not out.exists()

    def test_average_override_does_not_exempt_the_design_gain(self, tmp_path, capsys):
        # the bundled average_system with K*H = -pi^2/4 and K_bar = -0.4: the run
        # would use -0.4, but validation checks the config's K*H and names it
        text = (_resolve_config("average_system").read_text()
                .replace("K = 0.2", "K = 1.2337005501361697")
                .replace("allow_unstable = false", "allow_unstable = false\nK_bar = -0.4"))
        assert "K_bar = -0.4" in text and "K = 1.2337005501361697" in text
        cfg = tmp_path / "override.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "K*H" in capsys.readouterr().err
        assert not out.exists()

    def test_standard_run_on_singular_gain_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("kind = esc", "kind = standard")
                       .replace("K = 0.2", f"K = {math.pi**2 / 8!r}"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "singular value" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_gain_beyond_kappa_100_is_usage_error(self, tmp_path, capsys):
        # K*H = -301^2*pi^2/4 is the singular value at kappa = 150
        cfg = write_cfg(tmp_path, K=301**2 * math.pi**2 / 8.0)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "singular value" in capsys.readouterr().err
        assert not out.exists()

    def test_length_whose_cube_overflows_is_usage_error(self, tmp_path, capsys):
        # L**3 overflows a float: the gain check rejects it rather than raising mid-check
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("length = 1.0", "length = 1e103"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("length = 1.0", "length = 1e-120", "L^3 underflows"),
        ("amplitude = 0.2", "amplitude = 1e200", "a^2 overflows"),
        ("dt = 0.001", "dt = 1e-320", "step count"),
        ("frequency = 10.0", "frequency = 1e-320", "period"),
        ("corner = 10.0", "corner = 10.0\nwahsout_corner = 5.0",
         "unknown config key [gains] wahsout_corner"),
        ("[map]", "[mapp]\ny_star = 5.0\n\n[map]", "unknown config section [mapp]"),
    ])
    def test_extreme_or_unknown_input_is_usage_error_before_run(self, tmp_path, capsys, old,
                                                               new, message):
        # the extremes used to raise ZeroDivisionError or OverflowError after validation;
        # the misspelled key used to run silently with the default washout corner
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_keys_are_matched_without_case(self, tmp_path):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("K = 0.2", "k = 0.3")
                       .replace("corner = 10.0", "corner = 10.0\nWashout_Corner = 2.0"))
        plan = RunPlan(_parse_ini(cfg))
        assert (plan.config.washout_corner, plan.config.K) == (2.0, 0.3)

    def test_singular_override_is_usage_error_under_allow_unstable(self, tmp_path, capsys):
        # allow_unstable skips only the sign gate; the kernel normalization
        # still vanishes at K_bar = -pi^2/4
        text = (_resolve_config("gain_probe").read_text()
                .replace("K_bar = 0.4", f"K_bar = {-math.pi**2 / 4.0!r}")
                .replace("duration = 20.0", "duration = 1.0"))
        cfg = tmp_path / "probe.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "singular value" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_adaptation_runs_without_gain_check(self, tmp_path):
        cfg = write_cfg(tmp_path, extra="initial_theta_hat = 0.5\n")
        cfg.write_text(cfg.read_text().replace("K = 0.2", "K = 0"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        col = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(col, map(float, line.split(","))))
            assert abs(row["theta"] - row["S"] - 0.5) <= 1e-9

    def test_average_report_gives_the_gain_it_ran(self, tmp_path):
        cfg = write_cfg(tmp_path, duration=1.0, extra="\n[average]\nK_bar = -0.7\n")
        cfg.write_text(cfg.read_text().replace("kind = esc", "kind = average"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "compensator_gain: -0.7" in (out / "report.txt").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_average_run_diverges_with_marker(self, tmp_path, capsys):
        # the energy leaves the float range at the record step 30: a divergence named
        # there, not an OverflowError, and no NumPy overflow warning on stderr
        cfg = tmp_path / "avg.cfg"
        cfg.write_text(_resolve_config("average_system").read_text().replace("K = 0.2", "K = 1e10")
                       .replace("duration = 20.0", "duration = 0.05")
                       .replace("nodes = 101", "nodes = 21"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_FAILURE
        assert "non-finite energy at step 30" in capsys.readouterr().err
        assert (out / ".failed").read_text().startswith("SimulationDiverged: ")

    @pytest.mark.parametrize("old, new", [("duration = 20.0", "duration = 1e-10"),
                                          ("dt = 0.001", "dt = 1e10")])
    def test_average_run_of_one_sample_reports_a_degenerate_fit(self, tmp_path, old, new):
        cfg = tmp_path / "avg.cfg"
        cfg.write_text(_resolve_config("average_system").read_text().replace(old, new))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len((out / "average.csv").read_text().splitlines()) == 2
        assert "fit_degenerate: True" in (out / "report.txt").read_text()
        assert manifest_names(out) == {"average.csv", "error.svg", "norm.svg", "report.txt"}


BUNDLED = ("baseline", "average_system", "standard_esc", "amplitude_sweep", "gain_probe")


def test_bundled_names_are_the_help_names_and_files(capsys):
    assert main(["run", "--help"]) == EXIT_OK
    help_text = capsys.readouterr().out
    for name in BUNDLED:
        assert name in help_text
        assert _resolve_config(name).name == f"{name}.cfg"
    assert {p.stem for p in _resolve_config("baseline").parent.glob("*.cfg")} == set(BUNDLED)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_config_parses_and_validates(name):
    plan = RunPlan(_parse_ini(_resolve_config(name)))
    plan.validate()
    assert plan.kind in ("esc", "average", "standard")
    assert plan.config.T_final > 0.0


def manifest_names(out):
    return {f["name"] for f in json.loads((out / "manifest.json").read_text())["files"]}


def residual_keys(sweep_out):
    """The ``residuals_*`` keys of a sweep report, in the report's order."""
    lines = (sweep_out / "sweep_report.txt").read_text().splitlines()
    return [line.partition(":")[0] for line in lines if line.startswith("residuals_")]


class TestRunDirectory:
    def test_rerun_without_snapshots_lists_no_field_files(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_cfg(tmp_path, snapshot=200)),
                     "--out", str(out)]) == EXIT_OK
        assert {"field.csv", "field.svg"} <= manifest_names(out)
        assert main(["run", "--config", str(write_cfg(tmp_path, name="plain.cfg")),
                     "--out", str(out)]) == EXIT_OK
        assert not {"field.csv", "field.svg"} & manifest_names(out)
        assert (out / "field.csv").is_file()  # left alone, just not listed

    def test_manifest_digests_are_sha256_of_the_files(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_cfg(tmp_path, snapshot=200)),
                     "--out", str(out)]) == EXIT_OK
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert len(files) == 8
        for entry in files:
            data = (out / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest(), entry["name"]

    @pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 200_000])
    def test_file_digest_across_block_boundaries(self, tmp_path, size):
        # files are hashed in 64 KiB blocks
        data = os.urandom(size)
        (tmp_path / "f").write_bytes(data)
        assert _file_sha256(tmp_path / "f") == hashlib.sha256(data).hexdigest()

    def test_foreign_file_neither_listed_nor_deleted(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == EXIT_OK
        assert "notes.txt" not in manifest_names(out)
        assert "trajectory.csv" in manifest_names(out)
        assert (out / "notes.txt").read_text() == "keep me\n"

    def test_successful_rerun_clears_failed_marker(self, tmp_path):
        out = tmp_path / "o"
        bad = write_cfg(tmp_path, name="bad.cfg", K=5.0)
        assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_FAILURE
        assert (out / ".failed").is_file()
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == EXIT_OK
        assert not (out / ".failed").exists()
        assert ".failed" not in manifest_names(out)

    def test_failed_run_drops_stale_manifest(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == EXIT_OK
        bad = write_cfg(tmp_path, name="bad.cfg", K=5.0)
        assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_FAILURE
        assert (out / ".failed").is_file()
        assert not (out / "manifest.json").exists()


class TestSweep:
    def test_single_value_marked_inconclusive(self, tmp_path):
        cfg = write_cfg(tmp_path, duration=2.0)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg), "--param", "a",
                   "--values", "0.2", "--out", str(out)])
        assert rc == EXIT_OK
        report = (out / "sweep_report.txt").read_text()
        assert "scaling_inconclusive: True" in report

    def test_bad_parameter_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--param", "c",
                   "--values", "1,2,3", "--out", str(tmp_path / "s")])
        assert rc == EXIT_USAGE

    def test_gain_sweep_isolates_forbidden_runs(self, tmp_path):
        # K = pi^2/8 makes the derived compensator gain land on a singular
        # value; that run must fail while the others complete
        cfg = write_cfg(tmp_path, duration=2.0)
        out = tmp_path / "gain_sweep"
        bad_K = math.pi**2 / 8.0
        rc = main(["sweep", "--config", str(cfg), "--param", "K",
                   "--values", f"0.2,{bad_K!r}", "--out", str(out)])
        assert rc == EXIT_OK
        report = (out / "sweep_report.txt").read_text()
        assert "values_completed: 0.2" in report
        assert "values_failed: " in report and "none" not in report.split("values_failed:")[1].splitlines()[0]
        assert (out / "K_0.2" / "trajectory.csv").is_file()

    def test_overflowing_frequency_fails_only_its_member(self, tmp_path):
        # at L = 1, omega = 3e5 puts L*sqrt(2*omega) = 775 beyond the exponent
        # the probe design can take; validation rejects it before its run
        cfg = write_cfg(tmp_path, duration=1.0)
        out = tmp_path / "omega"
        rc = main(["sweep", "--config", str(cfg), "--param", "omega",
                   "--values", "10,3e5", "--out", str(out)])
        assert rc == EXIT_OK
        report = (out / "sweep_report.txt").read_text()
        assert "values_completed: 10\n" in report
        assert "values_failed: 300000\n" in report
        assert "failure_300000: ValueError: " in report and "omega = 300000" in report
        assert (out / "omega_10" / "trajectory.csv").is_file()
        assert not (out / "omega_300000").exists()

    def test_unresolved_frequency_fails_only_its_member(self, tmp_path):
        # at 51 nodes on L = 1, omega = 5000 puts k*dx = sqrt(omega/2)*dx at 1.0
        cfg = write_cfg(tmp_path, duration=1.0)
        out = tmp_path / "omega"
        rc = main(["sweep", "--config", str(cfg), "--param", "omega",
                   "--values", "10,5000", "--out", str(out)])
        assert rc == EXIT_OK
        report = (out / "sweep_report.txt").read_text()
        assert "values_completed: 10\n" in report
        assert "values_failed: 5000\n" in report
        assert "failure_5000: ValueError: grid too coarse" in report
        assert (out / "omega_10" / "trajectory.csv").is_file()
        assert not (out / "omega_5000").exists()

    def test_all_members_invalid_is_usage_error_before_any_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra="initial_theta_hat = nan\n")
        out = tmp_path / "nan"
        rc = main(["sweep", "--config", str(cfg), "--param", "a",
                   "--values", "0.1,0.2", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "initial input estimate" in capsys.readouterr().err
        assert not out.exists()

    def test_values_printing_alike_rejected_before_any_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "dup"
        rc = main(["sweep", "--config", str(cfg), "--param", "a",
                   "--values", "0.1,0.1000001", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "%g" in capsys.readouterr().err
        assert not out.exists()

    def test_amplitude_sweep_aggregates(self, tmp_path):
        cfg = write_cfg(tmp_path, duration=4.0)
        out = tmp_path / "amp"
        rc = main(["sweep", "--config", str(cfg), "--param", "a",
                   "--values", "0.2,0.1,0.05", "--out", str(out)])
        assert rc == EXIT_OK
        report = (out / "sweep_report.txt").read_text()
        assert "output_residual_exponent" in report
        for a in ("0.2", "0.1", "0.05"):
            assert (out / f"a_{a}" / "manifest.json").is_file()


    def test_member_failing_mid_run_leaves_failed_marker(self, tmp_path):
        cfg = write_cfg(tmp_path, K=5.0)
        out = tmp_path / "unstable"
        rc = main(["sweep", "--config", str(cfg), "--param", "a",
                   "--values", "0.2,0.1", "--out", str(out)])
        assert rc == EXIT_FAILURE
        for a in ("0.2", "0.1"):
            assert "non-finite" in (out / f"a_{a}" / ".failed").read_text()
            assert not (out / f"a_{a}" / "manifest.json").exists()
        # the scaling fit runs on no completed member and says why it is inconclusive
        report = (out / "sweep_report.txt").read_text()
        assert "values_completed: \nvalues_failed: 0.1,0.2\n" in report
        assert "output_residual_exponent: nan\n" in report
        assert "scaling_inconclusive: True\nscaling_note: need at least 3 completed runs\n" in report

    @pytest.mark.parametrize("param", SWEEP_PARAMS)
    def test_member_lists_only_its_trajectory(self, tmp_path, param):
        # and the report lists each completed value's residuals, in ascending order,
        # for every parameter: a 2-value amplitude sweep too
        low, high = {"a": ("0.1", "0.2"), "omega": ("10", "20"), "K": ("0.1", "0.2")}[param]
        cfg = write_cfg(tmp_path, snapshot=200)
        out = tmp_path / param
        rc = main(["sweep", "--config", str(cfg), "--param", param,
                   "--values", f"{high},{low}", "--out", str(out)])
        assert rc == EXIT_OK
        for v in (low, high):
            assert {p.name for p in (out / f"{param}_{v}").iterdir()} == {
                "trajectory.csv", "manifest.json"}
            assert manifest_names(out / f"{param}_{v}") == {"trajectory.csv"}
        assert residual_keys(out) == [f"residuals_{param}_{low}", f"residuals_{param}_{high}"]

    def test_zero_amplitude_member_makes_the_fit_inconclusive(self, tmp_path, capfd):
        # a = 0 runs without excitation; the fit names it instead of taking log(0),
        # and nothing (no LAPACK message either) reaches stderr
        out = tmp_path / "amp"
        with pytest.warns(RuntimeWarning) as caught:
            rc = main(["sweep", "--config", str(write_cfg(tmp_path)), "--param", "a",
                       "--values", "0,0.1,0.2", "--out", str(out)])
        assert rc == EXIT_OK
        assert [str(w.message) for w in caught] == [
            "dither amplitude is zero: the loop cannot estimate gradients without excitation"]
        report = (out / "sweep_report.txt").read_text()
        assert ("scaling_inconclusive: True\n"
                "scaling_note: amplitude 0 is not positive: no log-log fit\n") in report
        assert residual_keys(out) == ["residuals_a_0", "residuals_a_0.1", "residuals_a_0.2"]
        assert capfd.readouterr().err == ""

    def test_output_path_that_is_a_file_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["sweep", "--config", str(write_cfg(tmp_path, duration=0.1)),
                   "--param", "a", "--values", "0.2", "--out", str(out)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_text() == ""

    def test_report_path_that_is_a_directory_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "s"
        (out / "sweep_report.txt").mkdir(parents=True)
        rc = main(["sweep", "--config", str(write_cfg(tmp_path, duration=0.1)),
                   "--param", "a", "--values", "0.2", "--out", str(out)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (out / "a_0.2" / "manifest.json").is_file()

    def test_non_esc_config_is_usage_error_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "avg"
        rc = main(["sweep", "--config", "average_system", "--param", "a",
                   "--values", "0.2,0.1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "esc" in capsys.readouterr().err
        assert not out.exists()


MINIMAL_ESC = """
[scenario]
kind = esc
duration = 1.0
[map]
y_star = 5.0
theta_star = 2.0
curvature = -2.0
[dither]
amplitude = 0.2
frequency = 10.0
[gains]
K = 0.2
[actuator]
length = 1.0
dt = 0.001
"""


def test_unset_keys_take_the_defaults_of_the_types_that_own_them(tmp_path):
    cfg = tmp_path / "minimal.cfg"
    cfg.write_text(MINIMAL_ESC)
    config = RunPlan(_parse_ini(cfg)).config
    for owner, values in ((ScenarioConfig, config), (SolverConfig, config.solver)):
        assert owner._field_defaults
        for field, default in owner._field_defaults.items():
            assert getattr(values, field) == default, field


@pytest.mark.parametrize("param", SWEEP_PARAMS)
def test_a_sweep_member_differs_from_its_base_in_the_swept_field_only(tmp_path, param):
    value = {"a": 0.1, "omega": 20.0, "K": 0.1}[param]
    plan = RunPlan(_parse_ini(write_cfg(tmp_path)))
    base, member = plan.config, _sweep_member(plan, param, value).config
    changed = [f for f in base._fields if getattr(base, f) != getattr(member, f)]
    assert changed == [param] and getattr(member, param) == value


def test_usage_without_command_returns_usage_code():
    assert main([]) == EXIT_USAGE


def load_digest_script():
    spec = importlib.util.spec_from_file_location(
        "digest_runs", Path(__file__).parents[1] / "scripts" / "digest_runs.py")
    digest_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest_runs)
    return digest_runs


def test_digest_script_is_deterministic_and_skips_manifests(tmp_path):
    # scripts/digest_runs.py is how two checkouts prove byte-identical artifacts
    digest_runs = load_digest_script()
    first = digest_runs.digest(0.2, save=tmp_path / "kept")
    assert first == digest_runs.digest(0.2)
    assert {f"{name}/report.txt" for name in BUNDLED} <= set(first)
    assert {"sweep/a_0.1/trajectory.csv", "sweep/sweep_report.txt"} <= set(first)
    assert not any(path.endswith("manifest.json") for path in first)
    # --save keeps the tree it digested
    assert (tmp_path / "kept" / "baseline" / "manifest.json").is_file()
    assert set(digest_runs.compare(tmp_path / "kept", tmp_path / "kept")) == set(first)


def test_digest_script_compares_saved_trees(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, last, note, lines in ((a, "2.0", "x", "p: 1\nq: 2\n"),
                                    (b, "2.000000000001", "y", "q: 2\np: 1\n")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "trajectory.csv").write_text(f"t,y\n0,-4\n0.5,{last}\n")
        (root / "run" / "chart.svg").write_text("<svg/>")
        (root / "run" / "report.txt").write_text(note)
        (root / "run" / "sweep_report.txt").write_text(lines)
        (root / "run" / "manifest.json").write_text(str(root))
    (a / "run" / "extra.txt").write_text("")
    (b / "run" / "wide.csv").write_text("t\n1\n")
    (a / "run" / "wide.csv").write_text("t,y\n1,2\n")
    assert load_digest_script().main(["--compare", str(a), str(b)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result.pop("run/trajectory.csv") == pytest.approx(0.25e-12, rel=1e-3)
    assert result == {"run/chart.svg": "identical", "run/report.txt": "differs",
                      "run/sweep_report.txt": "reordered", "run/extra.txt": "only in A",
                      "run/wide.csv": "differs"}


# The validate-implies-run contract through `diffesc run` for kind = average: gain,
# curvature, compensator override and initial error of magnitude 1e-3..1e12, log-uniform,
# on at most 41 nodes for at most 0.1 s, so that every draw is cheap and many diverge.
POSITIVE = st.floats(-3.0, 12.0).map(lambda e: 10.0 ** e)
SIGNED = st.builds(lambda sign, v: sign * v, st.sampled_from((1.0, -1.0)), POSITIVE)
AVERAGE_DRAWS = st.fixed_dictionaries({
    ("gains", "K"): POSITIVE,
    ("map", "curvature"): POSITIVE.map(lambda v: -v),
    ("average", "initial_vartheta"): SIGNED | st.just(0.0),
    ("average", "allow_unstable"): st.booleans(),
    ("actuator", "length"): st.floats(0.2, 3.0),
    ("actuator", "nodes"): st.integers(3, 41),
    ("actuator", "dt"): st.floats(1e-4, 0.1),
    ("actuator", "scheme"): st.sampled_from(SCHEMES),
    ("scenario", "duration"): st.floats(1e-10, 0.1),
    ("scenario", "record_every"): st.integers(1, 20),
}, optional={("average", "K_bar"): SIGNED})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(AVERAGE_DRAWS)
def test_average_run_exits_cleanly_or_diverges(values):
    # exit 0 with nothing on stderr; exit 1 only for SimulationDiverged, with its one
    # error line; or exit 2 at validation with one error line and no run directory.
    # A RuntimeWarning is an error here, so a NumPy warning on stderr fails the test too
    parser = _parse_ini(_resolve_config("average_system"))
    for (section, key), value in values.items():
        parser.set(section, key, str(value))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "avg.cfg", Path(tmp) / "o"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = err.getvalue()
        if code == EXIT_OK:
            assert err == "" and (out / "manifest.json").is_file()
        elif code == EXIT_FAILURE:
            assert (out / ".failed").read_text().startswith("SimulationDiverged: ")
            assert err.startswith("error: run failed: non-finite") and err.count("\n") == 1
        else:
            assert code == EXIT_USAGE and not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1
