"""Self-test of the benchmark, at a tiny command length:

    python3 -m pytest perfbench -q

It runs every workload untraced and traced, checks that every metric named
in BENCHMARK.json is printed with its unit, that end-to-end times are scaled
to the nominal machine speed in the right direction, that the hooks
predicted to stay idle on a workload record 0 calls, that a stale hook
reports as unbound, and that tampered outputs trip the correctness gate.
"""
import json
import shutil
import time

import pytest

from child import HOOKS
import run
from run import END_TO_END, HOOK_STATS, PER_LAYER, WORK, _per_layer, run_command, run_workload
from workloads import ROOT, WORKLOADS, gate, generate

TINY = 0.05


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_at_tiny_length(name):
    for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
        result = run_workload(name, seed=7, seconds=0.1, trace=trace, scale=TINY)["result"]
        assert result["correct"] and result["failed"] == 0, result
        assert [(m, v["unit"]) for m, v in result["metrics"].items()] == list(expected)
        values = {m: v["value"] for m, v in result["metrics"].items()}
        assert all(isinstance(v, (int, float)) for v in values.values()), values
    idle = WORKLOADS[name].predicted_zero
    for key in idle:
        assert values[f"{key}.calls"] == 0, key
    for key in {f"{layer}.{path}" for layer, path in HOOKS} - idle:
        assert values[f"{key}.calls"] > 0, key


def test_times_are_scaled_to_the_nominal_speed(monkeypatch):
    # A machine at half the nominal speed: times halve, rates double.
    monkeypatch.setattr(run, "time_speed_task", lambda deadline: 2 * run.SPEED_NOMINAL_S)
    record = run_workload("esc_run", seed=7, seconds=0.1, trace=False, scale=TINY)
    assert record["speed"]["scale"] == 0.5
    unscaled, values = record["speed"]["unscaled"], record["result"]["metrics"]
    for metric, exponent in (("wall_s", 1), ("setup_s", 1), ("write_s", 1),
                             ("steps_per_s", -1), ("peak_rss_mb", 0)):
        expected = unscaled[metric]["value"] * 0.5 ** exponent
        assert values[metric]["value"] == pytest.approx(expected), metric


def test_sweep_predicts_no_charts():
    assert {"svgplot.line_chart", "svgplot.heatmap"} <= WORKLOADS["amplitude_sweep"].predicted_zero


def test_idle_hook_where_work_is_predicted_reports_unbound():
    inp = generate("esc_run", 0)
    trace = {f"{layer}.{path}": {"bound": True, "calls": 1, "self_s": 1e-3,
                                 "us_p50": 1.0, "us_p99": 2.0}
             for layer, path in HOOKS}
    trace["heat.step"] = dict(trace["heat.step"], calls=0)
    trace["svgplot.line_chart"] = dict(trace["svgplot.line_chart"], bound=False)
    op = {"trace": trace, "import_s": 0.5, "cpu_s": 1.0, "files_written": 9,
          "bytes_written": 10, "run_esc_overlap": 1.0, "wall_s": 2.0}
    summary = _per_layer(inp, [op], [op])
    for key in ("heat.step", "svgplot.line_chart"):
        assert all(summary[f"{key}.{stat}"] is None for stat, _ in HOOK_STATS)
    assert summary["heat.spatial_integral.calls"]["value"] == 1


@pytest.mark.parametrize("name", ["esc_run", "amplitude_sweep"])
def test_tampered_output_trips_the_gate(name):
    inp = generate(name, 7, TINY)
    work = WORK / f"selftest-tamper-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.cfg"
    config.write_text(inp.config_text)
    rec = run_command(inp, config, work / "op", False, time.monotonic() + 120)
    assert rec["problems"] == []
    out = work / "op" / "out"
    run_dir = next(iter(inp.run_dirs(out).values()))

    traj = run_dir / "trajectory.csv"
    original = traj.read_bytes()
    traj.write_bytes(original.replace(b",", b";", 1))
    problems, _ = gate(inp, out, 0)
    assert any("SHA-256" in p for p in problems), problems

    traj.write_bytes(original)
    assert gate(inp, out, 0)[0] == []
    (run_dir / "stray.txt").write_text("not produced by the run\n")
    problems, _ = gate(inp, out, 0)
    assert any("manifest lists" in p for p in problems), problems
