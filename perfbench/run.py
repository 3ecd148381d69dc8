"""diffesc benchmark: run the ``diffesc`` CLI in child processes, as users
run it, for ``--seconds`` seconds and report end-to-end or per-layer
metrics.

    python3 perfbench/run.py --workload esc_run --seed 0 --seconds 55 --trace 0

``--trace 0`` gives the end-to-end metrics: wall time, set-up time, loop
throughput, write time and peak memory of each command, as means over the
run's commands, with times scaled to a nominal machine speed gauged by a
reference task (see ``SPEED_NOMINAL_S``).  ``--trace 1`` alternates
untraced and traced commands and gives the per-layer metrics (calls, self
time, per-call percentiles of every hooked function) plus the tracing
overhead, as medians over the traced commands.  The last line of standard
output is one JSON object; a human-readable table comes before it.
Per-command records, the generated configs with their SHA-256 and the
machine description go to ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from child import HOOKS, union_ns  # noqa: E402
from workloads import ROOT, WORKLOADS, generate, gate  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
SPEED = Path(__file__).resolve().parent / "speed.py"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# The warm-up command (untimed) fills the bytecode and page caches at this
# share of the measured duration.
WARMUP_SCALE = 0.05
# Every command is killed once the run has lasted this long, so the
# benchmark itself ends within its 180-second limit.
DEADLINE_S = 170.0
# End-to-end values are means over a run's commands, not medians: on a shared
# virtual machine each child process runs at one of two speeds about 1.8x
# apart, so the per-command values are bimodal and their median jumps between
# the modes.  The machine's speed also drifts by up to 2x over minutes, which
# no statistic within one run removes.  So an untraced run times the fixed
# reference task speed.py before every command, and reports end-to-end times
# in seconds at the speed where that task takes SPEED_NOMINAL_S: times are
# scaled by SPEED_NOMINAL_S over the run's mean task time (rates by its
# inverse, memory not at all).  The constant is the task's median wall time
# on a 2-vCPU KVM guest of an Intel Xeon host (Python 3.11, NumPy 2.4, SciPy
# 1.17); the table and the record keep the unscaled values too.
SPEED_NOMINAL_S = 0.92
SPEED_EXPONENT = {"wall_s": 1, "setup_s": 1, "steps_per_s": -1, "write_s": 1}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("steps_per_s", "1/s"),
              ("write_s", "s"), ("peak_rss_mb", "MiB"))
HOOK_STATS = (("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("us_p99", "us"))
PER_LAYER = tuple(
    (f"{layer}.{path}.{stat}", unit) for layer, path in HOOKS for stat, unit in HOOK_STATS
) + (("proc.import_s", "s"), ("proc.cpu_s", "s"), ("cli.files_written", "count"),
     ("cli.bytes_written", "B"), ("loop.run_esc.overlap", "ratio"),
     ("heat.state_bytes", "B"), ("trace_overhead_frac", "ratio"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    """The tree and machine under test."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    caches = _cache_sizes()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
    }


def _dir_usage(path: Path) -> tuple:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_command(inp, config_path: Path, op_dir: Path, traced: bool, deadline: float,
                with_reference: bool = True) -> dict:
    """Run one CLI command in a child process; time it and gate its outputs."""
    op_dir.mkdir(parents=True)
    out_dir, timing_path = op_dir / "out", op_dir / "timing.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # The sweep runs its members on one worker thread: with one thread per
    # core the members contend for the GIL, and on a shared 2-core machine
    # that contention doubled the run-to-run spread of every timing.
    env["ESC_THREADS"] = "1"
    argv = [sys.executable, str(CHILD), str(timing_path), "1" if traced else "0",
            *inp.cli_args(config_path, out_dir)]

    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic_ns()
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)

    rec = {"traced": traced, "exit_code": proc.returncode,
           "wall_s": (t1 - t0) / 1e9, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    problems, obs = gate(inp, out_dir, proc.returncode, with_reference)
    try:
        timing = json.loads(timing_path.read_text())
    except (OSError, ValueError):
        timing = None
    if timing is None or not timing["loop_intervals"]:
        problems.append("no loop call was timed")
    else:
        src_file = Path(timing["diffesc_file"]).resolve()
        if SRC.resolve() not in src_file.parents:
            problems.append(f"measured diffesc from {src_file}, not from {SRC}")
        loops = timing["loop_intervals"]
        loop_s = union_ns(loops) / 1e9
        rec["setup_s"] = (min(a for a, _ in loops) - t0) / 1e9
        rec["steps_per_s"] = inp.steps / loop_s
        rec["write_s"] = rec["wall_s"] - rec["setup_s"] - loop_s
        rec["diffesc_file"] = str(src_file)
        if traced:
            rec["import_s"] = timing["import_s"]
            rec["trace"] = timing["trace"]
            rec["run_esc_overlap"] = timing["run_esc_overlap"]
    if proc.returncode != 0:
        problems.append("stderr: " + (op_dir / "stderr.txt").read_text()[-400:])
    rec["files_written"], rec["bytes_written"] = _dir_usage(out_dir) if out_dir.is_dir() else (0, 0)
    rec["problems"], rec["observables"] = problems, obs
    return rec


def time_speed_task(deadline: float) -> float:
    """Wall time of one run of the reference task speed.py."""
    t0 = time.monotonic_ns()
    subprocess.run([sys.executable, str(SPEED)], stdout=subprocess.DEVNULL, check=True,
                   cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    return (time.monotonic_ns() - t0) / 1e9


def _stats(values) -> dict:
    """Median, quartiles and count; the median is the reported value."""
    values = sorted(values)
    if not values:
        return {"value": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _end_to_end(plain_ops, scale: float) -> dict:
    """End-to-end values of a run with times scaled by ``scale``: means over
    the commands, quartiles and count of the single commands.  Every command
    simulates the same steps, so the harmonic mean of ``steps_per_s`` is all
    steps over all loop time."""
    out = {}
    for metric, _ in END_TO_END:
        values = [op[metric] * scale ** SPEED_EXPONENT.get(metric, 0) for op in plain_ops]
        mean = statistics.harmonic_mean if metric == "steps_per_s" else statistics.fmean
        out[metric] = dict(_stats(values), value=mean(values))
    return out


def _per_layer(inp, traced_ops, plain_ops) -> dict:
    """Medians over traced commands; ``None`` marks an unbound hook."""
    out = {}
    for layer, path in HOOKS:
        key = f"{layer}.{path}"
        traces = [op["trace"][key] for op in traced_ops]
        predicted_zero = key in inp.workload.predicted_zero
        unbound = any(not t["bound"] or (t["calls"] == 0 and not predicted_zero)
                      for t in traces)
        for stat, _ in HOOK_STATS:
            out[f"{key}.{stat}"] = None if unbound else _stats(t[stat] for t in traces)
    out["proc.import_s"] = _stats(op["import_s"] for op in traced_ops)
    out["proc.cpu_s"] = _stats(op["cpu_s"] for op in plain_ops)
    out["cli.files_written"] = _stats(op["files_written"] for op in traced_ops)
    out["cli.bytes_written"] = _stats(op["bytes_written"] for op in traced_ops)
    out["loop.run_esc.overlap"] = _stats(op["run_esc_overlap"] for op in traced_ops)
    out["heat.state_bytes"] = _stats([inp.nodes * 8])
    wall_traced = _stats(op["wall_s"] for op in traced_ops)["value"]
    wall_plain = _stats(op["wall_s"] for op in plain_ops)["value"]
    out["trace_overhead_frac"] = _stats([wall_traced / wall_plain - 1.0])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """Run one benchmark run; returns the full record including ``result``,
    the JSON object printed last.  ``scale`` shortens every command (the
    self-test uses it)."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inp = generate(name, seed, scale)
    warm = generate(name, seed, scale * WARMUP_SCALE)
    config = work / "config.cfg"
    config.write_text(inp.config_text)
    warm_config = work / "warmup.cfg"
    warm_config.write_text(warm.config_text)

    ops = [run_command(warm, warm_config, work / "op-warmup", False, deadline)]
    if not trace:
        time_speed_task(deadline)
    t_measure = time.monotonic()
    measured, speed_s = [], []
    while True:
        traced = trace and len(measured) % 2 == 1
        if not trace:
            speed_s.append(time_speed_task(deadline))
        op = run_command(inp, config, work / f"op-{len(measured):03d}", traced, deadline)
        measured.append(op)
        if op["problems"]:
            break
        kinds = {o["traced"] for o in measured}
        elapsed = time.monotonic() - t_measure
        enough = kinds == {False, True} if trace else True
        next_s = op["wall_s"] + (speed_s[-1] if speed_s else 0.0)
        if enough and (elapsed + next_s > seconds
                       or time.monotonic() + 2 * next_s > deadline):
            break
    ops += measured
    for op_dir in work.glob("op-*"):
        shutil.rmtree(op_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    good = [op for op in measured if not op["problems"]]
    plain = [op for op in good if not op["traced"]]
    speed = None
    if trace:
        traced_ops = [op for op in good if op["traced"]]
        summary = _per_layer(inp, traced_ops, plain) if traced_ops and plain else {}
        units = PER_LAYER
    else:
        scale = SPEED_NOMINAL_S / statistics.fmean(speed_s)
        speed = {"task_s": speed_s, "nominal_s": SPEED_NOMINAL_S, "scale": scale,
                 "unscaled": _end_to_end(plain, 1.0) if plain else {}}
        summary = _end_to_end(plain, scale) if plain else {}
        units = END_TO_END
    metrics = {}
    for metric, unit in units:
        s = summary.get(metric)
        metrics[metric] = {"value": s["value"] if s else None, "unit": unit}
        if metric in summary and s is None:
            metrics[metric]["unbound"] = True
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "inputs": {"theta_star": inp.theta_star, "y_star": inp.y_star,
                   "amplitudes": list(inp.amplitudes) or [inp.amplitude],
                   "steps_per_command": inp.steps, "config_sha256": inp.config_sha256,
                   "warmup_config_sha256": warm.config_sha256},
        "failed_frac": failed / len(ops), "speed": speed,
        "summary": summary, "commands": ops, "result": result,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def print_report(record: dict) -> None:
    env, inputs = record["environment"], record["inputs"]
    print(f"diffesc benchmark  workload={record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])}")
    print(f"  commit {env['commit']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}")
    print(f"  nproc {env['nproc']}  cpu {env['cpu_model']}  L2 {env['l2']}  L3 {env['l3']}")
    print(f"  theta*={inputs['theta_star']} y*={inputs['y_star']} "
          f"a={inputs['amplitudes']} config sha256 {inputs['config_sha256']}")
    result = record["result"]
    print(f"  commands {result['attempted']} (one untimed warm-up), failed {result['failed']}, "
          f"failed_frac {record['failed_frac']:.6g}")
    for op in record["commands"]:
        for problem in op["problems"]:
            print(f"  FAILED: {problem}")
    speed = record["speed"]
    if speed:
        print(f"  speed task {statistics.fmean(speed['task_s']):.4g} s on average "
              f"(nominal {speed['nominal_s']:.4g} s): times scaled by {speed['scale']:.4g}")
    unscaled = speed["unscaled"] if speed else {}
    print(f"  {'metric':44s} {'mean' if speed else 'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'n':>3s}  unit" + ("  (unscaled mean)" if speed else ""))
    for metric, m in result["metrics"].items():
        s = record["summary"].get(metric)
        if s is None:
            print(f"  {metric:44s} {'unbound' if m.get('unbound') else '-':>12s}")
        else:
            raw = f"  ({_fmt(unscaled[metric]['value'])})" if metric in SPEED_EXPONENT and speed else ""
            print(f"  {metric:44s} {_fmt(s['value']):>12s} {_fmt(s['q1']):>12s} "
                  f"{_fmt(s['q3']):>12s} {s['n']:3d}  {m['unit']}{raw}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diffesc" / "cli.py").is_file():
        print(f"error: no diffesc sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
