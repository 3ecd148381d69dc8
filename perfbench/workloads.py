"""Seeded workload generator and correctness gate for the diffesc benchmark.

Each workload starts from a bundled config and draws only the optimizer
location theta*, the optimum y* and (for the sweep) the amplitudes from
fixed ranges.  Curvature, gains, frequency, grid and dt stay fixed, so
neither the per-step cost nor gain admissibility depends on the seed.
The durations are shortened from the bundled ones so that one run of the
benchmark holds several commands; they stay long enough for the loop to
settle, which the gate checks.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "diffesc" / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 0
THETA_STAR = (1.5, 2.5)
Y_STAR = (4.5, 5.5)
# One amplitude from each band keeps the log-log fit well spread.  Below
# about 0.15 the curvature estimate (gain -8/a^2) can destabilise the loop
# for theta* far from the initial estimate, and small amplitudes settle
# more slowly.
SWEEP_BANDS = ((0.19, 0.22), (0.24, 0.27), (0.30, 0.34))

# Late-time window (share of the run) used for the residual checks; the
# same window as the program's own analysis.
LATE_WINDOW = 0.2
# A settled ESC loop sits at a mean |Theta - theta*| of (2/pi) a ~ 0.64 a.
ESC_INPUT_BOUND = 0.8
Y_EXPONENT, Y_EXPONENT_TOL = 2.0, 0.25
THETA_EXPONENT, THETA_EXPONENT_TOL = 1.0, 0.15
# Reference comparison on the default seed: a faster path may reorder
# floating-point work, so values are compared with a tolerance, never by
# checksum.
REF_RTOL, REF_ATOL = 1e-6, 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    base: str                   # bundled config the inputs start from
    command: str                # "run" or "sweep"
    duration: float             # seconds of simulated time per scenario
    why: str
    predicted_zero: frozenset   # trace hooks predicted to have 0 calls


WORKLOADS = {w.name: w for w in (
    Workload("esc_run", "baseline", "run", 14.0,
             "the paper's headline ESC loop with the full artifact set (charts, "
             "field heatmap and CSV, manifest hashing)",
             frozenset({"analysis.residual_scaling"})),
    Workload("amplitude_sweep", "amplitude_sweep", "sweep", 14.0,
             "3-amplitude sweep, ESC_THREADS=1: the only multi-scenario path, so "
             "the thread pool and batching show here; no charts",
             frozenset({"loop.save_field_csv", "svgplot.line_chart", "svgplot.heatmap"})),
)}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs for one seed."""

    workload: Workload
    seed: int
    scale: float                # multiplies the duration; 1.0 for measured commands
    config_text: str
    theta_star: float
    y_star: float
    amplitude: float            # the config's own amplitude (run workloads)
    amplitudes: tuple           # sweep values, empty for run workloads
    dt: float
    nodes: int
    record_every: int
    duration: float

    @property
    def full(self) -> bool:
        return self.scale == 1.0

    @property
    def config_sha256(self) -> str:
        return hashlib.sha256(self.config_text.encode()).hexdigest()

    @property
    def loop_steps(self) -> int:
        """Steps of one scenario."""
        return round(self.duration / self.dt)

    @property
    def steps(self) -> int:
        """Scenario-steps simulated by one command; sweep members count apart."""
        return self.loop_steps * max(1, len(self.amplitudes))

    @property
    def rows(self) -> int:
        return self.loop_steps // self.record_every + 1

    def cli_args(self, config_path: Path, out_dir: Path) -> list:
        if self.workload.command == "sweep":
            values = ",".join(f"{a:g}" for a in self.amplitudes)
            return ["sweep", "--config", str(config_path), "--param", "a",
                    "--values", values, "--out", str(out_dir)]
        return ["run", "--config", str(config_path), "--out", str(out_dir)]

    def run_dirs(self, out_dir: Path) -> dict:
        """Run directory of each scenario, keyed by its dither amplitude."""
        if self.workload.command == "sweep":
            return {a: out_dir / f"a_{a:g}" for a in self.amplitudes}
        return {self.amplitude: out_dir}


def generate(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """Draw the inputs of workload ``name`` for ``seed``; same seed, same inputs."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    theta_star = round(rng.uniform(*THETA_STAR), 4)
    y_star = round(rng.uniform(*Y_STAR), 4)
    amplitudes = ()
    if w.command == "sweep":
        amplitudes = tuple(round(rng.uniform(*band), 4) for band in SWEEP_BANDS)

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read(BUNDLED / f"{w.base}.cfg")
    duration = w.duration * scale
    parser.set("scenario", "duration", repr(duration))
    parser.set("map", "theta_star", repr(theta_star))
    parser.set("map", "y_star", repr(y_star))
    text = io.StringIO()
    parser.write(text)
    return Inputs(
        workload=w, seed=seed, scale=scale, config_text=text.getvalue(),
        theta_star=theta_star, y_star=y_star,
        amplitude=parser.getfloat("dither", "amplitude"), amplitudes=amplitudes,
        dt=parser.getfloat("actuator", "dt"),
        nodes=parser.getint("actuator", "nodes", fallback=101),
        record_every=parser.getint("scenario", "record_every", fallback=10),
        duration=duration,
    )


# --------------------------------------------------------------------------
# correctness gate

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_manifest(run_dir: Path) -> list:
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        listed = {f["name"]: f["sha256"] for f in manifest["files"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{run_dir.name}: unreadable manifest ({exc})"]
    present = {p.name for p in run_dir.iterdir() if p.is_file() and p.name != "manifest.json"}
    problems = []
    if set(listed) != present:
        problems.append(f"{run_dir.name}: manifest lists {sorted(listed)}, "
                        f"directory holds {sorted(present)}")
    for name in sorted(set(listed) & present):
        if _sha256(run_dir / name) != listed[name]:
            problems.append(f"{run_dir.name}/{name}: SHA-256 differs from manifest")
    return problems


def read_trajectory(path: Path) -> dict:
    """Columns of a trajectory CSV as lists of floats."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {h: [] for h in header}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"row of {len(row)} fields, header has {len(header)}")
            for h, v in zip(header, row):
                cols[h].append(float(v))
    return cols


def late_residuals(traj: dict, theta_star: float, y_star: float) -> tuple:
    """Trailing-window means of |y - y*| and |Theta - theta*|."""
    t = traj["t"]
    cut = t[-1] - LATE_WINDOW * (t[-1] - t[0])
    sel = [i for i, ti in enumerate(t) if ti >= cut]
    y_res = sum(abs(traj["y"][i] - y_star) for i in sel) / len(sel)
    th_res = sum(abs(traj["Theta"][i] - theta_star) for i in sel) / len(sel)
    return y_res, th_res


def _read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def gate(inp: Inputs, out_dir: Path, exit_code: int, with_reference: bool = True) -> tuple:
    """Check one command's outputs.

    Returns (problems, observables): the list of failed checks (empty when
    the command passed) and the values compared against the reference.
    Convergence, scaling and reference checks apply to full-length inputs;
    the reference exists for the default seed only.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems, obs = [], {}
    for a, run_dir in inp.run_dirs(out_dir).items():
        tag = run_dir.name if run_dir != out_dir else "run"
        if not run_dir.is_dir():
            problems.append(f"{tag}: missing run directory")
            continue
        problems += _check_manifest(run_dir)
        try:
            traj = read_trajectory(run_dir / "trajectory.csv")
        except (OSError, ValueError, StopIteration) as exc:
            problems.append(f"{tag}: unreadable trajectory ({exc})")
            continue
        n = len(traj.get("t", ()))
        if n != inp.rows:
            problems.append(f"{tag}: {n} trajectory rows, expected {inp.rows}")
            continue
        if not all(math.isfinite(v) for col in traj.values() for v in col):
            problems.append(f"{tag}: non-finite trajectory value")
            continue
        y_res, th_res = late_residuals(traj, inp.theta_star, inp.y_star)
        obs.update({f"{tag}/late_output_error": y_res, f"{tag}/late_input_error": th_res,
                    f"{tag}/final_Theta": traj["Theta"][-1], f"{tag}/final_y": traj["y"][-1],
                    f"{tag}/final_theta": traj["theta"][-1]})
        if inp.full and not th_res < ESC_INPUT_BOUND * a:
            problems.append(f"{tag}: late-time input error {th_res:.4g} "
                            f"not below {ESC_INPUT_BOUND} a (a={a:g})")
    if inp.workload.command == "sweep":
        problems += _check_sweep(inp, out_dir)
    if with_reference and inp.full and inp.seed == DEFAULT_SEED and not problems:
        problems += _check_reference(inp, obs)
    return problems, obs


def _check_sweep(inp: Inputs, out_dir: Path) -> list:
    try:
        report = _read_report(out_dir / "sweep_report.txt")
    except OSError as exc:
        return [f"sweep report unreadable ({exc})"]
    requested = sorted(f"{a:g}" for a in inp.amplitudes)
    completed = sorted(v for v in report.get("values_completed", "").split(",") if v)
    problems = []
    if completed != requested or report.get("values_failed") != "none":
        problems.append(f"sweep completed {completed} of {requested}, "
                        f"failed: {report.get('values_failed')}")
    if not inp.full:
        return problems
    for key, target, tol in (("output_residual_exponent", Y_EXPONENT, Y_EXPONENT_TOL),
                             ("input_residual_exponent", THETA_EXPONENT, THETA_EXPONENT_TOL)):
        try:
            value = float(report[key])
        except (KeyError, ValueError):
            problems.append(f"sweep report lacks {key}")
            continue
        if not abs(value - target) <= tol:
            problems.append(f"{key} {value:.4g} not within {tol} of {target}")
    return problems


def _check_reference(inp: Inputs, obs: dict) -> list:
    try:
        ref = json.loads(REFERENCE.read_text()).get(inp.workload.name)
    except (OSError, ValueError):
        ref = None
    if ref is None:
        return [f"no reference values for {inp.workload.name} in {REFERENCE.name}"]
    if ref["config_sha256"] != inp.config_sha256:
        return [f"reference was made from other inputs (config {ref['config_sha256'][:12]})"]
    problems = []
    for key, want in ref["values"].items():
        got = obs.get(key)
        if got is None or not math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            problems.append(f"{key} = {got} differs from reference {want} "
                            f"(rtol {REF_RTOL:g}, atol {REF_ATOL:g})")
    return problems
