"""Command-line front end: run scenarios, design the probing signal, sweep
parameters.

Configs are INI-style text (see the bundled files under ``configs/``); the
``--config`` argument accepts either a filesystem path or a bundled name.
A config is parsed once into a ``RunPlan`` holding one ``ScenarioConfig``;
each sweep member is that config with the swept field replaced.  A run and
every sweep member go through ``_execute_run``, which owns the run
directory: its ``manifest.json`` lists exactly the files that run wrote,
with SHA-256 checksums, and other files in the directory are left alone
and unlisted.  The simulations are fixed-step and seed-free, so re-running
the same config reproduces identical checksums.  A run that fails mid-run
leaves a ``.failed`` marker; a later run into the same directory removes it.
"""
from __future__ import annotations

import argparse
import configparser
import copy
import gc
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

# the interpreter's own SHA-256: importing hashlib loads OpenSSL's libcrypto,
# ~3.6 MiB of resident memory for one digest per file
try:
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256      # builds without the built-in module

from . import analysis, svgplot
from .dither import DitherParams, design_dither, dither_signal, field_integral
from .heat import Grid, SolverConfig
from .loop import (
    ScenarioConfig,
    StaticMap,
    _average_kernel,
    run_average_system,
    run_esc,
    run_standard_esc,
    save_average_csv,
    save_field_csv,
    save_trajectory_csv,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

SWEEP_PARAMS = ("a", "omega", "K")


class ConfigError(Exception):
    pass


def _resolve_config(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.is_file():
        return p
    bundled = resources.files("diffesc.configs").joinpath(f"{name_or_path}.cfg")
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"config not found: {name_or_path!r} (no such file or bundled name)")


def _parse_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:     # UTF-8 whatever the locale
            parser.read_file(fh, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not parser.sections():
        raise ConfigError(f"config {path} is empty or has no sections")
    return parser


def _get(parser, section, key, cast, default=None, required=False):
    try:
        raw = parser.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    try:
        if cast is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return cast(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


class RunPlan:
    """Parsed scenario: its kind and one ScenarioConfig.

    The keys read here are the config's only keys: a section or key that
    nothing reads (a misspelling) is a ``ConfigError`` that names it.  An
    optional key is passed on only when set: its default is the field's."""

    def __init__(self, parser: configparser.ConfigParser):
        read = set()

        def get(section, key, cast, default=None, required=False):
            read.add((section, parser.optionxform(key)))    # folded as the parser folds
            return _get(parser, section, key, cast, default, required)

        def given(**keys):
            """field -> value for each field=(section, key, cast) whose key the file sets."""
            values = {field: get(*spec) for field, spec in keys.items()}
            return {field: v for field, v in values.items() if v is not None}

        self.kind = get("scenario", "kind", str, required=True)
        if self.kind not in ("esc", "average", "standard"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        map_ = StaticMap(
            y_star=get("map", "y_star", float, required=True),
            theta_star=get("map", "theta_star", float, required=True),
            H=get("map", "curvature", float, required=True),
        )
        average = given(initial_vartheta=("average", "initial_vartheta", float),
                        allow_unstable=("average", "allow_unstable", bool),
                        K_bar=("average", "K_bar", float))
        self.config = ScenarioConfig(
            map=map_,
            a=get("dither", "amplitude", float, required=True),
            omega=get("dither", "frequency", float, required=True),
            K=get("gains", "K", float, required=True),
            solver=SolverConfig(get("actuator", "dt", float, required=True),
                                **given(scheme=("actuator", "scheme", str))),
            grid=Grid(L=get("actuator", "length", float, required=True),
                      n=get("actuator", "nodes", int, default=101)),
            T_final=get("scenario", "duration", float, required=True),
            **given(c=("gains", "corner", float),
                    initial_theta_hat=("actuator", "initial_theta_hat", float),
                    record_every=("scenario", "record_every", int),
                    snapshot_every=("scenario", "snapshot_every", int),
                    washout_corner=("gains", "washout_corner", float),
                    hessian_corner=("gains", "hessian_corner", float)),
            **average,
        )
        diffusion = get("actuator", "diffusion", float, default=1.0)
        if not abs(diffusion - 1.0) <= 1e-12:
            raise ConfigError(f"[actuator] diffusion must be 1 (got {diffusion}): the probe "
                              "design and the backstepping kernel assume unit diffusion")
        if average and self.kind != "average":
            raise ConfigError(f"[average] {', '.join(average)}: for kind = average only, "
                              f"not {self.kind!r}")
        sections = {section for section, _ in read}
        unknown = [f"section [{s}]" for s in parser.sections() if s not in sections]
        unknown += [f"key [{s}] {k}" for s in parser.sections() if s in sections
                    for k in parser.options(s) if (s, k) not in read]
        if unknown:
            raise ConfigError(f"unknown config {', '.join(unknown)}")

    def validate(self) -> None:
        self.config.validate()
        if self.kind == "average":     # the gates run_average_system applies
            _average_kernel(self.config)


def _file_sha256(path: Path) -> str:
    """SHA-256 of a file read in 64 KiB blocks: reading the run's largest
    file whole set the command's peak memory."""
    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _execute_run(out_dir: Path, scenario: str, config_path: str, write):
    """Call ``write(out)``, which takes each output path from ``out(name)`` and
    returns its record, then write a manifest of exactly those files.  Other
    files are left alone; a failure leaves ``.failed`` and re-raises."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in (".failed", "manifest.json"):
        (out_dir / stale).unlink(missing_ok=True)
    names = []

    def out(name: str) -> Path:
        names.append(name)
        return out_dir / name

    try:
        record = write(out)
        files = [{"name": n, "sha256": _file_sha256(out_dir / n)} for n in sorted(names)]
        manifest = {"scenario": scenario, "config": config_path, "out_dir": str(out_dir),
                    "determinism": "fixed-step, seed-free simulation; identical config "
                                   "reproduces identical checksums",
                    "files": files}
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (out_dir / "manifest.json").write_text(text)
    except Exception as exc:
        (out_dir / ".failed").write_text(f"{type(exc).__name__}: {exc}\n")
        raise
    return record


def _run_esc_outputs(plan: RunPlan, out):
    cfg = plan.config
    rec = run_esc(cfg)
    save_trajectory_csv(rec, out("trajectory.csv"))
    m, dith = cfg.map, cfg.dither
    svgplot.line_chart(out("output.svg"), "Map output", "t [s]", "y",
                       [("y(t)", rec.t, rec.y),
                        ("optimum", rec.t, np.full_like(rec.t, m.y_star))])
    svgplot.line_chart(out("control.svg"), "Control signal", "t [s]", "U",
                       [("U(t)", rec.t, rec.U)])
    svgplot.line_chart(out("input.svg"), "Actuator boundary and map input", "t [s]", "value",
                       [("boundary command", rec.t, rec.theta),
                        ("map input", rec.t, rec.Theta),
                        ("optimizer", rec.t, np.full_like(rec.t, m.theta_star))])
    design = design_dither(dith)
    one_period = np.linspace(0.0, dith.period, 201)
    svgplot.line_chart(out("dither.svg"), "Boundary dither vs. target perturbation",
                       "t [s]", "value",
                       [("boundary dither", one_period, dither_signal(design, one_period)),
                        ("target a*sin", one_period, dith.a * np.sin(dith.omega * one_period))])
    if rec.field_history is not None:
        save_field_csv(rec.field_history, out("field.csv"))
        svgplot.heatmap(out("field.svg"), "Actuator field", "t [s]", "x",
                        rec.field_history.t, rec.field_history.x, rec.field_history.alpha)
    y_res, th_res = analysis.late_time_residuals(rec, m)
    report = {
        "scenario": "esc",
        "late_time_mean_abs_output_error": y_res,
        "late_time_mean_abs_input_error": th_res,
        "final_map_input": float(rec.Theta[-1]),
        "final_output": float(rec.y[-1]),
        "designed_amplitude": design.amplitude,
        "designed_phase_rad": design.phase,
    }
    out("report.txt").write_text(analysis.format_report(report))
    return rec


def _run_average_outputs(plan: RunPlan, out):
    rec = run_average_system(plan.config)
    save_average_csv(rec, out("average.csv"))
    svgplot.line_chart(out("norm.svg"), "Composite squared norm", "t [s]", "Omega",
                       [("Omega(t)", rec.t, rec.Omega)], y_log=True)
    svgplot.line_chart(out("error.svg"), "Averaged tracking error", "t [s]", "vartheta",
                       [("vartheta(t)", rec.t, rec.vartheta)])
    fit = analysis.fit_decay(rec.t, rec.Omega)
    if not fit.degenerate:
        analysis.save_fit_residuals_csv(rec.t, rec.Omega, fit, out("fit_residuals.csv"))
    report = {
        "scenario": "average",
        "compensator_gain": rec.K_bar,
        "fitted_decay_rate": fit.nu_hat,
        "fitted_prefactor": fit.eta_hat,
        "fit_r_squared": fit.r_squared,
        "fit_degenerate": fit.degenerate,
    }
    if fit.note:
        report["fit_note"] = fit.note
    out("report.txt").write_text(analysis.format_report(report))
    return rec


def _run_standard_outputs(plan: RunPlan, out):
    cfg = plan.config
    rec = run_standard_esc(cfg)
    save_trajectory_csv(rec, out("trajectory.csv"))
    svgplot.line_chart(out("output.svg"), "Map output (no actuator dynamics)", "t [s]", "y",
                       [("y(t)", rec.t, rec.y),
                        ("optimum", rec.t, np.full_like(rec.t, cfg.map.y_star))])
    svgplot.line_chart(out("input.svg"), "Map input", "t [s]", "Theta",
                       [("Theta(t)", rec.t, rec.Theta),
                        ("optimizer", rec.t, np.full_like(rec.t, cfg.map.theta_star))])
    y_res, th_res = analysis.late_time_residuals(rec, cfg.map)
    report = {
        "scenario": "standard",
        "late_time_mean_abs_output_error": y_res,
        "late_time_mean_abs_input_error": th_res,
    }
    out("report.txt").write_text(analysis.format_report(report))
    return rec


_OUTPUTS = {"esc": _run_esc_outputs, "average": _run_average_outputs,
            "standard": _run_standard_outputs}


def _error(message, code: int) -> int:
    """Print the one ``error:`` line of a failed command and return its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    try:
        path = _resolve_config(args.config)
        plan = RunPlan(_parse_ini(path))
        plan.validate()
    except (ConfigError, ValueError) as exc:
        return _error(exc, EXIT_USAGE)
    out_dir = Path(args.out)
    try:
        _execute_run(out_dir, plan.kind, str(path), lambda out: _OUTPUTS[plan.kind](plan, out))
    except Exception as exc:
        return _error(f"run failed: {exc}", EXIT_FAILURE)
    print(f"wrote {out_dir}/manifest.json")
    return EXIT_OK


def cmd_design_dither(args) -> int:
    if args.samples < 1:
        return _error(f"--samples must be at least 1, got {args.samples}", EXIT_USAGE)
    params = DitherParams(a=args.a, omega=args.omega, L=args.L)
    try:
        if not params.a > 0.0:
            raise ValueError(f"dither amplitude must be > 0, got {params.a}")
        design = design_dither(params)      # validates omega and L
    except ValueError as exc:
        return _error(f"a, omega and L must all be positive and in range ({exc})", EXIT_USAGE)
    print(f"A   = {design.amplitude:.6f}")
    print(f"phi = {design.phase:.6f} rad")
    print()
    print(f"{'t':>10} {'dither':>12} {'a*sin(wt)':>12} {'integral':>12}")
    times = [j * params.period / (args.samples - 1) if args.samples > 1 else 0.0
             for j in range(args.samples)]
    for t, s_val, integral in zip(times, dither_signal(design, times).tolist(),
                                  field_integral(design, times).tolist()):
        target = params.a * math.sin(params.omega * t)
        print(f"{t:10.5f} {s_val:12.7f} {target:12.7f} {integral:12.7f}")
    ts = np.linspace(0, params.period, 200, endpoint=False)
    residual = np.max(np.abs(field_integral(design, ts) - params.a * np.sin(params.omega * ts)))
    print(f"\nmax |integral - a*sin| over one period: {residual:.3e}")
    return EXIT_OK


def _sweep_member(plan: RunPlan, param: str, value: float) -> RunPlan:
    """The validated plan with the ``ScenarioConfig`` field ``param`` set to ``value``."""
    member = copy.copy(plan)
    member.config = plan.config._replace(**{param: value})
    member.validate()
    return member


def _write_trajectory(plan: RunPlan, out):
    rec = run_esc(plan.config)
    save_trajectory_csv(rec, out("trajectory.csv"))
    return rec


def cmd_sweep(args) -> int:
    try:
        path = _resolve_config(args.config)
        plan = RunPlan(_parse_ini(path))
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except (ConfigError, ValueError) as exc:
        return _error(exc, EXIT_USAGE)
    if plan.kind != "esc":
        return _error(f"sweeps need an esc config, got kind {plan.kind!r}", EXIT_USAGE)
    if args.param not in SWEEP_PARAMS:
        return _error(f"sweep parameter must be one of {SWEEP_PARAMS}", EXIT_USAGE)
    if not values:
        return _error("no sweep values given", EXIT_USAGE)

    labels = [f"{v:g}" for v in values]
    if len(set(labels)) < len(labels) or len(set(values)) < len(values):
        return _error(f"sweep values must differ as numbers and when printed with %g, "
                      f"got {','.join(labels)}", EXIT_USAGE)

    # validate every member first; when none is valid, exit 2 and write nothing
    members, failures = {}, {}
    for v in values:
        try:
            members[v] = _sweep_member(plan, args.param, v)
        except (ConfigError, ValueError) as exc:
            failures[v] = exc
    if not members:
        return _error(failures[values[0]], EXIT_USAGE)

    out_root = Path(args.out)
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _error(f"sweep failed: {exc}", EXIT_FAILURE)
    results = {}    # value -> its (output, input) late-time residuals; no record is kept
    for v, member in members.items():
        try:
            results[v] = analysis.late_time_residuals(
                _execute_run(out_root / f"{args.param}_{v:g}", "esc", str(path),
                             lambda out: _write_trajectory(member, out)),
                plan.config.map)
        except Exception as exc:
            failures[v] = exc

    lines = {"sweep_parameter": args.param,
             "values_requested": ",".join(labels),
             "values_completed": ",".join(f"{v:g}" for v in sorted(results)),
             "values_failed": ",".join(f"{v:g}" for v in sorted(failures)) or "none"}
    for v in sorted(failures):
        lines[f"failure_{v:g}"] = f"{type(failures[v]).__name__}: {failures[v]}"
    if args.param == "a":
        fit = analysis.residual_scaling(results)
        lines.update({
            "output_residual_exponent": fit.y_exponent,
            "input_residual_exponent": fit.theta_exponent,
            "output_fit_r_squared": fit.y_r_squared,
            "input_fit_r_squared": fit.theta_r_squared,
            "scaling_inconclusive": fit.inconclusive,
        })
        if fit.note:
            lines["scaling_note"] = fit.note
    for v, (yr, tr) in sorted(results.items()):
        lines[f"residuals_{args.param}_{v:g}"] = f"y={yr:.6g} theta={tr:.6g}"

    try:
        (out_root / "sweep_report.txt").write_text(analysis.format_report(lines))
    except OSError as exc:
        return _error(f"sweep failed: {exc}", EXIT_FAILURE)
    print(f"wrote {out_root}/sweep_report.txt "
          f"({len(results)} completed, {len(failures)} failed)")
    return EXIT_FAILURE if failures and not results else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffesc",
        description="Extremum-seeking control through a diffusion actuator: "
                    "run scenarios, design probing signals, sweep parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write its artifacts")
    p_run.add_argument("--config", required=True,
                       help="path to a config file or a bundled name "
                            "(baseline, average_system, standard_esc, amplitude_sweep, gain_probe)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_dd = sub.add_parser("design-dither", help="print probing-signal constants and a sample table")
    p_dd.add_argument("--a", type=float, required=True, help="target perturbation amplitude")
    p_dd.add_argument("--omega", type=float, required=True, help="angular frequency, rad/s")
    p_dd.add_argument("--L", type=float, required=True, help="actuator domain length")
    p_dd.add_argument("--samples", type=int, default=9, help="table rows over one period")
    p_dd.set_defaults(func=cmd_design_dither)

    p_sw = sub.add_parser("sweep", help="run a config across parameter values and fit scaling")
    p_sw.add_argument("--config", required=True, help="base esc config (path or bundled name)")
    p_sw.add_argument("--param", required=True, help=f"one of {SWEEP_PARAMS}")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("--out", required=True, help="output directory (one subdirectory per value)")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    # Move the imported heap (~22k GC-tracked objects, mostly NumPy's) into the
    # permanent generation, once per process: it lives until exit, and unfrozen the
    # interpreter's final collections walk it (a `run` took 38 ms to exit, now 10).
    # No gc.collect() first: it costs ~9 ms and did not lower peak RSS.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): stop quietly, and point stdout at
        # devnull so the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
