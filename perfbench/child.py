"""Child-process entry for one benchmarked ``diffesc`` command.

Runs ``diffesc.cli.main`` exactly as the installed ``diffesc`` script does,
with two kinds of instrumentation installed from outside the program:

* untraced (``0``): one phase timer around each loop entry call
  (``run_esc``), wrapped in the namespace that calls it, so the parent can
  split wall time into set-up, loop and write phases;
* traced (``1``): a span around every function in ``HOOKS``, wrapped in
  every ``diffesc`` module namespace that holds it, giving call counts,
  self time (span time minus time covered by child spans) and per-call
  duration percentiles.

Usage: python3 perfbench/child.py <timing.json> <0|1> <diffesc arguments...>

Timestamps are CLOCK_MONOTONIC nanoseconds, which the parent shares.  The
timing file is written even when the command fails.
"""
from __future__ import annotations

import json
import sys
import threading
import time
from array import array

# (layer, attribute path) of every traced public function.  The parent
# derives the per-layer metric names from this table.
HOOKS = (
    ("heat", "step"),
    ("heat", "spatial_integral"),
    ("filters", "estimate_gradient"),
    ("filters", "estimate_hessian"),
    ("filters", "FirstOrderFilter.step"),
    ("controller", "realtime_control"),
    ("controller", "integrate_theta_hat"),
    ("controller", "check_gain"),
    ("dither", "gradient_demod"),
    ("dither", "hessian_demod"),
    ("dither", "design_dither"),
    ("dither", "dither_signal"),
    ("loop", "evaluate_map"),
    ("loop", "run_esc"),
    ("loop", "save_trajectory_csv"),
    ("loop", "save_field_csv"),
    ("svgplot", "line_chart"),
    ("svgplot", "heatmap"),
    ("analysis", "late_time_residuals"),
    ("analysis", "residual_scaling"),
    ("cli", "main"),
)

now_ns = time.monotonic_ns


def _resolve(module, path: str):
    """(owner, attribute name, object) for a dotted path, or None if gone."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


def _rebind(original, replacement) -> None:
    """Point every diffesc module-level name bound to ``original`` at
    ``replacement``: modules import helpers by name, so patching only the
    defining module would miss their calls."""
    for name, mod in list(sys.modules.items()):
        if name == "diffesc" or name.startswith("diffesc."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _install(module, path: str, replacement_for) -> bool:
    found = _resolve(module, path)
    if found is None:
        return False
    owner, attr, original = found
    replacement = replacement_for(original)
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
    else:
        _rebind(original, replacement)
    return True


class PhaseTimer:
    """Untraced mode: records (start, end) of each loop entry call."""

    def __init__(self):
        self.intervals = []

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.intervals.append((t0, now_ns()))
        return timed


class _Stat:
    __slots__ = ("calls", "self_ns", "durations")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.durations = array("q")


class Tracer:
    """Traced mode: per-thread span stacks and per-thread statistics.

    Spans that run in a worker thread with an empty stack were started on
    behalf of the main thread's open ``cli.main`` span; they count as its
    children, as do the main thread's direct children.  Intervals of
    ``cli.main`` and of those top-level spans are kept so ``cli.main`` self
    time and the overlap of concurrent loop calls can be computed from
    their union.
    """

    def __init__(self):
        self._local = threading.local()
        self._stats = []                   # (key, _Stat), one per thread and hook
        self.top_intervals = []            # (key, start, end)
        self.main_ident = threading.main_thread().ident

    def _thread_stats(self):
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = {}
            self._local.stack = []
        return stats

    def wrap(self, key: str, fn):
        def traced(*args, **kwargs):
            stats = self._thread_stats()
            stack = self._local.stack
            depth = len(stack)
            stack.append(0)
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now_ns()
                d = t1 - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += d
                st = stats.get(key)
                if st is None:
                    st = stats[key] = _Stat()
                    self._stats.append((key, st))
                st.calls += 1
                st.self_ns += d - covered
                st.durations.append(d)
                main = threading.get_ident() == self.main_ident
                if depth <= (1 if main else 0):
                    self.top_intervals.append((key, t0, t1))
        return traced

    def report(self, bound: dict) -> dict:
        """Per-hook statistics, loop-call intervals and loop overlap."""
        merged = {}
        for key, st in self._stats:
            m = merged.setdefault(key, [0, 0, array("q")])
            m[0] += st.calls
            m[1] += st.self_ns
            m[2].extend(st.durations)
        trace = {}
        for key, ok in bound.items():
            calls, self_ns, durations = merged.get(key, (0, 0, ()))
            ordered = sorted(durations)
            trace[key] = {
                "bound": ok,
                "calls": calls,
                "self_s": self_ns / 1e9,
                "us_p50": _percentile(ordered, 0.50) / 1e3,
                "us_p99": _percentile(ordered, 0.99) / 1e3,
            }
        main_spans = [(a, b) for k, a, b in self.top_intervals if k == "cli.main"]
        if main_spans and trace.get("cli.main", {}).get("calls"):
            children = [(a, b) for k, a, b in self.top_intervals if k != "cli.main"]
            main_ns = sum(b - a for a, b in main_spans)
            trace["cli.main"]["self_s"] = (main_ns - union_ns(children)) / 1e9
        esc = [(a, b) for k, a, b in self.top_intervals if k == "loop.run_esc"]
        return {
            "trace": trace,
            "loop_intervals": esc,
            "run_esc_overlap": sum(b - a for a, b in esc) / union_ns(esc) if esc else 0.0,
        }


def _percentile(ordered, q: float) -> float:
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def union_ns(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def main(argv) -> int:
    timing_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    record = {"traced": traced}
    t_import = now_ns()
    import diffesc
    import diffesc.cli
    if traced:
        record["import_s"] = (now_ns() - t_import) / 1e9
    record["diffesc_file"] = diffesc.__file__

    phase = PhaseTimer()
    tracer = Tracer() if traced else None
    if traced:
        bound = {}
        for layer, path in HOOKS:
            key = f"{layer}.{path}"
            module = sys.modules.get(f"diffesc.{layer}")
            bound[key] = module is not None and _install(
                module, path, lambda fn, key=key: tracer.wrap(key, fn))
    else:
        _install(diffesc.cli, "run_esc", phase.wrap)

    code = 1
    try:
        code = diffesc.cli.main(cli_args)
    finally:
        if traced:
            record.update(tracer.report(bound))
        else:
            record["loop_intervals"] = phase.intervals
        with open(timing_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
