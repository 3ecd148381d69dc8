"""SVG chart tests: the heatmap color ramp against its per-value reference,
both writers against per-point reference copies, byte for byte, the
heatmap's peak memory, and the tick loop against its former unbounded form."""
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diffesc
from diffesc.svgplot import (MAX_POINTS, PALETTE, _fmt, _nice_step, _ramp_rgb, _sample_index,
                             _stride, _ticks, heatmap, line_chart)


def scalar_ramp(frac):
    """Per-value blue -> white -> red ramp; the reference for the array form."""
    frac = min(max(frac, 0.0), 1.0)
    anchors = [(0.0, (33, 102, 172)), (0.5, (247, 247, 247)), (1.0, (178, 24, 43))]
    for (f0, c0), (f1, c1) in zip(anchors, anchors[1:]):
        if frac <= f1:
            s = (frac - f0) / (f1 - f0)
            return tuple(round(a + s * (b - a)) for a, b in zip(c0, c1))
    return (178, 24, 43)        # NaN fails every comparison


def test_ramp_matches_scalar_reference():
    rng = np.random.default_rng(0)
    # the grid hits half-way channels (0.25: green 102 + 0.5 * 145 = 174.5 rounds to even)
    frac = np.concatenate([rng.uniform(-0.5, 1.5, 5000), np.linspace(0.0, 1.0, 1001),
                           [math.nan, math.inf, -math.inf, -0.0, np.nextafter(0.5, 1.0)]])
    r, g, b = _ramp_rgb(frac)
    assert list(zip(r, g, b)) == [scalar_ramp(f) for f in frac.tolist()]


def stacked_ramp(frac):
    """The ramp as (N, 3) channel arrays at once, a copy of the former array form."""
    anchors = np.array([(33, 102, 172), (247, 247, 247), (178, 24, 43)], dtype=float)
    frac = np.clip(np.ravel(frac), 0.0, 1.0)[:, None]
    lower = frac <= 0.5
    lo, hi = np.where(lower, anchors[0], anchors[1]), np.where(lower, anchors[1], anchors[2])
    rgb = np.rint(lo + np.where(lower, frac / 0.5, (frac - 0.5) / 0.5) * (hi - lo))
    rgb[np.isnan(frac[:, 0])] = anchors[2]
    return rgb.astype(int).T.tolist()


def test_ramp_matches_stacked_channel_form():
    # the per-channel in-place form rounds every cell as the (N, 3) form did
    rng = np.random.default_rng(3)
    frac = np.concatenate([rng.uniform(-0.5, 1.5, 50000), np.full(7, math.nan),
                           np.full(5, 0.25), np.full(5, 0.5), [0.0, 1.0, -1e-300]])
    rng.shuffle(frac)
    assert _ramp_rgb(frac) == stacked_ramp(frac)
    assert _ramp_rgb(np.empty(0)) == stacked_ramp(np.empty(0)) == [[], [], []]


def test_ramp_flattens_and_returns_ints():
    r, g, b = _ramp_rgb(np.array([[0.0, 0.5], [1.0, math.nan]]))
    assert (r, g, b) == ([33, 247, 178, 178], [102, 247, 24, 24], [172, 247, 43, 43])
    assert all(type(v) is int for v in r + g + b)


def test_heatmap_cells_follow_the_ramp(tmp_path):
    x, y = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 2.0, 3)
    values = np.arange(12.0).reshape(4, 3)
    path = tmp_path / "field.svg"
    heatmap(path, "field", "t", "x", x, y, values)
    fills = re.findall(r'fill="(rgb\([^)]*\))"', path.read_text())
    expected = [f"rgb{scalar_ramp(v / 11.0)}".replace(" ", "") for v in values.ravel()]
    assert fills[:12] == expected                 # cells in (x, y) order, then the color bar
    assert fills[12] == "rgb(33,102,172)" and fills[-1] == "rgb(178,24,43)"
    assert len(fills) == 12 + 60


def reference_line_chart(path, title, xlabel, ylabel, series, y_log=False, width=880,
                         height=400):
    """``line_chart`` with one ``sx``/``sy`` call and one format per polyline point."""
    ml, mr, mt, mb = 64, 16, 34, 44
    pw, ph = width - ml - mr, height - mt - mb

    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if y_log:
            keep &= y > 0
        if keep.any():
            cleaned.append((label, _stride(x[keep]), _stride(y[keep])))

    x_lo = min(float(x.min()) for _, x, _ in cleaned)
    x_hi = max(float(x.max()) for _, x, _ in cleaned)
    ys = [np.log10(y) if y_log else y for _, _, y in cleaned]
    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return ml + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return mt + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" y2="{mt+ph}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt+ph+16}" text-anchor="middle">{_fmt(tv)}</text>')
    y_ticks = _ticks(y_lo, y_hi)
    if y_log:
        lo_i, hi_i = math.ceil(y_lo), math.floor(y_hi)
        stride = max(1, (hi_i - lo_i) // 8 + 1) if hi_i >= lo_i else 1
        y_ticks = list(range(lo_i, hi_i + 1, stride)) or [lo_i]
    for tv in y_ticks:
        py = sy(tv)
        label = f"1e{tv:d}" if y_log else _fmt(tv)
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml+pw}" y2="{py:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{ml-6}" y="{py+4:.1f}" text-anchor="end">{label}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333333"/>')

    for idx, (label, x, y) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        yy = np.log10(y) if y_log else y
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, yy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
        lx, ly = ml + pw - 150, mt + 16 + 16 * idx
        parts.append(f'<line x1="{lx}" y1="{ly-4}" x2="{lx+22}" y2="{ly-4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx+28}" y="{ly}">{label}</text>')

    parts.append(f'<text x="{ml+pw/2:.1f}" y="{height-8}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt+ph/2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def reference_heatmap(path, title, xlabel, ylabel, x, y, values, width=880, height=420,
                      max_cells=200):
    """``heatmap`` with ``np.unique`` sampling and one format per cell in a nested loop."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    xi = np.unique(np.linspace(0, x.size - 1, min(x.size, max_cells)).astype(int))
    yi = np.unique(np.linspace(0, y.size - 1, min(y.size, max_cells)).astype(int))
    sub = values[np.ix_(xi, yi)]
    v_lo, v_hi = float(np.nanmin(sub)), float(np.nanmax(sub))
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0

    ml, mr, mt, mb = 64, 80, 34, 44
    pw, ph = width - ml - mr, height - mt - mb
    cw, ch = pw / xi.size, ph / yi.size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    r, g, b = _ramp_rgb((sub - v_lo) / (v_hi - v_lo))
    for i in range(xi.size):
        for j in range(yi.size):
            c = i * yi.size + j
            px = ml + i * cw
            py = mt + ph - (j + 1) * ch
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw+0.5:.2f}" height="{ch+0.5:.2f}" '
                f'fill="rgb({r[c]},{g[c]},{b[c]})"/>'
            )
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333333"/>')
    for frac, anchor in ((0.0, "start"), (0.5, "middle"), (1.0, "end")):
        px = ml + frac * pw
        parts.append(
            f'<text x="{px:.1f}" y="{mt+ph+16}" text-anchor="{anchor}">{_fmt(x[xi[0]] + frac*(x[xi[-1]]-x[xi[0]]))}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        py = mt + ph - frac * ph
        parts.append(f'<text x="{ml-6}" y="{py+4:.1f}" text-anchor="end">{_fmt(y[yi[0]] + frac*(y[yi[-1]]-y[yi[0]]))}</text>')
    bx = ml + pw + 18
    r, g, b = _ramp_rgb(np.arange(60) / 59.0)
    for k in range(60):
        py = mt + ph - (k + 1) * ph / 60.0
        parts.append(f'<rect x="{bx}" y="{py:.2f}" width="14" height="{ph/60+0.5:.2f}" fill="rgb({r[k]},{g[k]},{b[k]})"/>')
    parts.append(f'<text x="{bx+18}" y="{mt+ph+4:.1f}">{_fmt(v_lo)}</text>')
    parts.append(f'<text x="{bx+18}" y="{mt+10:.1f}">{_fmt(v_hi)}</text>')
    parts.append(f'<text x="{ml+pw/2:.1f}" y="{height-8}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt+ph/2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def chart_series(case):
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 14.0, 1401)
    if case == "plain":
        return [("y", t, 5.0 - np.exp(-t) * np.cos(7.0 * t)), ("U", t, rng.normal(size=t.size))]
    if case == "log":
        # zeros, negatives and non-finite samples are dropped before the log
        y = np.exp(-t) * (1.0 + 0.5 * np.sin(9.0 * t))
        y[::97], y[5::131], y[7::211], y[11::307] = 0.0, -1.0, np.nan, np.inf
        return [("norm", t, y), ("tiny", t[::3], 1e-9 * np.exp(-0.1 * t[::3]))]
    # longer than MAX_POINTS, so strided; non-finite x is dropped too
    tl = np.linspace(0.0, 30.0, 3 * MAX_POINTS + 7)
    y = np.sin(tl) + 1e-3 * rng.normal(size=tl.size)
    tl[[3, 400, 9000]] = [np.nan, np.inf, -np.inf]
    return [("long", tl, y), ("short", t, np.cos(t))]


@pytest.mark.parametrize("case", ["plain", "log", "long"])
def test_line_chart_matches_per_point_reference(tmp_path, case):
    series = chart_series(case)
    ours, ref = tmp_path / "ours.svg", tmp_path / "ref.svg"
    line_chart(ours, "title", "t [s]", "y", series, y_log=case == "log")
    reference_line_chart(ref, "title", "t [s]", "y", series, y_log=case == "log")
    assert ours.read_bytes() == ref.read_bytes()
    assert ours.read_text().count("<polyline") == 2


@pytest.mark.parametrize("shape", [(71, 101), (4, 3), (1, 7), (250, 101), (437, 613)])
def test_heatmap_matches_nested_loop_reference(tmp_path, shape):
    # shapes above max_cells = 200 are sub-sampled on that axis
    rng = np.random.default_rng(2)
    x, y = np.linspace(0.0, 14.0, shape[0]), np.linspace(0.0, 1.0, shape[1])
    values = rng.normal(size=shape)
    values[0, 0], values[-1, -1] = np.nan, -0.0
    ours, ref = tmp_path / "ours.svg", tmp_path / "ref.svg"
    heatmap(ours, "field", "t [s]", "x", x, y, values)
    reference_heatmap(ref, "field", "t [s]", "x", x, y, values)
    assert ours.read_bytes() == ref.read_bytes()
    cells = min(shape[0], 200) * min(shape[1], 200)
    assert ours.read_text().count("<rect") == 2 + cells + 60


def test_heatmap_peak_memory_at_full_size(tmp_path):
    # cells are written a column at a time: holding the whole document peaked at
    # 17.4 MiB for this 200 x 200 field, writing it column by column at 5.3 MiB,
    # and ramping one colour channel at a time at 2.8 MiB
    rng = np.random.default_rng(2)
    x, y = np.linspace(0.0, 14.0, 200), np.linspace(0.0, 1.0, 200)
    values = rng.normal(size=(200, 200))
    tracemalloc.start()
    try:
        heatmap(tmp_path / "field.svg", "field", "t [s]", "x", x, y, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def test_sample_index_matches_unique():
    for size in range(1, 601):
        for count in (1, 2, 3, 50, 199, 200, 201, 600):
            ref = np.unique(np.linspace(0, size - 1, min(size, count)).astype(int))
            np.testing.assert_array_equal(_sample_index(size, count), ref)


def _unbounded_ticks(lo, hi, cap=1000):
    """The former tick loop, with only its end condition; None where it runs past cap."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    out, v = [], math.ceil(lo / step) * step
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
        if len(out) > cap:
            return None
    return out


def test_ticks_match_the_unbounded_loop_wherever_it_ends():
    # ranges of every magnitude and span, down to a few ulps, and nice-number endpoints
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(20000):
        centre = rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-12, 15)
        span = 10.0 ** rng.uniform(-12, 12)
        if rng.random() < 0.3:
            step = _nice_step(span)
            lo = round(centre / step) * step
            hi = lo + rng.integers(1, 13) * step * (1 + rng.choice([0.0, 1e-10, -1e-10]))
        else:
            lo, hi = centre, centre + span
        ref = _unbounded_ticks(float(lo), float(hi))
        if ref is not None:
            checked += 1
            assert _ticks(float(lo), float(hi)) == ref, (lo, hi)
    assert checked > 19000


def test_ticks_end_where_the_step_cannot_move_the_value(tmp_path):
    # near 1e16 an ulp is 2, so the former `v += 1.0` left v unmoved and never ended;
    # a subprocess with a timeout keeps a regression from hanging the suite
    probe = ("import sys, numpy as np; from diffesc.svgplot import _ticks, line_chart; "
             "print(_ticks(1e16 - 4.2, 1e16 + 0.2)); "
             "t = np.linspace(0.0, 1.0, 50); "
             "line_chart(sys.argv[1], 'near 1e16', 't', 'y', [('y', t, 1e16 - 4.2 + 4.4 * t)])")
    env = {**os.environ, "PYTHONPATH": str(Path(diffesc.__file__).parents[1])}
    path = tmp_path / "near.svg"
    res = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True,
                         text=True, check=True, env=env, timeout=60)
    step = _nice_step(4.4)
    ticks = json.loads(res.stdout)
    assert 1 <= len(ticks) <= 2 * math.floor(4.4 / step) + 2
    assert all(a < b for a, b in zip(ticks, ticks[1:])), ticks     # no repeated labels
    assert path.read_text().rstrip().endswith("</svg>")
