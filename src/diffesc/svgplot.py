"""Self-contained SVG charts: line charts and a simple field heatmap.

No plotting dependency: the run artifacts must render anywhere, so the
figures are written directly as standalone SVG with a small palette and
nice-number tick placement.  Long series are strided down before drawing.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "heatmap"]

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
MAX_POINTS = 4000
WIDTH = 880                 # of every chart, px
LINE_HEIGHT = 400
HEATMAP_HEIGHT = 420
MAX_CELLS = 200             # heatmap cells per axis; longer axes are sampled
TICK_TARGET = 6             # ticks per linear axis, before rounding to nice steps


def _nice_step(span: float) -> float:
    raw = span / TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    out = []
    v = math.ceil(lo / step) * step
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:
            # a step below half an ulp of v (a span of a few units near 1e16) cannot
            # move it; one that can moves it at least half a step, so the loop ends
            break
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _stride(arr: np.ndarray) -> np.ndarray:
    if arr.size <= MAX_POINTS:
        return arr
    return arr[:: int(math.ceil(arr.size / MAX_POINTS))]


def _frame(height: int, title: str, xlabel: str, ylabel: str, ml: int, mt: int, pw: int,
           ph: int) -> tuple[str, str, str]:
    """What every chart draws around its data, as three newline-joined pieces: the
    head (the ``<svg>`` header, the white background and the title), the border
    of the ``pw`` x ``ph`` plot area at (``ml``, ``mt``), and the tail (both axis
    labels and ``</svg>``)."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
            f'viewBox="0 0 {WIDTH} {height}" font-family="sans-serif" font-size="12">\n'
            f'<rect width="{WIDTH}" height="{height}" fill="white"/>\n'
            f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    border = f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333333"/>'
    tail = (f'<text x="{ml+pw/2:.1f}" y="{height-8}" text-anchor="middle">{xlabel}</text>\n'
            f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt+ph/2:.1f})">{ylabel}</text>\n</svg>')
    return head, border, tail


def line_chart(path, title: str, xlabel: str, ylabel: str, series,
               y_log: bool = False) -> None:
    """Write a multi-series line chart.

    ``series`` is a list of (label, x, y) triples; non-finite and (for log
    scale) non-positive samples are dropped per series; with none left (a run
    that stays at zero, on a log scale) the chart is an empty frame.
    """
    ml, mr, mt, mb = 64, 16, 34, 44
    pw, ph = WIDTH - ml - mr, LINE_HEIGHT - mt - mb

    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if y_log:
            keep &= y > 0
        if keep.any():
            cleaned.append((label, _stride(x[keep]), _stride(y[keep])))

    x_lo = min((float(x.min()) for _, x, _ in cleaned), default=0.0)
    x_hi = max((float(x.max()) for _, x, _ in cleaned), default=0.0)
    ys = [np.log10(y) if y_log else y for _, _, y in cleaned]
    y_lo = min((float(y.min()) for y in ys), default=0.0)
    y_hi = max((float(y.max()) for y in ys), default=0.0)
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

    head, border, tail = _frame(LINE_HEIGHT, title, xlabel, ylabel, ml, mt, pw, ph)
    parts = [head]
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" y2="{mt+ph}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt+ph+16}" text-anchor="middle">{_fmt(tv)}</text>')
    y_ticks = _ticks(y_lo, y_hi)
    if y_log:
        # decade ticks only, strided to a readable count
        lo_i, hi_i = math.ceil(y_lo), math.floor(y_hi)
        stride = max(1, (hi_i - lo_i) // 8 + 1) if hi_i >= lo_i else 1
        y_ticks = list(range(lo_i, hi_i + 1, stride)) or [lo_i]
    for tv in y_ticks:
        py = sy(tv)
        label = f"1e{tv:d}" if y_log else _fmt(tv)
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml+pw}" y2="{py:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{ml-6}" y="{py+4:.1f}" text-anchor="end">{label}</text>')
    parts.append(border)

    for idx, (label, x, y) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        yy = np.log10(y) if y_log else y
        # sx/sy on whole arrays do the per-point float operations in the same order
        xy = np.column_stack([sx(x), sy(yy)]).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * x.size) % tuple(xy)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
        lx, ly = ml + pw - 150, mt + 16 + 16 * idx
        parts.append(f'<line x1="{lx}" y1="{ly-4}" x2="{lx+22}" y2="{ly-4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx+28}" y="{ly}">{label}</text>')

    parts.append(tail)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


# diverging ramp anchors at fractions 0, 0.5 and 1: blue, white, red
_RAMP = np.array([(33, 102, 172), (247, 247, 247), (178, 24, 43)], dtype=float)


def _ramp_rgb(frac: np.ndarray) -> list[list[int]]:
    """[r, g, b] int lists for flat fractions clipped to [0, 1]; NaN is red; round half-even.

    One channel at a time, in place: the largest temporaries are a few flat arrays."""
    frac = np.clip(np.ravel(frac), 0.0, 1.0)
    lower = frac <= 0.5
    nan = np.isnan(frac)
    s = np.where(lower, frac, frac - 0.5)          # position within the anchors' half
    s /= 0.5
    channels = []
    for c0, c1, c2 in _RAMP.T.tolist():
        lo, hi = np.where(lower, c0, c1), np.where(lower, c1, c2)
        hi -= lo
        hi *= s
        lo += hi
        np.rint(lo, out=lo)
        lo[nan] = c2
        channels.append(lo.astype(int).tolist())
    return channels


def _sample_index(size: int, count: int) -> np.ndarray:
    """min(size, count) evenly spaced indices of range(size); spacing >= 1 keeps them distinct."""
    return np.linspace(0, size - 1, min(size, count)).astype(int)


def heatmap(path, title: str, xlabel: str, ylabel: str,
            x: np.ndarray, y: np.ndarray, values: np.ndarray) -> None:
    """Write a (len(x) x len(y)) value field as a colored-cell chart."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (x.size, y.size):
        raise ValueError(f"values shape {values.shape} does not match axes {(x.size, y.size)}")
    xi, yi = _sample_index(x.size, MAX_CELLS), _sample_index(y.size, MAX_CELLS)
    sub = values[np.ix_(xi, yi)]
    v_lo, v_hi = float(np.nanmin(sub)), float(np.nanmax(sub))
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0

    ml, mr, mt, mb = 64, 80, 34, 44
    pw, ph = WIDTH - ml - mr, HEATMAP_HEIGHT - mt - mb
    cw, ch = pw / xi.size, ph / yi.size
    r, g, b = _ramp_rgb((sub - v_lo) / (v_hi - v_lo))
    # cell (i, j) is at x = ml + i*cw, y = (mt + ph) - (j+1)*ch; each x and y is formatted
    # once, and the cells go to the file one column at a time, never all in memory at once
    ys = [f'{py:.2f}" width="{cw+0.5:.2f}" height="{ch+0.5:.2f}" fill="rgb('
          for py in ((mt + ph) - np.arange(1, yi.size + 1) * ch).tolist()]
    head, border, tail = _frame(HEATMAP_HEIGHT, title, xlabel, ylabel, ml, mt, pw, ph)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for i, px in enumerate((ml + np.arange(xi.size) * cw).tolist()):
            cell = f'\n<rect x="{px:.2f}" y="%s%d,%d,%d)"/>'
            col = slice(i * yi.size, (i + 1) * yi.size)
            fh.write("".join([cell % c for c in zip(ys, r[col], g[col], b[col])]))
        parts = [border]
        for frac, anchor in ((0.0, "start"), (0.5, "middle"), (1.0, "end")):
            px = ml + frac * pw
            parts.append(
                f'<text x="{px:.1f}" y="{mt+ph+16}" text-anchor="{anchor}">{_fmt(x[xi[0]] + frac*(x[xi[-1]]-x[xi[0]]))}</text>'
            )
        for frac in (0.0, 0.5, 1.0):
            py = mt + ph - frac * ph
            parts.append(f'<text x="{ml-6}" y="{py+4:.1f}" text-anchor="end">{_fmt(y[yi[0]] + frac*(y[yi[-1]]-y[yi[0]]))}</text>')
        # color bar
        bx = ml + pw + 18
        r, g, b = _ramp_rgb(np.arange(60) / 59.0)
        for k in range(60):
            py = mt + ph - (k + 1) * ph / 60.0
            parts.append(f'<rect x="{bx}" y="{py:.2f}" width="14" height="{ph/60+0.5:.2f}" fill="rgb({r[k]},{g[k]},{b[k]})"/>')
        parts.append(f'<text x="{bx+18}" y="{mt+ph+4:.1f}">{_fmt(v_lo)}</text>')
        parts.append(f'<text x="{bx+18}" y="{mt+10:.1f}">{_fmt(v_hi)}</text>')
        parts.append(tail)
        fh.write("\n" + "\n".join(parts))
