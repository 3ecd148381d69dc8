"""SVG chart tests: the heatmap color ramp against its per-value reference."""
import math
import re

import numpy as np

from diffesc.svgplot import _ramp_rgb, heatmap


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
