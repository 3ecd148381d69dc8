"""Print a SHA-256 digest of every file the CLI writes for the bundled configs.

Usage:
    PYTHONPATH=src python3 scripts/digest_runs.py [--duration SECONDS] [--save DIR]
    PYTHONPATH=src python3 scripts/digest_runs.py --compare A B

Runs ``diffesc run`` on each bundled config and ``diffesc sweep --param a
--values 0.1,0.2,0.3`` on the bundled ``amplitude_sweep`` config, all through
``diffesc.cli.main`` in a temporary directory.  Each config's duration is cut
to ``--duration`` seconds (default 5; ``inf`` keeps every config's own).
Standard output is one JSON line mapping each written file's path,
relative to the output root, to its SHA-256.  ``manifest.json`` files are
left out because they embed the config and output paths; the checksums they
list are covered by the digests of the files themselves.  Two checkouts that
print the same line wrote byte-identical artifacts.

``--save DIR`` writes the artifact tree to DIR (which must not exist) instead
of a temporary directory.  ``--compare A B`` reads two saved trees and prints
one JSON line mapping each file path (manifests left out) to the largest
relative difference of its CSV columns, max|b - a| / max|a| over each
column, or else to ``identical`` or ``differs``; a file only one tree has maps
to ``only in A`` or ``only in B``.  It tells how far two checkouts'
trajectories agree when their bytes do not.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from diffesc import cli

SWEEP = ("amplitude_sweep", "a", "0.1,0.2,0.3")


def _shortened(name: str, duration: float, folder: Path) -> Path:
    """A copy of bundled config ``name`` whose run lasts at most ``duration`` seconds."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(resources.files("diffesc.configs").joinpath(f"{name}.cfg").read_text())
    own = parser.getfloat("scenario", "duration")
    parser.set("scenario", "duration", repr(min(own, duration)))
    path = folder / f"{name}.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def digest(duration: float, save=None) -> dict:
    """Run every bundled config for at most ``duration`` seconds and digest
    what it wrote; ``save`` is the directory to write it to (default temporary)."""
    names = sorted(p.name[:-4] for p in resources.files("diffesc.configs").iterdir()
                   if p.name.endswith(".cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "configs").mkdir()
        out = root / "out" if save is None else Path(save)
        if out.exists():
            raise SystemExit(f"{out} already exists")
        commands = [["run", "--config", str(_shortened(name, duration, root / "configs")),
                     "--out", str(out / name)] for name in names]
        config, param, values = SWEEP
        commands.append(["sweep", "--config", str(root / "configs" / f"{config}.cfg"),
                         "--param", param, "--values", values, "--out", str(out / "sweep")])
        for argv in commands:
            with contextlib.redirect_stdout(sys.stderr):     # keep stdout to the digest line
                rc = cli.main(argv)
            if rc != cli.EXIT_OK:
                raise SystemExit(f"diffesc {' '.join(argv)} exited {rc}")
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in _artifacts(out)}


def _artifacts(root: Path) -> list:
    return [p for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"]


def _csv_difference(a: Path, b: Path):
    """Largest max|b - a| / max|a| over the columns of two CSV files, or
    ``differs`` when their headers or shapes disagree."""
    if a.read_text().partition("\n")[0] != b.read_text().partition("\n")[0]:
        return "differs"
    x, y = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (a, b))
    if x.shape != y.shape:
        return "differs"
    scale = np.max(np.abs(x), axis=0, initial=0.0)
    delta = np.max(np.abs(y - x), axis=0, initial=0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(delta == 0.0, 0.0, delta / scale)
    return float(np.max(rel, initial=0.0))


def compare(a, b) -> dict:
    """Per-file agreement of two saved artifact trees (see the module docstring)."""
    a, b = Path(a), Path(b)
    files_a = {str(p.relative_to(a)) for p in _artifacts(a)}
    files_b = {str(p.relative_to(b)) for p in _artifacts(b)}
    result = {}
    for name in sorted(files_a | files_b):
        if name not in files_b:
            result[name] = "only in A"
        elif name not in files_a:
            result[name] = "only in B"
        elif name.endswith(".csv"):
            result[name] = _csv_difference(a / name, b / name)
        else:
            same = (a / name).read_bytes() == (b / name).read_bytes()
            result[name] = "identical" if same else "differs"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=5.0,
                        help="longest run in seconds (default 5; inf keeps each config's own)")
    parser.add_argument("--save", metavar="DIR", help="keep the artifact tree in DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved artifact trees instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        print(json.dumps(compare(*args.compare), sort_keys=True))
    else:
        print(json.dumps(digest(args.duration, args.save), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
