"""Print a SHA-256 digest of every file the CLI writes for the bundled configs.

Usage:
    PYTHONPATH=src python3 scripts/digest_runs.py [--duration SECONDS]

Runs ``diffesc run`` on each bundled config and ``diffesc sweep --param a
--values 0.1,0.2,0.3`` on the bundled ``amplitude_sweep`` config, all through
``diffesc.cli.main`` in a temporary directory.  Each config's duration is cut
to ``--duration`` seconds (default 5; ``inf`` keeps every config's own).
Standard output is one JSON line mapping each written file's path,
relative to the output root, to its SHA-256.  ``manifest.json`` files are
left out because they embed the config and output paths; the checksums they
list are covered by the digests of the files themselves.  Two checkouts that
print the same line wrote byte-identical artifacts.
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


def digest(duration: float) -> dict:
    names = sorted(p.name[:-4] for p in resources.files("diffesc.configs").iterdir()
                   if p.name.endswith(".cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "configs").mkdir()
        out = root / "out"
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
                for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=5.0,
                        help="longest run in seconds (default 5; inf keeps each config's own)")
    args = parser.parse_args(argv)
    print(json.dumps(digest(args.duration), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
