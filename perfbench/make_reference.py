"""Regenerate ``reference.json``: the gate's observables of one command per
workload on the default seed.  Run it only when the program's results are
meant to change, and review the diff.

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import shutil
import sys
import time

from run import WORK, run_command
from workloads import DEFAULT_SEED, REFERENCE, REF_ATOL, REF_RTOL, WORKLOADS, generate


def main() -> int:
    reference = {"tolerance": {"rtol": REF_RTOL, "atol": REF_ATOL}}
    for name in WORKLOADS:
        inp = generate(name, DEFAULT_SEED)
        work = WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "config.cfg"
        config.write_text(inp.config_text)
        rec = run_command(inp, config, work / "op", False, time.monotonic() + 170.0,
                          with_reference=False)
        shutil.rmtree(work, ignore_errors=True)
        if rec["problems"]:
            print(f"{name}: {rec['problems']}", file=sys.stderr)
            return 1
        reference[name] = {"config_sha256": inp.config_sha256,
                           "values": rec["observables"]}
        print(f"{name}: {len(rec['observables'])} values")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
