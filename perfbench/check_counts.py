"""Check that the traced counts repeat exactly and that seeds differ only in
their inputs.

    python3 perfbench/check_counts.py [--workload NAME] [--seed N] [--seconds S]

For each workload, runs the benchmark traced twice with one seed and once
with the next seed, one run after another, each with its own string-hash
seed.  The two same-seed runs must report identical counts (calls, rows,
bit lengths, terms); the other seed must draw different inputs with the
same per-bucket size profile.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("closed-form", "cli-batch")


def traced_run(workload, seed, seconds, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(
        argv, cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600, check=True
    )
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: {info['problems']}")
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()

    ok = True
    for workload in args.workload or WORKLOADS:
        first = traced_run(workload, args.seed, args.seconds, hash_seed=1)
        again = traced_run(workload, args.seed, args.seconds, hash_seed=2)
        other = traced_run(workload, args.seed + 1, args.seconds, hash_seed=3)
        differing = sorted(k for k in first["counts"] if first["counts"][k] != again["counts"][k])
        checks = {
            "counts repeat": not differing,
            "new seed, new inputs": first["inputs_sha256"] != other["inputs_sha256"],
            "new seed, same size profile": first["profile"] == other["profile"],
        }
        for name, passed in checks.items():
            print(f"{workload}: {name}: {'ok' if passed else 'FAILED'}")
        if differing:
            print(f"{workload}: counts that differ: {differing}")
        ok = ok and all(checks.values())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
