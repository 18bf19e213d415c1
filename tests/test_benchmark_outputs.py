"""The benchmark workloads' outputs, pinned.

``perfbench/workloads.py`` builds the operations of the two benchmark
workloads.  Here seeds 1-3 of each are built and every operation runs once,
without the checks; one sha256 over the ``repr`` of each result, in
operation order, pins them.  A change that keeps the library's results
keeps both digests, whatever it does to their speed; a change that alters
an output on purpose updates the pin and says why.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

import admgraph as ag
import admgraph.cli  # noqa: F401  (the cli-batch operations call ag.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2, 3)

# workload -> (results, sha256)
PINNED = {
    "closed-form": (345, "2dec53ffbda12aed1ead0f7f00721c4999e3daed52ec0ddbe6c80daa346427f6"),
    # (exit code, stdout, stderr) of each in-process CLI call
    "cli-batch": (684, "f3fae0392f6f4bab3080d3814efe35eb7f7e348c12a912f6856859475e32c72d"),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_workload_outputs_are_pinned(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    digest = hashlib.sha256()
    results = 0
    for seed in SEEDS:
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        for op in workloads.PREPARE[workload](ag, seed, str(workdir)).ops:
            digest.update(repr(op.run()).encode())
            results += 1
    assert (results, digest.hexdigest()) == PINNED[workload]
