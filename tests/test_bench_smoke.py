"""Each benchmark workload runs once, untimed, and passes its own checks.

perfbench/ calls the library directly (ConvKernel, UNetConfig, adam_step,
the tiling and CLI entry points), so a signature change in src/ that
breaks the benchmark fails here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_bench(*args):
    """The bench's closing JSON record, after checking the run was correct."""
    proc = subprocess.run(
        [sys.executable, str(RUN), *args, "--seed", "7", "--seconds", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, **BLAS_ONE_THREAD},
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    record = json.loads(lines[-1])
    assert record["correct"] is True, proc.stdout
    assert record["failed"] == 0, proc.stdout
    return record


@pytest.mark.parametrize("workload", ["train", "holdout", "ingest"])
def test_workload_runs_correct(workload):
    run_bench("--workload", workload)


def test_traced_train_attributes_every_layer():
    # the bench attributes conv calls to layers by weight shape; a kernel change
    # that hid a layer from it would leave that layer's times at 0
    metrics = run_bench("--workload", "train", "--trace", "1")["metrics"]
    times = {name: m["value"] for name, m in metrics.items()
             if name.startswith("kernels.") and name.endswith(("fwd_ms", "bwd_ms"))}
    assert len(times) == 38
    assert all(v > 0 for v in times.values()), times
