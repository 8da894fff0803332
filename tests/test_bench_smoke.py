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


@pytest.mark.parametrize("workload", ["train", "holdout", "ingest"])
def test_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "0"],
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
