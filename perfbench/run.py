"""fireseg benchmark: one workload per call, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload train --seed 7 --seconds 20 --trace 0

Runs the workload's set-up three times (the last one is kept), then its
measured phase in a closed loop, one pipeline iteration after another,
until --seconds have passed (at least three iterations; --seconds 0 runs
a single set-up and iteration, untimed). It checks the outputs, prints
every metric with its unit and sample count, and ends with one JSON line:
the end-to-end metrics named in BENCHMARK.json, or with --trace 1 the
per-layer ones. A set-up or iteration that raises, or a failed check,
makes the line say `"correct": false`. See perfbench/README.md.
"""

# BLAS must be pinned before numpy loads anywhere in this process.
import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    if os.environ.get(_var, "1") != "1":
        sys.exit(f"error: {_var}={os.environ[_var]}; the benchmark runs BLAS on one thread only")
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import shutil
import statistics
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import perlayer
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_ITERATIONS = 3
BATCH = 32
# Seconds the reference mix takes on the machine of the first numbers in
# README.md; `setup_s` is set-up time scaled to that machine's speed.
REF_NOMINAL_S = 0.15

# Every end-to-end metric the benchmark can print; BENCHMARK.json picks the
# ones every workload produces for its JSON line.
E2E_UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "stage.generate_s": "s",
    "stage.prepare_s": "s",
    "stage.train_s": "s",
    "stage.evaluate_s": "s",
    "stage.predict_s": "s",
    "train_tiles_per_s": "1/s",
    "infer_tiles_per_s": "1/s",
    "peak_rss_mb": "MB",
    "holdout_sens": "ratio",
    "holdout_spec": "ratio",
    "holdout_sh2_ratio": "ratio",
    "failed_ratio": "ratio",
}


class PeakRss(threading.Thread):
    """Samples this process's resident set every few milliseconds; keeps the maximum."""

    def __init__(self, interval: float = 0.005):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak = 0
        self._stop_event = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def run(self) -> None:
        with open("/proc/self/statm", "rb") as f:
            while not self._stop_event.is_set():
                f.seek(0)
                self.peak = max(self.peak, int(f.read().split()[1]) * self._page)
                self._stop_event.wait(self.interval)

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        return self.peak / 1e6


class Reference:
    """A fixed numpy workload, timed before and after every set-up and iteration.

    On a shared machine, speed drifts over tens of minutes with other
    tenants' load, and the drift hits fireseg and this mix alike: on a
    shared 2-core Xeon VM, the median `train` iteration of ten runs moved
    by +24 % between two such sets, its ratio to this mix by -1.6 %.
    `wall_ref` divides each iteration's seconds by the mean of the
    reference times taken just before and just after it, and takes the
    median; `setup_s` does the same for set-ups and scales by
    `REF_NOMINAL_S`. The mix is im2col copies and float32 GEMMs like the
    conv kernels, and float64 element-wise passes like the synthetic
    generator; it calls no fireseg code. Its buffers (a few MB) are
    allocated and touched before the first set-up, so it adds a constant
    to `peak_rss_mb` and allocates nothing while timed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((8, 16, 34, 34), dtype=np.float32)
        self.w = rng.random((144, 16), dtype=np.float32)
        self.col = np.empty((8, 32, 32, 16, 3, 3), np.float32)
        self.out = np.empty((8 * 32 * 32, 16), np.float32)
        self.field = rng.random((192, 192))
        self.acc = np.empty_like(self.field)
        self.seconds()

    def seconds(self) -> float:
        windows = np.lib.stride_tricks.as_strided(
            self.x, (8, 32, 32, 16, 3, 3), (self.x.strides[0], *self.x.strides[2:], self.x.strides[1], *self.x.strides[2:])
        )
        t0 = time.perf_counter()
        for _ in range(24):
            np.copyto(self.col, windows)
            np.matmul(self.col.reshape(-1, 144), self.w, out=self.out)
            np.maximum(self.out, 0, out=self.out)
        for _ in range(60):
            np.cumsum(self.field, axis=0, out=self.acc)
            np.multiply(self.acc, -1e-3, out=self.acc)
            np.exp(self.acc, out=self.acc)
            self.acc.sum()
        return time.perf_counter() - t0


def release_free_memory() -> None:
    """Hand freed heap back to the OS so set-up garbage does not count as measured RSS."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, then run iterations for `seconds`.

    A traced run alternates untraced and traced iterations, so that both
    see the same machine conditions; their wall times give the overhead.
    A set-up that raises ends the run without iterations.
    """
    tracing = tracer.Tracer() if trace else None
    timed = seconds > 0
    setups, iterations, errors = [], [], []
    reference = Reference()
    result = {"setups": setups, "iterations": iterations, "errors": errors,
              "peak_rss_mb": 0.0, "spans": tracing.spans if tracing is not None else []}
    for rep in range(SETUP_REPS if timed else 1):
        before = reference.seconds()
        t0 = time.perf_counter()
        try:
            if tracing is None:
                stages = workload.setup()
            else:
                tracing.request = f"setup{rep}"
                with tracing:
                    stages = workload.setup()
        except Exception:  # counted as a failed operation; no iteration runs
            errors.append(traceback.format_exc(limit=4))
            return result
        raw = time.perf_counter() - t0
        setups.append({"setup_raw_s": raw, "reference_s": (before, reference.seconds()), **stages})
    release_free_memory()

    def attempt(request: str, traced: bool) -> None:
        if not traced and tracer.installed():
            raise RuntimeError(f"tracer wrappers left installed: {tracer.installed()}")
        before = reference.seconds()
        try:
            if traced:
                tracing.request = request
                with tracing:
                    result = workload.iteration()
            else:
                result = workload.iteration()
        except Exception:  # counted as a failed operation; the run goes on
            errors.append(traceback.format_exc(limit=4))
            result = None
        after = reference.seconds()
        iterations.append({"request": request, "traced": traced, "result": result,
                           "reference_s": (before, after)})

    least = (4 if trace else MIN_ITERATIONS) if timed else (2 if trace else 1)
    rss = PeakRss()
    rss.start()
    start = time.perf_counter()
    try:
        n = 0
        while n < least or (timed and time.perf_counter() - start < seconds):
            attempt(f"iter{n}", trace and n % 2 == 1)
            n += 1
    finally:
        result["peak_rss_mb"] = rss.stop()
    return result


def end_to_end(run: dict, failed: int) -> dict[str, tuple[float, int]]:
    """(median, sample count) of every end-to-end metric the workload produced.

    Set-up timings come from every set-up, the rest from the completed
    untraced iterations. `wall_ref` is the median over those iterations of
    `wall_s` over the mean of the two reference times taken around it;
    `setup_s` is the same median over set-ups, in seconds at `REF_NOMINAL_S`.
    """
    plain = [it for it in run["iterations"] if it["result"] is not None and not it["traced"]]
    timed = [it["result"] for it in plain]
    samples: dict[str, list[float]] = {}
    for record in run["setups"] + timed:
        for name, value in record.items():
            if name in E2E_UNITS:
                samples.setdefault(name, []).append(value)
    out = {name: (median(values), len(values)) for name, values in samples.items()}
    if run["setups"]:
        ratios = [s["setup_raw_s"] / statistics.mean(s["reference_s"]) for s in run["setups"]]
        out["setup_s"] = (median(ratios) * REF_NOMINAL_S, len(ratios))
    if plain:
        ratios = [it["result"]["wall_s"] / statistics.mean(it["reference_s"]) for it in plain]
        out["wall_ref"] = (median(ratios), len(ratios))
    out["peak_rss_mb"] = (run["peak_rss_mb"], 1)
    attempted = max(1, len(run["iterations"]))
    out["failed_ratio"] = (failed / attempted, attempted)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fireseg" / "__init__.py").is_file():
        print(f"error: fireseg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from fireseg import unet as U

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        run = measure(workload, args.seconds, bool(args.trace))
        done = [it for it in run["iterations"] if it["result"] is not None]
        failures = list(run["errors"])
        try:
            failures += workload.finish([it["result"] for it in done]) if done else ["no iteration completed"]
        except Exception:  # a check that cannot run has failed
            failures.append(traceback.format_exc(limit=4))
        layers = {}
        if args.trace:
            traced = [it for it in done if it["traced"]]
            plain = [it for it in done if not it["traced"]]
            shapes = U.layer_shapes(U.UNetConfig(in_channels=workloads.CHANNELS, init_features=8))
            layers, unattributed = perlayer.per_layer(
                run["spans"], [it["request"] for it in traced],
                [f"setup{i}" for i in range(len(run["setups"]))], shapes, BATCH,
                [it["result"] for it in traced],
            )
            if unattributed:
                failures.append(f"conv calls with weight shapes of no layer: {sorted(set(unattributed))}")
            if traced and plain:
                layers["trace.overhead_ratio"] = median(it["result"]["wall_s"] for it in traced) / median(
                    it["result"]["wall_s"] for it in plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a failed operation is a set-up or iteration that raised, or a check that failed;
    # a run whose set-up raised is one attempted operation, and it failed
    attempted = max(1, len(run["iterations"]))
    failed = min(attempted, len(failures))
    e2e = end_to_end(run, failed)
    env = environment()
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(run['setups'])} set-ups, "
          f"{attempted} iterations, {'traced' if args.trace else 'untraced'}")
    for name, (value, n) in e2e.items():
        print(f"  {name:<24} {value:>14.6g} {E2E_UNITS[name]:<6} n={n}")
    for name, value in layers.items():
        print(f"  {name:<40} {value:>14.6g}")
    for failure in failures:
        print(f"FAILED: {failure}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else {name: value for name, (value, _) in e2e.items()}
    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    samples = [
        {"request": it["request"], "traced": it["traced"], "reference_s": it["reference_s"],
         **{k: v for k, v in (it["result"] or {}).items() if not k.startswith("_")}}
        for it in run["iterations"]
    ]
    results = HERE / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "setups": run["setups"], "iterations": samples, "end_to_end": e2e,
                    "per_layer": layers, "failures": failures, "result": record}, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
