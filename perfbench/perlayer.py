"""Per-layer metrics from the spans of a traced run.

Conventions, also listed in perfbench/README.md:
- `kernels.<layer>.fwd_ms`/`.bwd_ms`, `unet.*.ms`, `kernels.weighted_ce_loss.ms`
  and `kernels.adam_step.ms` are the median milliseconds of one call, on a
  full batch where the call takes a batch;
- every other `.ms` and `.mb` is a total per pipeline iteration (median
  over traced iterations), or per set-up when the function ran only there;
- GFLOP/s divide computed FLOPs (opmodel.py) by measured time.
A layer that did not run reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

import opmodel

CLI_STAGES = ("generate", "prepare", "train", "evaluate", "predict")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _per_call_ms(spans, batch: int, size=lambda s: s.info.get("n")) -> float:
    full = [s.seconds for s in spans if size(s) == batch]
    return 1e3 * _median(full or [s.seconds for s in spans])


def _water_tiles(mask: np.ndarray, side: int = 32) -> tuple[int, int]:
    h, w = mask.shape
    tiles = [mask[r : r + side, c : c + side] for r in range(0, h, side) for c in range(0, w, side)]
    return sum(bool(np.all(t == 2)) for t in tiles), len(tiles)


class SpanIndex:
    def __init__(self, spans, iterations: list[str], setups: list[str]):
        self.spans = spans
        self.iterations, self.setups = iterations, setups
        self.by_name = defaultdict(list)
        self.child_seconds = defaultdict(float)
        self.conv_child_seconds = defaultdict(float)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent >= 0:
                self.child_seconds[s.parent] += s.seconds
                if s.name.startswith("kernels.conv"):
                    self.conv_child_seconds[s.parent] += s.seconds
        self.index = {id(s): i for i, s in enumerate(spans)}

    def in_iterations(self, name: str):
        wanted = set(self.iterations)
        return [s for s in self.by_name[name] if s.request in wanted]

    def per_request(self, names, value=lambda idx, s: s.seconds) -> float:
        """Median over iterations of the per-iteration sum; over set-ups if it ran only there."""
        for requests in (self.iterations, self.setups):
            sums = dict.fromkeys(requests, 0.0)
            for name in names:
                for s in self.by_name[name]:
                    if s.request in sums:
                        sums[s.request] += value(self.index[id(s)], s)
            if any(sums.values()):
                return _median(sums.values())
        return 0.0

    def ancestors(self, s):
        while s.parent >= 0:
            s = self.spans[s.parent]
            yield s


def conv_metrics(idx: SpanIndex, models: list[opmodel.LayerModel], batch: int) -> tuple[dict, list]:
    """Per-layer conv timings; also returns the weight shapes no layer claimed."""
    by_shape = {m.weight_shape: m for m in models}
    calls = defaultdict(list)
    unattributed = []
    for name in ("conv2d", "conv_transpose2d"):
        for direction, suffix in (("fwd", "forward"), ("bwd", "backward")):
            for s in idx.in_iterations(f"kernels.{name}_{suffix}"):
                model = by_shape.get(tuple(s.info["w"]))
                if model is None:
                    unattributed.append(tuple(s.info["w"]))
                    continue
                calls[(model.name, direction)].append(s)
    out = {}
    for m in models:
        for d, pick in (("fwd", 0), ("bwd", 1)):
            spans = calls[(m.name, d)]
            out[f"kernels.{m.name}.{d}_ms"] = _per_call_ms(spans, batch, lambda s: s.info["x"][0])
            flops = sum(
                opmodel.conv_flops(m.transposed, s.info["x"][0], s.info["x"][2], s.info["x"][3], m.weight_shape)[pick]
                for s in spans
            )
            seconds = sum(s.seconds for s in spans)
            out[f"kernels.{m.name}.{d}_gflops"] = flops / seconds / 1e9 if seconds else 0.0
    gflop, col_mb = opmodel.per_step(models, batch)
    out["kernels.conv_gflop_per_step"] = gflop
    out["kernels.im2col_mb_per_step"] = col_mb
    return out, unattributed


def step_times(idx: SpanIndex, batch: int) -> list[float]:
    """Seconds from each full-batch unet.forward(training=True) to the end of the next adam_step."""
    steps = []
    for request in idx.iterations:
        forwards = [
            s for s in idx.by_name["unet.forward"]
            if s.request == request and s.info.get("training") and s.info["n"] == batch
        ]
        adams = [s for s in idx.by_name["kernels.adam_step"] if s.request == request]
        j = 0
        for f in forwards:
            while j < len(adams) and adams[j].start < f.start:
                j += 1
            if j < len(adams):
                steps.append(adams[j].end - f.start)
    return steps


def per_layer(spans, iterations: list[str], setups: list[str], layer_shapes, batch: int,
              iteration_facts: list[dict]) -> tuple[dict, list]:
    idx = SpanIndex(spans, iterations, setups)
    models = opmodel.layer_models(layer_shapes)
    out, unattributed = conv_metrics(idx, models, batch)

    for name in ("weighted_ce_loss", "adam_step"):
        out[f"kernels.{name}.ms"] = 1e3 * _median(s.seconds for s in idx.in_iterations(f"kernels.{name}"))
    for name in ("forward", "backward"):
        spans_ = idx.in_iterations(f"unet.{name}")
        out[f"unet.{name}.ms"] = _per_call_ms(spans_, batch)
        full = [s for s in spans_ if s.info.get("n") == batch] or spans_
        out[f"unet.{name}.self_ms"] = 1e3 * _median(
            s.seconds - idx.conv_child_seconds[idx.index[id(s)]] for s in full
        )

    steps = [1e3 * t for t in step_times(idx, batch)]
    out["training.step_ms.p50"] = _percentile(steps, 50)
    out["training.step_ms.p90"] = _percentile(steps, 90)
    out["training.steps"] = _median(
        sum(1 for s in idx.by_name["kernels.adam_step"] if s.request == r) for r in iterations
    )
    out["training.epochs"] = _median(f.get("training.epochs", 0) for f in iteration_facts)
    out["training.wasted_epoch_ratio"] = _median(f.get("training.wasted_epoch_ratio", 0) for f in iteration_facts)
    fold_seconds = sum(s.seconds for s in idx.in_iterations("training.train_fold"))
    val_seconds = sum(
        s.seconds
        for s in idx.in_iterations("unet.forward")
        if not s.info.get("training") and any(a.name == "training.train_fold" for a in idx.ancestors(s))
    )
    out["training.val_share"] = val_seconds / fold_seconds if fold_seconds else 0.0

    def total_ms(*names: str) -> float:
        return 1e3 * idx.per_request(names)

    out["data.materialize_batch.ms"] = total_ms("data.materialize_batch")
    out["data.extract_tiles.ms"] = total_ms("data.extract_tiles")
    out["data.fit_scaling.ms"] = total_ms("data.fit_scaling")
    out["data.scale_encode.ms"] = total_ms("data.apply_scaling", "data.one_hot_encode")
    out["data.apply_fire_buffer.ms"] = total_ms("data.apply_fire_buffer")
    for name in ("write_day", "read_day"):
        out[f"formats.{name}.ms"] = total_ms(f"formats.{name}")
        out[f"formats.{name}.mb"] = idx.per_request([f"formats.{name}"], lambda i, s: s.info.get("bytes", 0)) / 1e6
    out["formats.checkpoint.ms"] = total_ms("formats.write_checkpoint", "formats.read_checkpoint")
    out["synthetic.generate_dataset.ms"] = total_ms("synthetic.generate_dataset")
    generated = idx.by_name["synthetic.generate_dataset"]
    seconds = sum(s.seconds for s in generated)
    out["synthetic.mpix_per_s"] = sum(s.info["pixels"] for s in generated) / seconds / 1e6 if seconds else 0.0
    out["metrics.confusion.ms"] = total_ms("metrics.confusion")

    water = total = 0
    for s in idx.in_iterations("training.predict_day"):
        w, t = _water_tiles(s.info["mask"])
        water, total = water + w, total + t
    out["training.predict_water_tile_ratio"] = water / total if total else 0.0

    for stage in CLI_STAGES:
        out[f"cli.{stage}.self_ms"] = 1e3 * idx.per_request(
            [f"cli.cmd_{stage}"], lambda i, s: s.seconds - idx.child_seconds[i]
        )
    return out, unattributed
