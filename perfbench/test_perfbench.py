"""Tests of the benchmark's own parts: the operation model, the tracer,
the float64 reference behind the correctness checks, and the run loop.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np
import pytest

import fireseg.cli
import fireseg.training
import fireseg.unet
import opmodel
import perlayer
import reference
import run
import tracer as T
from fireseg import kernels as K
from fireseg import unet as U

ACCEPTANCE_NET = U.UNetConfig(in_channels=12, init_features=8, seed=3)


def models():
    return {m.name: m for m in opmodel.layer_models(U.layer_shapes(ACCEPTANCE_NET))}


def test_op_model_enc1_conv1_hand_count():
    m = models()["enc1_conv1"]  # [8, 12, 3, 3] over a 32x32 tile, padding 1
    macs = 32 * 32 * 8 * 12 * 9  # per tile: output pixels x out x in x taps
    assert m.flops(32) == (2 * 32 * macs, 4 * 32 * macs)
    col = 32 * (32 * 32) * (12 * 9) * 4  # rows: pixels of the batch; columns: in x taps
    col2 = 32 * (34 * 34) * (8 * 9) * 4  # grad_out padded by 2, 34x34 windows
    assert m.im2col_bytes(32) == (col, col + col2)


def test_op_model_dec1_up_hand_count():
    m = models()["dec1_up"]  # [8, 16, 2, 2] from 16x16 up to 32x32
    macs = 16 * 16 * 16 * 8 * 4  # every input pixel feeds out x 2 x 2 outputs
    assert m.flops(32) == (2 * 32 * macs, 4 * 32 * macs)
    assert m.im2col_bytes(32) == (0, 0)


def test_op_model_covers_every_layer_once():
    shapes = U.layer_shapes(ACCEPTANCE_NET)
    ms = opmodel.layer_models(shapes)
    assert [m.name for m in ms] == [name for name, _, _ in shapes]
    assert len({m.weight_shape for m in ms}) == len(ms)  # weight shape identifies the layer


def test_wrappers_patch_the_names_callers_look_up():
    originals = (fireseg.unet.conv2d_forward, fireseg.training.U.forward, fireseg.cli.F.write_day)
    with T.Tracer():
        assert getattr(fireseg.unet.conv2d_forward, T._MARK) == "kernels.conv2d_forward"
        assert getattr(fireseg.training.U.forward, T._MARK) == "unet.forward"
        assert getattr(fireseg.cli.F.write_day, T._MARK) == "formats.write_day"
        assert getattr(fireseg.training.adam_step, T._MARK) == "kernels.adam_step"
        assert "fireseg.unet.conv2d_forward" in T.installed()
    assert (fireseg.unet.conv2d_forward, fireseg.training.U.forward, fireseg.cli.F.write_day) == originals
    assert T.installed() == []


def _traced_step(batch=2):
    rng = np.random.default_rng(0)
    params = U.init_params(ACCEPTANCE_NET)
    x = rng.random((batch, 12, 32, 32), dtype=np.float32)
    y = (rng.random((batch, 32, 32)) < 0.2).astype(np.uint8)
    with T.Tracer() as tracer:
        tracer.request = "iter0"
        logits, cache = fireseg.unet.forward(params, x, training=True)
        loss = fireseg.training.weighted_ce_loss(logits, y, (1.0, 4.0))
        grads = fireseg.unet.backward(params, cache, loss.grad_logits)
        fireseg.training.adam_step(params.tensors(), grads, K.AdamState.zeros_like(grads), lr=1e-3, t=1)
    return tracer.spans


def test_every_conv_call_maps_to_a_layer():
    spans = _traced_step()
    layers, unattributed = perlayer.per_layer(
        spans, ["iter0"], [], U.layer_shapes(ACCEPTANCE_NET), 2, [{}]
    )
    assert unattributed == []
    names = [name for name, _, _ in U.layer_shapes(ACCEPTANCE_NET)]
    assert len(names) == 19  # 8 encoder + 2 bottleneck convs, 4 up + 4 decoder convs, head
    for name in names:
        assert layers[f"kernels.{name}.fwd_ms"] > 0, name
        assert layers[f"kernels.{name}.bwd_ms"] > 0, name
    assert layers["training.steps"] == 1
    assert 0 < layers["training.step_ms.p50"]
    assert layers["unet.forward.self_ms"] < layers["unet.forward.ms"]


def test_child_spans_never_exceed_their_parent():
    spans = _traced_step()
    assert all(s is not None for s in spans)
    children = {}
    for s in spans:
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end, (s.name, parent.name)
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    for i, total in children.items():
        assert total <= spans[i].seconds


class _Probe:
    """A stand-in workload that records whether wrappers were installed."""

    def __init__(self):
        self.seen = []

    def setup(self):
        return {}

    def iteration(self):
        self.seen.append(bool(T.installed()))
        return {"wall_s": 1e-3}


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_iterations_run_without_wrappers(trace):
    probe = _Probe()
    result = run.measure(probe, 0.01, trace)
    flags = [it["traced"] for it in result["iterations"]]
    assert probe.seen == flags  # wrappers present exactly in the traced iterations
    assert flags.count(False) >= 1
    assert T.installed() == []


def _batch(n=2):
    rng = np.random.default_rng(1)
    x = rng.random((n, 12, 32, 32), dtype=np.float32)
    y = (rng.random((n, 32, 32)) < 0.2).astype(np.uint8)
    y[:, :4] = 2  # some water
    return x, y


def test_reference_agrees_with_fireseg():
    params = U.init_params(ACCEPTANCE_NET)
    x, y = _batch()
    assert reference.check_forward(U, params, x) == []
    assert reference.check_train_step(U, K, params, x, y, seed=0) == []


def test_reference_catches_a_wrong_forward_kernel(monkeypatch):
    right = fireseg.unet.conv2d_forward
    monkeypatch.setattr(fireseg.unet, "conv2d_forward", lambda x, k: right(x, k) * np.float32(1.01))
    x, _ = _batch()
    assert reference.check_forward(U, U.init_params(ACCEPTANCE_NET), x)


def test_reference_catches_a_wrong_backward_kernel(monkeypatch):
    right = fireseg.unet.conv_transpose2d_backward

    def wrong(x, k, g):
        d_input, d_weights, d_bias = right(x, k, g)
        return d_input, d_weights[:, :, ::-1], d_bias  # taps swapped

    monkeypatch.setattr(fireseg.unet, "conv_transpose2d_backward", wrong)
    x, y = _batch()
    failures = reference.check_train_step(U, K, U.init_params(ACCEPTANCE_NET), x, y, seed=0)
    assert failures and all("_up" in f for f in failures)


class _FailingSetup(_Probe):
    def setup(self):
        raise OSError("disk full")


def test_a_setup_that_raises_is_a_failed_operation():
    result = run.measure(_FailingSetup(), 0.01, False)
    assert result["iterations"] == [] and "disk full" in result["errors"][0]
    assert run.end_to_end(result, 1)["failed_ratio"] == (1.0, 1)
