import numpy as np
import pytest

from fireseg import kernels as K
from fireseg import unet as U

from oracles import param_count, rel_err


def expected_inventory(f, c):
    """Independent enumeration of the layer list (kept free of library calls)."""
    inv = []
    prev = c
    for i, width in enumerate([f, 2 * f, 4 * f, 8 * f], start=1):
        inv.append((f"enc{i}_conv1", (width, prev, 3, 3)))
        inv.append((f"enc{i}_conv2", (width, width, 3, 3)))
        prev = width
    inv.append(("bottleneck_conv1", (16 * f, 8 * f, 3, 3)))
    inv.append(("bottleneck_conv2", (16 * f, 16 * f, 3, 3)))
    prev = 16 * f
    for i, width in zip([4, 3, 2, 1], [8 * f, 4 * f, 2 * f, f]):
        inv.append((f"dec{i}_up", (width, prev, 2, 2)))
        inv.append((f"dec{i}_conv", (width, 2 * width, 3, 3)))
        prev = width
    inv.append(("head", (2, f, 1, 1)))
    return inv


class TestInit:
    def test_same_seed_is_bitwise_identical(self):
        cfg = U.UNetConfig(in_channels=5, init_features=4, seed=99)
        a = U.init_params(cfg)
        b = U.init_params(cfg)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_layer_inventory_if64_c62(self):
        cfg = U.UNetConfig(in_channels=62, init_features=64)
        got = [(name, w) for name, w, _ in U.layer_shapes(cfg)]
        assert got == expected_inventory(64, 62)
        params = U.init_params(U.UNetConfig(in_channels=62, init_features=64, seed=1))
        assert len(params.tensors()) == 2 * len(got)
        for (name, wshape), k in zip(got, params.kernels.values()):
            assert k.weights.shape == wshape
            assert k.bias.shape == (wshape[0],)

    def test_param_count_formula(self):
        for f, c in [(1, 1), (2, 3), (8, 12), (64, 62)]:
            cfg = U.UNetConfig(in_channels=c, init_features=f)
            enumerated = sum(
                int(np.prod(w)) + int(np.prod(b)) for _, w, b in U.layer_shapes(cfg)
            )
            assert param_count(cfg) == enumerated
        # strictly increasing in IF
        counts = [param_count(U.UNetConfig(in_channels=5, init_features=f)) for f in (2, 4, 8)]
        assert counts[0] < counts[1] < counts[2]

    def test_he_variance_within_20_percent(self):
        # small layers (the 1x1 head) pool draws from several seeds so the
        # sample variance is a meaningful estimate before applying the bound
        draws = [U.init_params(U.UNetConfig(in_channels=16, init_features=8, seed=s)) for s in range(20)]
        for name in draws[0].kernels:
            w0 = draws[0].kernels[name].weights
            fan_in = w0.shape[1] * w0.shape[2] * w0.shape[3]
            target = 2.0 / fan_in
            if w0.size >= 200:
                samples = w0.reshape(-1)
            else:
                samples = np.concatenate([d.kernels[name].weights.reshape(-1) for d in draws])
            var = float(samples.var())
            assert abs(var - target) <= 0.2 * target, name
            assert not draws[0].kernels[name].bias.any()

    def test_bad_config_rejected(self):
        with pytest.raises(K.ConfigError):
            U.UNetConfig(in_channels=0, init_features=8)

    def test_wrong_tensor_shapes_rejected_on_load(self):
        params = U.init_params(U.UNetConfig(in_channels=3, init_features=2, seed=0))
        tensors = params.tensors()
        tensors[0] = np.zeros((4, 4, 3, 3), np.float32)
        with pytest.raises(K.ShapeError):
            params.with_tensors(tensors)


class TestForward:
    def test_output_shape(self):
        params = U.init_params(U.UNetConfig(in_channels=6, init_features=2, seed=3))
        x = np.random.default_rng(0).standard_normal((3, 6, 32, 32)).astype(np.float32)
        logits, cache = U.forward(params, x)
        assert logits.shape == (3, 2, 32, 32)
        assert cache is None

    def test_zero_input_zero_bias_gives_zero_logits(self):
        params = U.init_params(U.UNetConfig(in_channels=4, init_features=2, seed=5))
        logits, _ = U.forward(params, np.zeros((1, 4, 32, 32), np.float32))
        assert not logits.any()

    def test_pure_function_of_inputs(self):
        params = U.init_params(U.UNetConfig(in_channels=3, init_features=2, seed=11))
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
        a, _ = U.forward(params, x, training=True)
        b, _ = U.forward(params, x)
        assert np.array_equal(a, b)

    def test_channel_mismatch_rejected(self):
        params = U.init_params(U.UNetConfig(in_channels=3, init_features=2, seed=0))
        with pytest.raises(K.ConfigError):
            U.forward(params, np.zeros((1, 5, 32, 32), np.float32))


def f64_params(params):
    return params.with_tensors([t.astype(np.float64) for t in params.tensors()])


def region_signature(cache):
    """Sign pattern of every ReLU plus every pool argmax.

    Two points with equal signatures lie in the same piecewise-smooth region,
    so a central difference between them sees no kink.
    """
    sig = []
    for name, entry in cache.items():
        if name.endswith("_pool"):
            sig.append(entry)
        elif "conv" in name:
            sig.append(entry[1] > 0)  # (conv input, post-ReLU output): the pre-activation's signs
    return sig


def run_e2e_gradcheck(n_coords, eps=1e-3, tol=1e-2, seed=3):
    """Finite-difference sweep over random parameter coordinates.

    Coordinates whose +-eps perturbation flips a ReLU sign or a pool argmax
    are excluded (the loss is non-smooth across those boundaries); exclusions
    must stay a small minority. Returns (checked, worst relative error).
    """
    rng = np.random.default_rng(seed)
    params = f64_params(U.init_params(U.UNetConfig(in_channels=3, init_features=2, seed=17)))
    x = rng.standard_normal((1, 3, 32, 32))
    target = rng.integers(0, 3, (1, 32, 32)).astype(np.uint8)
    weights = (0.6, 2.5)

    def loss_and_sig(p):
        logits, cache = U.forward(p, x, training=True)
        return K.weighted_ce_loss(logits, target, weights).loss, region_signature(cache)

    logits, cache = U.forward(params, x, training=True)
    grad_logits = K.weighted_ce_loss(logits, target, weights).grad_logits
    grads = U.backward(params, cache, grad_logits)
    base_sig = region_signature(cache)

    tensors = params.tensors()
    checked = skipped = 0
    worst = 0.0
    while checked < n_coords:
        ti = int(rng.integers(len(tensors)))
        flat = tensors[ti].reshape(-1)
        ci = int(rng.integers(flat.size))
        orig = flat[ci]
        flat[ci] = orig + eps
        up, sig_up = loss_and_sig(params.with_tensors(tensors))
        flat[ci] = orig - eps
        dn, sig_dn = loss_and_sig(params.with_tensors(tensors))
        flat[ci] = orig
        if not all(np.array_equal(a, b) and np.array_equal(a, c) for a, b, c in zip(base_sig, sig_up, sig_dn)):
            skipped += 1
            assert skipped < 3 * n_coords, "too many kink crossings; test construction broken"
            continue
        fd = (up - dn) / (2 * eps)
        an = grads[ti].reshape(-1)[ci]
        worst = max(worst, rel_err(an, fd, floor=1e-4))
        checked += 1
    assert skipped <= checked, f"kink exclusions ({skipped}) dominate checks ({checked})"
    assert worst <= tol, f"worst end-to-end relative error {worst:.3e} exceeds {tol}"
    return checked, worst


class TestBackward:
    def test_zero_grad_logits_gives_zero_grads(self):
        params = U.init_params(U.UNetConfig(in_channels=3, init_features=2, seed=13))
        x = np.random.default_rng(2).standard_normal((1, 3, 32, 32)).astype(np.float32)
        logits, cache = U.forward(params, x, training=True)
        grads = U.backward(params, cache, np.zeros_like(logits))
        assert all(not g.any() for g in grads)

    def test_end_to_end_finite_differences(self):
        # spot-check; the acceptance suite sweeps >= 100 coordinates
        checked, worst = run_e2e_gradcheck(n_coords=20)
        assert checked >= 20

    def test_skip_gradient_sums_both_consumer_paths(self):
        # two consumers of one tensor: a pooled path and a concat path, composed
        # from the same kernels the network uses; the incoming gradient must be
        # the sum of both branch gradients
        rng = np.random.default_rng(4)
        s = rng.standard_normal((1, 2, 4, 4))
        kc = K.ConvKernel(rng.standard_normal((1, 4, 3, 3)), rng.standard_normal(1))

        def forward_graph(v):
            pooled, idx = K.maxpool2x2_forward(v)
            up = np.repeat(np.repeat(pooled, 2, axis=2), 2, axis=3)  # fixed upsample
            cat = K.concat_channels(v, up)
            return K.conv2d_forward(cat, kc), idx

        out, idx = forward_graph(s)
        r = rng.standard_normal(out.shape)
        d_cat, _, _ = K.conv2d_backward(K.concat_channels(s, np.repeat(np.repeat(K.maxpool2x2_forward(s)[0], 2, axis=2), 2, axis=3)), kc, r)
        d_skip, d_up = K.split_channels(d_cat, s.shape[1])
        d_pool = d_up.reshape(1, 2, 2, 2, 2, 2).sum(axis=(3, 5))  # adjoint of repeat
        d_via_pool = K.maxpool2x2_backward(idx, d_pool)
        total = d_skip + d_via_pool

        from oracles import finite_diff_grad

        fd = finite_diff_grad(lambda v: float(np.sum(r * forward_graph(v)[0])), s)
        assert rel_err(total, fd) <= 1e-3


class TestPredictMask:
    def test_positive_margin_all_fire(self):
        logits = np.zeros((1, 2, 4, 4), np.float32)
        logits[:, 1] = 1.0
        assert U.predict_mask(logits, 0.5).all()

    def test_default_threshold_equals_argmax(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        pred = U.predict_mask(logits, 0.5)
        assert np.array_equal(pred, logits.argmax(axis=1).astype(np.uint8))

    def test_lowering_threshold_is_monotone(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((1, 2, 16, 16)).astype(np.float32)
        previous = None
        for tau in [0.9, 0.7, 0.5, 0.3, 0.1]:
            fire = U.predict_mask(logits, tau).astype(bool)
            if previous is not None:
                assert np.all(previous <= fire)  # fire set only grows
            previous = fire

    def test_invariant_to_constant_logit_shift(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        shifted = logits + rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(U.predict_mask(logits, 0.5), U.predict_mask(shifted, 0.5))
