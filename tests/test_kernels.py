import numpy as np
import pytest

from fireseg import kernels as K
from fireseg import unet as U
from fireseg.kernels import AdamState, ConvKernel

from oracles import (
    conv2d_matrix,
    conv2d_naive,
    finite_diff_grad,
    maxpool2x2_backward_reference,
    maxpool2x2_reference,
    maxpool_naive,
    rel_err,
)


def rand(shape, rng, dtype=np.float64):
    return rng.standard_normal(shape).astype(dtype)


def weighted_sum_loss(out, r):
    # scalar objective for gradient checks: L = sum(r * out)
    return float(np.sum(r * out, dtype=np.float64))


def same_padded(x, wshape):
    """x zero-padded by (kh // 2, kw // 2): the oracle at padding 0 then keeps the shape."""
    ph, pw = wshape[2] // 2, wshape[3] // 2
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


class TestConv2dForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rand((1, 1, 3, 3), rng, np.float32)
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        k = ConvKernel(w, np.zeros(1, np.float32))
        assert np.array_equal(K.conv2d_forward(x, k), x)

    def test_scalar_affine(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)
        k = ConvKernel(np.full((1, 1, 1, 1), 2.0, np.float32), np.ones(1, np.float32))
        out = K.conv2d_forward(x, k)
        assert np.array_equal(out, np.array([[[[3.0, 5.0], [7.0, 9.0]]]], np.float32))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        x = rand((2, 3, 8, 8), rng, np.float32)
        w = rand((4, 3, 3, 3), rng, np.float32)
        b = rand((4,), rng, np.float32)
        out = K.conv2d_forward(x, ConvKernel(w, b))
        ref = conv2d_naive(x, w, b, padding=1)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-5

    def test_shape_preserving_3x3_pad1(self):
        rng = np.random.default_rng(2)
        for shape in [(1, 2, 4, 6), (3, 1, 32, 32)]:
            x = rand(shape, rng, np.float32)
            w = rand((5, shape[1], 3, 3), rng, np.float32)
            out = K.conv2d_forward(x, ConvKernel(w, np.zeros(5, np.float32)))
            assert out.shape == (shape[0], 5, shape[2], shape[3])

    def test_channel_mismatch_names_axis(self):
        x = np.zeros((1, 3, 4, 4), np.float32)
        k = ConvKernel(np.zeros((2, 4, 3, 3), np.float32), np.zeros(2, np.float32))
        with pytest.raises(K.ShapeError, match="channel"):
            K.conv2d_forward(x, k)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        x = rand((2, 4, 16, 16), rng, np.float32)
        k = ConvKernel(rand((6, 4, 3, 3), rng, np.float32), rand((6,), rng, np.float32))
        a = K.conv2d_forward(x, k)
        b = K.conv2d_forward(x, k)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "xshape,wshape",
        [
            ((2, 2, 5, 7), (3, 2, 1, 3)),
            ((2, 2, 5, 7), (3, 2, 3, 1)),
            ((2, 3, 5, 7), (2, 3, 1, 1)),
        ],
    )
    def test_tap_offsets_match_naive_loop(self, xshape, wshape):
        rng = np.random.default_rng(20)
        x = rand(xshape, rng)
        w = rand(wshape, rng)
        b = rand(wshape[:1], rng)
        out = K.conv2d_forward(x, ConvKernel(w, b))
        ref = conv2d_naive(same_padded(x, wshape), w, b)
        assert out.shape == ref.shape == (xshape[0], wshape[0], *xshape[2:])
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("ksize", [(2, 2), (3, 2)])
    def test_even_kernel_side_rejected(self, ksize):
        k = ConvKernel(np.zeros((1, 1, *ksize)), np.zeros(1))
        with pytest.raises(K.ShapeError, match="even side"):
            K.conv2d_forward(np.zeros((1, 1, 4, 4)), k)

    def test_empty_spatial_axis_rejected(self):
        k = ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(K.ShapeError, match="empty"):
            K.conv2d_forward(np.zeros((1, 1, 0, 4)), k)

    def test_float64_in_float64_out(self):
        rng = np.random.default_rng(21)
        x = rand((1, 2, 5, 5), rng)
        k = ConvKernel(rand((3, 2, 3, 3), rng), rand((3,), rng))
        assert K.conv2d_forward(x, k).dtype == np.float64
        gi, gw, gb = K.conv2d_backward(x, k, rand((1, 3, 5, 5), rng))
        assert gi.dtype == gw.dtype == gb.dtype == np.float64

    def test_empty_batch(self):
        k = ConvKernel(np.ones((2, 3, 3, 3)), np.zeros(2))
        assert K.conv2d_forward(np.zeros((0, 3, 4, 4)), k).shape == (0, 2, 4, 4)
        gi, gw, gb = K.conv2d_backward(np.zeros((0, 3, 4, 4)), k, np.zeros((0, 2, 4, 4)))
        assert gi.shape == (0, 3, 4, 4) and not gw.any() and not gb.any()

    def test_strided_input_matches_contiguous_copy(self):
        rng = np.random.default_rng(22)
        x = rand((2, 3, 8, 8), rng, np.float32)
        k1 = ConvKernel(rand((4, 3, 3, 3), rng, np.float32), rand((4,), rng, np.float32))
        k2 = ConvKernel(rand((5, 4, 3, 3), rng, np.float32), rand((5,), rng, np.float32))
        view = K.conv2d_forward(x, k1)  # a strided view, as layers pass it on
        dense = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous
        assert np.array_equal(K.conv2d_forward(view, k2), K.conv2d_forward(dense, k2))
        go = rand((2, 5, 8, 8), rng, np.float32)
        for a, b in zip(K.conv2d_backward(view, k2, go), K.conv2d_backward(dense, k2, go)):
            assert np.array_equal(a, b)


class TestConv2dBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(4)
        x = rand((1, 2, 5, 5), rng)
        k = ConvKernel(rand((3, 2, 3, 3), rng), rand((3,), rng))
        gi, gw, gb = K.conv2d_backward(x, k, np.zeros((1, 3, 5, 5)))
        assert not gi.any() and not gw.any() and not gb.any()

    def test_identity_adjoint(self):
        rng = np.random.default_rng(5)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        k = ConvKernel(w, np.zeros(1))
        x = rand((1, 1, 4, 4), rng)
        go = rand((1, 1, 4, 4), rng)
        gi, _, _ = K.conv2d_backward(x, k, go)
        assert np.allclose(gi, go)

    @pytest.mark.parametrize("xshape,co,ksz", [((1, 2, 5, 5), 3, 3), ((1, 3, 3, 3), 2, 1)])
    def test_finite_differences(self, xshape, co, ksz):
        rng = np.random.default_rng(6)
        x = rand(xshape, rng)
        w = rand((co, xshape[1], ksz, ksz), rng)
        b = rand((co,), rng)
        k = ConvKernel(w, b)
        r = rand(K.conv2d_forward(x, k).shape, rng)
        gi, gw, gb = K.conv2d_backward(x, k, r)

        fd_x = finite_diff_grad(lambda v: weighted_sum_loss(K.conv2d_forward(v, k), r), x)
        fd_w = finite_diff_grad(
            lambda v: weighted_sum_loss(K.conv2d_forward(x, ConvKernel(v, b)), r), w
        )
        fd_b = finite_diff_grad(
            lambda v: weighted_sum_loss(K.conv2d_forward(x, ConvKernel(w, v)), r), b
        )
        assert rel_err(gi, fd_x) <= 1e-3
        assert rel_err(gw, fd_w) <= 1e-3
        assert rel_err(gb, fd_b) <= 1e-3

    @pytest.mark.parametrize(
        "xshape,wshape", [((2, 2, 4, 5), (2, 2, 1, 3)), ((2, 2, 4, 5), (2, 2, 3, 1))]
    )
    def test_finite_differences_padding_and_rect_kernel(self, xshape, wshape):
        rng = np.random.default_rng(23)
        x = rand(xshape, rng)
        w = rand(wshape, rng)
        b = rand(wshape[:1], rng)
        k = ConvKernel(w, b)
        r = rand(K.conv2d_forward(x, k).shape, rng)
        gi, gw, gb = K.conv2d_backward(x, k, r)
        fd_x = finite_diff_grad(lambda v: weighted_sum_loss(K.conv2d_forward(v, k), r), x)
        fd_w = finite_diff_grad(
            lambda v: weighted_sum_loss(K.conv2d_forward(x, ConvKernel(v, b)), r), w
        )
        assert rel_err(gi, fd_x) <= 1e-3
        assert rel_err(gw, fd_w) <= 1e-3
        assert rel_err(gb, r.sum(axis=(0, 2, 3))) <= 1e-12

    def test_grad_out_shape_checked(self):
        x = np.zeros((1, 1, 4, 4))
        k = ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(K.ShapeError):
            K.conv2d_backward(x, k, np.zeros((1, 1, 3, 3)))

    def test_channel_mismatch_names_axis(self):
        # grad_out has the forward's output shape, so only the channel count is wrong
        x = np.zeros((1, 5, 4, 4))
        k = ConvKernel(np.zeros((1, 3, 3, 3)), np.zeros(1))
        with pytest.raises(K.ShapeError, match="channel"):
            K.conv2d_backward(x, k, np.zeros((1, 1, 4, 4)))

    def test_input_rank_checked(self):
        k = ConvKernel(np.zeros((1, 3, 3, 3)), np.zeros(1))
        with pytest.raises(K.ShapeError, match="4-d"):
            K.conv2d_backward(np.zeros((3, 4, 4)), k, np.zeros((1, 1, 4, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_without_input_grad_weights_and_bias_bitwise_equal(self, dtype):
        # the shape of enc1_conv1 at a small batch: 12 -> 8 channels, 3x3, padding 1
        rng = np.random.default_rng(31)
        x = rand((3, 12, 16, 16), rng, dtype)
        k = ConvKernel(rand((8, 12, 3, 3), rng, dtype), rand((8,), rng, dtype))
        go = rand((3, 8, 16, 16), rng, dtype)
        _, gw, gb = K.conv2d_backward(x, k, go)
        gi_skip, gw_skip, gb_skip = K.conv2d_backward(x, k, go, input_grad=False)
        assert gi_skip is None
        assert gw_skip.dtype == gw.dtype and gb_skip.dtype == gb.dtype
        assert np.array_equal(gw_skip, gw) and np.array_equal(gb_skip, gb)


class TestConvTranspose2d:
    def test_single_pixel_broadcast(self):
        x = np.full((1, 1, 1, 1), 5.0, np.float32)
        k = ConvKernel(np.ones((1, 1, 2, 2), np.float32), np.zeros(1, np.float32))
        out = K.conv_transpose2d_forward(x, k)
        assert np.array_equal(out, np.full((1, 1, 2, 2), 5.0, np.float32))

    def test_doubles_spatial_dims(self):
        rng = np.random.default_rng(7)
        x = rand((2, 3, 4, 4), rng, np.float32)
        k = ConvKernel(rand((5, 3, 2, 2), rng, np.float32), rand((5,), rng, np.float32))
        assert K.conv_transpose2d_forward(x, k).shape == (2, 5, 8, 8)

    def test_adjoint_of_strided_conv_matrix(self):
        # the op must equal M^T applied to the flattened input, where M is the
        # dense matrix of the corresponding stride-2 conv2d
        rng = np.random.default_rng(8)
        x = rand((1, 2, 2, 2), rng)
        w = rand((3, 2, 2, 2), rng)
        k = ConvKernel(w, np.zeros(3))
        out = K.conv_transpose2d_forward(x, k)
        m, _ = conv2d_matrix(w.transpose(1, 0, 2, 3), (1, 3, 4, 4), stride=2, padding=0)
        ref = (m.T @ x.reshape(-1)).reshape(1, 3, 4, 4)
        assert np.allclose(out, ref, atol=1e-12)

    def test_zero_input_bias_broadcast(self):
        k = ConvKernel(np.ones((2, 1, 2, 2)), np.array([3.0, -1.0]))
        out = K.conv_transpose2d_forward(np.zeros((1, 1, 3, 3)), k)
        assert np.array_equal(out[0, 0], np.full((6, 6), 3.0))
        assert np.array_equal(out[0, 1], np.full((6, 6), -1.0))

    def test_rejects_bad_config(self):
        with pytest.raises(K.ShapeError, match="2x2"):
            K.conv_transpose2d_forward(
                np.zeros((1, 1, 2, 2)), ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))
            )

    def test_backward_rejects_non_2x2_kernel(self):
        k = ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(K.ShapeError, match="2x2"):
            K.conv_transpose2d_backward(np.zeros((1, 1, 2, 2)), k, np.zeros((1, 1, 4, 4)))

    def test_backward_channel_mismatch_names_axis(self):
        # 5 input channels for a 3-input kernel: d_weights would come out (2, 5, 2, 2)
        k = ConvKernel(np.zeros((2, 3, 2, 2)), np.zeros(2))
        with pytest.raises(K.ShapeError, match="channel"):
            K.conv_transpose2d_backward(np.zeros((1, 5, 2, 2)), k, np.zeros((1, 2, 4, 4)))

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rand((1, 2, 3, 3), rng)
        w = rand((2, 2, 2, 2), rng)
        b = rand((2,), rng)
        k = ConvKernel(w, b)
        r = rand((1, 2, 6, 6), rng)
        gi, gw, gb = K.conv_transpose2d_backward(x, k, r)
        fd_x = finite_diff_grad(lambda v: weighted_sum_loss(K.conv_transpose2d_forward(v, k), r), x)
        fd_w = finite_diff_grad(
            lambda v: weighted_sum_loss(
                K.conv_transpose2d_forward(x, ConvKernel(v, b)), r
            ),
            w,
        )
        fd_b = finite_diff_grad(
            lambda v: weighted_sum_loss(
                K.conv_transpose2d_forward(x, ConvKernel(w, v)), r
            ),
            b,
        )
        assert rel_err(gi, fd_x) <= 1e-3
        assert rel_err(gw, fd_w) <= 1e-3
        assert rel_err(gb, fd_b) <= 1e-3

    def test_backward_zero_grad(self):
        rng = np.random.default_rng(10)
        x = rand((1, 1, 2, 2), rng)
        k = ConvKernel(rand((1, 1, 2, 2), rng), rand((1,), rng))
        gi, gw, gb = K.conv_transpose2d_backward(x, k, np.zeros((1, 1, 4, 4)))
        assert not gi.any() and not gw.any() and not gb.any()

    def test_backward_broadcast_case_hand_expansion(self):
        # single input pixel v: d_input = sum(go * W), d_weights = v * go
        v = 1.7
        x = np.full((1, 1, 1, 1), v)
        w = np.array([[[[0.5, -1.0], [2.0, 0.25]]]])
        go = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        gi, gw, gb = K.conv_transpose2d_backward(x, ConvKernel(w, np.zeros(1)), go)
        assert np.isclose(gi[0, 0, 0, 0], (go * w).sum())
        assert np.allclose(gw, v * go)
        assert np.isclose(gb[0], go.sum())


class TestMaxPool:
    def test_basic_window(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out, idx = K.maxpool2x2_forward(x)
        assert out[0, 0, 0, 0] == 4.0
        assert idx[0, 0, 0, 0] == 3  # bottom-right in row-major window order

    def test_tie_goes_to_first_in_scan(self):
        x = np.full((1, 1, 2, 2), 7.0)
        out, idx = K.maxpool2x2_forward(x)
        assert out[0, 0, 0, 0] == 7.0
        assert idx[0, 0, 0, 0] == 0

    def test_matches_naive(self):
        rng = np.random.default_rng(11)
        x = rand((1, 2, 8, 8), rng, np.float32)
        out, idx = K.maxpool2x2_forward(x)
        ref_out, ref_idx = maxpool_naive(x)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(idx.astype(np.int64), ref_idx)

    def test_odd_dims_rejected(self):
        with pytest.raises(K.ShapeError, match="even"):
            K.maxpool2x2_forward(np.zeros((1, 1, 3, 4)))

    def test_backward_routing(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        _, idx = K.maxpool2x2_forward(x)
        gi = K.maxpool2x2_backward(idx, np.ones((1, 1, 1, 1)))
        assert np.array_equal(gi, np.array([[[[0.0, 0.0], [0.0, 1.0]]]]))

    def test_backward_zero_grad(self):
        _, idx = K.maxpool2x2_forward(np.arange(16.0).reshape(1, 1, 4, 4))
        assert not K.maxpool2x2_backward(idx, np.zeros((1, 1, 2, 2))).any()

    def test_finite_differences_away_from_ties(self):
        rng = np.random.default_rng(12)
        # distinct values in every window keep the argmax stable under +-eps
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        r = rand((1, 1, 4, 4), rng)
        _, idx = K.maxpool2x2_forward(x)
        gi = K.maxpool2x2_backward(idx, r)
        fd = finite_diff_grad(lambda v: weighted_sum_loss(K.maxpool2x2_forward(v)[0], r), x)
        assert rel_err(gi, fd) <= 1e-3


class TestMaxPoolMatchesReference:
    """The quarter-view max-pooling gives the same bytes as the reshape/argmax formulation."""

    @staticmethod
    def planted(rng, shape, dtype):
        # a few distinct values, so windows tie; exact zeros of both signs
        x = rng.integers(-2, 3, size=shape).astype(dtype)
        x[rng.random(shape) < 0.3] = 0.0
        x[rng.random(shape) < 0.2] = -0.0
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_bytes(self, dtype):
        rng = np.random.default_rng(40)
        x = self.planted(rng, (3, 4, 6, 10), dtype)
        x[0, 0] = -0.0  # windows holding only -0.0
        x[0, 1, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        x[0, 1, :2, 2:4] = [[0.0, -0.0], [-0.0, 0.0]]
        out, idx = K.maxpool2x2_forward(x)
        ref_out, ref_idx = maxpool2x2_reference(x)
        assert out.dtype == ref_out.dtype and idx.dtype == ref_idx.dtype == np.int8
        assert out.shape == ref_out.shape and idx.shape == ref_idx.shape
        assert out.tobytes() == ref_out.tobytes()
        assert idx.tobytes() == ref_idx.tobytes()
        assert np.signbit(out[0, 0]).all() and np.signbit(out[0, 1, 0, 0])
        assert not np.signbit(out[0, 1, 0, 1])

        g = rng.integers(-3, 4, size=out.shape).astype(dtype)  # zeros and negatives
        gi = K.maxpool2x2_backward(idx, g)
        ref_gi = maxpool2x2_backward_reference(ref_idx, g)
        assert gi.dtype == ref_gi.dtype and gi.shape == ref_gi.shape
        assert gi.tobytes() == ref_gi.tobytes()
        assert np.signbit(gi).any()  # -0.0 routed where a negative gradient is masked out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_windows_give_their_first_nan(self, dtype):
        rng = np.random.default_rng(42)
        x = self.planted(rng, (3, 4, 6, 10), dtype)
        x[rng.random(x.shape) < 0.15] = np.nan
        x[0, 0, :2, :2] = [[np.nan, 1.0], [2.0, 3.0]]
        x[0, 0, :2, 2:4] = [[3.0, 3.0], [-np.nan, np.nan]]  # the NaN's sign bit is kept
        x[0, 0, :2, 4:6] = [[-0.0, np.nan], [0.0, np.nan]]
        out, idx = K.maxpool2x2_forward(x)
        ref_out, ref_idx = maxpool2x2_reference(x)
        assert np.isnan(ref_out).any() and not np.isnan(ref_out).all()
        assert out.tobytes() == ref_out.tobytes()
        assert idx.tobytes() == ref_idx.tobytes()
        assert list(idx[0, 0, 0, :3]) == [0, 2, 1]

    def test_strided_input(self):
        rng = np.random.default_rng(41)
        x = self.planted(rng, (2, 6, 8, 8), np.float32)[:, ::2]
        assert not x.flags.c_contiguous
        out, idx = K.maxpool2x2_forward(x)
        ref_out, ref_idx = maxpool2x2_reference(np.ascontiguousarray(x))
        assert out.tobytes() == ref_out.tobytes() and idx.tobytes() == ref_idx.tobytes()


class TestConvColumnBlocks:
    """Convolution with BLOCK_BYTES small enough that a batch spans several image
    blocks, the last one partial."""

    @staticmethod
    def two_image_blocks(monkeypatch, values_per_image):
        # float64 columns of two images per block, so 5 images make blocks of 2, 2 and 1
        monkeypatch.setattr(K, "BLOCK_BYTES", 2 * values_per_image * 8 + 7)

    @staticmethod
    def record_blocks(monkeypatch):
        """Every _columns call as (step, images per block), from the rows it yields."""
        calls, columns = [], K._columns

        def recording(xp, kh, taps, step=1):
            rows_per_image = (xp.shape[1] - kh + 1) * ((xp.shape[2] - taps) // step + 1)
            images = []
            calls.append((step, images))
            for lo, hi, col in columns(xp, kh, taps, step):
                images.append((hi - lo) // rows_per_image)
                yield lo, hi, col

        monkeypatch.setattr(K, "_columns", recording)
        return calls

    @pytest.mark.parametrize("wshape", [(3, 2, 3, 3), (2, 2, 1, 3), (2, 3, 1, 1)])
    def test_forward_matches_naive(self, monkeypatch, wshape):
        rng = np.random.default_rng(42)
        co, ci, kh, kw = wshape
        xshape = (5, ci, 5, 6)
        # an even output width and Co <= 16: two output pixels per row, runs of kw + 1 taps
        packed = kw > 1
        taps = kw + 1 if packed else kw
        self.two_image_blocks(monkeypatch, 5 * 6 // (1 + packed) * kh * taps * ci)
        calls = self.record_blocks(monkeypatch)
        x = rand(xshape, rng)
        w = rand(wshape, rng)
        b = rand(wshape[:1], rng)
        out = K.conv2d_forward(x, ConvKernel(w, b))
        ref = conv2d_naive(same_padded(x, wshape), w, b)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-12
        assert calls == [(1 + packed, [5] if kh == kw == 1 else [2, 2, 1])]

    @pytest.mark.parametrize("wshape", [(3, 2, 3, 3), (2, 2, 1, 3), (2, 3, 1, 1)])
    def test_backward_finite_differences(self, monkeypatch, wshape):
        rng = np.random.default_rng(43)
        co, ci, kh, kw = wshape
        xshape = (5, ci, 4, 5)
        x = rand(xshape, rng)
        w = rand(wshape, rng)
        b = rand(wshape[:1], rng)
        k = ConvKernel(w, b)
        r = rand(K.conv2d_forward(x, k).shape, rng)
        # the backward's columns are grad_out's: kh*kw taps of Co values per output
        self.two_image_blocks(monkeypatch, 4 * 5 * kh * kw * co)
        calls = self.record_blocks(monkeypatch)
        gi, gw, gb = K.conv2d_backward(x, k, r)
        assert calls == [(1, [5] if kh == kw == 1 else [2, 2, 1])]
        fd_x = finite_diff_grad(lambda v: weighted_sum_loss(K.conv2d_forward(v, k), r), x)
        fd_w = finite_diff_grad(
            lambda v: weighted_sum_loss(K.conv2d_forward(x, ConvKernel(v, b)), r), w
        )
        assert rel_err(gi, fd_x) <= 1e-3
        assert rel_err(gw, fd_w) <= 1e-3
        assert rel_err(gb, r.sum(axis=(0, 2, 3))) <= 1e-12

    @pytest.mark.parametrize("wshape, width, step", [
        ((16, 3, 3, 3), 6, 2),  # Co <= 16, even width: two output pixels per GEMM row
        ((1, 2, 1, 3), 8, 2),
        ((17, 3, 3, 3), 6, 1),  # Co = 17
        ((16, 3, 3, 3), 7, 1),  # odd width
        ((4, 2, 3, 1), 6, 1),  # kw = 1
    ])
    def test_packing_rule(self, monkeypatch, wshape, width, step):
        rng = np.random.default_rng(44)
        calls = self.record_blocks(monkeypatch)
        x = rand((3, wshape[1], 5, width), rng)
        w = rand(wshape, rng)
        b = rand(wshape[:1], rng)
        out = K.conv2d_forward(x, ConvKernel(w, b))
        assert np.max(np.abs(out - conv2d_naive(same_padded(x, wshape), w, b))) < 1e-12
        assert [s for s, _ in calls] == [step]


def padded_windows(t, kh, kw):
    """t[N, C, H, W] zero-padded by (kh // 2, kw // 2), as windows [N, C, H, W, kh, kw]."""
    padded = same_padded(t, (0, 0, kh, kw))
    return np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))


class TestConvAcceptanceShapes:
    """Float64 forward and backward at every (Ci, Co) pair of the acceptance net's
    3x3 layers, at an even and at an odd output width."""

    # the acceptance net: 12 encoded input channels, 8 initial features
    SHAPES = [wshape for _, wshape, _ in U.layer_shapes(U.UNetConfig(in_channels=12, init_features=8))]
    PAIRS = sorted({(ci, co) for co, ci, kh, _ in SHAPES if kh == 3})

    @pytest.mark.parametrize("hw", [(6, 8), (5, 7)])
    @pytest.mark.parametrize("ci, co", PAIRS)
    def test_forward_and_backward(self, ci, co, hw):
        rng = np.random.default_rng(ci * 1000 + co)
        x = rand((2, ci, *hw), rng)
        w = rand((co, ci, 3, 3), rng)
        b = rand((co,), rng)
        g = rand((2, co, *hw), rng)
        k = ConvKernel(w, b)
        out = K.conv2d_forward(x, k)
        # the loop oracle takes seconds per call at 128 -> 128 channels, so past 16
        # output channels it checks the first and last two
        picked = np.arange(co) if co <= 16 else np.r_[:2, co - 2 : co]
        ref = conv2d_naive(same_padded(x, w.shape), w[picked], b[picked])
        assert np.max(np.abs(out[:, picked] - ref)) <= 1e-12
        gi, gw, gb = K.conv2d_backward(x, k, g)
        want_w = np.einsum("ncyxab,noyx->ocab", padded_windows(x, 3, 3), g)
        want_i = np.einsum("noyxab,ocab->ncyx", padded_windows(g, 3, 3), w[:, :, ::-1, ::-1])
        assert np.max(np.abs(gw - want_w)) <= 1e-12
        assert np.max(np.abs(gi - want_i)) <= 1e-12
        assert np.max(np.abs(gb - g.sum(axis=(0, 2, 3)))) <= 1e-12


class TestReLU:
    def test_forward(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(K.relu_forward(x), [0.0, 0.0, 2.0])

    def test_backward_subgradient_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(K.relu_backward(x, np.ones(3)), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("strided", [False, True])
    def test_backward_bytes_equal_where_formula(self, dtype, strided):
        rng = np.random.default_rng(17)
        x = rand((4, 3, 6, 6), rng, dtype)
        g = rand((4, 3, 6, 6), rng, dtype)
        # signed zeros and exact zeros in both inputs
        x.flat[::5], x.flat[1::7] = -0.0, 0.0
        g.flat[::3], g.flat[2::11] = -0.0, 0.0
        if strided:  # channel-major views, as the convs return them
            x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
            g = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
            assert not x.flags.c_contiguous and not g.flags.c_contiguous
        want = np.where(x > 0, g, 0).astype(dtype, copy=False)
        got = K.relu_backward(x, g)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_finite_differences_off_kink(self):
        rng = np.random.default_rng(13)
        x = rand((2, 1, 4, 4), rng)
        x = np.where(np.abs(x) < 1e-2, 0.5, x)  # stay clear of the kink
        r = rand(x.shape, rng)
        gi = K.relu_backward(x, r)
        fd = finite_diff_grad(lambda v: weighted_sum_loss(K.relu_forward(v), r), x)
        assert rel_err(gi, fd) <= 1e-3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_gives_the_input_mask(self, dtype):
        # the training cache keeps a conv's post-ReLU output, not its input
        rng = np.random.default_rng(18)
        tiny = np.finfo(dtype).smallest_subnormal
        specials = np.array([0.0, -0.0, np.nan, -np.nan, tiny, -tiny, np.inf, -np.inf], dtype)
        pre = rand((2, 3, 4, 5), rng, dtype)
        pre.flat[: specials.size] = specials
        pre.flat[specials.size :: 7] = -0.0
        g = rand(pre.shape, rng, dtype)
        g.flat[1::5] = -g.flat[1::5]
        post = K.relu_forward(pre)
        in_place = pre.copy()
        assert K.relu_forward(in_place, out=in_place) is in_place
        assert in_place.tobytes() == post.tobytes()
        assert K.relu_backward(post, g).tobytes() == K.relu_backward(pre, g).tobytes()


def is_channels_last(t):
    return t.transpose(0, 2, 3, 1).flags.c_contiguous


def layout_cases(rng):
    """Kernel name -> (call, activation inputs); call returns (activations, parameter grads)."""
    n, c, h, w = 3, 4, 6, 8
    x = rand((n, c, h, w), rng, np.float32)
    x.flat[::5] = -x.flat[::5] - 1  # some ReLU zeros, and pooling ties below
    x.flat[::9] = 0.0
    k3 = ConvKernel(rand((5, c, 3, 3), rng, np.float32), rand((5,), rng, np.float32))
    k1 = ConvKernel(rand((2, c, 1, 1), rng, np.float32), rand((2,), rng, np.float32))
    kt = ConvKernel(rand((5, c, 2, 2), rng, np.float32), rand((5,), rng, np.float32))
    g = rand((n, 5, h, w), rng, np.float32)
    g1 = rand((n, 2, h, w), rng, np.float32)
    gt = rand((n, 5, 2 * h, 2 * w), rng, np.float32)
    gp = rand((n, c, h // 2, w // 2), rng, np.float32)
    gx = rand((n, c, h, w), rng, np.float32)
    idx = np.ascontiguousarray(K.maxpool2x2_forward(x)[1])

    def conv_backward(k, input_grad=True):
        def call(x, g):
            d_input, *d_params = K.conv2d_backward(x, k, g, input_grad=input_grad)
            return (d_input,) if input_grad else (), d_params
        return call

    def transposed_backward(x, g):
        d_input, *d_params = K.conv_transpose2d_backward(x, kt, g)
        return (d_input,), d_params

    return {
        "conv2d_forward": (lambda x: ((K.conv2d_forward(x, k3),), ()), (x,)),
        "conv2d_forward_1x1": (lambda x: ((K.conv2d_forward(x, k1),), ()), (x,)),
        "conv2d_backward": (conv_backward(k3), (x, g)),
        "conv2d_backward_1x1": (conv_backward(k1), (x, g1)),
        "conv2d_backward_no_input_grad": (conv_backward(k3, False), (x, g)),
        "conv_transpose2d_forward": (lambda x: ((K.conv_transpose2d_forward(x, kt),), ()), (x,)),
        "conv_transpose2d_backward": (transposed_backward, (x, gt)),
        "maxpool2x2_forward": (lambda x: (K.maxpool2x2_forward(x), ()), (x,)),
        "maxpool2x2_backward": (lambda i, g: ((K.maxpool2x2_backward(i, g),), ()), (idx, gp)),
        "relu_forward": (lambda x: ((K.relu_forward(x),), ()), (x,)),
        "relu_backward": (lambda x, g: ((K.relu_backward(x, g),), ()), (x, gx)),
    }


class TestLayout:
    """Every public activation kernel, forward and backward, gives the same bytes
    for a C-contiguous NCHW input and for its channels-last copy, and returns
    channels-last activations for channels-last inputs: no hidden copy back to
    NCHW between layers."""

    @pytest.mark.parametrize("name", sorted(layout_cases(np.random.default_rng(0))))
    def test_same_bytes_and_channels_last_out(self, name):
        call, inputs = layout_cases(np.random.default_rng(19))[name]
        assert all(t.flags.c_contiguous and not is_channels_last(t) for t in inputs)
        nchw = call(*inputs)
        moved = [K.channels_last(t) for t in inputs]
        assert all(is_channels_last(t) for t in moved)
        nhwc = call(*moved)
        for got, want in zip(nhwc, nchw):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        activations, param_grads = nhwc
        assert all(is_channels_last(t) for t in activations)
        assert all(t.flags.c_contiguous for t in param_grads)

    def test_channels_last_is_a_no_op_on_channels_last(self):
        x = K.channels_last(rand((2, 3, 4, 5), np.random.default_rng(20), np.float32))
        assert np.shares_memory(K.channels_last(x), x)


class TestConcat:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(14)
        a = rand((2, 3, 4, 4), rng, np.float32)
        b = rand((2, 5, 4, 4), rng, np.float32)
        cat = K.concat_channels(a, b)
        assert cat.shape[1] == 8
        a2, b2 = K.split_channels(cat, a.shape[1])
        assert np.array_equal(a2, a) and np.array_equal(b2, b)

    def test_backward_splits_at_boundary(self):
        rng = np.random.default_rng(15)
        g = rand((1, 7, 2, 2), rng)
        ga, gb = K.split_channels(g, 3)
        assert np.array_equal(ga, g[:, :3]) and np.array_equal(gb, g[:, 3:])

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(K.ShapeError):
            K.concat_channels(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)))


class TestWeightedCELoss:
    def test_uniform_logits_single_pixel(self):
        logits = np.zeros((1, 2, 1, 1), np.float32)
        target = np.zeros((1, 1, 1), np.uint8)
        res = K.weighted_ce_loss(logits, target, (1.0, 1.0))
        assert np.isclose(res.loss, np.log(2.0))
        assert np.allclose(res.grad_logits[0, :, 0, 0], [-0.5, 0.5])

    def test_doubling_fire_weight_doubles_fire_contribution(self):
        rng = np.random.default_rng(16)
        logits = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        target = rng.integers(0, 3, (1, 4, 4)).astype(np.uint8)
        target[0, 0, 0] = 1  # ensure some fire
        base = K.weighted_ce_loss(logits, target, (0.7, 1.3))
        bumped = K.weighted_ce_loss(logits, target, (0.7, 2.6))
        fire_only = target.copy()
        fire_only[fire_only == 0] = 2  # keep only fire pixels in the mean
        fire_part = K.weighted_ce_loss(logits, fire_only, (0.7, 1.3))
        scale = (target == 1).sum() / (target != K.IGNORE_LABEL).sum()  # pixels each mean is over
        assert np.isclose(bumped.loss - base.loss, fire_part.loss * scale, rtol=1e-6)

    def test_ignored_pixels_contribute_nothing(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        target = np.array([[[0, 1], [2, 2]]], np.uint8)
        res = K.weighted_ce_loss(logits, target, (1.0, 1.0))
        assert not res.grad_logits[0, :, 1, :].any()
        counted = int((target != K.IGNORE_LABEL).sum())  # the first row's two pixels
        p = K.softmax2(logits.astype(np.float64))
        assert np.isclose(res.loss, -(np.log(p[0, 0, 0, 0]) + np.log(p[0, 1, 0, 1])) / counted)

    def test_all_ignored_flagged(self):
        logits = np.ones((1, 2, 2, 2), np.float32)
        target = np.full((1, 2, 2), 2, np.uint8)
        res = K.weighted_ce_loss(logits, target, (1.0, 1.0))
        assert (target != K.IGNORE_LABEL).sum() == 0 and res.loss == 0.0
        assert not res.grad_logits.any()

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(18)
        logits = rng.standard_normal((1, 2, 4, 4))
        target = rng.integers(0, 3, (1, 4, 4)).astype(np.uint8)
        target[0, 0, 0] = 0
        target[0, 0, 1] = 1
        res = K.weighted_ce_loss(logits, target, (0.5, 3.0))
        fd = finite_diff_grad(lambda v: K.weighted_ce_loss(v, target, (0.5, 3.0)).loss, logits)
        assert rel_err(res.grad_logits, fd, floor=1e-4) <= 1e-3

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(19)
        logits = (rng.standard_normal((2, 2, 8, 8)) * 50).astype(np.float32)
        p = K.softmax2(logits)
        assert p.min() >= 0.0
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-6

    def test_matches_softmax2_formula_bitwise(self):
        rng = np.random.default_rng(24)
        logits = (rng.standard_normal((2, 2, 8, 8)) * 4).astype(np.float32)
        target = rng.integers(0, 3, (2, 8, 8)).astype(np.uint8)
        w0, w1 = 0.6, 2.5
        res = K.weighted_ce_loss(logits, target, (w0, w1))
        # the formula with a separate softmax2 call
        valid = target != K.IGNORE_LABEL
        z = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        cls = np.where(valid, target, 0).astype(np.int64)
        logp = np.take_along_axis(z, cls[:, None], axis=1)[:, 0] - lse
        wpix = np.where(cls == 1, w1, w0) * valid
        counted = int(valid.sum())
        loss = float(-np.sum(wpix * logp, dtype=np.float64) / counted)
        onehot = cls[:, None] == np.arange(2).reshape(1, 2, 1, 1)
        grad = (wpix[:, None] * (K.softmax2(logits) - onehot) / counted).astype(logits.dtype)
        assert res.loss == loss
        assert np.array_equal(res.grad_logits, grad)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            K.weighted_ce_loss(np.zeros((1, 2, 1, 1)), np.zeros((1, 1, 1), np.uint8), (0.0, 1.0))

    @pytest.mark.parametrize("logits, target, error, message", [
        ((1, 3, 2, 2), np.zeros((1, 2, 2), np.uint8), K.ShapeError, "2 class channels, got 3"),
        ((1, 2, 2, 2), np.zeros((1, 2, 3), np.uint8), K.ShapeError, r"target shape \(1, 2, 3\)"),
        ((1, 2, 2, 2), np.full((1, 2, 2), 3, np.uint8), ValueError, "labels must be in"),
        ((1, 2, 2, 2), np.full((1, 2, 2), -1, np.int64), ValueError, "labels must be in"),
    ], ids=["three-classes", "target-grid", "label-3", "label-minus-1"])
    def test_rejects_logits_and_targets_that_do_not_pair(self, logits, target, error, message):
        with pytest.raises(error, match=message):
            K.weighted_ce_loss(np.zeros(logits), target, (1.0, 1.0))


class TestAdam:
    def test_first_step_hand_computation(self):
        # t=1, g=1: mhat = 1, vhat = 1, step = lr / (1 + eps)
        p = [np.array([0.25])]
        g = [np.array([1.0])]
        new, state = K.adam_step(p, g, AdamState.zeros_like(p), lr=0.001, t=1)
        expected = 0.25 - 0.001 / (1.0 + 1e-8)
        assert abs(new[0][0] - expected) < 1e-15
        assert np.isclose(state.m[0][0], 0.1) and np.isclose(state.v[0][0], 0.001)

    def test_zero_gradient_is_identity(self):
        p = [np.array([1.0, -2.0], np.float32)]
        state = AdamState.zeros_like(p)
        cur = p
        for t in range(1, 4):
            cur, state = K.adam_step(cur, [np.zeros(2, np.float32)], state, lr=0.01, t=t)
        assert np.array_equal(cur[0], p[0])

    def test_two_steps_match_manual_unroll(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g1, g2 = 1.0, -0.5
        # manual trace
        m = (1 - b1) * g1
        v = (1 - b2) * g1**2
        x = 0.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2**2
        x = x - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)

        p = [np.array([0.0])]
        state = AdamState.zeros_like(p)
        p, state = K.adam_step(p, [np.array([g1])], state, lr=lr, t=1)
        p, state = K.adam_step(p, [np.array([g2])], state, lr=lr, t=2)
        assert abs(p[0][0] - x) < 1e-12

    def test_shape_mismatch_rejected(self):
        p = [np.zeros(2)]
        with pytest.raises(K.ShapeError):
            K.adam_step(p, [np.zeros(3)], AdamState.zeros_like(p), lr=0.1, t=1)

    @pytest.mark.parametrize("grads, t, error, message", [
        ([np.zeros(2), np.zeros(3)], 0, ValueError, "t must be >= 1"),
        ([np.zeros(2)], 1, K.ShapeError, "lengths differ"),
    ], ids=["step-0", "one-gradient-short"])
    def test_rejects_a_step_count_or_gradient_list_that_does_not_fit(self, grads, t, error, message):
        p = [np.zeros(2), np.zeros(3)]
        with pytest.raises(error, match=message):
            K.adam_step(p, grads, AdamState.zeros_like(p), lr=0.1, t=t)
