import tracemalloc

import numpy as np
import pytest

from mvhash.gradcheck import run_gradcheck
from mvhash.linalg import ShapeError
from mvhash.net import ModelParams, NetConfig, backward_batch, binarize, forward_batch, init_params


def make_params(view_dims=(3, 4), proj=2, bits=3, seed=0, views=None, gated=True):
    cfg = NetConfig(view_dims, proj, bits, views, gated)
    return cfg, init_params(cfg, seed)


def read_views(view_mask):
    """The views a case's mask keeps, as NetConfig.views; None (every view) without a mask."""
    return None if view_mask is None else tuple(v for v, keep in enumerate(view_mask) if keep)


def zero_params(cfg):
    return ModelParams(cfg)


def naive_forward(x, params):
    """Continuous codes record by record, each layer written out from the paper."""
    cfg = params.cfg
    starts = np.cumsum((0,) + cfg.view_dims)
    codes = []
    for row in x:
        parts = []
        for i, v in enumerate(cfg.views):
            x_v = row[starts[v]:starts[v + 1]]
            parts.append(np.tanh(params.norm_w[i] @ x_v + params.norm_b[i]))
        t = np.concatenate(parts)
        if cfg.gated:
            t = t / (1.0 + np.exp(-(params.fusion_w @ t + params.fusion_b)))
        codes.append(np.tanh(params.hash_w @ t + params.hash_b))
    return np.array(codes)


class TestNetConfig:
    @pytest.mark.parametrize("view_dims, proj, bits", [
        ((32.9, 32), 4, 8), ((True, 3), 4, 8), ((3,), 2.5, 8), ((3,), 4, 8.0), ((3,), "4", 8),
        ((3, 0), 4, 8), ((3,), -1, 8), ((3,), 4, 0),
    ])
    def test_dims_must_be_exact_positive_integers(self, view_dims, proj, bits):
        with pytest.raises(ValueError, match="expected a positive integer"):
            NetConfig(view_dims, proj, bits)

    def test_needs_a_view(self):
        with pytest.raises(ValueError, match="at least one view"):
            NetConfig((), 4, 8)

    def test_view_columns_tile_the_input(self):
        cfg = NetConfig((1, 5, 1), 2, 3)
        assert cfg.input_dim == 7 and type(cfg.num_params) is int
        assert cfg.view_columns == (slice(0, 1), slice(1, 6), slice(6, 7))

    @pytest.mark.parametrize("view_dims, views", [
        ((3, 4), ()), ((3, 4), (1, 0)), ((3, 4), (0, 0)), ((3, 4), (0, 2)), ((3, 4), (-1,)),
        ((3, 4), (True,)), ((3, 4), (0, 1.0)), ((3, 4), 1), ((3, 4), "01"), ((3, 4), [[0]]),
        ((6,), (1,)),  # text-only on one-view data
    ], ids=["empty", "unsorted", "repeated", "past-end", "negative", "bool", "float", "int",
            "str", "nested", "text-only-one-view"])
    def test_views_must_be_ascending_distinct_indices(self, view_dims, views):
        with pytest.raises(ValueError) as info:
            NetConfig(view_dims, 2, 3, views)
        assert str(info.value).startswith("views: ") and "\n" not in str(info.value)

    @pytest.mark.parametrize("gated", [1, 0, None, "true", 1.0])
    def test_gated_must_be_a_bool(self, gated):
        with pytest.raises(ValueError) as info:
            NetConfig((3, 4), 2, 3, gated=gated)
        assert str(info.value).startswith("gated: ") and "\n" not in str(info.value)

    def test_defaults_read_every_view_through_the_gate(self):
        cfg = NetConfig([3, 4], 2, 3)
        assert cfg.views == (0, 1) and cfg.gated is True
        assert cfg == NetConfig((3, 4), 2, 3, [0, 1], True)

    def test_layout_holds_only_the_tensors_the_network_uses(self):
        # the acceptance config: 32-dim views, proj 32, K = 16
        full = NetConfig((32, 32), 32, 16)
        concat = NetConfig((32, 32), 32, 16, gated=False)
        text = NetConfig((32, 32), 32, 16, views=(1,))
        assert (full.num_params, concat.num_params) == (7312, 3152)
        assert [n for n, _ in concat.layout()] == [
            "norm_w.0", "norm_b.0", "norm_w.1", "norm_b.1", "hash_w", "hash_b"]
        assert text.layout() == [("norm_w.1", (32, 32)), ("norm_b.1", (32,)),
                                 ("fusion_w", (32, 32)), ("fusion_b", (32,)),
                                 ("hash_w", (16, 32)), ("hash_b", (16,))]


class TestNormalizeView:
    """The per-view projection, read from the tape's concat block."""

    def test_zero_weights_give_zero(self):
        cfg, _ = make_params()
        _, tape = forward_batch(np.array([[1.0, -2.0, 3.0, 4.0, 5.0, 6.0, 7.0]]),
                                zero_params(cfg))
        assert tape.concat.shape == (1, cfg.fused_dim)
        assert np.all(tape.concat == 0.0)

    def test_identity_scalar(self):
        cfg = NetConfig((1,), 1, 1)
        p = zero_params(cfg)
        p.norm_w[0][0, 0] = 1.0
        _, tape = forward_batch(np.array([[0.5]]), p)
        assert tape.concat[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-12)
        assert tape.concat[0, 0] == pytest.approx(0.46212, abs=1e-5)

    def test_output_strictly_bounded(self):
        cfg, p = make_params()
        _, tape = forward_batch(np.full((2, cfg.input_dim), 1e6), p)
        assert np.all(np.abs(tape.concat) <= 1.0)

    def test_dim_mismatch(self):
        cfg, p = make_params()
        with pytest.raises(ShapeError):
            forward_batch(np.zeros((1, 5)), p)


class TestContextGating:
    """The gate and the fused features, read from the tape."""

    def test_zero_params_halve_input(self):
        cfg = NetConfig((2,), 2, 1)
        p = zero_params(cfg)
        p.norm_w[0][...] = np.eye(2)
        _, tape = forward_batch(np.array([[1.0, -2.0]]), p)
        assert np.allclose(tape.gate, 0.5)
        assert np.allclose(tape.fused, 0.5 * np.tanh([[1.0, -2.0]]))

    def test_saturated_gate_passes_input(self):
        cfg = NetConfig((2,), 2, 1)
        p = zero_params(cfg)
        p.norm_w[0][...] = np.eye(2)
        p.fusion_b[:] = 40.0
        _, tape = forward_batch(np.array([[3.0, -1.5]]), p)
        assert np.allclose(tape.fused, tape.concat, atol=1e-12)

    def test_gate_strictly_in_unit_interval(self):
        cfg, p = make_params()
        rng = np.random.default_rng(1)
        _, tape = forward_batch(rng.normal(size=(5, cfg.input_dim)), p)
        assert np.all(tape.gate > 0.0) and np.all(tape.gate < 1.0)

    def test_gating_off_fuses_by_identity(self):
        cfg, p = make_params(gated=False)
        _, tape = forward_batch(np.ones((3, cfg.input_dim)), p)
        assert tape.gate is None and tape.fused is tape.concat
        assert p.fusion_w is None and p.fusion_b is None


class TestHashHead:
    """The last layer, read from the codes against the tape's fused block."""

    def test_zero_weights(self):
        cfg, _ = make_params()
        h, _ = forward_batch(np.ones((2, cfg.input_dim)), zero_params(cfg))
        assert np.all(h == 0.0)

    def test_single_unit_row(self):
        cfg = NetConfig((2,), 2, 1, gated=False)
        p = zero_params(cfg)
        p.norm_b[0][:] = [0.5, 0.9]  # fused = tanh(norm_b) without gating
        p.hash_w[0, 0] = 1.0
        h, tape = forward_batch(np.zeros((1, 2)), p)
        assert h[0, 0] == pytest.approx(np.tanh(tape.fused[0, 0]), abs=1e-12)
        assert h[0, 0] == pytest.approx(0.43181, abs=1e-5)

    def test_output_length_is_code_bits(self):
        cfg, p = make_params(bits=5)
        h, tape = forward_batch(np.zeros((3, cfg.input_dim)), p)
        assert h.shape == (3, 5) and tape.codes is h


class TestForwardBatch:
    def setup_method(self):
        self.cfg, self.params = make_params()
        self.x = np.random.default_rng(3).normal(size=(4, self.cfg.input_dim))

    def test_no_dropout_train_equals_eval(self):
        h_train, _ = forward_batch(self.x, self.params, dropout_p=0.0,
                                   train_mode=True, rng=np.random.default_rng(1))
        h_eval, _ = forward_batch(self.x, self.params, train_mode=False)
        assert np.array_equal(h_train, h_eval)

    def test_single_record_matches_composition(self):
        h, _ = forward_batch(self.x[:1], self.params)
        assert np.allclose(h, naive_forward(self.x[:1], self.params), atol=1e-12)

    @pytest.mark.parametrize("view_dims, view_mask, use_gating", [
        ((3, 4), None, True),
        ((3, 4), [True, False], True),
        ((3, 4), [False, True], True),
        ((3, 4), None, False),
        ((1, 5, 1), None, True),
        ((1, 5, 1), [False, True, False], False),
        ((1, 5, 1), [True, False, True], True),
    ])
    def test_matches_naive_reference(self, view_dims, view_mask, use_gating):
        # view_mask marks the views the network reads
        cfg, params = make_params(view_dims, proj=3, bits=4, seed=2,
                                  views=read_views(view_mask), gated=use_gating)
        x = np.random.default_rng(8).normal(size=(6, cfg.input_dim))
        before = x.copy()
        h, tape = forward_batch(x, params)
        assert np.allclose(h, naive_forward(x, params), atol=1e-12)
        assert np.array_equal(x, before) and tape.x is x  # the caller's rows, never written
        unread = x.copy()  # a view the network does not read never reaches its codes
        for v in set(range(len(view_dims))) - set(cfg.views):
            unread[:, cfg.view_columns[v]] = np.nan
        assert np.array_equal(forward_batch(unread, params)[0], h)

    def test_slice_of_rows_is_read_in_place(self):
        block = np.random.default_rng(4).normal(size=(9, self.cfg.input_dim))
        h, tape = forward_batch(block[2:6], self.params)
        assert np.shares_memory(tape.x, block)
        assert np.array_equal(h, forward_batch(block[2:6].copy(), self.params)[0])

    def test_dropout_deterministic_under_seed(self):
        a, _ = forward_batch(self.x, self.params, dropout_p=0.1,
                             train_mode=True, rng=np.random.default_rng(7))
        b, _ = forward_batch(self.x, self.params, dropout_p=0.1,
                             train_mode=True, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_train_mode_dropout_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            forward_batch(self.x, self.params, dropout_p=0.1, train_mode=True)
        forward_batch(self.x, self.params, dropout_p=0.1, train_mode=False)

    def test_dropout_continues_one_stream(self):
        rng, replay = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            _, tape = forward_batch(self.x, self.params, dropout_p=0.5,
                                    train_mode=True, rng=rng)
            keep = replay.random(tape.mask.shape) >= 0.5
            assert np.array_equal(tape.mask, keep / 0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            forward_batch(np.zeros((0, self.cfg.input_dim)), self.params)

    def test_codes_strictly_bounded(self):
        h, _ = forward_batch(self.x, self.params)
        assert np.all(np.abs(h) < 1.0)

    def test_dropout_mask_mean(self):
        _, tape = forward_batch(
            np.ones((200, self.cfg.input_dim)), self.params,
            dropout_p=0.1, train_mode=True, rng=np.random.default_rng(11))
        # 200 rows x fused_dim columns >= 1e5 draws would need a bigger batch;
        # draw masks directly at the same scale instead
        rng = np.random.default_rng(11)
        mask = (rng.random(100_000) >= 0.1) / 0.9
        assert abs(mask.mean() - 1.0) < 0.01
        assert set(np.unique(tape.mask)) <= {0.0, 1.0 / 0.9}


class TestBackwardBatch:
    def test_zero_upstream_gives_zero_grads(self):
        cfg, params = make_params()
        x = np.random.default_rng(5).normal(size=(3, cfg.input_dim))
        h, tape = forward_batch(x, params)
        grads = backward_batch(tape, params, np.zeros_like(h))
        for _, g in grads.tensors():
            assert np.all(g == 0.0)

    def test_scalar_network_hand_chain_rule(self):
        # every dimension 1: h = tanh(w2 * g*t + b2), g = sigmoid(w1*t + b1),
        # t = tanh(w0*x + b0)
        cfg = NetConfig((1,), 1, 1)
        params = init_params(cfg, 9)
        x = 0.7
        w0, b0 = params.norm_w[0][0, 0], params.norm_b[0][0]
        w1, b1 = params.fusion_w[0, 0], params.fusion_b[0]
        w2, b2 = params.hash_w[0, 0], params.hash_b[0]
        t = np.tanh(w0 * x + b0)
        g = 1.0 / (1.0 + np.exp(-(w1 * t + b1)))
        f = g * t
        h = np.tanh(w2 * f + b2)

        d = 1.7  # arbitrary upstream gradient
        dA = d * (1 - h * h)
        dw2, db2 = dA * f, dA
        df = dA * w2
        dg, dt = df * t, df * g
        dz = dg * g * (1 - g)
        dw1, db1 = dz * t, dz
        dt += dz * w1
        dp = dt * (1 - t * t)
        dw0, db0 = dp * x, dp

        _, tape = forward_batch(np.array([[x]]), params)
        grads = backward_batch(tape, params, np.array([[d]]))
        assert grads.hash_w[0, 0] == pytest.approx(dw2, rel=1e-12)
        assert grads.hash_b[0] == pytest.approx(db2, rel=1e-12)
        assert grads.fusion_w[0, 0] == pytest.approx(dw1, rel=1e-12)
        assert grads.fusion_b[0] == pytest.approx(db1, rel=1e-12)
        assert grads.norm_w[0][0, 0] == pytest.approx(dw0, rel=1e-12)
        assert grads.norm_b[0][0] == pytest.approx(db0, rel=1e-12)

    def test_shape_mismatch(self):
        cfg, params = make_params()
        x = np.random.default_rng(5).normal(size=(3, cfg.input_dim))
        _, tape = forward_batch(x, params)
        with pytest.raises(ShapeError):
            backward_batch(tape, params, np.zeros((3, 99)))

    def test_finite_difference_smoke(self):
        result = run_gradcheck(seed=3, cases=5)
        assert result.failures == 0
        assert result.max_rel_err < 1e-4

    @pytest.mark.parametrize("view_dims, views, gated", [
        ((3, 4), None, False),
        ((3, 4), (0,), True),
        ((3, 4), (1,), False),
        ((1, 5, 1), (1, 2), True),
    ], ids=["concat-only", "image-only", "text-only-concat", "one-wide-masked"])
    def test_finite_difference_of_ablation(self, view_dims, views, gated):
        # L = sum(c * H), so dL/dH = c; every parameter checked by central differences
        cfg, params = make_params(view_dims, proj=2, bits=3, seed=4, views=views, gated=gated)
        rng = np.random.default_rng(6)
        x, c = rng.normal(size=(5, cfg.input_dim)), rng.normal(size=(5, cfg.code_bits))

        def loss():
            return float((forward_batch(x, params)[0] * c).sum())

        _, tape = forward_batch(x, params)
        grads = backward_batch(tape, params, c)
        fd, step = np.empty_like(params.buf), 1e-6
        for i, orig in enumerate(params.buf.copy()):
            params.buf[i] = orig + step
            up = loss()
            params.buf[i] = orig - step
            fd[i] = (up - loss()) / (2 * step)
            params.buf[i] = orig
        assert np.allclose(grads.buf, fd, rtol=1e-6, atol=1e-8)
        assert np.all(grads.buf != 0.0)  # every parameter the network holds is used


class TestBinarize:
    def test_signs(self):
        assert np.array_equal(binarize(np.array([0.9, -0.3])), [1, -1])

    def test_tie_maps_to_plus_one(self):
        assert binarize(np.array([0.0]))[0] == 1

    def test_idempotent(self):
        h = np.array([0.2, -0.7, 0.0, -0.01])
        once = binarize(h)
        assert np.array_equal(binarize(once.astype(np.float64)), once)

    def test_matches_sign_reference_and_leaves_input(self):
        h = np.random.default_rng(0).normal(size=(40, 64))
        h[0, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        before = h.copy()
        codes = binarize(h)
        assert codes.dtype == np.int8 and codes.shape == h.shape
        assert np.array_equal(codes, np.where(h >= 0, 1, -1).astype(np.int8))
        assert list(codes[0, :6]) == [1, 1, 1, -1, -1, -1]
        assert np.array_equal(h, before, equal_nan=True)

    def test_allocates_one_byte_a_code(self):
        h = np.random.default_rng(1).normal(size=(256, 1024))
        tracemalloc.start()
        try:
            binarize(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= h.size + 4096
