import numpy as np
import pytest

from mvhash.gradcheck import run_gradcheck
from mvhash.linalg import ShapeError
from mvhash.net import (ModelParams, NetConfig, backward_batch, binarize, context_gating,
                        forward_batch, hash_head, init_params, normalize_view)


def make_params(view_dims=(3, 4), proj=2, bits=3, seed=0):
    return NetConfig(view_dims, proj, bits), init_params(NetConfig(view_dims, proj, bits), seed)


def zero_params(cfg):
    return ModelParams(cfg)


class TestNormalizeView:
    def test_zero_weights_give_zero(self):
        cfg, _ = make_params()
        p = zero_params(cfg)
        out = normalize_view(np.array([1.0, -2.0, 3.0]), p, 0)
        assert np.all(out == 0.0)

    def test_identity_scalar(self):
        cfg = NetConfig((1,), 1, 1)
        p = zero_params(cfg)
        p.norm_w[0][0, 0] = 1.0
        out = normalize_view(np.array([0.5]), p, 0)
        assert out[0] == pytest.approx(np.tanh(0.5), abs=1e-12)
        assert out[0] == pytest.approx(0.46212, abs=1e-5)

    def test_output_strictly_bounded(self):
        cfg, p = make_params()
        out = normalize_view(np.full(3, 1e6), p, 0)
        assert np.all(np.abs(out) <= 1.0)

    def test_dim_mismatch(self):
        cfg, p = make_params()
        with pytest.raises(ShapeError):
            normalize_view(np.zeros(5), p, 0)


class TestContextGating:
    def test_zero_params_halve_input(self):
        cfg, _ = make_params(view_dims=(2,), proj=2)
        p = zero_params(cfg)
        x = np.array([1.0, -2.0])
        fused, gate = context_gating(x, p)
        assert np.allclose(gate, 0.5)
        assert np.allclose(fused, [0.5, -1.0])

    def test_saturated_gate_passes_input(self):
        cfg, _ = make_params(view_dims=(2,), proj=2)
        p = zero_params(cfg)
        p.fusion_b[:] = 40.0
        x = np.array([3.0, -1.5])
        fused, gate = context_gating(x, p)
        assert np.allclose(fused, x, atol=1e-12)

    def test_gate_strictly_in_unit_interval(self):
        cfg, p = make_params()
        rng = np.random.default_rng(1)
        _, gate = context_gating(rng.normal(size=cfg.fused_dim), p)
        assert np.all(gate > 0.0) and np.all(gate < 1.0)


class TestHashHead:
    def test_zero_weights(self):
        cfg, _ = make_params()
        p = zero_params(cfg)
        assert np.all(hash_head(np.ones(cfg.fused_dim), p) == 0.0)

    def test_single_unit_row(self):
        cfg, _ = make_params(view_dims=(2,), proj=2, bits=1)
        p = zero_params(cfg)
        p.hash_w[0, 0] = 1.0
        out = hash_head(np.array([3.0, 9.9]), p)
        assert out[0] == pytest.approx(np.tanh(3.0), abs=1e-12)
        assert out[0] == pytest.approx(0.99505, abs=1e-5)

    def test_output_length_is_code_bits(self):
        cfg, p = make_params(bits=5)
        assert hash_head(np.zeros(cfg.fused_dim), p).shape == (5,)


class TestForwardBatch:
    def setup_method(self):
        self.cfg, self.params = make_params()
        rng = np.random.default_rng(3)
        self.views = [rng.normal(size=(4, d)) for d in self.cfg.view_dims]

    def test_no_dropout_train_equals_eval(self):
        h_train, _ = forward_batch(self.views, self.params, dropout_p=0.0,
                                   train_mode=True, rng=np.random.default_rng(1))
        h_eval, _ = forward_batch(self.views, self.params, train_mode=False)
        assert np.array_equal(h_train, h_eval)

    def test_single_record_matches_composition(self):
        one = [v[:1] for v in self.views]
        h, _ = forward_batch(one, self.params)
        normed = np.concatenate([normalize_view(v[0], self.params, i)
                                 for i, v in enumerate(one)])
        fused, _ = context_gating(normed, self.params)
        assert np.allclose(h[0], hash_head(fused, self.params), atol=1e-12)

    def test_dropout_deterministic_under_seed(self):
        a, _ = forward_batch(self.views, self.params, dropout_p=0.1,
                             train_mode=True, rng=np.random.default_rng(7))
        b, _ = forward_batch(self.views, self.params, dropout_p=0.1,
                             train_mode=True, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_train_mode_dropout_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            forward_batch(self.views, self.params, dropout_p=0.1, train_mode=True)
        forward_batch(self.views, self.params, dropout_p=0.1, train_mode=False)

    def test_dropout_continues_one_stream(self):
        rng, replay = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            _, tape = forward_batch(self.views, self.params, dropout_p=0.5,
                                    train_mode=True, rng=rng)
            keep = replay.random(tape.mask.shape) >= 0.5
            assert np.array_equal(tape.mask, keep / 0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            forward_batch([np.zeros((0, 3)), np.zeros((0, 4))], self.params)

    def test_codes_strictly_bounded(self):
        h, _ = forward_batch(self.views, self.params)
        assert np.all(np.abs(h) < 1.0)

    def test_dropout_mask_mean(self):
        _, tape = forward_batch(
            [np.ones((200, d)) for d in self.cfg.view_dims], self.params,
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
        rng = np.random.default_rng(5)
        views = [rng.normal(size=(3, d)) for d in cfg.view_dims]
        h, tape = forward_batch(views, params)
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

        _, tape = forward_batch([np.array([[x]])], params)
        grads = backward_batch(tape, params, np.array([[d]]))
        assert grads.hash_w[0, 0] == pytest.approx(dw2, rel=1e-12)
        assert grads.hash_b[0] == pytest.approx(db2, rel=1e-12)
        assert grads.fusion_w[0, 0] == pytest.approx(dw1, rel=1e-12)
        assert grads.fusion_b[0] == pytest.approx(db1, rel=1e-12)
        assert grads.norm_w[0][0, 0] == pytest.approx(dw0, rel=1e-12)
        assert grads.norm_b[0][0] == pytest.approx(db0, rel=1e-12)

    def test_shape_mismatch(self):
        cfg, params = make_params()
        rng = np.random.default_rng(5)
        views = [rng.normal(size=(3, d)) for d in cfg.view_dims]
        _, tape = forward_batch(views, params)
        with pytest.raises(ShapeError):
            backward_batch(tape, params, np.zeros((3, 99)))

    def test_finite_difference_smoke(self):
        result = run_gradcheck(seed=3, cases=5)
        assert result.failures == 0
        assert result.max_rel_err < 1e-4


class TestBinarize:
    def test_signs(self):
        assert np.array_equal(binarize(np.array([0.9, -0.3])), [1, -1])

    def test_tie_maps_to_plus_one(self):
        assert binarize(np.array([0.0]))[0] == 1

    def test_idempotent(self):
        h = np.array([0.2, -0.7, 0.0, -0.01])
        once = binarize(h)
        assert np.array_equal(binarize(once.astype(np.float64)), once)
