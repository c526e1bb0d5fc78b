import numpy as np
import pytest

from mvhash.linalg import ShapeError
from mvhash.loss import LossConfig, PairBlock, metric_loss, pairwise_similarity, total_loss

CFG = LossConfig(lam=0.5, mu=0.5, w_d=1.5)


def build_pair_block(H, labels, cfg):
    """Block reference: the first and last lam*b rows and their phi/sim matrices."""
    H = np.asarray(H, dtype=np.float64)
    b = H.shape[0]
    if b < 2:
        raise ValueError("need a batch of at least 2 samples")
    m = cfg.block_size(b)
    labels = np.asarray(labels, dtype=np.float64)
    phi = H[:m] @ H[b - m:].T
    sim = pairwise_similarity(labels[:m], labels[b - m:])
    return PairBlock(np.arange(m), np.arange(b - m, b), phi, sim)


def naive_total_loss(H, labels, cfg, metric_weight=1.0):
    """Independent double-loop reference for the metric + quantization loss."""
    b = H.shape[0]
    m = int(cfg.lam * b)
    prec = list(range(m))
    rest = list(range(b - m, b))
    lm = 0.0
    for i in prec:
        for j in rest:
            phi = float(np.dot(H[i], H[j]))
            s = 1.0 if np.dot(labels[i], labels[j]) > 0 else 0.0
            lm += cfg.w_d * np.log1p(np.exp(phi)) - s * phi
    lm /= m * m
    lq = sum(np.linalg.norm(np.abs(H[i]) - 1.0) for i in sorted(set(prec) | set(rest))) / b
    return metric_weight * lm + cfg.mu * lq


def random_instance(rng):
    b = int(rng.integers(2, 10)) * 2
    K = int(rng.integers(2, 8))
    H = rng.uniform(-1, 1, size=(b, K))
    labels = np.zeros((b, 3), dtype=np.int8)
    labels[np.arange(b), rng.integers(3, size=b)] = 1
    extra = rng.random(b) < 0.3
    labels[extra, rng.integers(3, size=int(extra.sum()))] = 1
    return H, labels


class TestPairwiseSimilarity:
    def test_shared_category(self):
        assert pairwise_similarity([[1, 0, 1]], [[0, 0, 1]])[0, 0] == 1.0

    def test_disjoint(self):
        assert pairwise_similarity([[1, 0, 0]], [[0, 1, 0]])[0, 0] == 0.0

    def test_multi_label_binarized(self):
        assert pairwise_similarity([[1, 1, 0]], [[1, 1, 0]])[0, 0] == 1.0

    def test_leading_axes_batch(self):
        rng = np.random.default_rng(5)
        a, b = (rng.integers(0, 2, size=(6, 3, 4)) for _ in range(2))
        stacked = pairwise_similarity(a, b)
        assert stacked.shape == (6, 3, 3)
        for i in range(6):
            assert np.array_equal(stacked[i], pairwise_similarity(a[i], b[i]))

    def test_category_count_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_similarity([[1, 0]], [[1, 0, 0]])


class TestBuildPairBlock:
    def test_halves_disjoint(self):
        H = np.ones((4, 3))
        labels = np.eye(4)[:, :3]
        block = build_pair_block(H, labels, CFG)
        assert list(block.prec_indices) == [0, 1]
        assert list(block.rest_indices) == [2, 3]

    def test_quarter_fraction(self):
        H = np.ones((4, 3))
        labels = np.eye(4)[:, :3]
        block = build_pair_block(H, labels, LossConfig(lam=0.25))
        assert list(block.prec_indices) == [0]
        assert list(block.rest_indices) == [3]

    def test_all_ones_codes_give_phi_k(self):
        K = 5
        block = build_pair_block(np.ones((4, K)), np.eye(4)[:, :2] + 1, CFG)
        assert np.allclose(block.phi, K)

    def test_block_too_small(self):
        with pytest.raises(ValueError):
            build_pair_block(np.ones((2, 3)), np.ones((2, 2)), LossConfig(lam=0.25))

    def test_lam_range_validated(self):
        with pytest.raises(ValueError):
            LossConfig(lam=0.75)

    @pytest.mark.parametrize("field, value", [
        ("mu", float("nan")), ("w_d", float("nan")), ("mu", float("inf")),
        ("w_d", float("inf")), ("mu", "0.5"), ("w_d", -1.0),
    ])
    def test_bad_weight_is_a_value_error_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LossConfig(**{field: value})


class TestMetricLoss:
    def single_pair(self, phi, s, w_d):
        return PairBlock(np.array([0]), np.array([1]),
                         np.array([[float(phi)]]), np.array([[float(s)]]))

    def test_similar_pair_at_zero(self):
        loss, _ = metric_loss(self.single_pair(0.0, 1, 1.5), CFG)
        assert loss == pytest.approx(1.5 * np.log(2.0), abs=1e-12)
        assert loss == pytest.approx(1.03972, abs=1e-5)

    def test_separated_dissimilar_pair_vanishes(self):
        loss, _ = metric_loss(self.single_pair(-50.0, 0, 1.5), CFG)
        assert 0.0 <= loss <= 1e-20

    def test_close_dissimilar_pair_punished(self):
        loss, _ = metric_loss(self.single_pair(50.0, 0, 1.5), CFG)
        assert loss == pytest.approx(75.0, abs=1e-8)

    def test_no_overflow_at_large_phi(self):
        loss, dphi = metric_loss(self.single_pair(128.0, 1, 1.5), CFG)
        assert np.isfinite(loss) and np.isfinite(dphi).all()

    def test_dissimilar_loss_increasing_in_phi(self):
        phis = np.linspace(-20, 20, 101)
        losses = [metric_loss(self.single_pair(p, 0, 1.5), CFG)[0] for p in phis]
        assert np.all(np.diff(losses) > 0)

    def test_similar_loss_decreasing_with_unit_weight(self):
        phis = np.linspace(-20, 20, 101)
        losses = [metric_loss(self.single_pair(p, 1, 1.0), LossConfig(w_d=1.0))[0]
                  for p in phis]
        assert np.all(np.diff(losses) < 0)

    def test_weight_equal_to_similarity_recovers_unweighted_form(self):
        # with w_d substituted by s_ij the summand becomes
        # s*(log(1+e^phi) - phi), which vanishes for dissimilar pairs
        rng = np.random.default_rng(0)
        for _ in range(50):
            phi = float(rng.uniform(-10, 10))
            for s in (0.0, 1.0):
                loss, _ = metric_loss(self.single_pair(phi, s, s),
                                      LossConfig(w_d=s))
                expected = s * np.log1p(np.exp(phi)) - s * phi
                assert loss == pytest.approx(expected, abs=1e-12)


class TestQuantizationLoss:
    """The quantization term alone: total_loss with metric_weight=0 and mu=1.

    lam picks the block rows: 0.5 takes every row of a batch of 2, and
    LossConfig(lam=0.25) on a batch of 4 takes rows 0 and 3.
    """

    @staticmethod
    def quantization(H, lam=0.5):
        labels = np.zeros((H.shape[0], 2))
        return total_loss(H, labels, LossConfig(lam=lam, mu=1.0), metric_weight=0.0)

    def test_exact_binary_codes(self):
        H = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
        loss, dH = self.quantization(H)
        assert loss == 0.0
        assert np.all(dH == 0.0)

    def test_zero_vector(self):
        K = 9
        loss, _ = self.quantization(np.zeros((2, K)))
        assert loss == pytest.approx(np.sqrt(K), abs=1e-12)

    def test_half_magnitude(self):
        loss, _ = self.quantization(np.full((2, 4), 0.5))
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_normalizer_is_batch_size(self):
        # only half the batch is in the block; the divisor stays b
        H = np.zeros((4, 4))
        loss, _ = self.quantization(H, lam=0.25)
        assert loss == pytest.approx(2 * 2.0 / 4, abs=1e-12)

    def test_rows_outside_block_untouched(self):
        H = np.full((4, 2), 0.3)
        _, dH = self.quantization(H, lam=0.25)
        assert np.all(dH[1] == 0.0) and np.all(dH[2] == 0.0)


class TestTotalLoss:
    def test_mu_zero_equals_metric_term(self):
        rng = np.random.default_rng(1)
        H, labels = random_instance(rng)
        cfg0 = LossConfig(lam=0.5, mu=0.0, w_d=1.5)
        loss, _ = total_loss(H, labels, cfg0)
        block = build_pair_block(H, labels, cfg0)
        lm, _ = metric_loss(block, cfg0)
        assert loss == pytest.approx(lm, abs=1e-15)

    def test_binary_well_separated_vanishes(self):
        K = 8
        H = np.vstack([np.ones((2, K)), -np.ones((2, K))])
        labels = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
        loss, _ = total_loss(H, labels, CFG)
        # phi = -K for every cross pair, all pairs dissimilar
        assert loss < 1e-3

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            H, labels = random_instance(rng)
            loss, _ = total_loss(H, labels, CFG)
            assert loss == pytest.approx(naive_total_loss(H, labels, CFG), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            H, labels = random_instance(rng)
            _, dH = total_loss(H, labels, CFG)
            step = 1e-6
            for _ in range(20):
                i = rng.integers(H.shape[0])
                j = rng.integers(H.shape[1])
                Hp, Hm = H.copy(), H.copy()
                Hp[i, j] += step
                Hm[i, j] -= step
                fd = (total_loss(Hp, labels, CFG)[0]
                      - total_loss(Hm, labels, CFG)[0]) / (2 * step)
                assert abs(dH[i, j] - fd) <= 1e-4 * max(abs(fd), abs(dH[i, j]), 1e-3)

    def test_metric_weight_is_zero_or_one(self):
        H, labels = random_instance(np.random.default_rng(6))
        (l0, d0), (l1, d1) = (total_loss(H, labels, CFG, metric_weight=w) for w in (0.0, 1.0))
        for w, loss in ((0.0, l0), (1.0, l1)):
            assert loss == pytest.approx(naive_total_loss(H, labels, CFG, metric_weight=w),
                                         abs=1e-12)
        assert not np.array_equal(d0, d1)
        for w in (2.0, 0.5, -1.0, float("nan")):
            with pytest.raises(ValueError, match="^metric_weight must be 0.0 or 1.0, got "):
                total_loss(H, labels, CFG, metric_weight=w)

    @pytest.mark.parametrize("shape", [(), (8,), (8, 4, 1)])
    def test_codes_must_be_a_matrix(self, shape):
        with pytest.raises(ShapeError) as exc:
            total_loss(np.zeros(shape), np.eye(8)[:, :3], CFG)
        assert str(exc.value) == f"H has shape {shape}, expected (batch, bits)"

    @pytest.mark.parametrize("shape", [(), (8,), (8, 3, 1), (7, 3)])
    def test_labels_must_be_one_row_per_code(self, shape):
        H = np.random.default_rng(5).uniform(-1, 1, size=(8, 4))
        with pytest.raises(ShapeError) as exc:
            total_loss(H, np.ones(shape), CFG)
        assert str(exc.value) == f"labels have shape {shape}, expected (8, categories)"
        # given the block similarity, total_loss does not read the labels
        sim = np.ones((4, 4))
        loss, _ = total_loss(H, np.ones(shape), CFG, sim=sim)
        assert loss == total_loss(H, None, CFG, sim=sim)[0]

    def test_rows_outside_blocks_get_zero_gradient(self):
        rng = np.random.default_rng(4)
        H = rng.uniform(-1, 1, size=(8, 4))
        labels = np.eye(8)[:, :3]
        labels[:, 0] = 1
        cfg = LossConfig(lam=0.25, mu=0.5, w_d=1.5)
        _, dH = total_loss(H, labels, cfg)
        assert np.all(dH[2:6] == 0.0)

