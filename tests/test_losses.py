"""The two training terms, weighted Dice over heads and mean-prediction
entropy, and the adaptation objective that sums them."""

import math

import numpy as np
import pytest

from segadapt import autodiff as ad
from segadapt.losses import dice_loss, mean_prediction_entropy
from segadapt.pseudolabel import make_pseudo_label, one_hot
from _oracles import finite_difference_check, mean_entropy_f64, softmax_f64, wdice_f64

ETA = 1e-5


def prob_leaf(shape, seed):
    # logits leaf pushed through channel softmax, so FD perturbations stay
    # inside the simplex
    rng = np.random.default_rng(seed)
    z = ad.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    return z


def rand_probs(shape, seed):
    rng = np.random.default_rng(seed)
    return softmax_f64(rng.standard_normal(shape)).astype(np.float32)


def rand_onehot(shape, seed):
    b, c, h, w = shape
    rng = np.random.default_rng(seed)
    lab = rng.integers(0, c, size=(b, h, w))
    return np.stack([one_hot(s, c) for s in lab])


class TestWeightedDice:
    def test_perfect_match_is_nearly_zero(self):
        y = rand_onehot((2, 3, 6, 6), 0)
        m = np.ones((2, 6, 6), np.float32)
        loss = dice_loss([ad.Tensor(y)], y, m)
        assert 0.0 <= loss.data < 1e-4

    def test_all_zero_mask_gives_one_with_zero_gradient(self):
        p = prob_leaf((1, 3, 5, 5), 1)
        y = rand_onehot((1, 3, 5, 5), 2)
        m = np.zeros((1, 5, 5), np.float32)
        with ad.Tape() as tape:
            loss = dice_loss([ad.softmax_channel(p)], y, m)
            tape.backward(loss)
        assert loss.data == 1.0
        assert np.all(p.grad == 0.0)

    def test_masked_pixels_get_exactly_zero_gradient(self):
        p = ad.Tensor(rand_probs((1, 3, 6, 6), 3), requires_grad=True)
        y = rand_onehot((1, 3, 6, 6), 4)
        rng = np.random.default_rng(5)
        m = (rng.random((1, 6, 6)) < 0.5).astype(np.float32)
        with ad.Tape() as tape:
            loss = dice_loss([p], y, m)
            tape.backward(loss)
        dead = p.grad[:, :, m[0] == 0.0]
        live = p.grad[:, :, m[0] == 1.0]
        assert np.all(dead == 0.0)
        assert np.any(live != 0.0)

    def test_two_by_two_hand_computation(self):
        # C=2 on a 2x2 image with one pixel masked out, done longhand
        p = np.array(
            [[[0.9, 0.2], [0.6, 0.5]], [[0.1, 0.8], [0.4, 0.5]]], np.float32
        )
        y = np.array([[[1, 0], [1, 1]], [[0, 1], [0, 0]]], np.float32)
        m = np.array([[1, 1], [0, 1]], np.float32)
        expect = 0.0
        for c in range(2):
            num = den = 0.0
            for i in range(2):
                for j in range(2):
                    num += 2 * m[i, j] * p[c, i, j] * y[c, i, j]
                    den += m[i, j] * (p[c, i, j] + y[c, i, j])
            expect += (num / (den + ETA)) / 2
        expect = 1.0 - expect
        got = float(dice_loss([p[None]], y[None], m[None]).data)
        assert abs(got - expect) <= 1e-6
        assert abs(wdice_f64(p, y, m) - expect) <= 1e-6

    def test_single_uniform_pixel_formula(self):
        p = np.full((2, 1, 1), 0.5, np.float32)
        y = np.zeros((2, 1, 1), np.float32)
        y[0] = 1.0
        m = np.ones((1, 1), np.float32)
        expect = 1.0 - 0.5 * (1.0 / (1.5 + ETA))
        assert abs(float(dice_loss([p[None]], y[None], m[None]).data) - expect) <= 1e-6

    def test_gradient_matches_finite_differences(self):
        z = prob_leaf((2, 3, 5, 5), 6)
        y = rand_onehot((2, 3, 5, 5), 7)
        rng = np.random.default_rng(8)
        m = (rng.random((2, 5, 5)) < 0.7).astype(np.float32)
        rep = finite_difference_check(
            lambda: dice_loss([ad.softmax_channel(z)], y, m),
            lambda: wdice_f64(softmax_f64(z.data), y, m),
            [z],
        )
        assert rep.p99 <= 1e-3 and rep.worst <= 1e-2

    def test_bounded_between_zero_and_one(self):
        for seed in range(10):
            p = rand_probs((1, 4, 7, 7), seed)
            y = rand_onehot((1, 4, 7, 7), seed + 100)
            m = (np.random.default_rng(seed).random((1, 7, 7)) < 0.6).astype(np.float32)
            v = float(dice_loss([p], y, m).data)
            assert 0.0 <= v <= 1.0

    def test_supervised_dice_is_all_ones_mask(self):
        p = rand_probs((2, 3, 6, 6), 9)
        y = rand_onehot((2, 3, 6, 6), 10)
        a = dice_loss([p], y).data
        b = dice_loss([p], y, np.ones((2, 6, 6), np.float32)).data
        assert a == b

    def test_rejects_soft_targets_and_nonbinary_masks(self):
        p = rand_probs((1, 3, 4, 4), 11)
        soft = np.full((1, 3, 4, 4), 1.0 / 3.0, np.float32)
        with pytest.raises(ValueError):
            dice_loss([p], soft, np.ones((1, 4, 4), np.float32))
        y = rand_onehot((1, 3, 4, 4), 12)
        with pytest.raises(ValueError):
            dice_loss([p], y, np.full((1, 4, 4), 0.5, np.float32))
        with pytest.raises(ValueError):
            dice_loss([p], y[:, :, :2], np.ones((1, 4, 4), np.float32))


    @pytest.mark.parametrize("bad", [
        "soft target in sample 2",
        "two hot channels at one pixel of sample 1",
        "half-valued mask pixel in sample 2",
        "mask value 2 in sample 1",
    ])
    def test_rejects_a_bad_later_sample(self, bad):
        # samples 0 (and 1) are valid, so a check of the first sample alone passes
        p = rand_probs((3, 3, 4, 4), 13)
        y = rand_onehot((3, 3, 4, 4), 14)
        m = np.ones((3, 4, 4), np.float32)
        if bad == "soft target in sample 2":
            y[2] = 1.0 / 3.0
        elif bad == "two hot channels at one pixel of sample 1":
            y[1, :, 3, 3] = 1.0
        elif bad == "half-valued mask pixel in sample 2":
            m[2, 1, 2] = 0.5
        else:
            m[1, 0, 0] = 2.0
        with pytest.raises(ValueError):
            dice_loss([p], y, m)
        with pytest.raises(ValueError):
            dice_loss([p, p], y, m)


@pytest.mark.parametrize("loss", [
    lambda p, y, m: dice_loss([p], y, m),
    lambda p, y, m: dice_loss([p], y),
    lambda p, y, m: dice_loss([p, p], y, m),
    lambda p, y, m: mean_prediction_entropy([p]),
    lambda p, y, m: mean_prediction_entropy([p, p]),
], ids=["weighted_dice", "dice", "two_head_dice", "mean_entropy", "two_head_entropy"])
def test_three_dim_input_is_rejected(loss):
    # one [C,H,W] sample with [C,H,W] targets and an [H,W] mask
    p = rand_probs((1, 3, 4, 4), 15)[0]
    y = rand_onehot((1, 3, 4, 4), 16)[0]
    m = np.ones((4, 4), np.float32)
    with pytest.raises(ValueError):
        loss(p, y, m)


class TestMultiHead:
    def make_bundle(self, shape=(1, 3, 6, 6), seed=20):
        mean = rand_probs(shape, seed)
        return make_pseudo_label(mean, tau=0.5, cleanup=False)

    def test_decomposes_into_per_head_average(self):
        bundle = self.make_bundle()
        heads = [rand_probs((1, 3, 6, 6), 30 + k) for k in range(4)]
        whole = float(dice_loss(heads, bundle.pseudo_onehot, bundle.reliability).data)
        parts = [
            float(dice_loss([h], bundle.pseudo_onehot, bundle.reliability).data)
            for h in heads
        ]
        assert abs(whole - sum(parts) / 4) <= 1e-6

    def test_two_identical_heads_give_the_one_head_loss(self):
        # (d + d) * 0.5 is exactly d
        bundle = self.make_bundle(seed=21)
        h = rand_probs((1, 3, 6, 6), 40)
        a = dice_loss([h, h], bundle.pseudo_onehot, bundle.reliability).data
        b = dice_loss([h], bundle.pseudo_onehot, bundle.reliability).data
        assert a == b

    def test_shape_disagreement_rejected(self):
        bundle = self.make_bundle(seed=22)
        heads = [rand_probs((1, 3, 6, 6), 50), rand_probs((1, 3, 4, 4), 51)]
        with pytest.raises(ValueError):
            dice_loss(heads, bundle.pseudo_onehot, bundle.reliability)
        with pytest.raises(ValueError):
            dice_loss([], bundle.pseudo_onehot, bundle.reliability)
        with pytest.raises(ValueError):
            mean_prediction_entropy(heads)
        with pytest.raises(ValueError):
            mean_prediction_entropy([])


class TestEntropy:
    def test_one_hot_prediction_has_zero_entropy(self):
        y = rand_onehot((1, 3, 5, 5), 60)
        assert float(mean_prediction_entropy([y]).data) == 0.0
        assert float(mean_prediction_entropy([y, y]).data) == 0.0

    def test_uniform_prediction_peaks_at_log_c(self):
        for c in (2, 3, 5):
            p = np.full((1, c, 4, 4), 1.0 / c, np.float32)
            assert abs(float(mean_prediction_entropy([p]).data) - math.log(c)) <= 1e-6

    def test_disagreeing_one_hots_split_the_terms(self):
        # each head certain, jointly contradictory: per-head 0, mean ln 2
        a = np.zeros((1, 2, 4, 4), np.float32)
        b = np.zeros((1, 2, 4, 4), np.float32)
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        assert per_head(a, b) == 0.0
        assert abs(float(mean_prediction_entropy([a, b]).data) - math.log(2)) <= 1e-6

    def test_two_identical_heads_give_the_one_head_entropy(self):
        # (p + p) * 0.5 is exactly p
        p = rand_probs((2, 3, 5, 5), 61)
        assert mean_prediction_entropy([p, p]).data == mean_prediction_entropy([p]).data

    def test_per_head_never_exceeds_mean_entropy(self):
        for seed in range(200):
            heads = [rand_probs((1, 3, 4, 4), seed * 7 + k) for k in range(3)]
            me = float(mean_prediction_entropy(heads).data)
            assert per_head(*heads) <= me + 1e-6

    def test_matches_float64_oracles(self):
        heads = [rand_probs((2, 3, 6, 6), 70 + k) for k in range(4)]
        assert abs(float(mean_prediction_entropy(heads).data) - mean_entropy_f64(heads)) <= 1e-5
        for h in heads:
            assert abs(float(mean_prediction_entropy([h]).data) - mean_entropy_f64([h])) <= 1e-5

    def test_entropy_bounds(self):
        for seed in range(10):
            p = rand_probs((1, 4, 6, 6), 90 + seed)
            v = float(mean_prediction_entropy([p]).data)
            assert -1e-7 <= v <= math.log(4) + 1e-6

    def test_gradient_matches_finite_differences(self):
        z1 = prob_leaf((1, 3, 4, 4), 80)
        z2 = prob_leaf((1, 3, 4, 4), 81)
        rep = finite_difference_check(
            lambda: mean_prediction_entropy(
                [ad.softmax_channel(z1), ad.softmax_channel(z2)]
            ),
            lambda: mean_entropy_f64([softmax_f64(z1.data), softmax_f64(z2.data)]),
            [z1, z2],
        )
        assert rep.p99 <= 1e-3 and rep.worst <= 1e-2
        rep = finite_difference_check(
            lambda: mean_prediction_entropy([ad.softmax_channel(z1)]),
            lambda: mean_entropy_f64([softmax_f64(z1.data)]),
            [z1],
        )
        assert rep.p99 <= 1e-3 and rep.worst <= 1e-2


def per_head(*heads) -> float:
    """Mean over heads of each head's own entropy."""
    return sum(float(mean_prediction_entropy([h]).data) for h in heads) / len(heads)


class TestCombined:
    """The adaptation step's objective, ``dice + entropy * weight``."""

    def test_weight_scales_linearly(self):
        p = rand_probs((1, 3, 5, 5), 94)
        y = rand_onehot((1, 3, 5, 5), 93)
        m = np.ones((1, 5, 5), np.float32)
        sup, ent = dice_loss([p], y, m), mean_prediction_entropy([p])
        for lam in (0.0, 0.5, 1.0, 2.0):
            got = float((sup + ent * lam).data)
            assert abs(got - (float(sup.data) + lam * float(ent.data))) <= 1e-6

    def test_zero_weight_drops_the_entropy_gradient(self):
        z = prob_leaf((1, 2, 3, 3), 95)
        y = rand_onehot((1, 2, 3, 3), 96)
        m = np.ones((1, 3, 3), np.float32)

        def run(lam):
            z.grad = None
            with ad.Tape() as tape:
                p = ad.softmax_channel(z)
                loss = dice_loss([p], y, m) + mean_prediction_entropy([p]) * lam
                tape.backward(loss)
            return np.array(z.grad, copy=True)

        g0 = run(0.0)
        z2 = ad.Tensor(z.data.copy(), requires_grad=True)
        with ad.Tape() as tape:
            loss = dice_loss([ad.softmax_channel(z2)], y, m)
            tape.backward(loss)
        assert np.array_equal(g0, z2.grad)
        assert not np.array_equal(run(1.0), g0)
