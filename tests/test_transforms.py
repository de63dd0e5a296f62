"""Flip/rotation family: exact permutations, in-family inverses, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segadapt import autodiff as ad
from segadapt.transforms import (
    FAMILY,
    IDENTITY,
    SpatialTransform,
    apply_inverse,
    apply_transform,
    inverse,
    sample_transform,
)


def rand_img(seed, shape=(2, 3, 6, 6)):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def test_family_has_sixteen_distinct_members():
    assert len(FAMILY) == 16
    assert len(set(FAMILY)) == 16
    assert IDENTITY in FAMILY


def test_identity_leaves_input_unchanged():
    x = rand_img(0)
    assert np.array_equal(apply_transform(IDENTITY, x), x)


def test_rot90_twice_equals_rot180():
    x = rand_img(1)
    once = SpatialTransform(quarters=1)
    twice = apply_transform(once, apply_transform(once, x))
    assert np.array_equal(twice, apply_transform(SpatialTransform(quarters=2), x))


def test_thousand_random_round_trips_are_bitwise_exact():
    rng = np.random.default_rng(42)
    for i in range(1000):
        t = sample_transform(rng)
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)), 8, 8)
        x = rng.standard_normal(shape).astype(np.float32)
        back = apply_inverse(t, apply_transform(t, x))
        assert np.array_equal(back, x)


def test_inverse_of_identity_is_identity():
    assert inverse(IDENTITY) == IDENTITY


def test_inverse_of_quarter_turn_is_three_quarters():
    assert inverse(SpatialTransform(quarters=1)) == SpatialTransform(quarters=3)


def test_inverse_of_flip_then_rotation_round_trips():
    t = SpatialTransform(flip_h=True, quarters=1)
    inv = inverse(t)
    assert inv in FAMILY
    for seed in range(20):
        x = rand_img(seed)
        assert np.array_equal(apply_transform(inv, apply_transform(t, x)), x)


def test_every_inverse_stays_in_the_family():
    for t in FAMILY:
        assert inverse(t) in FAMILY


def test_sampling_is_deterministic_given_seed():
    a = [sample_transform(np.random.default_rng(7)) for _ in range(50)]
    b = [sample_transform(np.random.default_rng(7)) for _ in range(50)]
    assert a == b


def test_sampling_is_roughly_uniform_over_the_sixteen_members():
    rng = np.random.default_rng(1234)
    counts = {t: 0 for t in FAMILY}
    for _ in range(16000):
        counts[sample_transform(rng)] += 1
    for t, n in counts.items():
        assert abs(n - 1000) <= 120, f"{t} drawn {n} times"


def test_argmax_commutes_with_every_transform():
    rng = np.random.default_rng(5)
    for t in FAMILY:
        p = rng.random((3, 8, 8)).astype(np.float32)
        lhs = np.argmax(apply_transform(t, p), axis=0)
        rhs = apply_transform(t, np.argmax(p, axis=0).astype(np.float32))
        assert np.array_equal(lhs, rhs.astype(np.int64))


def test_transforms_act_on_last_two_axes_only():
    x = rand_img(6, shape=(4, 2, 6, 6))
    t = SpatialTransform(flip_v=True, quarters=2)
    y = apply_transform(t, x)
    for n in range(4):
        for c in range(2):
            assert np.array_equal(y[n, c], apply_transform(t, x[n, c]))


def test_tensor_inputs_stay_in_the_autodiff_graph():
    x = ad.Tensor(rand_img(7, shape=(1, 2, 4, 4)), requires_grad=True)
    t = SpatialTransform(flip_h=True, quarters=3)
    g = np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4)
    with ad.Tape() as tape:
        out = apply_inverse(t, apply_transform(t, x))
        tape.backward(ad.tsum(out * ad.Tensor(g)))
    assert isinstance(out, ad.Tensor)
    assert np.array_equal(x.grad, g)  # round trip is the identity permutation


def test_odd_rotation_on_non_square_rejected():
    x = rand_img(8, shape=(1, 1, 4, 6))
    with pytest.raises(ValueError):
        apply_transform(SpatialTransform(quarters=1), x)
    # even quarter turns keep the shape and are fine
    apply_transform(SpatialTransform(quarters=2), x)


@settings(max_examples=60, deadline=None)
@given(idx=st.integers(min_value=0, max_value=15), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_property(idx, seed):
    t = FAMILY[idx]
    x = np.random.default_rng(seed).standard_normal((2, 5, 5)).astype(np.float32)
    assert np.array_equal(apply_inverse(t, apply_transform(t, x)), x)
