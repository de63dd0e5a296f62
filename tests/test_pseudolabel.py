"""Ensemble averaging, reliability thresholding, largest-component cleanup."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segadapt.pseudolabel import (
    PseudoLabelBundle,
    cleanup_label_map,
    ensemble_mean,
    label_components,
    make_pseudo_label,
    one_hot,
    reliability_map,
    write_pgm,
)
from segadapt.validation import check_prob_map
from _oracles import cleanup_loop, flood_fill_components, mean_longdouble


def random_prob_maps(seed, k=4, c=3, h=8, w=8):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((k, c, h, w))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return [(e[i] / e[i].sum(axis=0, keepdims=True)).astype(np.float32) for i in range(k)]


class TestEnsembleMean:
    def test_identical_maps_average_to_themselves(self):
        p = random_prob_maps(0, k=1)[0]
        assert np.allclose(ensemble_mean([p, p, p]), p, atol=1e-7)

    def test_disagreeing_one_hots_average_to_half(self):
        a = np.zeros((2, 1, 1), np.float32)
        b = np.zeros((2, 1, 1), np.float32)
        a[0] = 1.0
        b[1] = 1.0
        m = ensemble_mean([a, b])
        assert m[0, 0, 0] == 0.5 and m[1, 0, 0] == 0.5

    def test_matches_long_double_accumulation(self):
        maps = random_prob_maps(1, k=7)
        m = ensemble_mean(maps)
        assert np.abs(m.astype(np.longdouble) - mean_longdouble(maps)).max() <= 1e-6

    def test_mean_still_sums_to_one_per_pixel(self):
        m = ensemble_mean(random_prob_maps(2))
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-6

    def test_empty_or_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            ensemble_mean([])
        maps = random_prob_maps(3)
        with pytest.raises(ValueError):
            ensemble_mean([maps[0], maps[1][:, :4]])


@pytest.mark.parametrize("check", [
    check_prob_map,
    lambda p: ensemble_mean([p]),
    lambda p: make_pseudo_label(p, tau=0.9),
], ids=["check_prob_map", "ensemble_mean", "make_pseudo_label"])
def test_nan_probability_map_rejected(check):
    # every comparison with NaN is False, so a range check must fail on it
    with pytest.raises(ValueError):
        check(np.full((1, 3, 2, 2), np.nan, np.float32))


class TestReliabilityMap:
    def test_direct_threshold_examples(self):
        mean = np.zeros((2, 1, 2), np.float32)
        mean[:, 0, 0] = (0.97, 0.03)
        mean[:, 0, 1] = (0.6, 0.4)
        m = reliability_map(mean, 0.95)
        assert m[0, 0] == 1.0
        assert m[0, 1] == 0.0

    def test_threshold_is_strict(self):
        mean = np.zeros((2, 1, 1), np.float32)
        mean[:, 0, 0] = (0.95, 0.05)
        assert reliability_map(mean, 0.95)[0, 0] == 0.0  # equality does not pass

    def test_tau_outside_open_interval_rejected(self):
        mean = random_prob_maps(4, k=1)[0]
        for bad in (1.0 / 3.0, 0.2, 1.0, 1.2):
            with pytest.raises(ValueError):
                reliability_map(mean, bad)
        reliability_map(mean, 0.5)  # valid for C=3

    def test_monotone_in_tau_as_set_inclusion(self):
        for seed in range(100):
            mean = ensemble_mean(random_prob_maps(seed, k=3))
            lo = reliability_map(mean, 0.40)
            hi = reliability_map(mean, 0.90)
            assert np.all(hi <= lo)  # raising tau can only shrink the region

    def test_fraction_endpoints(self):
        sure = np.zeros((3, 2, 2), np.float32)
        sure[0] = 1.0
        bundle = make_pseudo_label(sure[None], tau=0.95, cleanup=False)
        assert bundle.reliable_fraction == 1.0
        unsure = np.full((3, 2, 2), 1.0 / 3.0, np.float32)
        bundle = make_pseudo_label(unsure[None], tau=0.95, cleanup=False)
        assert bundle.reliable_fraction == 0.0


class TestComponents:
    def test_two_blobs_sizes_five_and_three_keep_the_larger(self):
        lab = np.zeros((6, 8), np.int64)
        lab[1, 1:6] = 1          # 5 pixels
        lab[4, 1:4] = 1          # 3 pixels, separate row
        cleaned = cleanup_label_map(lab, 2)
        assert cleaned[1, 1:6].sum() == 5
        assert np.all(cleaned[4] == 0)

    def test_cleanup_matches_flood_fill_oracle_on_random_maps(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            lab = rng.integers(0, 3, size=(16, 16))
            assert np.array_equal(cleanup_label_map(lab, 3), cleanup_loop(lab, 3))

    def test_cleanup_is_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lab = rng.integers(0, 4, size=(12, 12))
            once = cleanup_label_map(lab, 4)
            assert np.array_equal(cleanup_label_map(once, 4), once)

    def test_size_tie_keeps_component_with_smallest_row_major_pixel(self):
        lab = np.zeros((5, 5), np.int64)
        lab[0, 3:5] = 1   # two pixels, first index 3
        lab[2, 0:2] = 1   # two pixels, first index 10
        cleaned = cleanup_label_map(lab, 2)
        assert np.all(cleaned[0, 3:5] == 1)
        assert np.all(cleaned[2, 0:2] == 0)

    def test_diagonal_pixels_are_separate_components(self):
        mask = np.zeros((4, 4), bool)
        mask[1, 1] = mask[2, 2] = True
        labels, count = label_components(mask)
        assert count == 2
        assert labels[1, 1] != labels[2, 2]

    def test_component_labeling_agrees_with_bfs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mask = rng.random((16, 16)) < 0.45
            labels, count = label_components(mask)
            oracle = flood_fill_components(mask)
            assert count == len(oracle)
            # same pixel partition, label numbering following first appearance
            for i, comp in enumerate(oracle, start=1):
                got = {tuple(p) for p in np.argwhere(labels == i)}
                assert got == comp

    def test_cleanup_passes_empty_and_full_slices_through(self):
        stack = np.zeros((3, 4, 5), np.int64)
        stack[1] = 2
        assert np.array_equal(cleanup_label_map(stack, 3), stack)
        labels, count = label_components(stack == 0)
        assert count == 2 and np.all(labels[1] == 0)


def serpentine(n=64):
    """One 4-connected path folded over the whole frame: every other row is
    a run, joined at alternating ends."""
    mask = np.zeros((n, n), bool)
    mask[::2, 1:-1] = True
    mask[1::4, -2] = True
    mask[3::4, 1] = True
    return mask


def cross_slice_pair():
    """Class 1 on the bottom row of slice 0 and the top row of slice 1."""
    stack = np.zeros((2, 3, 4), np.int64)
    stack[0, -1] = 1
    stack[1, 0] = 1
    return stack


@st.composite
def label_stacks(draw):
    n, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    stack = np.where(rng.random((n, h, w)) < density,
                     rng.integers(1, classes, size=(n, h, w)), 0)
    for i in range(n):  # some slices empty, some a single full component
        kind = draw(st.sampled_from(["random", "random", "empty", "full"]))
        if kind != "random":
            stack[i] = 0 if kind == "empty" else classes - 1
    return stack, classes


class TestStackedLabeling:
    @settings(max_examples=150, deadline=None)
    @given(case=label_stacks())
    @example(case=(serpentine()[None].astype(np.int64), 2))
    @example(case=(cross_slice_pair(), 2))
    def test_stacked_cleanup_equals_per_slice_bfs(self, case):
        stack, classes = case
        want = np.stack([cleanup_loop(s, classes) for s in stack])
        assert np.array_equal(cleanup_label_map(stack, classes), want)

    def test_serpentine_is_one_component(self):
        mask = serpentine()
        labels, count = label_components(mask)
        oracle = flood_fill_components(mask)
        assert count == len(oracle) == 1
        assert {tuple(p) for p in np.argwhere(labels == 1)} == oracle[0]

    def test_components_never_cross_slices(self):
        stack = cross_slice_pair()
        labels, count = label_components(stack == 1)
        assert count == 2
        assert np.all(labels[0, -1] == 1) and np.all(labels[1, 0] == 2)
        assert np.array_equal(cleanup_label_map(stack, 2), stack)


class TestMakePseudoLabel:
    def test_bundle_shapes_and_one_hot(self):
        mean = np.stack([ensemble_mean(random_prob_maps(s)) for s in range(2)])
        bundle = make_pseudo_label(mean, tau=0.5)
        assert bundle.pseudo_onehot.shape == mean.shape
        assert bundle.reliability.shape == (2, 8, 8)
        assert np.array_equal(bundle.pseudo_onehot.sum(axis=1), np.ones((2, 8, 8), np.float32))
        assert set(np.unique(bundle.pseudo_onehot)) <= {0.0, 1.0}

    def test_argmax_tie_goes_to_lowest_class(self):
        mean = np.full((1, 3, 2, 2), 1.0 / 3.0, np.float32)
        bundle = make_pseudo_label(mean, tau=0.5, cleanup=False)
        assert np.all(bundle.pseudo_onehot[0, 0] == 1.0)

    def test_reliability_computed_before_cleanup(self):
        # a confident but tiny secondary blob: cleanup drops the label,
        # the reliability bit stays
        mean = np.zeros((1, 2, 5, 5), np.float32)
        mean[0, 0] = 0.99
        mean[0, 1] = 0.01
        mean[0, 1, 0, 0] = 0.99
        mean[0, 0, 0, 0] = 0.01
        mean[0, 1, 2, 1:4] = 0.99   # 3-pixel blob, the larger component
        mean[0, 0, 2, 1:4] = 0.01
        bundle = make_pseudo_label(mean, tau=0.95, cleanup=True)
        assert bundle.pseudo_onehot[0, 0, 0, 0] == 1.0  # reassigned to background
        assert bundle.reliability[0, 0, 0] == 1.0        # but still confident

    def test_monotone_probability_rescaling_keeps_the_argmax_label(self):
        mean = ensemble_mean(random_prob_maps(11))[None]
        sharp = mean ** 3
        sharp /= sharp.sum(axis=1, keepdims=True)
        a = make_pseudo_label(mean, tau=None, cleanup=False)
        b = make_pseudo_label(sharp.astype(np.float32), tau=None, cleanup=False)
        assert np.array_equal(a.pseudo_onehot, b.pseudo_onehot)

    def test_tau_none_marks_everything_reliable(self):
        mean = ensemble_mean(random_prob_maps(12))[None]
        bundle = make_pseudo_label(mean, tau=None)
        assert bundle.reliable_fraction == 1.0

    def test_invalid_probability_map_rejected(self):
        bad = np.full((1, 3, 4, 4), 0.5, np.float32)  # sums to 1.5
        with pytest.raises(ValueError):
            make_pseudo_label(bad, tau=0.5)


@st.composite
def head_batches(draw):
    """K heads' [B,C,H,W] probability maps and a valid tau for C classes."""
    k, b = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    c, h, w = draw(st.integers(2, 4)), draw(st.integers(1, 19)), draw(st.integers(1, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # coarse logits make argmax ties and confident pixels common
    logits = rng.integers(-3, 4, size=(k, b, c, h, w)) * draw(st.sampled_from([0.5, 2.0, 8.0]))
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    maps = list((e / e.sum(axis=2, keepdims=True)).astype(np.float32))
    tau = 1.0 / c + draw(st.floats(0.01, 0.99)) * (1.0 - 1.0 / c)
    return maps, tau


def same_bytes(batched, per_slice):
    want = np.stack(per_slice)
    return (batched.dtype == want.dtype and batched.shape == want.shape
            and batched.tobytes() == want.tobytes())


class TestBatchedEqualsPerSlice:
    @settings(max_examples=100, deadline=None)
    @given(case=head_batches(), cleanup=st.booleans())
    def test_batched_calls_equal_stacked_per_slice_calls(self, case, cleanup):
        maps, tau = case
        b, c = maps[0].shape[:2]
        mean = ensemble_mean(maps)
        assert same_bytes(mean, [ensemble_mean([m[i] for m in maps]) for i in range(b)])
        assert same_bytes(reliability_map(mean, tau),
                          [reliability_map(mean[i], tau) for i in range(b)])
        labels = mean.argmax(axis=1)
        assert same_bytes(one_hot(labels, c), [one_hot(lab, c) for lab in labels])
        for t in (tau, None):
            whole = make_pseudo_label(mean, t, cleanup=cleanup)
            parts = [make_pseudo_label(mean[i:i + 1], t, cleanup=cleanup) for i in range(b)]
            assert same_bytes(whole.pseudo_onehot, [p.pseudo_onehot[0] for p in parts])
            assert same_bytes(whole.reliability, [p.reliability[0] for p in parts])

class TestOneHot:
    def test_round_trips_with_argmax(self):
        rng = np.random.default_rng(21)
        lab = rng.integers(0, 4, size=(6, 6))
        oh = one_hot(lab, 4)
        assert oh.shape == (4, 6, 6)
        assert np.array_equal(oh.argmax(axis=0), lab)
        assert np.array_equal(oh.sum(axis=0), np.ones((6, 6), np.float32))


class TestPgmExport:
    def test_p5_layout_and_determinism(self, tmp_path):
        img = (np.arange(12, dtype=np.uint8) * 20).reshape(3, 4)
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        write_pgm(p1, img)
        write_pgm(p2, img)
        raw = p1.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert raw[len(b"P5\n4 3\n255\n"):] == img.tobytes()
        assert raw == p2.read_bytes()

    def test_rejects_bad_shapes_and_ranges(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2), np.uint8))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "y.pgm", np.array([[300]]))
