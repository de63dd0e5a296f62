"""Dice, surface distance, per-class aggregation, paired t-test."""

import math

import numpy as np
import pytest

from segadapt.metrics import (
    EMPTY,
    CaseResult,
    DegenerateStatsError,
    _directed_mean_distance,
    aggregate,
    assd,
    boundary_points,
    dice_coefficient,
    paired_t_test,
    student_t_sf2,
)
from _oracles import (
    assd_allpairs,
    assd_f64,
    boundary_loop,
    directed_mean_distance_f64,
    paired_t_reference,
)


class TestDice:
    def test_identical_masks(self):
        lab = np.array([[0, 1], [1, 2]])
        for cls in range(3):
            assert dice_coefficient(lab, lab, cls) == 1.0

    def test_disjoint_masks(self):
        a = np.array([[1, 1], [0, 0]])
        b = np.array([[0, 0], [1, 1]])
        assert dice_coefficient(a, b, 1) == 0.0

    def test_partial_overlap_hand_value(self):
        # |P|=6, |G|=4, overlap 3: 2*3/(6+4) = 0.6
        p = np.zeros((4, 4), int)
        g = np.zeros((4, 4), int)
        p[0, 0:3] = p[1, 0:3] = 1
        g[1, 0:3] = g[2, 3] = 1
        assert int((p == 1).sum()) == 6 and int((g == 1).sum()) == 4
        assert int(((p == 1) & (g == 1)).sum()) == 3
        assert dice_coefficient(p, g, 1) == 0.6

    def test_empty_conventions(self):
        z = np.zeros((3, 3), int)
        o = np.ones((3, 3), int)
        assert dice_coefficient(z, z, 1) == 1.0
        assert dice_coefficient(o, z, 1) == 0.0
        assert dice_coefficient(z, o, 1) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=(8, 8))
        b = rng.integers(0, 3, size=(8, 8))
        for cls in range(3):
            assert dice_coefficient(a, b, cls) == dice_coefficient(b, a, cls)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dice_coefficient(np.zeros((2, 2)), np.zeros((3, 3)), 0)


class TestBoundary:
    def test_interior_pixel_excluded(self):
        mask = np.zeros((5, 5), bool)
        mask[1:4, 1:4] = True
        pts = {tuple(p) for p in boundary_points(mask)}
        assert (2, 2) not in pts
        assert len(pts) == 8

    def test_image_border_counts_as_outside(self):
        mask = np.ones((3, 3), bool)
        assert len(boundary_points(mask)) == 8  # everything but the center

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            mask = rng.random((12, 12)) < 0.5
            got = {tuple(p) for p in boundary_points(mask)}
            assert got == set(boundary_loop(mask))


class TestAssd:
    def test_identical_masks_distance_zero(self):
        lab = np.zeros((8, 8), int)
        lab[2:6, 2:6] = 1
        assert assd(lab, lab, 1) == 0.0

    def test_two_single_pixels(self):
        a = np.zeros((8, 8), int)
        b = np.zeros((8, 8), int)
        a[2, 2] = 1
        b[2, 5] = 1
        assert assd(a, b, 1) == 3.0

    def test_either_empty_is_sentinel(self):
        a = np.zeros((4, 4), int)
        b = np.zeros((4, 4), int)
        b[1, 1] = 1
        assert math.isnan(assd(a, b, 1))
        assert math.isnan(assd(b, a, 1))
        assert math.isnan(assd(a, a, 1))
        assert math.isnan(EMPTY)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(20):
            p = rng.random((16, 16)) < 0.3
            g = rng.random((16, 16)) < 0.3
            ref = assd_allpairs(p, g)
            got = assd(p.astype(int), g.astype(int), 1)
            if ref is None:
                assert math.isnan(got)
            else:
                assert abs(got - ref) <= 1e-9
                checked += 1
        assert checked >= 15  # the comparison actually exercised real pairs

    def test_single_slice_stack_equals_plain_mask(self):
        rng = np.random.default_rng(21)
        p = (rng.random((10, 10)) < 0.4).astype(int)
        g = (rng.random((10, 10)) < 0.4).astype(int)
        assert assd(p[None], g[None], 1) == assd(p, g, 1)

    def test_stack_pools_boundary_counts_across_slices(self):
        rng = np.random.default_rng(22)
        p = (rng.random((3, 12, 12)) < 0.35).astype(int)
        g = (rng.random((3, 12, 12)) < 0.35).astype(int)
        # pooled oracle: per-slice directed sums over nearest distances,
        # divided by the total boundary count of slices with both sides
        total, count = 0.0, 0
        for ps, gs in zip(p, g):
            bp, bg = boundary_loop(ps == 1), boundary_loop(gs == 1)
            if not bp or not bg:
                continue
            for side_a, side_b in ((bp, bg), (bg, bp)):
                for a in side_a:
                    total += min(math.dist(a, b) for b in side_b)
            count += len(bp) + len(bg)
        assert count > 0
        assert abs(assd(p, g, 1) - total / count) <= 1e-9

    def test_stack_skips_one_sided_slices(self):
        p = np.zeros((2, 6, 6), int)
        g = np.zeros((2, 6, 6), int)
        p[0, 2, 2] = g[0, 2, 4] = 1  # matched slice, distance 2
        p[1, 3, 3] = 1  # present only in pred: no within-slice partner
        assert assd(p, g, 1) == 2.0

    def test_stack_with_no_matched_slice_is_sentinel(self):
        p = np.zeros((2, 6, 6), int)
        g = np.zeros((2, 6, 6), int)
        p[0, 2, 2] = 1
        g[1, 3, 3] = 1
        assert math.isnan(assd(p, g, 1))

    def test_directed_distance_is_bit_equal_to_float64_all_pairs(self):
        rng = np.random.default_rng(23)
        sets = []
        for hi in (1, 3, 64, 10**4):
            for n, m in ((1, 1), (1, 9), (9, 1), (40, 70)):
                sets.append((rng.integers(0, hi + 1, (n, 2)), rng.integers(0, hi + 1, (m, 2))))
        same = rng.integers(0, 10**4 + 1, (30, 2))
        sets += [(same, same), (same[:1], same[:1]), (same, same[::-1].copy())]
        for src, dst in sets:
            ours = _directed_mean_distance(src, dst)
            assert ours.hex() == directed_mean_distance_f64(src, dst).hex()

    def test_stack_is_bit_equal_to_float64_all_pairs(self):
        rng = np.random.default_rng(24)
        rr, cc = np.mgrid[:40, :40]
        for _ in range(6):
            p = rng.random((4, 40, 40)) < 0.3
            g = rng.random((4, 40, 40)) < 0.3
            r0, r1 = sorted(rng.uniform(3, 19, 2))
            radius = np.hypot(rr - rng.integers(12, 28), cc - rng.integers(12, 28))
            p[1] = (radius >= r0) & (radius <= r1)  # a ring against noise
            g[2] = False  # one-sided slice
            p[3] = g[3] = False  # empty on both sides
            assert assd(p.astype(int), g.astype(int), 1).hex() == assd_f64(p, g).hex()

    def test_four_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            assd(np.zeros((2, 2, 2, 2), int), np.zeros((2, 2, 2, 2), int), 1)


class TestAggregate:
    def test_single_case_sd_zero(self):
        out = aggregate([CaseResult("m", "c0", 1, 0.8, 2.0)])
        assert out[1].n == 1
        assert out[1].dice_mean == 0.8 and out[1].dice_sd == 0.0
        assert out[1].assd_mean == 2.0 and out[1].assd_sd == 0.0

    def test_two_equal_cases_sd_zero(self):
        rows = [CaseResult("m", f"c{i}", 2, 0.75, 1.5) for i in range(2)]
        out = aggregate(rows)
        assert out[2].dice_sd == 0.0 and out[2].assd_sd == 0.0

    def test_hand_summed_means_and_sds(self):
        dice = [0.9, 0.8, 0.7, 0.95, 0.65]
        dists = [1.0, 2.0, EMPTY, 4.0, 3.0]
        rows = [
            CaseResult("m", f"c{i}", 1, d, a) for i, (d, a) in enumerate(zip(dice, dists))
        ]
        out = aggregate(rows)[1]
        dm = sum(dice) / 5
        dv = sum((x - dm) ** 2 for x in dice) / 5
        defined = [1.0, 2.0, 4.0, 3.0]
        am = sum(defined) / 4
        av = sum((x - am) ** 2 for x in defined) / 4
        assert abs(out.dice_mean - dm) <= 1e-12
        assert abs(out.dice_sd - math.sqrt(dv)) <= 1e-12
        assert abs(out.assd_mean - am) <= 1e-12
        assert abs(out.assd_sd - math.sqrt(av)) <= 1e-12
        assert out.assd_excluded == 1 and out.n == 5

    def test_all_undefined_assd(self):
        rows = [CaseResult("m", f"c{i}", 1, 0.5, EMPTY) for i in range(3)]
        out = aggregate(rows)[1]
        assert math.isnan(out.assd_mean) and out.assd_excluded == 3

    def test_classes_kept_separate(self):
        rows = [
            CaseResult("m", "c0", 1, 1.0, 0.0),
            CaseResult("m", "c0", 2, 0.0, 5.0),
        ]
        out = aggregate(rows)
        assert out[1].dice_mean == 1.0 and out[2].dice_mean == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestPairedT:
    def test_reference_example(self):
        a = (1.0, 2.0, 3.0, 4.0)
        b = (1.1, 2.1, 2.9, 4.2)
        t, p = paired_t_test(a, b)
        rt, rp = paired_t_reference(a, b)
        assert abs(t - rt) <= 1e-6
        assert abs(p - rp) <= 1e-6

    def test_more_samples_against_high_precision(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rng.normal(size=9)
            b = a + rng.normal(scale=0.3, size=9)
            t, p = paired_t_test(a, b)
            rt, rp = paired_t_reference(a.tolist(), b.tolist())
            assert abs(t - rt) <= 1e-6 * max(1.0, abs(rt))
            assert abs(p - rp) <= 1e-6

    def test_constant_shift_is_degenerate(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateStatsError):
            paired_t_test(a, a)
        with pytest.raises(DegenerateStatsError):
            paired_t_test(a, a + 0.5)
        # 6-decimal values 0.05 apart: float64 differences 0.04999999999999993
        # and 0.04999999999999999, a noise-sized spread that read as t ~ 1.8e15
        with pytest.raises(DegenerateStatsError):
            paired_t_test([0.621246, 0.511192], [0.571246, 0.461192])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(DegenerateStatsError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_survival_function_basics(self):
        assert abs(student_t_sf2(0.0, 5) - 1.0) <= 1e-12
        # symmetric in t
        assert student_t_sf2(1.7, 7) == student_t_sf2(-1.7, 7)
        # large |t| drives p toward 0
        assert student_t_sf2(50.0, 7) < 1e-8

    def test_null_p_values_look_uniform(self):
        # paired samples with no true effect: p should be roughly U(0,1)
        rng = np.random.default_rng(31)
        ps = []
        for _ in range(200):
            a = rng.normal(size=8)
            b = a + rng.normal(scale=0.5, size=8)
            ps.append(paired_t_test(a, b)[1])
        ps = np.sort(ps)
        grid = (np.arange(200) + 0.5) / 200
        assert np.abs(ps - grid).max() <= 0.1
