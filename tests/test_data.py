"""Synthetic benchmark generation and the on-disk dataset format."""

import struct

import numpy as np
import pytest

from segadapt.data import (
    DatasetError,
    LabeledSet,
    UnlabeledSet,
    load_dataset,
    save_dataset,
)
from segadapt.synthdata import (
    BENCHMARKS,
    CaseSpec,
    DomainSpec,
    case_masks,
    generate_benchmark,
    generate_domain,
    normalize_slice,
    render_slice,
    sample_case,
)
from _oracles import flood_fill_components


def small_domain(name="syn_a", **kw):
    spec = BENCHMARKS["syn-a2b"][0]
    return DomainSpec(name=name, **{**{
        "class_means": spec.class_means,
        "texture_amp": spec.texture_amp,
        "noise_sigma": spec.noise_sigma,
    }, **kw})


class TestGeometry:
    def test_case_masks_are_single_components_inside_the_frame(self):
        rng = np.random.default_rng(0)
        for i in range(3):
            spec = sample_case(rng, f"c{i}")
            masks = case_masks(spec)
            assert masks.shape[0] == spec.n_slices
            for s in range(masks.shape[0]):
                lab = masks[s]
                assert not lab[0].any() and not lab[-1].any()
                assert not lab[:, 0].any() and not lab[:, -1].any()
                for c in (1, 2):
                    assert len(flood_fill_components(lab == c)) == 1

    def test_slice_count_range(self):
        rng = np.random.default_rng(1)
        for i in range(20):
            assert 8 <= sample_case(rng, f"c{i}").n_slices <= 12

    def test_structure_touching_frame_is_refused(self):
        spec = CaseSpec("bad", 1, 32, cx=2.0, cy=16.0, ax=8.0, ay=8.0,
                        ring=4.0, angle=0.0, drift_amp=0.0, drift_phase=0.0)
        with pytest.raises(RuntimeError):
            case_masks(spec)


class TestRendering:
    def test_normalization_bounds_and_constant_guard(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (64, 64))
        out = normalize_slice(img)
        assert out.dtype == np.float32
        assert out.min() >= -1.0 and out.max() <= 1.0
        flat = normalize_slice(np.full((16, 16), 0.7))
        assert np.array_equal(flat, np.zeros((16, 16), np.float32))

    def test_render_is_seed_deterministic(self):
        spec = sample_case(np.random.default_rng(3), "c0", 32)
        lab = case_masks(spec)[0]
        dom = small_domain()
        a = render_slice(lab, dom, np.random.default_rng(7))
        b = render_slice(lab, dom, np.random.default_rng(7))
        assert np.array_equal(a, b)
        c = render_slice(lab, dom, np.random.default_rng(8))
        assert not np.array_equal(a, c)


class TestGenerate:
    def test_split_sizes(self):
        splits = generate_domain(small_domain(), n_cases=10, seed=5, size=32)
        assert splits["train"].n_cases == 7
        assert splits["val"].n_cases == 1
        assert splits["test"].n_cases == 2

    def test_too_few_cases_rejected(self):
        with pytest.raises(ValueError):
            generate_domain(small_domain(), n_cases=2, seed=5)

    def test_same_seed_is_bitwise_identical(self):
        a = generate_domain(small_domain(), 10, seed=9, size=32)
        b = generate_domain(small_domain(), 10, seed=9, size=32)
        for split in ("train", "val", "test"):
            assert np.array_equal(a[split].images, b[split].images)
            assert np.array_equal(a[split].labels, b[split].labels)
            assert a[split].case_ids == b[split].case_ids
        c = generate_domain(small_domain(), 10, seed=10, size=32)
        assert not np.array_equal(a["train"].images, c["train"].images)

    def test_benchmark_shares_nothing_but_geometry_statistics(self):
        data = generate_benchmark("syn-a2b", 10, seed=11, size=32)
        src, tgt = data["source"]["train"], data["target"]["train"]
        assert src.images.shape[2:] == (32, 32)
        assert not np.array_equal(src.images, tgt.images)
        assert {int(v) for v in np.unique(src.labels)} <= {0, 1, 2}
        with pytest.raises(ValueError):
            generate_benchmark("nope", 10, seed=1)

    def test_images_bounded(self):
        splits = generate_domain(small_domain(), 10, seed=12, size=32)
        for s in splits.values():
            assert s.images.min() >= -1.0 and s.images.max() <= 1.0


class TestContainers:
    def make_set(self, n=5, cases=2):
        rng = np.random.default_rng(20)
        images = rng.standard_normal((n, 1, 8, 8)).astype(np.float32)
        idx = np.array([i % cases for i in range(n)])
        labels = rng.integers(0, 3, size=(n, 8, 8))
        return LabeledSet(images, idx, [f"c{i}" for i in range(cases)], labels)

    def test_validation(self):
        with pytest.raises(DatasetError):
            UnlabeledSet(np.zeros((2, 1, 4, 6), np.float32), [0, 0], ["c"])
        with pytest.raises(DatasetError):
            UnlabeledSet(np.zeros((2, 1, 4, 4), np.float32), [0], ["c"])
        with pytest.raises(DatasetError):
            UnlabeledSet(np.zeros((2, 1, 4, 4), np.float32), [0, 3], ["c"])
        with pytest.raises(DatasetError):
            LabeledSet(np.zeros((2, 1, 4, 4), np.float32), [0, 0], ["c"], None)
        with pytest.raises(DatasetError):
            LabeledSet(
                np.zeros((2, 1, 4, 4), np.float32), [0, 0], ["c"],
                np.zeros((2, 4, 4), np.float32),
            )

    def test_a_case_without_slices_is_rejected_by_name(self):
        with pytest.raises(DatasetError, match="case 'c1' owns no slices"):
            UnlabeledSet(np.zeros((2, 1, 4, 4), np.float32), [0, 2], ["c0", "c1", "c2"])

    def test_case_grouping(self):
        ds = self.make_set()
        assert len(ds) == 5 and ds.n_cases == 2
        assert list(ds.case_slices(0)) == [0, 2, 4]
        seen = [(cid, img.shape[0], lab.shape[0]) for cid, img, lab in ds.cases()]
        assert seen == [("c0", 3, 3), ("c1", 2, 2)]

    def test_drop_labels(self):
        ds = self.make_set()
        un = ds.drop_labels()
        assert isinstance(un, UnlabeledSet) and not hasattr(un, "labels")
        assert np.array_equal(un.images, ds.images)

    def test_num_classes(self):
        assert self.make_set().num_classes == 3


class TestDatasetFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        ds = TestContainers().make_set()
        p = tmp_path / "d.upld"
        save_dataset(p, ds)
        back = load_dataset(p)
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.case_index, ds.case_index)
        assert back.case_ids == ds.case_ids

    def test_file_size_formula(self, tmp_path):
        ds = TestContainers().make_set()
        p = tmp_path / "d.upld"
        save_dataset(p, ds)
        n, c, h, w = ds.images.shape
        ids = sum(2 + len(s.encode()) for s in ds.case_ids)
        expect = 4 + 2 + 16 + 4 + ids + 4 * n + 4 * n * c * h * w + n * h * w
        assert p.stat().st_size == expect

    def test_save_is_deterministic(self, tmp_path):
        ds = TestContainers().make_set()
        a, b = tmp_path / "a.upld", tmp_path / "b.upld"
        save_dataset(a, ds)
        save_dataset(b, ds)
        assert a.read_bytes() == b.read_bytes()

    def test_corruption_detected(self, tmp_path):
        ds = TestContainers().make_set()
        p = tmp_path / "d.upld"
        save_dataset(p, ds)
        blob = p.read_bytes()
        bad = tmp_path / "bad.upld"

        bad.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(DatasetError, match="not a dataset"):
            load_dataset(bad)

        bumped = bytearray(blob)
        struct.pack_into("<H", bumped, 4, 99)
        bad.write_bytes(bytes(bumped))
        with pytest.raises(DatasetError, match="version"):
            load_dataset(bad)

        bad.write_bytes(blob[:-7])
        with pytest.raises(DatasetError, match="size"):
            load_dataset(bad)

        bad.write_bytes(blob + b"x")
        with pytest.raises(DatasetError, match="size"):
            load_dataset(bad)
