"""Named random streams derived from one root seed."""

import numpy as np
import pytest

from segadapt.rng import named_stream


def test_same_name_same_seed_reproduces():
    a = named_stream(123, "dropout").standard_normal(16)
    b = named_stream(123, "dropout").standard_normal(16)
    assert np.array_equal(a, b)


def test_different_names_give_different_streams():
    a = named_stream(123, "dropout").standard_normal(16)
    b = named_stream(123, "transforms").standard_normal(16)
    assert not np.array_equal(a, b)


def test_different_roots_give_different_streams():
    a = named_stream(1, "data").standard_normal(16)
    b = named_stream(2, "data").standard_normal(16)
    assert not np.array_equal(a, b)


def test_root_seed_range_validated():
    with pytest.raises(ValueError):
        named_stream(-1, "data")
    with pytest.raises(ValueError):
        named_stream(2**64, "data")
    named_stream(0, "data")
    named_stream(2**64 - 1, "data")
