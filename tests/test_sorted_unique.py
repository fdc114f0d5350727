"""``sorted_unique`` ≡ ``np.unique`` on integer key sets: same values, same dtype, 1-D."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro._arrays import sorted_unique

DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def assert_same(values: np.ndarray) -> None:
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.shape == want.shape and got.ndim == 1
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("dtype", DTYPES)
class TestShapes:
    def test_one_dimensional(self, dtype):
        assert_same(np.array([5, 1, 3, 1, 5, 0, 2], dtype=dtype))

    def test_two_dimensional(self, dtype):
        assert_same(np.array([[4, 1, 4], [2, 2, 9]], dtype=dtype))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty(self, dtype, shape):
        assert_same(np.empty(shape, dtype=dtype))

    def test_all_duplicates(self, dtype):
        assert_same(np.full(17, 7, dtype=dtype))
        assert_same(np.full((3, 4), 7, dtype=dtype))

    def test_single_value(self, dtype):
        assert_same(np.array([3], dtype=dtype))

    def test_extremes(self, dtype):
        info = np.iinfo(dtype)
        assert_same(np.array([info.max, info.min, 0, info.max, 1, info.min], dtype=dtype))


def test_negative_keys():
    assert_same(np.array([-3, 5, -3, -1, 0, -(1 << 40), 5], dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(
    values=st.sampled_from(DTYPES).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40))
    )
)
def test_generated_arrays(values):
    assert_same(values)
