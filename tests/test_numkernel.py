import numpy as np
import pytest

from regemb.errors import NumericError
from regemb.numkernel import (
    RngSpec,
    assert_finite,
    gaussian_init,
    get_precision,
    mapped_empty,
    precision,
    real_dtype,
    scatter_add_columns,
    set_precision,
    sigmoid,
)


class TestPrecisionMode:
    def test_default_is_float64(self):
        assert get_precision() == "float64"
        assert real_dtype() == np.float64

    def test_context_restores(self):
        with precision("float32"):
            assert real_dtype() == np.float32
            assert gaussian_init(2, 2, 0.1, RngSpec(0).stream("init")).dtype == np.float32
        assert real_dtype() == np.float64

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            set_precision("float16")


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(42).stream("init").standard_normal(8)
        b = RngSpec(42).stream("init").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_purposes_are_distinct(self):
        a = RngSpec(42).stream("init").standard_normal(8)
        b = RngSpec(42).stream("dropout").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_extra_key_splits(self):
        a = RngSpec(1).stream("shuffle", 1).permutation(20)
        b = RngSpec(1).stream("shuffle", 2).permutation(20)
        assert not np.array_equal(a, b)

    def test_unknown_purpose(self):
        with pytest.raises(ValueError):
            RngSpec(0).stream("nonsense")


class TestSigmoid:
    def test_ranges_on_extreme_inputs(self):
        x = np.array([-1e6, -50.0, -1.0, 0.0, 1.0, 50.0, 1e6])
        s = sigmoid(x)
        assert np.all((s >= 0) & (s <= 1)) and np.all(np.isfinite(s))
        assert 0 < s[2] < 1 and 0 < s[4] < 1 and s[3] == 0.5

    def test_open_interval_where_representable(self):
        # beyond |x| ~ 37 the float64 result saturates to exactly 0 or 1
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, size=1000)
        s = sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)
        t = np.tanh(rng.uniform(-15, 15, size=1000))
        assert np.all(t > -1) and np.all(t < 1)


class TestGaussianInit:
    def test_deterministic_per_seed(self):
        a = gaussian_init(2, 2, 0.01, RngSpec(7).stream("init"))
        b = gaussian_init(2, 2, 0.01, RngSpec(7).stream("init"))
        np.testing.assert_array_equal(a, b)

    def test_sample_statistics(self):
        m = gaussian_init(1000, 1000, 0.01, RngSpec(5).stream("init"))
        assert -0.001 <= m.mean() <= 0.001
        assert 0.009 <= m.std() <= 0.011

    def test_single_value_finite(self):
        m = gaussian_init(1, 1, 0.01, RngSpec(3).stream("init"))
        assert m.shape == (1, 1) and np.isfinite(m[0, 0])

    def test_std_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian_init(2, 2, 0.0, RngSpec(0).stream("init"))

    def test_generator_advances_but_spec_does_not(self):
        gen = RngSpec(1).stream("init")
        a = gaussian_init(2, 2, 1.0, gen)
        b = gaussian_init(2, 2, 1.0, gen)
        assert not np.array_equal(a, b)


class TestScatterAddColumns:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rows = int(rng.integers(1, 6))
            cols_out = int(rng.integers(1, 10))
            n = int(rng.integers(0, 40))
            idx = rng.integers(0, cols_out, size=n)
            cols = rng.standard_normal((rows, n))
            got = np.zeros((rows, cols_out))
            scatter_add_columns(got, idx, cols)
            want = np.zeros((rows, cols_out))
            for j in range(n):
                want[:, idx[j]] += cols[:, j]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestAssertFinite:
    def test_raises_on_nan(self):
        with pytest.raises(NumericError):
            assert_finite(np.array([1.0, np.nan]), "loss")

    def test_passes_on_finite(self):
        assert_finite(np.array([1.0, -2.0]), "loss")


class TestMappedEmpty:
    @pytest.mark.parametrize("shape", [(3, 5), (4, 0), (0,)])
    def test_writable_array_of_shape_and_dtype(self, shape):
        for dtype in (np.float32, np.float64):
            arr = mapped_empty(shape, dtype)
            assert arr.shape == shape and arr.dtype == dtype
            assert arr.flags.writeable and arr.flags.c_contiguous
            arr[...] = 1.5
            assert np.all(arr == 1.5)
