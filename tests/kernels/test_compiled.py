"""Bit-identity and loader gates for the compiled pricing kernel.

Every comparison is bitwise (``np.array_equal`` on the int64 view), so
a -0.0 against a +0.0, or a one-ulp difference, fails.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.kernels import compiled
from repro.kernels.backend import KernelBackend


@pytest.fixture(scope="module")
def pk():
    kernel, reason = compiled.kernel()
    if kernel is None:
        pytest.skip(f"compiled pricing kernel unavailable: {reason}")
    return kernel


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _random(rng: np.random.Generator, shape) -> np.ndarray:
    """Mixed magnitudes (rounding actually happens) with -0.0 entries."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    values[rng.random(shape) < 0.1] = -0.0
    return values


class TestPairwiseSum:
    def test_equals_ndarray_sum_every_length_to_4096(self, pk):
        rng = np.random.default_rng(1)
        mismatches = [
            n for n in range(1, 4097)
            if _bits(pk.pairwise_sum(values := _random(rng, n)))
            != _bits(values.sum())
        ]
        assert mismatches == []

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 70000])
    def test_equals_ndarray_sum_past_the_buffer_size(self, pk, n):
        values = _random(np.random.default_rng(n), n)
        assert _bits(pk.pairwise_sum(values)) == _bits(values.sum())

    def test_negative_zeros_sum_like_numpy(self, pk):
        for n in (1, 7, 8, 9, 200):
            values = np.full(n, -0.0)
            assert _bits(pk.pairwise_sum(values)) == _bits(values.sum())


class TestPrefixSums:
    """The compiled integrals against the ``np.cumsum`` base-class path."""

    SHAPE = (37, 53)
    BOXES = [(0, 37, 0, 53), (3, 30, 5, 41), (10, 11, 0, 53), (0, 37, 52, 53)]

    @pytest.mark.parametrize("box", BOXES)
    def test_cost_integral_bit_identical(self, pk, box):
        field = _random(np.random.default_rng(7), self.SHAPE)
        expect = KernelBackend().cost_integral(
            field, box, np.zeros((38, 54))
        )
        got = pk.cost_integral(field, box, np.zeros((38, 54)))
        assert np.array_equal(_bits(got), _bits(expect))

    @pytest.mark.parametrize("box", BOXES)
    def test_active_integral_identical(self, pk, box):
        field = np.random.default_rng(8).standard_normal(self.SHAPE)
        expect = KernelBackend().active_integral(
            field, box, -0.3, np.zeros((38, 54), dtype=np.int32)
        )
        got = pk.active_integral(
            field, box, -0.3, np.zeros((38, 54), dtype=np.int32)
        )
        assert np.array_equal(got, expect)

    def test_box_leaves_the_rest_of_the_buffer_alone(self, pk):
        field = np.random.default_rng(9).standard_normal(self.SHAPE)
        out = np.full((38, 54), 7.0)
        pk.cost_integral(field, (3, 30, 5, 41), out)
        untouched = np.ones(out.shape, dtype=bool)
        untouched[4:31, 6:42] = False
        assert (out[untouched] == 7.0).all()


class TestLoader:
    """Build, cache and fall back; each case builds into its own cache."""

    @pytest.fixture(autouse=True)
    def _private_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

    def test_builds_into_the_user_cache_dir(self, tmp_path):
        if compiled._compiler() is None:
            pytest.skip("no C compiler")
        kernel, reason = compiled.load()
        assert reason is None and kernel is not None
        built = list((tmp_path / "cache" / "repro").glob("_pricing-*.so"))
        assert len(built) == 1
        assert not list(built[0].parent.glob("*.tmp"))
        # A second load reuses the build.
        mtime = built[0].stat().st_mtime_ns
        assert compiled.load()[1] is None
        assert built[0].stat().st_mtime_ns == mtime

    def test_concurrent_first_loads_share_one_build(self, tmp_path):
        if compiled._compiler() is None:
            pytest.skip("no C compiler")
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: compiled.load(), range(4)))
        assert [reason for _, reason in results] == [None] * 4
        cache = tmp_path / "cache" / "repro"
        assert len(list(cache.glob("_pricing-*.so"))) == 1
        assert not list(cache.glob("*.tmp"))

    def test_no_compiler(self, monkeypatch):
        monkeypatch.setattr(compiled, "_compiler", lambda: None)
        assert compiled.load() == (None, "no_compiler")

    def test_build_failed(self, monkeypatch):
        if compiled._compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setattr(
            compiled, "CFLAGS", compiled.CFLAGS + ("-no-such-flag-xyz",)
        )
        assert compiled.load() == (None, "build_failed")

    def test_selfcheck_mismatch(self, monkeypatch):
        if compiled._compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setattr(compiled, "_selfcheck", lambda kernel: False)
        assert compiled.load() == (None, "selfcheck_mismatch")
