"""The kernel-backend seam: default backend, scoping, capability contract."""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as kernels
from repro.kernels import get_backend, kernels_manifest, use_backend
from repro.kernels.backend import KernelBackend
from repro.kernels.numpy_backend import NumpyBackend
from tests.oracles import ScalarOracle


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """The active backend is process-global; never leak it across tests."""
    saved = kernels._ACTIVE
    yield
    with kernels._LOCK:
        kernels._ACTIVE = saved


class TestRegistry:
    def test_use_backend_restores_previous(self):
        with kernels._LOCK:
            kernels._ACTIVE = None
        before = get_backend()
        assert isinstance(before, NumpyBackend)
        assert get_backend() is before
        oracle = ScalarOracle()
        with use_backend(oracle) as scoped:
            assert scoped is oracle
            assert get_backend() is oracle
            inner = KernelBackend()
            with use_backend(inner):
                assert get_backend() is inner
            assert get_backend() is oracle
        assert get_backend() is before


class TestCapabilities:
    def test_numpy_capabilities(self):
        backend = NumpyBackend()
        # Compiled pricing unless the kernel fell back, with a reason.
        assert backend.pricing_fallback in (
            None, "no_compiler", "build_failed", "selfcheck_mismatch"
        )
        assert backend.describe()["pricing"] == (
            "loop" if backend.pricing_fallback else "compiled"
        )

    def test_scalar_is_pure_oracle(self):
        backend = ScalarOracle()
        assert backend.pricing_fallback is None
        assert backend.describe()["pricing"] == "loop"
        # Pricing and prefix sums are the base class's NumPy paths.
        for method in ("clamped_band_sums", "cost_integral", "active_integral"):
            assert getattr(ScalarOracle, method) is getattr(KernelBackend, method)

    def test_manifest_records_backend_and_variants(self):
        with use_backend(NumpyBackend()):
            manifest = kernels_manifest()
        assert manifest["backend"] == "numpy"
        variants = manifest["variants"]
        assert set(variants) == {"labeling", "pricing", "pricing_fallback"}
        assert variants["labeling"] == "run_length_row_merge"
        assert variants["pricing"] == (
            "loop" if variants["pricing_fallback"] else "compiled"
        )
        with use_backend(ScalarOracle()):
            assert kernels_manifest()["variants"] == {
                "labeling": "python_union_find",
                "pricing": "loop",
                "pricing_fallback": None,
            }


class TestComponentStats:
    def test_stats_match_across_backends(self):
        rng = np.random.default_rng(7)
        mask = rng.random((40, 50)) < 0.4
        numpy_backend = NumpyBackend()
        labels, count = numpy_backend.label_components(mask)
        stats_n = numpy_backend.component_stats(labels, count)
        stats_s = ScalarOracle().component_stats(labels, count)
        for a, b in zip(stats_n, stats_s):
            assert np.array_equal(a, b)
