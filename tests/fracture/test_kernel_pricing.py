"""Bit-identity gates for the compiled pricing kernel.

The compiled ``clamped_band_sums`` path must reproduce the base class's
per-candidate NumPy loop bit for bit: same elementwise operation
sequence, same pairwise per-candidate sums, same old-cost corner order,
so ``np.array_equal`` on the int64 view (not approximate closeness) is
the bar.  When the kernel cannot be loaded, pricing must route through
the loop, say so in a counter, and still produce the same shots.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.shapes import ilt_suite
from repro.fracture.edge_adjust import greedy_shot_edge_adjustment
from repro.fracture.graph_color import approximate_fracture
from repro.fracture.refine import RefineParams, refine
from repro.fracture.state import RefinementState
from repro.kernels import compiled, use_backend
from repro.kernels.backend import KernelBackend
from repro.kernels.numpy_backend import NumpyBackend
from repro.obs import TelemetryRecorder, recording
from repro.obs.summarize import format_summary
from tests.oracles import ScalarOracle, edge_move_delta_cost


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.fixture()
def backend() -> NumpyBackend:
    backend = NumpyBackend()
    if backend.pricing_fallback is not None:
        pytest.skip(f"compiled kernel unavailable: {backend.pricing_fallback}")
    return backend


@pytest.fixture(scope="module")
def ilt1(spec):
    return ilt_suite()[0]


def _inputs(state: RefinementState):
    cost_integral = state.cost_integral().copy()
    active_integral = state.active_integral().copy()
    candidates = state.gather_edge_moves(cost_integral)
    return candidates, cost_integral, active_integral


def _price(state, backend, candidates, cost_integral, active_integral):
    with use_backend(backend):
        return state.price_edge_moves(candidates, cost_integral, active_integral)


def _assert_compiled_equals_loop(state, backend) -> int:
    inputs = _inputs(state)
    compiled_prices = _price(state, backend, *inputs)
    loop = _price(state, KernelBackend(), *inputs)
    assert np.array_equal(_bits(compiled_prices), _bits(loop))
    return len(inputs[0])


@pytest.fixture()
def priced_inputs(l_shape, spec):
    shots, _ = approximate_fracture(l_shape, spec)
    state = RefinementState(l_shape, spec, shots)
    candidates, cost_integral, active_integral = _inputs(state)
    assert candidates, "expected candidates on an unrefined fracture"
    return state, candidates, cost_integral, active_integral


class TestFusedBitIdentity:
    def test_fused_kernel_equals_loop(self, priced_inputs, backend):
        state, *inputs = priced_inputs
        priced = _price(state, backend, *inputs)
        loop = _price(state, KernelBackend(), *inputs)
        assert np.array_equal(_bits(priced), _bits(loop))

    def test_public_dispatch_identical_across_backends(self, priced_inputs):
        state, candidates, cost_integral, active_integral = priced_inputs
        prices = {}
        for name, backend in (("numpy", NumpyBackend()), ("scalar", ScalarOracle())):
            with use_backend(backend):
                prices[name] = state.price_edge_moves(
                    candidates, cost_integral, active_integral
                )
        assert np.array_equal(_bits(prices["numpy"]), _bits(prices["scalar"]))

    def test_fused_matches_scalar_oracle(self, priced_inputs):
        state, candidates, cost_integral, active_integral = priced_inputs
        with use_backend(NumpyBackend()):
            priced = state.price_edge_moves(
                candidates, cost_integral, active_integral
            )
        for candidate, value in zip(candidates, priced):
            oracle = edge_move_delta_cost(
                state,
                candidate.index,
                candidate.edge,
                candidate.delta,
                cost_integral,
                active_integral,
            )
            assert oracle is not None
            assert abs(value - oracle) <= 1e-12


class TestCompiledOnPaperClips:
    def test_ilt1_prices_through_greedy_passes(self, ilt1, spec, backend):
        shots, _ = approximate_fracture(ilt1, spec)
        with use_backend(backend):
            state = RefinementState(ilt1, spec, shots)
            priced = 0
            for _ in range(6):
                priced += _assert_compiled_equals_loop(state, backend)
                greedy_shot_edge_adjustment(state)
        assert priced > 100

    def test_ilt1_prefix_sums_equal_cumsum(self, ilt1, spec, backend):
        shots, _ = approximate_fracture(ilt1, spec)
        with use_backend(backend):
            state = RefinementState(ilt1, spec, shots)
        ny, nx = state._cost_base.shape
        box = (0, ny, 0, nx)
        oracle = KernelBackend()
        expect = oracle.cost_integral(
            state._cost_base, box, np.zeros((ny + 1, nx + 1))
        )
        assert np.array_equal(_bits(state.cost_integral()), _bits(expect))
        expect_active = oracle.active_integral(
            state._cost_base, box, -state.patch_bound(),
            np.zeros((ny + 1, nx + 1), dtype=np.int32),
        )
        assert np.array_equal(state.active_integral(), expect_active)

    def test_seam_restricted_cropped_state(self, ilt1, spec, backend):
        shots, _ = approximate_fracture(ilt1, spec)
        ny, nx = ilt1.grid.shape
        mask = np.zeros((ny, nx), dtype=bool)
        mask[:, nx // 2 - 40 : nx // 2 + 40] = True
        with use_backend(backend):
            state = RefinementState(ilt1, spec, shots, active_mask=mask)
            assert state._box != (0, ny, 0, nx)
            priced = 0
            for _ in range(4):
                priced += _assert_compiled_equals_loop(state, backend)
                box_expect = KernelBackend().cost_integral(
                    state._cost_base, state._box, np.zeros((ny + 1, nx + 1))
                )
                assert np.array_equal(
                    _bits(state.cost_integral()), _bits(box_expect)
                )
                greedy_shot_edge_adjustment(state)
        assert priced > 0


class TestInputValidation:
    """The kernel walks raw buffers; bad geometry must raise first."""

    @staticmethod
    def _args(windows, rows_total, cols_total):
        sign = np.ones((10, 12))
        return (
            np.array(windows, dtype=np.int64),
            np.zeros(rows_total),
            np.zeros(cols_total),
            sign,
            np.zeros_like(sign),
            np.zeros((11, 13), dtype=np.int32),
            np.zeros((11, 13)),
        )

    def test_accepts_in_grid_windows(self, backend):
        costs = backend.clamped_band_sums(*self._args([(0, 10, 0, 12)], 10, 12))
        assert costs.shape == (1,)

    @pytest.mark.parametrize(
        "window", [(0, 11, 0, 12), (0, 10, -1, 12), (5, 4, 0, 12), (0, 10, 0, 13)]
    )
    def test_rejects_window_outside_grid(self, backend, window):
        y0, y1, x0, x1 = window
        args = self._args([window], max(y1 - y0, 0), max(x1 - x0, 0))
        with pytest.raises(ValueError, match="outside the grid"):
            backend.clamped_band_sums(*args)

    def test_rejects_factor_length_mismatch(self, backend):
        with pytest.raises(ValueError, match="do not match"):
            backend.clamped_band_sums(*self._args([(0, 10, 0, 12)], 9, 12))


class TestForcedFallback:
    def test_fallback_equals_loop(self, l_shape, spec, monkeypatch):
        initial, _ = approximate_fracture(l_shape, spec)
        params = RefineParams(nmax=8)
        with use_backend(ScalarOracle()):
            expect, _ = refine(l_shape, spec, initial, params)
        monkeypatch.setattr(compiled, "kernel", lambda: (None, "build_failed"))
        fallback = NumpyBackend()
        assert fallback.describe()["pricing"] == "loop"
        assert fallback.describe()["pricing_fallback"] == "build_failed"
        recorder = TelemetryRecorder()
        with use_backend(fallback), recording(recorder):
            shots, _ = refine(l_shape, spec, initial, params)
        counters = recorder.counters
        assert counters.get("kernels.compiled_fallback", 0) > 0
        assert counters["kernels.compiled_fallback"] == counters[
            "kernels.band_loop_batches"
        ]
        assert counters.get("kernels.compiled_batches", 0) == 0
        assert [s.as_tuple() for s in shots] == [s.as_tuple() for s in expect]
        assert "kernels.compiled_fallback" in format_summary(recorder.export())

    def test_compiled_run_never_loops(self, l_shape, spec, backend):
        initial, _ = approximate_fracture(l_shape, spec)
        recorder = TelemetryRecorder()
        with use_backend(backend), recording(recorder):
            refine(l_shape, spec, initial, RefineParams(nmax=8))
        assert recorder.counters.get("kernels.compiled_batches", 0) > 0
        assert recorder.counters.get("kernels.band_loop_batches", 0) == 0
        assert recorder.counters.get("kernels.compiled_fallback", 0) == 0


class TestEndToEndAcrossBackends:
    @pytest.mark.parametrize("fixture", ["rect_shape", "l_shape", "blob_shape"])
    def test_refine_shots_identical(self, fixture, spec, request):
        shape = request.getfixturevalue(fixture)
        initial, _ = approximate_fracture(shape, spec)
        results = {}
        for name, backend in (("numpy", NumpyBackend()), ("scalar", ScalarOracle())):
            with use_backend(backend):
                shots, trace = refine(
                    shape, spec, initial, RefineParams(nmax=8)
                )
            results[name] = (
                [s.as_tuple() for s in shots],
                trace.iterations,
            )
        assert results["numpy"] == results["scalar"]
