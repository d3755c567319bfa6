"""Micro-benchmarks and ablations of the design choices DESIGN.md calls out.

Not tied to a specific paper table; these quantify:

* the LUT speedup of the intensity convolution (paper §4.1 claims the
  lookup table is what makes edge pricing affordable);
* incremental vs from-scratch intensity maintenance;
* the narrow edge-move band update vs the full union-window replace;
* coloring-strategy ablation for stage 1;
* the polish/portfolio extensions vs the paper-faithful Algorithm 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import erf

from repro.ebeam.intensity import shot_profile_1d
from repro.ebeam.intensity_map import IntensityMap
from repro.ebeam.lut import default_lut
from repro.fracture.graph_color import GraphBuildConfig, approximate_fracture
from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams, refine
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.mask.constraints import check_solution


class TestIntensityOps:
    def test_profile_with_lut(self, benchmark):
        xs = np.linspace(-50, 150, 400)
        lut = default_lut()
        benchmark(lambda: shot_profile_1d(xs, 0.0, 100.0, 6.25, lut))

    def test_profile_with_exact_erf(self, benchmark):
        xs = np.linspace(-50, 150, 400)
        benchmark(lambda: shot_profile_1d(xs, 0.0, 100.0, 6.25, erf))

    def test_incremental_replace(self, benchmark):
        grid = PixelGrid(0, 0, 1.0, 320, 320)
        imap = IntensityMap(grid, 6.25)
        shots = [Rect(20 + 30 * i, 40, 45 + 30 * i, 200) for i in range(8)]
        for shot in shots:
            imap.add(shot)

        def op():
            imap.replace(shots[3], shots[3].moved_edge("right", 1.0))
            imap.replace(shots[3].moved_edge("right", 1.0), shots[3])

        benchmark(op)

    def test_full_rebuild(self, benchmark):
        grid = PixelGrid(0, 0, 1.0, 320, 320)
        imap = IntensityMap(grid, 6.25)
        shots = [Rect(20 + 30 * i, 40, 45 + 30 * i, 200) for i in range(8)]
        benchmark(lambda: imap.rebuild(shots))

    def test_edge_move_commit_narrow_window(self, benchmark):
        # The band update a committed edge move applies: one outer
        # product on the narrow window (compare test_incremental_replace,
        # which touches the full union window of both shot versions).
        grid = PixelGrid(0, 0, 1.0, 320, 320)
        imap = IntensityMap(grid, 6.25)
        shot = Rect(50, 50, 250, 250)
        imap.add(shot)
        ys = grid.y_span_to_slice(shot.ybl, shot.ytr, imap.reach)
        xs = grid.x_span_to_slice(shot.xbl - 1.0, shot.xbl, imap.reach)
        fixed = imap.profile(("y", shot.ybl, shot.ytr, ys.start, ys.stop))
        moved = imap.delta_profile(
            ("x", shot.xbl, shot.xtr, xs.start, xs.stop),
            ("x", shot.xbl - 1.0, shot.xtr, xs.start, xs.stop),
        )
        benchmark(lambda: imap.add_separable((ys, xs), fixed, moved))


class TestStageOneAblation:
    @pytest.mark.parametrize("strategy", ["given", "largest_first", "dsatur"])
    def test_coloring_strategy(self, benchmark, ilt_shapes, spec, strategy):
        shape = ilt_shapes[3]
        config = GraphBuildConfig(coloring_strategy=strategy)
        shots, _ = benchmark(lambda: approximate_fracture(shape, spec, config))
        assert shots


class TestPipelineAblation:
    def test_paper_faithful_algorithm1(self, benchmark, ilt_shapes, spec):
        """Algorithm 1 exactly as published: single run, no polish."""
        shape = ilt_shapes[1]
        fracturer = ModelBasedFracturer(config=RefineConfig.paper_faithful())
        result = benchmark.pedantic(
            lambda: fracturer.fracture(shape, spec), rounds=1, iterations=1
        )
        assert result.shot_count >= 1

    def test_with_polish_and_portfolio(self, benchmark, ilt_shapes, spec):
        """The full engineered pipeline (extensions enabled)."""
        shape = ilt_shapes[1]
        fracturer = ModelBasedFracturer()
        result = benchmark.pedantic(
            lambda: fracturer.fracture(shape, spec), rounds=1, iterations=1
        )
        assert result.feasible

    def test_refinement_alone_fixes_violations(self, benchmark, ilt_shapes, spec):
        """Stage 2 value: violations before vs after refinement."""
        shape = ilt_shapes[0]
        initial, _ = approximate_fracture(shape, spec)
        before = check_solution(initial, shape, spec).total_failing

        def op():
            return refine(shape, spec, initial, RefineParams(nmax=250))

        shots, trace = benchmark.pedantic(op, rounds=1, iterations=1)
        after = check_solution(shots, shape, spec).total_failing
        assert after <= before


class TestColoringOptimality:
    """Quantifies the paper's claim that simple sequential coloring "is
    sufficient": exact branch-and-bound clique partition vs greedy on
    the real corner-point graphs."""

    def test_greedy_vs_exact_clique_partition(self, benchmark, ilt_shapes, spec):
        from repro.fracture.corner_points import extract_corner_points
        from repro.geometry.rdp import rdp_simplify
        from repro.fracture.graph_color import build_compatibility_graph
        from repro.graphlib.clique_cover import clique_partition
        from repro.graphlib.exact import SearchBudgetExceeded, exact_clique_partition

        def ablation():
            gaps = []
            for shape in ilt_shapes[:6]:
                simplified = rdp_simplify(shape.polygon, spec.gamma)
                corner_points = extract_corner_points(simplified, spec.lth)
                graph = build_compatibility_graph(corner_points, shape, spec)
                greedy = len(clique_partition(graph))
                try:
                    exact = len(exact_clique_partition(graph, node_limit=500_000))
                except SearchBudgetExceeded:
                    continue
                gaps.append(greedy - exact)
            return gaps

        gaps = benchmark.pedantic(ablation, rounds=1, iterations=1)
        assert gaps, "exact solver must finish on at least one clip"
        # The paper's observation: greedy is (near-)optimal on these graphs.
        assert max(gaps) <= 2


class TestSolutionQuality:
    """Dose-latitude comparison: solutions with equal shot counts are not
    equally manufacturable; the proposed method's overlapping cover keeps
    a usable dose window."""

    def test_dose_latitude_by_method(self, benchmark, ilt_shapes, spec, output_dir):
        from repro.baselines import GreedySetCoverFracturer
        from repro.ebeam.latitude import compare_latitude

        shape = ilt_shapes[0]

        def analysis():
            solutions = {
                "GSC": GreedySetCoverFracturer().fracture_shots(shape, spec),
                "OURS": ModelBasedFracturer(
                    config=RefineConfig(params=RefineParams(nmax=400, nh=3))
                ).fracture_shots(shape, spec),
            }
            return compare_latitude(solutions, shape, spec)

        windows = benchmark.pedantic(analysis, rounds=1, iterations=1)
        lines = [f"dose latitude on {shape.name}"]
        for name, window in windows.items():
            lines.append(
                f"  {name:>5s}: s_min={window.s_min:.3f} s_max={window.s_max:.3f} "
                f"latitude={window.latitude:.3f} nominal-feasible={window.feasible_at_nominal}"
            )
        (output_dir / "dose_latitude.txt").write_text("\n".join(lines) + "\n")
        print("\n" + "\n".join(lines))
        assert windows["OURS"].feasible_at_nominal
