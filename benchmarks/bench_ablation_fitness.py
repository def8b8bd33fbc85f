"""Ablation: the paper's reference-distance fitness vs margin fitness.

The paper guides with ``1 − Cosim(AM[y], HDC(seed))`` — distance from
the reference class only.  :class:`~repro.fuzz.fitness.MarginFitness`
(an extension) instead rewards closing the gap to the *nearest other*
class, a strictly sharper signal.  This bench compares iterations per
adversarial under the long-search ``rand`` strategy.
"""

from __future__ import annotations

import pytest

from conftest import run_once

from repro.fuzz import DistanceGuidedFitness, HDTest, HDTestConfig, MarginFitness

N_IMAGES = 12


@pytest.fixture(scope="module")
def fitness_results(paper_model, fuzz_images):
    config = HDTestConfig(iter_times=60)
    return {
        name: HDTest(paper_model, "rand", config=config, fitness=fitness, rng=53).fuzz(
            fuzz_images[:N_IMAGES]
        )
        for name, fitness in (
            ("distance", DistanceGuidedFitness()),
            ("margin", MarginFitness()),
        )
    }


def test_distance_guided_fitness(benchmark, fitness_results):
    result = run_once(benchmark, lambda: fitness_results["distance"])
    print(f"\n[fitness=distance] iters={result.avg_iterations:.1f} "
          f"success={result.success_rate:.2f}")
    assert result.success_rate > 0.5


def test_margin_fitness(benchmark, fitness_results):
    result = run_once(benchmark, lambda: fitness_results["margin"])
    print(f"\n[fitness=margin] iters={result.avg_iterations:.1f} "
          f"success={result.success_rate:.2f}")
    assert result.success_rate > 0.5


def test_margin_fitness_at_least_as_fast(benchmark, fitness_results):
    pair = run_once(benchmark, lambda: fitness_results)
    print(f"\n[fitness ablation] distance {pair['distance'].avg_iterations:.1f} "
          f"vs margin {pair['margin'].avg_iterations:.1f} iterations")
    # The sharper signal should not be slower by much; allow noise.
    assert pair["margin"].avg_iterations <= pair["distance"].avg_iterations * 1.5
