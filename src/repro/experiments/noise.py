"""Prediction-noise sensitivity: planning on estimates of varying quality.

The deployed scheduler never sees ground truth — it plans on a lookup
table and a regression fit from noisy measurements (§6.1). This
experiment sweeps the measurement noise level σ and reports how much
makespan the resulting plans lose against the ground-truth plan when
*executed* under true costs. The paper's implicit claim — a simple
lookup/regression estimator suffices — holds if the degradation stays
small at realistic noise levels (~5 %).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.joint import jps_line
from repro.core.scheduling import schedule_jobs
from repro.experiments.runner import ExperimentEnv
from repro.net.bandwidth import FOUR_G, BandwidthPreset
from repro.profiling.latency import line_cost_table
from repro.profiling.lookup import build_lookup_table
from repro.utils.rng import make_rng

__all__ = ["NoiseCell", "run", "render"]

DEFAULT_SIGMAS = [0.0, 0.02, 0.05, 0.10, 0.20, 0.40]


@dataclass(frozen=True)
class NoiseCell:
    model: str
    sigma: float
    trials: int
    mean_regret_percent: float   # executed makespan vs ground-truth plan
    worst_regret_percent: float


def _executed_under_truth(noisy_schedule, truth_table) -> float:
    """Re-price a noisy plan's cuts at ground truth and execute it."""
    executed = [
        replace(
            plan,
            compute_time=truth_table.stage_lengths(plan.cut_position)[0],
            comm_time=truth_table.stage_lengths(plan.cut_position)[1],
        )
        for plan in noisy_schedule.jobs
    ]
    # the device would re-run Johnson on its (noisy) beliefs; the *cut
    # choice* is the decision that matters, so re-order optimally under
    # truth to isolate partition regret from ordering regret
    return schedule_jobs(executed).makespan


def run(
    env: ExperimentEnv | None = None,
    models: list[str] | None = None,
    sigmas: list[float] | None = None,
    preset: BandwidthPreset = FOUR_G,
    n: int = 50,
    trials: int = 5,
) -> list[NoiseCell]:
    env = env or ExperimentEnv()
    chosen_models = models or ["alexnet", "mobilenet-v2"]
    chosen_sigmas = sigmas or DEFAULT_SIGMAS
    rng = make_rng(env.seed)
    cells: list[NoiseCell] = []
    channel = env.channel(preset)

    for model in chosen_models:
        network = env.network(model)
        if not env.treats_as_line(model):
            continue
        truth = line_cost_table(network, env.mobile, env.cloud, channel)
        baseline = jps_line(truth, n).makespan
        for sigma in chosen_sigmas:
            regrets = []
            for trial in range(trials):
                seed = int(rng.integers(0, 2**31))
                lookup = build_lookup_table(
                    [network], env.mobile, seed=seed, noise=sigma, repeats=3
                )
                noisy = line_cost_table(
                    network, env.mobile, env.cloud, channel,
                    predictor=lookup.predictor_for(network.name),
                )
                plan = jps_line(noisy, n)
                executed = _executed_under_truth(plan, truth)
                regrets.append((executed - baseline) / baseline * 100.0)
            cells.append(
                NoiseCell(
                    model=model,
                    sigma=sigma,
                    trials=trials,
                    mean_regret_percent=float(np.mean(regrets)),
                    worst_regret_percent=float(np.max(regrets)),
                )
            )
    return cells


def render(cells: list[NoiseCell]) -> str:
    from repro.experiments.report import format_table

    rows = [
        (c.model, f"{c.sigma:.0%}", c.trials, c.mean_regret_percent,
         c.worst_regret_percent)
        for c in cells
    ]
    return format_table(
        headers=["model", "noise σ", "trials", "mean regret (%)", "worst regret (%)"],
        rows=rows,
        title="Prediction-noise sensitivity — executed makespan vs ground-truth plan",
        float_format="{:.2f}",
    )
