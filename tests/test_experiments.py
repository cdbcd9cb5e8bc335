"""Experiment harnesses: shapes of every figure/table (small, fast configs)."""

import sys

import numpy as np
import pytest

import repro.dag.transform
from repro.experiments import fig4, fig11, fig12, fig13, fig14, table1
from repro.experiments.report import format_series, format_table, reduction_vs
from repro.experiments.runner import EXPERIMENT_MODELS, ExperimentEnv
from repro.net.bandwidth import FOUR_G, THREE_G, WIFI


# ----------------------------------------------------------------------
# report helpers
# ----------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["a", "metric"], [["x", 1.2345], ["long-name", 2.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "long-name" in lines[3]
    assert "1.2" in lines[2]


def test_format_series():
    text = format_series("x", [1, 2], {"s1": [0.1, 0.2], "s2": [0.3, 0.4]})
    assert "s1" in text and "s2" in text


def test_reduction_vs():
    assert reduction_vs(100.0, 75.0) == pytest.approx(25.0)
    assert reduction_vs(100.0, 120.0) == 0.0  # losses clamp to zero
    with pytest.raises(ValueError):
        reduction_vs(0.0, 1.0)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def test_env_classifies_structures(env):
    assert env.treats_as_line("alexnet")
    assert env.treats_as_line("mobilenet-v2")
    assert env.treats_as_line("resnet18")
    assert not env.treats_as_line("googlenet")


def test_env_clusters_each_model_once(monkeypatch):
    """The structure verdict, cost table and batch plan share one clustering."""
    original = repro.dag.transform.collapse_clusterable_blocks
    calls = []

    def counting(dag):
        calls.append(dag.name)
        return original(dag)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "collapse_clusterable_blocks", None) is original
        ):
            monkeypatch.setattr(module, "collapse_clusterable_blocks", counting)
    fresh = ExperimentEnv()
    assert not fresh.treats_as_line("googlenet")
    fresh.cost_table("googlenet", 10.0)
    fresh.run_scheme_batch("googlenet", [10.0], 8, "JPS")
    assert calls == ["googlenet"]


def test_env_cost_table_caches_frontier(env):
    t1 = env.cost_table("googlenet", 10.0)
    t2 = env.cost_table("googlenet", 1.0)
    assert t1.k == t2.k
    assert np.all(t2.g[:-1] >= t1.g[:-1])  # slower link, larger g


def test_env_run_scheme_rejects_unknown(env):
    with pytest.raises(ValueError):
        env.run_scheme("alexnet", 10.0, 5, "XX")


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

def test_fig4_shape(env):
    rows = fig4.run(env)
    assert 5 <= len(rows) <= 10  # the paper plots 8 blocks
    comm = [r.comm_ms for r in rows]
    assert all(b <= a for a, b in zip(comm, comm[1:]))  # decaying g
    assert max(r.cloud_ms for r in rows) < 0.1 * max(r.mobile_ms for r in rows)
    assert "negligible" in fig4.render(rows)


def test_fig11_jps_tracks_bf(env):
    rows = fig11.run(env, job_counts=[2, 4])
    assert {r.model for r in rows} == {"AlexNet", "AlexNet'"}
    for row in rows:
        assert row.bf_s <= row.jps_s + 1e-12
        assert row.gap_percent < 15.0
    prime_rows = [r for r in rows if r.model == "AlexNet'" and r.n >= 4]
    assert all(r.gap_percent < 5.0 for r in prime_rows)
    assert "BF" in fig11.render(rows)


def test_fig12_ordering(env):
    cells = fig12.run(env, n=20, presets=[FOUR_G])
    value = {(c.model, c.scheme): c.avg_latency_s for c in cells}
    for model in EXPERIMENT_MODELS:
        assert value[(model, "JPS")] <= value[(model, "LO")] + 1e-9
        assert value[(model, "JPS")] <= value[(model, "PO")] + 1e-9
        assert value[(model, "JPS")] <= value[(model, "CO")] + 1e-9
    assert "Fig. 12" in fig12.render(cells)


def test_fig12_overhead_is_negligible(env):
    overheads = fig12.run_overhead(env, models=["alexnet", "googlenet"], n=20, repeats=3)
    # decision latency far below a single job's inference time (~0.1 s)
    assert all(v < 0.05 for v in overheads.values())
    assert "overhead" in fig12.render_overhead(overheads)


def test_table1_shape(env):
    rows = table1.run(env, n=20, presets=[THREE_G, WIFI])
    for row in rows:
        for preset in row.reductions.values():
            assert preset["JPS"] >= preset["PO"] - 1e-9
            assert 0 <= preset["JPS"] <= 100
    wifi = {r.model: r.reductions["Wi-Fi"]["JPS"] for r in rows}
    assert all(v > 30 for v in wifi.values())  # big wins at Wi-Fi
    assert "Table 1" in table1.render(rows)


def test_fig13_shapes(env):
    curves = fig13.run(env, models=["alexnet"], bandwidths_mbps=[1, 5, 20, 60], n=20)
    curve = curves[0]
    lo = curve.latency_s["LO"]
    co = curve.latency_s["CO"]
    jps = curve.latency_s["JPS"]
    assert len(set(np.round(lo, 9))) == 1                  # LO flat in bandwidth
    assert all(b < a for a, b in zip(co, co[1:]))          # CO falls with bandwidth
    assert all(j <= l + 1e-9 for j, l in zip(jps, lo))
    assert all(j <= c + 1e-9 for j, c in zip(jps, co))
    rng = fig13.benefit_range(curve)
    assert rng is not None and rng[0] == 1 and rng[1] == 60
    assert "benefit range" in fig13.render(curves)


def test_fig14_interior_optimum(env):
    curves = fig14.run(env, n=30)
    for curve in curves:
        for label, series in curve.makespan_s.items():
            assert len(series) == len(curve.ratios)
            assert min(series) > 0
        # the selected bandwidths admit an optimum inside the sweep
        interior = [
            curve.optimal_ratio[label] for label in curve.makespan_s
        ]
        assert any(
            curve.ratios[0] < r < curve.ratios[-1] for r in interior
        ) or len(set(interior)) > 1
    assert "optimal ratios" in fig14.render(curves)


def test_fig14_analytic_ratio(env):
    table = env.cost_table("resnet18", 10.0)
    ratio = fig14.analytic_optimal_ratio(table)
    if ratio is not None:
        assert ratio > 0


def test_fig14_forced_ratio_validations(env):
    table = env.cost_table("resnet18", 10.0)
    with pytest.raises(ValueError):
        fig14.forced_ratio_makespan(table, 0.0, 10)
    with pytest.raises(ValueError):
        fig14.forced_ratio_makespan(table, 2.0, 0)
