"""True DAG partitioner: closed sets, cut tables, scheduling, engine wiring."""

import pytest

from repro.core.joint import Structure, jps
from repro.dag.graph import Dag
from repro.dag.partition import (
    dag_cut_table,
    dag_pareto_cuts,
    dag_schedule_from_table,
    duplication_mobile_set,
    duplication_schedule,
    enumerate_closed_sets,
    partition_dag,
    topo_prefix_sets,
    unique_cut_labels,
)
from repro.engine import PlanningEngine
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.utils.units import mbps

from tests.helpers import non_sp_network


def diamond() -> Dag:
    """a fans out to b and c (the same 100-byte tensor), which merge in d."""
    dag = Dag(name="diamond")
    for v in "abcd":
        dag.add_node(v)
    dag.add_edge("a", "b", volume=100.0)
    dag.add_edge("a", "c", volume=100.0)
    dag.add_edge("b", "d", volume=10.0)
    dag.add_edge("c", "d", volume=10.0)
    return dag


DIAMOND_TIMES = {"a": 1.0, "b": 4.0, "c": 4.0, "d": 4.0}


def upload(num_bytes: float) -> float:
    return num_bytes * 0.005


def make_channel(uplink_mbps: float) -> Channel:
    return Channel(
        shaper=TrafficShaper(
            uplink_bps=mbps(uplink_mbps), downlink_bps=mbps(2 * uplink_mbps)
        )
    )


# ----------------------------------------------------------------------
# candidate closed sets
# ----------------------------------------------------------------------


def test_diamond_closed_sets_are_the_full_lattice():
    sets, exhaustive = enumerate_closed_sets(diamond())
    assert exhaustive
    assert set(sets) == {
        frozenset("a"),
        frozenset("ab"),
        frozenset("ac"),
        frozenset("abc"),
        frozenset("abcd"),
    }


def test_enumeration_truncates_at_budget():
    sets, exhaustive = enumerate_closed_sets(diamond(), max_states=3)
    assert not exhaustive
    assert len(sets) == 3


def test_topo_prefixes_are_closed_and_span_all_lengths():
    dag = diamond()
    prefixes = topo_prefix_sets(dag)
    assert [len(p) for p in prefixes] == [1, 2, 3, 4]
    closed, _ = enumerate_closed_sets(dag)
    assert set(prefixes) <= set(closed)


def test_pareto_cuts_diamond():
    cuts, info = dag_pareto_cuts(diamond(), DIAMOND_TIMES.__getitem__)
    assert info["mode"] == "exact-closure"
    assert info["states"] == 5
    # f strictly increasing, transfer bytes strictly decreasing
    f = [sum(DIAMOND_TIMES[v] for v in c.mobile) for c in cuts]
    bytes_ = [c.transfer_bytes for c in cuts]
    assert f == sorted(f)
    assert bytes_ == sorted(bytes_, reverse=True)
    # the shared tensor out of `a` is priced once: max(100, 100) == 100
    by_mobile = {c.mobile: c.transfer_bytes for c in cuts}
    assert by_mobile[frozenset("a")] == 100.0
    assert by_mobile[frozenset("abcd")] == 0.0


def test_refined_mode_kicks_in_past_budget():
    _, info = dag_pareto_cuts(diamond(), DIAMOND_TIMES.__getitem__, max_states=3)
    assert info["mode"] == "refined"


def test_unique_cut_labels_disambiguate():
    class FakeCut:
        def __init__(self, label):
            self.label = label

    labels = unique_cut_labels([FakeCut("x"), FakeCut("y"), FakeCut("x")])
    assert labels == ("x", "y", "x#2")


# ----------------------------------------------------------------------
# scheduling modes
# ----------------------------------------------------------------------


def test_exact_and_two_cut_agree_on_diamond():
    dct = dag_cut_table(diamond(), DIAMOND_TIMES.__getitem__, upload)
    exact = dag_schedule_from_table(dct.table, dct.cuts, 3, schedule="exact")
    two_cut = dag_schedule_from_table(dct.table, dct.cuts, 3, schedule="two-cut")
    auto = dag_schedule_from_table(dct.table, dct.cuts, 3, schedule="auto")
    assert exact.method == "JPS-dag"
    assert exact.metadata["schedule"] == "exact"
    assert two_cut.metadata["schedule"] == "two-cut"
    assert auto.metadata["schedule"] == "exact"  # menu fits the budget
    assert auto.makespan == exact.makespan
    assert two_cut.makespan >= exact.makespan  # exact menu is the optimum


def test_exact_over_budget_raises():
    dct = dag_cut_table(diamond(), DIAMOND_TIMES.__getitem__, upload)
    with pytest.raises(ValueError, match="exact menu needs"):
        dag_schedule_from_table(
            dct.table, dct.cuts, 10, schedule="exact", max_assignments=3
        )


def test_auto_falls_back_to_two_cut_over_budget():
    dct = dag_cut_table(diamond(), DIAMOND_TIMES.__getitem__, upload)
    schedule = dag_schedule_from_table(
        dct.table, dct.cuts, 10, schedule="auto", max_assignments=3
    )
    assert schedule.metadata["schedule"] == "two-cut"


def test_unknown_schedule_mode_raises():
    dct = dag_cut_table(diamond(), DIAMOND_TIMES.__getitem__, upload)
    with pytest.raises(ValueError, match="unknown schedule mode"):
        dag_schedule_from_table(dct.table, dct.cuts, 2, schedule="greedy")


def test_partition_dag_dominates_duplication_on_the_diamond():
    schedule = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 2)
    baseline = duplication_schedule(diamond(), DIAMOND_TIMES.__getitem__, upload, 2)
    assert schedule.makespan < baseline.makespan
    assert baseline.metadata["over_shipped_bytes"] == 100.0
    assert schedule.metadata["cut_mode"] == "exact-closure"
    # every emitted plan carries an executable cut
    for job in schedule.jobs:
        assert job.mobile_nodes is not None
        assert "a" in job.mobile_nodes


def test_duplication_mobile_set_is_downward_closed():
    mobile = duplication_mobile_set(diamond(), DIAMOND_TIMES.__getitem__, upload)
    from repro.dag.cuts import is_downward_closed

    assert is_downward_closed(diamond(), mobile)
    assert "a" in mobile


def test_label_histogram_counts_by_cut_label():
    schedule = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 4)
    histogram = schedule.label_histogram()
    assert sum(histogram.values()) == 4
    assert all(isinstance(k, str) for k in histogram)


def test_partition_is_deterministic():
    a = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 3)
    b = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 3)
    assert a.to_dict() == b.to_dict()


# ----------------------------------------------------------------------
# engine + jps() wiring
# ----------------------------------------------------------------------


def test_engine_classifies_non_sp_network_as_dag():
    engine = PlanningEngine()
    assert engine.structure_of(non_sp_network()) is Structure.DAG


def test_engine_plan_and_batch_agree_on_dag_models():
    engine = PlanningEngine()
    network = non_sp_network()
    for uplink in (1.0, 10.0, 50.0):
        single = engine.plan(network, 8, make_channel(uplink))
        (batched,) = engine.plan_batch(network, 8, [mbps(uplink)])
        assert single.method == "JPS-dag"
        assert single.to_dict() == batched.to_dict()


def test_engine_dag_table_cache_hits(mobile, cloud):
    engine = PlanningEngine()
    network = non_sp_network()
    channel = make_channel(10.0)
    engine.plan(network, 4, channel)
    before = engine.stats()
    engine.plan(network, 4, channel)
    after = engine.stats()
    assert after["dag_structure"]["misses"] == before["dag_structure"]["misses"]
    assert after["dag_tables"]["hits"] > before["dag_tables"]["hits"]
    # a different channel re-prices the table but reuses the structure
    engine.plan(network, 4, make_channel(20.0))
    final = engine.stats()
    assert final["dag_tables"]["misses"] == after["dag_tables"]["misses"] + 1
    assert final["dag_structure"]["misses"] == after["dag_structure"]["misses"]


def test_engine_cost_table_and_priced_table_carry_dag_cuts():
    engine = PlanningEngine()
    network = non_sp_network()
    channel = make_channel(10.0)
    table = engine.cost_table(network, channel)
    assert table.model_name.endswith("/dag")
    assert table.g[-1] == 0.0  # the fully-local cut ships nothing
    priced = engine.priced_table(network, mbps(10.0))
    assert priced.cuts is not None
    assert len(priced.cuts) == table.k


def test_engine_compare_jps_beats_baselines_on_dag_model():
    engine = PlanningEngine()
    results = engine.compare(non_sp_network(), 6, make_channel(10.0))
    for scheme, schedule in results.items():
        if scheme != "JPS":
            assert results["JPS"].makespan <= schedule.makespan + 1e-9


def test_engine_clear_resets_dag_caches():
    engine = PlanningEngine()
    engine.plan(non_sp_network(), 4, make_channel(10.0))
    engine.clear()
    stats = engine.stats()
    assert stats["dag_structure"]["entries"] == 0
    assert stats["dag_tables"]["entries"] == 0


def test_jps_auto_dispatches_non_sp_to_dag(mobile, cloud):
    network = non_sp_network()
    channel = make_channel(10.0)
    auto = jps(network, mobile, cloud, channel, 8)
    forced = jps(network, mobile, cloud, channel, 8, structure="dag")
    assert auto.method == "JPS-dag"
    assert auto.to_dict() == forced.to_dict()
    engine = PlanningEngine(mobile=mobile, cloud=cloud)
    assert engine.plan(network, 8, channel).makespan == auto.makespan


def test_jps_auto_keeps_zoo_models_on_their_structures(
    mobile, cloud, alexnet, googlenet
):
    channel = make_channel(10.0)
    assert jps(alexnet, mobile, cloud, channel, 4).method == "JPS"
    assert jps(googlenet, mobile, cloud, channel, 4).method == "JPS-frontier"
