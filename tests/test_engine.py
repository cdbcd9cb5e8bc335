"""PlanningEngine: memoized caches are exact, keyed, bounded, observable."""

import gc

import pytest

from repro.core.joint import jps
from repro.engine import LRUCache, PlanningEngine
from repro.engine.keys import channel_fingerprint, network_fingerprint
from repro.experiments.runner import ExperimentEnv
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.nn.zoo import get_model
from repro.utils.units import mbps


def make_channel(uplink_mbps: float) -> Channel:
    return Channel(
        shaper=TrafficShaper(
            uplink_bps=mbps(uplink_mbps), downlink_bps=mbps(2 * uplink_mbps)
        )
    )


@pytest.fixture()
def engine():
    return PlanningEngine()


def assert_same_schedule(a, b):
    assert a.makespan == b.makespan
    assert a.method == b.method
    assert len(a.jobs) == len(b.jobs)
    for pa, pb in zip(a.jobs, b.jobs):
        assert pa.cut_position == pb.cut_position
        assert pa.mobile_nodes == pb.mobile_nodes


# ----------------------------------------------------------------------
# cache hits, identity, invalidation
# ----------------------------------------------------------------------

def test_warm_plan_is_a_hit_and_identical(engine):
    channel = make_channel(10.0)
    cold = engine.plan("googlenet", 10, channel)
    warm = engine.plan("googlenet", 10, channel)
    assert_same_schedule(cold, warm)
    stats = engine.stats()
    assert stats["frontier_structure"]["misses"] == 1
    assert stats["frontier_tables"]["misses"] == 1
    assert stats["frontier_tables"]["hits"] >= 1


def test_line_model_warm_hit(engine):
    channel = make_channel(10.0)
    cold = engine.plan("alexnet", 20, channel)
    warm = engine.plan("alexnet", 20, channel)
    assert_same_schedule(cold, warm)
    stats = engine.stats()
    assert stats["line_structure"]["misses"] == 1
    assert stats["line_tables"]["hits"] >= 1


def test_perturbed_channel_misses_table_but_reuses_structure(engine):
    engine.plan("googlenet", 10, make_channel(10.0))
    before = engine.stats()
    engine.plan("googlenet", 10, make_channel(10.1))
    after = engine.stats()
    # new channel => new table key; structure is bandwidth-invariant
    assert after["frontier_tables"]["misses"] == before["frontier_tables"]["misses"] + 1
    assert after["frontier_structure"]["misses"] == before["frontier_structure"]["misses"]


def test_different_job_count_reuses_everything(engine):
    channel = make_channel(10.0)
    engine.plan("alexnet", 10, channel)
    before = engine.stats()["line_tables"]["misses"]
    engine.plan("alexnet", 200, channel)
    assert engine.stats()["line_tables"]["misses"] == before


def test_predictor_key_invalidates(engine):
    channel = make_channel(10.0)
    network = get_model("alexnet")
    predictor = None  # truth predictor either way; only the key differs
    engine.plan(network, 5, channel, predictor=predictor, predictor_key=("cal", 1))
    misses = engine.stats()["line_tables"]["misses"]
    engine.plan(network, 5, channel, predictor=predictor, predictor_key=("cal", 2))
    assert engine.stats()["line_tables"]["misses"] == misses + 1


def test_clear_resets_entries_not_counters(engine):
    channel = make_channel(10.0)
    engine.plan("alexnet", 5, channel)
    engine.clear()
    engine.plan("alexnet", 5, channel)
    assert engine.stats()["line_structure"]["misses"] == 2


# ----------------------------------------------------------------------
# exactness against the uncached path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["alexnet", "mobilenet-v2", "googlenet"])
def test_engine_matches_core_jps(engine, name):
    channel = make_channel(8.0)
    network = get_model(name)
    direct = jps(network, engine.mobile, engine.cloud, channel, n=20)
    cached = engine.plan(network, 20, channel)
    assert cached.makespan == pytest.approx(direct.makespan, rel=1e-12)
    assert [p.cut_position for p in cached.jobs] == [
        p.cut_position for p in direct.jobs
    ]


def test_collected_network_ids_do_not_leak_fingerprints(engine):
    """A network allocated at a dead network's id gets its own plan."""
    channel = make_channel(8.0)
    names = ["line-dnn", "mini-inception"]
    direct = {
        name: jps(get_model(name), engine.mobile, engine.cloud, channel, n=10)
        for name in names
    }
    mismatches = 0
    seen_ids: set[int] = set()
    reused_ids = 0
    for i in range(200):
        name = names[i % 2]
        network = get_model(name)
        reused_ids += id(network) in seen_ids
        seen_ids.add(id(network))
        cached = engine.plan(network, 10, channel)
        del network
        mismatches += (cached.method, cached.makespan) != (
            direct[name].method,
            direct[name].makespan,
        )
        # the young generation holds the dead network's cycles; a full
        # collection would also rescan everything earlier tests left alive
        gc.collect(0)
    assert mismatches == 0
    # the loop did allocate a network at a collected network's id
    assert reused_ids > 0
    assert len(engine._fingerprints) <= len(names)


@pytest.mark.parametrize("scheme", ["LO", "CO", "PO", "JPS"])
def test_engine_matches_experiment_env(engine, scheme):
    env = ExperimentEnv()
    for name in ("alexnet", "googlenet"):
        ours = engine.plan(name, 10, make_channel(10.0), scheme=scheme)
        theirs = env.run_scheme(name, 10.0, 10, scheme)
        assert ours.makespan == pytest.approx(theirs.makespan, rel=1e-12)


def test_paths_structure_matches_alg3(engine):
    from repro.core.general import alg3_schedule

    channel = make_channel(10.0)
    network = get_model("mini-inception")
    direct = alg3_schedule(network, engine.mobile, engine.cloud, channel, n=8)
    cached = engine.plan(network, 8, channel, structure="paths")
    again = engine.plan(network, 8, channel, structure="paths")
    assert cached.makespan == pytest.approx(direct.makespan, rel=1e-12)
    assert_same_schedule(cached, again)
    assert engine.stats()["alg3_plans"]["hits"] >= 1


def test_unknown_scheme_rejected(engine):
    with pytest.raises(ValueError, match="unknown scheme"):
        engine.plan("alexnet", 5, make_channel(10.0), scheme="BOGUS")


# ----------------------------------------------------------------------
# LRU bound and key helpers
# ----------------------------------------------------------------------

def test_lru_eviction_counts():
    engine = PlanningEngine(max_entries=2)
    for rate in (5.0, 10.0, 20.0):
        engine.plan("alexnet", 5, make_channel(rate))
    stats = engine.stats()["line_tables"]
    assert stats["evictions"] >= 1
    assert stats["entries"] <= 2


def test_lru_cache_recency_order():
    cache = LRUCache(max_entries=2)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    cache.get_or_build("a", lambda: 1)   # refresh "a"
    cache.get_or_build("c", lambda: 3)   # evicts "b", the stalest
    assert cache.peek("a") == 1
    assert cache.peek("b") is None
    assert cache.stats.evictions == 1


def test_channel_fingerprint_sensitivity():
    assert channel_fingerprint(make_channel(10.0)) == channel_fingerprint(
        make_channel(10.0)
    )
    assert channel_fingerprint(make_channel(10.0)) != channel_fingerprint(
        make_channel(10.1)
    )


def test_network_fingerprint_tracks_structure():
    assert network_fingerprint(get_model("alexnet")) == network_fingerprint(
        get_model("alexnet")
    )
    assert network_fingerprint(get_model("alexnet")) != network_fingerprint(
        get_model("vgg11")
    )


# ----------------------------------------------------------------------
# the public stats surface
# ----------------------------------------------------------------------

def test_stats_snapshot_totals_are_plain_and_consistent(engine):
    engine.plan("alexnet", 5, make_channel(10.0))
    engine.plan("alexnet", 5, make_channel(10.0))   # warm hit
    snapshot = engine.stats_snapshot()
    assert set(snapshot) == {"layers", "totals"}
    totals = snapshot["totals"]
    assert set(totals) == {"hits", "misses", "evictions", "entries", "hit_rate"}
    layers = snapshot["layers"]
    assert totals["hits"] == sum(s["hits"] for s in layers.values())
    assert totals["misses"] == sum(s["misses"] for s in layers.values())
    assert totals["entries"] == sum(s["entries"] for s in layers.values())
    assert 0.0 <= totals["hit_rate"] <= 1.0
    assert totals["hits"] > 0


def test_stats_snapshot_empty_engine():
    totals = PlanningEngine().stats_snapshot()["totals"]
    assert totals["hits"] == totals["misses"] == 0
    assert totals["hit_rate"] == 0.0


# ----------------------------------------------------------------------
# bandwidth-vectorized pricing: priced_table / plan_batch
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["alexnet", "googlenet"])
def test_priced_table_matches_cost_table(engine, name):
    for uplink_mbps in (1.0, 8.0, 40.0):
        channel = make_channel(uplink_mbps)
        via_channel = engine.cost_table(name, channel)
        priced = engine.priced_table(name, mbps(uplink_mbps))
        assert priced.table.model_name == via_channel.model_name
        assert priced.table.positions == via_channel.positions
        assert (priced.table.f == via_channel.f).all()
        assert (priced.table.g == via_channel.g).all()
        assert (priced.table.cloud == via_channel.cloud).all()


def test_priced_table_rejects_paths_structure(engine):
    with pytest.raises(ValueError, match="per-path tables"):
        engine.priced_table("alexnet", mbps(8.0), structure="paths")


@pytest.mark.parametrize("scheme", ["LO", "CO", "PO", "JPS"])
def test_plan_batch_matches_per_call_plan(engine, scheme):
    rates = [mbps(b) for b in (0.8, 4.0, 18.88, 65.0)]
    for name in ("alexnet", "googlenet"):
        batch = engine.plan_batch(name, 10, rates, scheme=scheme)
        assert len(batch) == len(rates)
        for uplink_bps, ours in zip(rates, batch):
            channel = make_channel(uplink_bps / 1e6)
            theirs = engine.plan(name, 10, channel, scheme=scheme)
            assert_same_schedule(ours, theirs)


def test_plan_batch_wrap_frontier_flag(engine):
    rates = [mbps(10.0)]
    wrapped = engine.plan_batch("googlenet", 6, rates)[0]
    plain = engine.plan_batch("googlenet", 6, rates, wrap_frontier=False)[0]
    assert wrapped.method == "JPS-frontier"
    assert plain.method == "JPS"
    assert wrapped.makespan == plain.makespan
    assert all(p.mobile_nodes is not None for p in wrapped.jobs)
    assert all(p.mobile_nodes is None for p in plain.jobs)


def test_plan_batch_prices_one_kernel_per_model(engine):
    rates = [mbps(b) for b in (1.0, 5.0, 25.0, 80.0)]
    engine.plan_batch("alexnet", 10, rates)
    first = engine.stats()["pricing_kernels"]
    assert first["misses"] == 1
    assert first["entries"] == 1
    engine.plan_batch("alexnet", 10, [mbps(b) for b in (2.0, 60.0)])
    second = engine.stats()["pricing_kernels"]
    assert second["misses"] == 1
    assert second["hits"] >= 1
