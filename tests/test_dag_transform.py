"""Virtual-block clustering and the Fig.-9 path conversion."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.graph import Dag
from repro.dag.topology import PathExplosionError, count_paths, parallel_blocks
from repro.dag.transform import (
    VirtualBlock,
    _closed_form_volumes,
    _enumerated_volumes,
    cluster_line_cut_points,
    collapse_clusterable_blocks,
    expand_members,
    linearize,
    should_cluster_block,
    to_independent_paths,
)
from repro.nn.zoo import MODELS, branchy_dnn, get_model


# ----------------------------------------------------------------------
# cluster_line_cut_points
# ----------------------------------------------------------------------

def test_cluster_keeps_strict_running_minima():
    volumes = [10, 12, 8, 8, 5, 9, 0]
    assert cluster_line_cut_points(volumes) == [0, 2, 4, 6]


def test_cluster_always_keeps_last_position():
    assert cluster_line_cut_points([5, 6, 7]) == [0, 2]
    assert cluster_line_cut_points([3]) == [0]


def test_cluster_empty_and_negative():
    assert cluster_line_cut_points([]) == []
    with pytest.raises(ValueError):
        cluster_line_cut_points([1, -2])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=1, max_size=40))
def test_cluster_property_kept_volumes_strictly_decreasing(volumes):
    keep = cluster_line_cut_points(volumes)
    kept = [volumes[i] for i in keep]
    interior = kept[:-1] if keep[-1] == len(volumes) - 1 and (
        len(kept) > 1 and kept[-1] >= kept[-2]
    ) else kept
    # all kept positions except a forced last are strict running minima
    for a, b in zip(interior, interior[1:]):
        assert b < a
    assert keep[-1] == len(volumes) - 1  # last always present
    assert keep == sorted(set(keep))


# ----------------------------------------------------------------------
# block clustering
# ----------------------------------------------------------------------

def residual_block_dag(interior_volume: float) -> Dag:
    g = Dag(name="res")
    for v in ("in", "entry", "conv", "add", "out"):
        g.add_node(v)
    g.add_edge("in", "entry", 100)
    g.add_edge("entry", "conv", 100)
    g.add_edge("entry", "add", 100)   # bypass: entry tensor again
    g.add_edge("conv", "add", interior_volume)
    g.add_edge("add", "out", 100)
    return g


def test_residual_block_clusters():
    g = residual_block_dag(interior_volume=50)
    block = next(b for b in parallel_blocks(g) if not b.is_trivial)
    # interior cut = bypass (100) + conv tensor (50) = 150 >= entry (100)
    assert should_cluster_block(g, block)


def test_reducing_branch_block_does_not_cluster():
    """Two branches whose tensors shrink below the entry volume (Inception-like)."""
    g = Dag(name="inception-ish")
    for v in ("in", "entry", "b1", "b2", "concat", "out"):
        g.add_node(v)
    g.add_edge("in", "entry", 100)
    g.add_edge("entry", "b1", 100)
    g.add_edge("entry", "b2", 100)
    g.add_edge("b1", "concat", 30)
    g.add_edge("b2", "concat", 40)
    g.add_edge("concat", "out", 70)
    block = next(b for b in parallel_blocks(g) if not b.is_trivial)
    # best interior cut = 30 + 40 = 70 < entry 100
    assert not should_cluster_block(g, block)


@st.composite
def forest_blocks(draw):
    """``in -> entry -> (out-forest) -> exit -> out`` with integer tensors.

    Interior node ``i`` hangs off ``entry`` or an earlier node, so the
    forest ranges over chain branches and shared-prefix trees; a bypass
    ``entry -> exit`` is added when drawn or when ``entry`` would have a
    single root (a separator, and no block). Half the graphs get one
    edge out of a node with two or more out-edges made heavier; the
    closed form must refuse those unequal volumes.
    """
    size = draw(st.integers(1, 7))
    parents = [draw(st.integers(-1, i - 1)) for i in range(size)]  # -1: entry
    tensors = draw(st.lists(st.integers(0, 60), min_size=size + 1, max_size=size + 1))
    entry_bytes, tensors = tensors[0], tensors[1:]
    bypass = draw(st.booleans()) or parents.count(-1) < 2
    edges = [("in", "entry", 100)]
    for i, parent in enumerate(parents):
        if parent < 0:
            edges.append(("entry", f"n{i}", entry_bytes))
        else:
            edges.append((f"n{parent}", f"n{i}", tensors[parent]))
    edges += [(f"n{i}", "exit", tensors[i]) for i in range(size) if i not in parents]
    if bypass:
        edges.append(("entry", "exit", entry_bytes))
    edges.append(("exit", "out", 100))
    if draw(st.booleans()):
        tails = [tail for tail, _, _ in edges]
        fanned = [k for k, tail in enumerate(tails) if tails.count(tail) >= 2]
        k = draw(st.sampled_from(fanned))
        tail, head, volume = edges[k]
        edges[k] = (tail, head, volume + draw(st.integers(1, 30)))
    g = Dag(name="forest")
    for v in ("in", "entry", *(f"n{i}" for i in range(size)), "exit", "out"):
        g.add_node(v)
    for tail, head, volume in edges:
        g.add_edge(tail, head, volume)
    return g


def assert_closed_form_matches_enumeration(g: Dag, block) -> None:
    closed = _closed_form_volumes(g, block)
    entry_bytes, minimum = _enumerated_volumes(g, block)
    if closed is not None:
        assert closed == (entry_bytes, minimum)
    assert should_cluster_block(g, block) == (minimum >= entry_bytes)


@settings(max_examples=200, deadline=None)
@given(forest_blocks())
def test_closed_form_matches_enumeration_on_random_blocks(g):
    blocks = [b for b in parallel_blocks(g) if not b.is_trivial]
    assert blocks[0].entry == "entry"
    for block in blocks:
        owners = {block.entry} | block.interior_nodes()
        uniform = all(len({g.volume(v, w) for w in g.successors(v)}) == 1 for v in owners)
        assert (_closed_form_volumes(g, block) is None) == (not uniform)
        assert_closed_form_matches_enumeration(g, block)


#: Inception-v4's C blocks enumerate 24,300 interior positions each.
_INCEPTION_C_EXITS = {"C0.concat", "C1.concat", "C2.concat"}


@pytest.mark.parametrize("name", list(MODELS))
def test_closed_form_matches_enumeration_on_zoo_blocks(name):
    g = get_model(name).graph
    for block in parallel_blocks(g):
        if block.is_trivial:
            continue
        assert _closed_form_volumes(g, block) is not None, (name, block.entry)
        if name == "inception-v4" and block.exit in _INCEPTION_C_EXITS:
            assert math.prod(len(b) + 1 for b in block.branches) == 24_300
            continue
        assert_closed_form_matches_enumeration(g, block)


def test_closed_form_refuses_a_join_inside_the_block():
    """An interior node with two predecessors is not an out-forest."""
    g = Dag(name="join")
    for v in ("in", "entry", "a", "b", "c", "d", "exit"):
        g.add_node(v)
    g.add_edge("in", "entry", 9)
    for head in ("a", "b", "d"):
        g.add_edge("entry", head, 9)
    g.add_edge("a", "c", 4)
    g.add_edge("b", "c", 4)
    g.add_edge("c", "exit", 2)
    g.add_edge("d", "exit", 3)
    (block,) = (b for b in parallel_blocks(g) if not b.is_trivial)
    assert _closed_form_volumes(g, block) is None
    assert should_cluster_block(g, block) is False  # enumerated: 2 + 3 < 9


def test_collapse_replaces_block_with_virtual_node():
    g = residual_block_dag(50)
    collapsed = collapse_clusterable_blocks(g)
    assert collapsed.is_line()
    virtual = [v for v in collapsed.node_ids if isinstance(collapsed.payload(v), VirtualBlock)]
    assert len(virtual) == 1
    assert set(expand_members(collapsed, virtual[0])) == {"conv", "add"}


def test_linearize_produces_line_with_decreasing_volumes(mobilenet):
    line = linearize(mobilenet.graph)
    assert line.is_line()
    order = line.line_order()
    volumes = [line.volume(a, b) for a, b in zip(order, order[1:])]
    assert all(b < a for a, b in zip(volumes, volumes[1:]))


def test_linearize_preserves_all_members(resnet):
    line = linearize(resnet.graph)
    members: list[str] = []
    for v in line.node_ids:
        members.extend(expand_members(line, v))
    assert sorted(members) == sorted(resnet.graph.node_ids)


def test_googlenet_keeps_general_structure_after_clustering(googlenet):
    collapsed = collapse_clusterable_blocks(googlenet.graph)
    assert not collapsed.is_line()  # deep Inception modules must survive


# ----------------------------------------------------------------------
# Fig.-9 conversion
# ----------------------------------------------------------------------

def test_to_independent_paths_branchy():
    net = branchy_dnn()
    converted = to_independent_paths(net.graph)
    assert converted.num_paths == count_paths(net.graph) == 6
    # duplicated graph: one chain per path, disjoint nodes
    dup = converted.duplicated
    assert len(dup.sources()) == 6
    assert len(dup.sinks()) == 6
    for path in converted.paths:
        assert path[0] == net.graph.topological_order()[0]


def test_duplicated_graph_preserves_edge_volumes():
    net = branchy_dnn()
    converted = to_independent_paths(net.graph)
    dup = converted.duplicated
    for index, path in enumerate(converted.paths):
        for tail, head in zip(path, path[1:]):
            assert dup.volume(f"p{index}:{tail}", f"p{index}:{head}") == net.graph.volume(
                tail, head
            )


def test_multiplicity_counts_duplication():
    net = branchy_dnn()
    converted = to_independent_paths(net.graph)
    source = net.graph.topological_order()[0]
    assert converted.multiplicity(source) == converted.num_paths
    # every node appears in at least one path
    covered = {v for p in converted.paths for v in p}
    assert covered == set(net.graph.node_ids)


def test_path_explosion_raises(googlenet):
    with pytest.raises(PathExplosionError, match="262144"):
        to_independent_paths(googlenet.graph, max_paths=1000)
