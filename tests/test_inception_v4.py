"""Inception-v4 (Fig. 3a) and the rectangular-kernel layer support."""

import pytest

from repro.dag.cuts import enumerate_frontier_cuts, is_downward_closed
from repro.dag.topology import count_paths, parallel_blocks, separators
from repro.dag.transform import should_cluster_block
from repro.nn.layers import Conv2d, ShapeError
from repro.nn.zoo import inception_v4


@pytest.fixture(scope="module")
def incv4():
    return inception_v4()


# ----------------------------------------------------------------------
# rectangular kernels
# ----------------------------------------------------------------------

def test_rect_conv_output_shape():
    conv = Conv2d(64, kernel=(7, 1), padding=(3, 0))
    assert conv.output_shape((64, 73, 73)) == (64, 73, 73)
    conv = Conv2d(64, kernel=(1, 7), padding=(0, 3))
    assert conv.output_shape((64, 73, 73)) == (64, 73, 73)


def test_rect_conv_flops_and_params():
    conv = Conv2d(8, kernel=(1, 7), padding=(0, 3), bias=False)
    flops = conv.flops((4, 10, 10))
    assert flops == 2 * 8 * 10 * 10 * (4 * 7)
    assert conv.param_count((4, 10, 10)) == 8 * 4 * 7


def test_rect_conv_factorization_is_cheaper_than_square():
    """1x7 + 7x1 factorization costs ~2/7 of a full 7x7 conv."""
    square = Conv2d(64, kernel=7, padding=3, bias=False).flops((64, 17, 17))
    factored = (
        Conv2d(64, kernel=(1, 7), padding=(0, 3), bias=False).flops((64, 17, 17))
        + Conv2d(64, kernel=(7, 1), padding=(3, 0), bias=False).flops((64, 17, 17))
    )
    assert factored == pytest.approx(square * 2 / 7)


def test_rect_conv_same_padding():
    assert Conv2d(4, kernel=(1, 7), padding="same").output_shape((2, 9, 9)) == (4, 9, 9)
    with pytest.raises(ShapeError, match="odd kernel"):
        Conv2d(4, kernel=(2, 7), padding="same").output_shape((2, 9, 9))


def test_rect_conv_validation():
    with pytest.raises(ShapeError):
        Conv2d(4, kernel=(0, 3))
    with pytest.raises(ShapeError):
        Conv2d(4, kernel=(3, 3, 3))  # type: ignore[arg-type]
    with pytest.raises(ShapeError):
        Conv2d(4, kernel=3, padding=(1, 2, 3))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# the full network
# ----------------------------------------------------------------------

def test_published_size(incv4):
    # Szegedy et al. 2017: ~42.7 M parameters, ~24.6 GFLOPs at 299x299
    assert incv4.total_params / 1e6 == pytest.approx(42.7, rel=0.03)
    assert incv4.total_flops / 1e9 == pytest.approx(24.6, rel=0.10)
    assert incv4.output_shape == (1000,)


def test_stage_shapes(incv4):
    assert incv4.node("stem.concat3").output_shape == (384, 35, 35)
    assert incv4.node("A3.concat").output_shape == (384, 35, 35)
    assert incv4.node("redA.concat").output_shape == (1024, 17, 17)
    assert incv4.node("B6.concat").output_shape == (1024, 17, 17)
    assert incv4.node("redB.concat").output_shape == (1536, 8, 8)
    assert incv4.node("C2.concat").output_shape == (1536, 8, 8)


def test_path_explosion_vs_frontier(incv4):
    """Billions of paths, but a four-digit exact cut space."""
    assert count_paths(incv4.graph) > 1e9
    cuts = enumerate_frontier_cuts(incv4.graph)
    assert 5_000 < len(cuts) < 50_000
    sample = cuts[:: max(len(cuts) // 50, 1)]
    for cut in sample:
        assert is_downward_closed(incv4.graph, cut.mobile)


#: Inception-v4's 19 non-trivial blocks, pinned by enumerating every
#: interior cut: none clusters, since each module's 1x1 reductions ship
#: less than its input tensor.
NON_TRIVIAL_BLOCKS = (
    ("stem.3.relu", "stem.concat1"),
    ("stem.concat1", "stem.concat2"),
    ("stem.concat2", "stem.concat3"),
    ("stem.concat3", "A0.concat"),
    *((f"A{i}.concat", f"A{i + 1}.concat") for i in range(3)),
    ("A3.concat", "redA.concat"),
    ("redA.concat", "B0.concat"),
    *((f"B{i}.concat", f"B{i + 1}.concat") for i in range(6)),
    ("B6.concat", "redB.concat"),
    ("redB.concat", "C0.concat"),
    ("C0.concat", "C1.concat"),
    ("C1.concat", "C2.concat"),
)


def test_no_block_clusters(incv4):
    blocks = [b for b in parallel_blocks(incv4.graph) if not b.is_trivial]
    assert [(b.entry, b.exit) for b in blocks] == list(NON_TRIVIAL_BLOCKS)
    assert [b for b in blocks if should_cluster_block(incv4.graph, b)] == []


def test_separators_are_module_boundaries(incv4):
    seps = separators(incv4.graph)
    # every concat joint is a separator
    concats = [v for v in incv4.graph.node_ids if v.endswith(".concat")]
    for concat in concats:
        assert concat in seps


def test_reduced_variant_for_fast_tests():
    small = inception_v4(a_modules=1, b_modules=1, c_modules=1, name="incv4-mini")
    assert small.num_layers < 150
    assert small.output_shape == (1000,)
    with pytest.raises(ValueError):
        inception_v4(a_modules=0)


def test_nested_branch_cut_space():
    """Inception-C's nested split is covered by the frontier enumeration."""
    small = inception_v4(a_modules=1, b_modules=1, c_modules=1, name="incv4-c")
    cuts = enumerate_frontier_cuts(small.graph)
    # some cut must separate the two arms of the C-module's nested split:
    # one arm (b3.2a) on mobile, the sibling (b3.2b) on the cloud
    split_cuts = [
        c for c in cuts
        if "C0.b3.2a.conv" in c.mobile and "C0.b3.2b.conv" not in c.mobile
    ]
    assert split_cuts
    for cut in split_cuts[:10]:
        assert is_downward_closed(small.graph, cut.mobile)
