"""Cut semantics and exact frontier-cut enumeration.

A *cut* of a DNN DAG is a downward-closed node set ``M`` (closed under
predecessors): layers in ``M`` run on the mobile device, the rest on the
cloud. The tensors that must be uploaded are the outputs of the nodes in
``M`` that feed at least one node outside ``M``.

Two details matter and are easy to get wrong:

* **A tensor is uploaded once, not once per edge.** A residual block's
  entry output feeds both the bypass edge and the branch, but cutting
  after the entry transfers that tensor a single time. Transfer volume is
  therefore summed over distinct *tail nodes* of the cut, not over cut
  edges.
* **Only downward-closed sets are valid.** Otherwise a mobile layer would
  need an input computed on the cloud, which the three-stage execution
  model (mobile compute → upload → cloud compute) cannot express.

For series-parallel DAGs — all models in :mod:`repro.nn.zoo` —
:func:`enumerate_frontier_cuts` enumerates the *complete* cut space:
every downward-closed set is "after separator ``s``" or "inside one
parallel block with a chosen position per branch". This exact enumerator
is the oracle against which the paper's per-path heuristic (Alg. 3) is
evaluated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import product

from repro.dag.graph import Dag
from repro.dag.topology import ParallelBlock, parallel_blocks

__all__ = [
    "Cut",
    "is_downward_closed",
    "cut_edge_tails",
    "cut_transfer_bytes",
    "enumerate_frontier_cuts",
    "prune_dominated",
]


@dataclass(frozen=True)
class Cut:
    """A partition of the DAG: ``mobile`` runs locally, the rest offloads.

    ``frontier`` are the distinct tail nodes whose output tensors cross
    the cut; ``transfer_bytes`` is the total upload volume (each tail
    counted once). ``label`` is a human-readable description used in
    traces and reports.
    """

    mobile: frozenset[str]
    frontier: tuple[str, ...]
    transfer_bytes: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.transfer_bytes < 0:
            raise ValueError(f"transfer_bytes must be >= 0, got {self.transfer_bytes!r}")


def is_downward_closed(dag: Dag, mobile: Iterable[str]) -> bool:
    """True if ``mobile`` is closed under predecessors in ``dag``."""
    mobile_set = set(mobile)
    return all(
        pred in mobile_set for v in mobile_set for pred in dag.predecessors(v)
    )


def cut_edge_tails(dag: Dag, mobile: Iterable[str]) -> list[str]:
    """Distinct tail nodes of edges crossing out of ``mobile`` (topo order).

    These are the layers whose output tensors must be serialized and
    uploaded. Order follows the DAG's deterministic topological order so
    that cut labels and trace output are stable.
    """
    mobile_set = set(mobile)
    tails = [
        tail
        for tail in mobile_set
        if any(head not in mobile_set for head in dag.successors(tail))
    ]
    tails.sort(key=dag.topological_index().__getitem__)
    return tails


def _tails_bytes(dag: Dag, tails: list[str], mobile_set: set[str] | frozenset[str]) -> float:
    """Upload volume of ``tails``: each tail's largest crossing edge, once."""
    total = 0.0
    for tail in tails:
        total += max(
            dag.volume(tail, head)
            for head in dag.successors(tail)
            if head not in mobile_set
        )
    return total


def cut_transfer_bytes(dag: Dag, mobile: Iterable[str]) -> float:
    """Bytes uploaded for the cut ``mobile``; each tail tensor counted once.

    For a tail with several crossing edges the per-edge volumes describe
    the same tensor, so the maximum (they are equal for well-formed
    layer graphs) is charged a single time.
    """
    mobile_set = set(mobile)
    return _tails_bytes(dag, cut_edge_tails(dag, mobile_set), mobile_set)


def make_cut(dag: Dag, mobile: Iterable[str], label: str = "") -> Cut:
    """Build a validated :class:`Cut` from a downward-closed node set."""
    mobile_set = frozenset(mobile)
    if not is_downward_closed(dag, mobile_set):
        raise ValueError(f"cut {label or sorted(mobile_set)[:4]} is not downward-closed")
    tails = cut_edge_tails(dag, mobile_set)
    frontier = tuple(tails)
    return Cut(
        mobile=mobile_set,
        frontier=frontier,
        transfer_bytes=_tails_bytes(dag, tails, mobile_set),
        label=label or ("empty" if not mobile_set else f"after:{'+'.join(frontier)}"),
    )


def _closure_up_to(dag: Dag, node: str) -> frozenset[str]:
    """``node`` and all its ancestors — the mobile set of "cut after node"."""
    return frozenset(dag.ancestors(node) | {node})


def _block_cut_sets(
    dag: Dag, block: ParallelBlock, base: frozenset[str]
) -> Iterator[frozenset[str]]:
    """Yield every cut threading through ``block``: one position per branch.

    Position ``p`` on a branch keeps its first ``p`` interior nodes on the
    mobile side. The all-zero combination duplicates "cut after entry"
    and is skipped (the caller already emitted it). The all-full one,
    "cut just before exit", is included. The product has
    Π(|branch| + 1) terms, so the sets are yielded one at a time and a
    caller's cap can stop the walk early.
    """
    ranges = [range(len(branch) + 1) for branch in block.branches]
    for combo in product(*ranges):
        if not any(combo):
            continue
        mobile = set(base)
        for branch, position in zip(block.branches, combo):
            mobile.update(branch[:position])
        yield frozenset(mobile)


def enumerate_frontier_cuts(
    dag: Dag, max_cuts: int = 100_000, include_empty: bool = False
) -> list[Cut]:
    """Every downward-closed cut of a series-parallel DAG.

    The enumeration walks separators in topological order, emitting the
    "after separator" cut for each, plus every per-branch-position
    combination inside each parallel block. Duplicate mobile sets are
    coalesced. Raises :class:`ValueError` once ``max_cuts`` distinct cuts
    have been produced — a guard against graphs that are not actually
    series-parallel.

    The cloud-only scheme is the cut *after the Input node* (zero
    compute, raw-input upload), which the separator walk already emits.
    ``include_empty`` additionally adds the literal empty set; it is
    non-physical for DNN jobs (the input tensor originates on the
    mobile device and its upload cannot be skipped) and exists only for
    structural tests.
    """
    seen: dict[frozenset[str], str] = {}

    def _record(mobile: frozenset[str], label: str) -> None:
        if mobile not in seen:
            if len(seen) >= max_cuts:
                raise ValueError(
                    f"{dag.name!r}: more than {max_cuts} frontier cuts; "
                    "graph is too branchy for exact enumeration"
                )
            seen[mobile] = label

    if include_empty:
        _record(frozenset(), "cloud-only")

    blocks = parallel_blocks(dag)
    for block in blocks:
        base = _closure_up_to(dag, block.entry)
        _record(base, f"after:{block.entry}")
        if not block.is_trivial:
            for mobile in _block_cut_sets(dag, block, base):
                _record(mobile, f"inside:{block.entry}->{block.exit}")
    # the final separator is the sink: cut after it = local-only
    order = dag.topological_order()
    _record(frozenset(order), f"after:{order[-1]}")

    return [make_cut(dag, mobile, label) for mobile, label in seen.items()]


def prune_dominated(
    cuts: Iterable[Cut], compute_cost: dict[frozenset[str], float]
) -> list[Cut]:
    """Drop cuts dominated in (compute time, transfer bytes).

    Cut ``A`` dominates ``B`` when ``f(A) <= f(B)`` and ``g(A) <= g(B)``
    with at least one strict inequality. The survivors form the Pareto
    frontier, which is all any makespan-minimizing scheme can ever pick
    from. ``compute_cost`` maps each cut's mobile set to its mobile
    computation time ``f``.
    """
    items = sorted(
        cuts, key=lambda c: (compute_cost[c.mobile], c.transfer_bytes, sorted(c.mobile))
    )
    survivors: list[Cut] = []
    best_bytes = float("inf")
    for cut in items:
        if cut.transfer_bytes < best_bytes:
            survivors.append(cut)
            best_bytes = cut.transfer_bytes
        # equal f ties: the sort already placed the smaller-g first, and a
        # later cut with equal f and equal g is a duplicate in cost space.
    return survivors
