"""The position-indexed ``Partition`` against the string-keyed one it replaced.

``ReferencePartition`` and ``reference_semantic_modularity`` are the
string-keyed partition and the modularity that read it, kept word for word
but for their names. The differential test draws graphs whose ids include
equal-key twins such as "5" and "005", with records in shuffled order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_graph, random_embeddings
from tagforge import community
from tagforge.community import (
    EmbeddingTable,
    ModularityParams,
    Partition,
    _total_pair_sum,
    block_totals,
    detect_communities,
    semantic_modularity,
)
from tagforge.graph import NodeRecord, TextAttributedGraph, node_sort_key
from tagforge.limiter import LimiterParams, connectivity_repair, sample_limited_detailed
from tagforge.perception import (
    EnhancementMode,
    build_report,
    personalized_pagerank,
    sample_knowledge,
    select_seed,
)


@dataclass(frozen=True)
class ReferencePartition:
    """Assignment of every node id to a community index 0..k-1.

    Canonical form orders community indices by their smallest member id.
    """

    assignment: Mapping[str, int]
    community_count: int

    @classmethod
    def from_assignment(cls, assignment: Mapping[str, int]) -> "ReferencePartition":
        """Canonicalize arbitrary community keys into contiguous indices."""
        groups: dict[int, list[str]] = {}
        for node_id, c in assignment.items():
            groups.setdefault(c, []).append(node_id)
        ordered = sorted(groups.values(), key=lambda members: min(node_sort_key(v) for v in members))
        canon: dict[str, int] = {}
        for idx, members in enumerate(ordered):
            for node_id in members:
                canon[node_id] = idx
        return cls(canon, len(ordered))

    def validate(self, g: TextAttributedGraph) -> None:
        if set(self.assignment) != set(g.ids()):
            raise ValueError("partition does not cover exactly the graph's nodes")
        seen = set(self.assignment.values())
        if seen != set(range(self.community_count)):
            raise ValueError("community indices must be contiguous from zero")

    def members_by_community(self) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(self.community_count)]
        for node_id, c in self.assignment.items():
            out[c].append(node_id)
        for members in out:
            members.sort(key=node_sort_key)
        return out

    def community_array(self, g: TextAttributedGraph) -> np.ndarray:
        """Community index per node position of ``g``."""
        return np.fromiter((self.assignment[v] for v in g.ids()), dtype=np.int64,
                           count=g.num_nodes)


def reference_semantic_modularity(
    g: TextAttributedGraph,
    partition: ReferencePartition,
    emb: EmbeddingTable | None = None,
    params: ModularityParams = ModularityParams(gamma=1.0),
) -> float:
    m = g.num_edges
    if m == 0:
        raise ValueError("modularity undefined for a graph with no edges")
    partition.validate(g)
    internal, deg_sum = block_totals(
        g, partition.community_array(g), partition.community_count)
    deg_sum = deg_sum.astype(np.float64)
    q = int(internal.sum()) / m - params.gamma * float((deg_sum ** 2).sum()) / (4.0 * m * m)

    if params.gamma < 1.0:
        if emb is None:
            raise ValueError("gamma below 1 requires embeddings")
        emb.check(g)
        s_tot = _total_pair_sum(emb.unit, params.semantic_term)
        if s_tot > 0.0:
            same = 0.0
            for group in partition.members_by_community():
                rows = emb.unit[[g.index_of(v) for v in group]]
                same += _total_pair_sum(rows, params.semantic_term)
            q -= (1.0 - params.gamma) * same / (2.0 * m * s_tot)
    return q


def reference_detection(g, emb, params, seed) -> ReferencePartition:
    """The partition detection returned when it built a string-keyed
    assignment from its last level, as it did then: the detection runs as
    it is, and its last local moving call gives that level."""
    calls = []
    local_moving = community._local_moving

    def recorded(level, *args):
        node_comm, improved = local_moving(level, *args)
        calls.append((level, node_comm))
        return node_comm, improved

    with mock.patch.object(community, "_local_moving", recorded):
        detect_communities(g, emb, params, seed)
    ids = g.ids()
    perm = np.argsort(g.key_rank(), kind="stable")
    order = [ids[i] for i in perm.tolist()]
    if g.num_edges == 0:
        return ReferencePartition.from_assignment({nid: i for i, nid in enumerate(order)})
    level, node_comm = calls[-1]
    assignment = {order[orig]: c
                  for members, c in zip(level.members, node_comm.tolist())
                  for orig in members}
    return ReferencePartition.from_assignment(assignment)


@st.composite
def twin_graphs(draw):
    """A graph of up to 30 nodes whose ids are numbers, words, and numbers
    written with leading zeros, which share ``node_sort_key`` with the plain
    number ("005" and "5"); records come in shuffled order."""
    kinds = draw(st.lists(st.sampled_from(["number", "number", "twin", "word"]),
                          min_size=1, max_size=30))
    names = []
    for i, kind in enumerate(kinds):
        if kind == "twin" and i:
            # i + 1 zeros, so no two twins are spelled alike
            names.append("0" * (i + 1) + str(draw(st.integers(0, i - 1))))
        else:
            names.append(f"n{i}" if kind == "word" else str(i))
    n = len(names)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    nbrs = {v: [] for v in names}
    for a, b in pairs:
        if a != b:
            nbrs[names[a]].append(names[b])
    order = draw(st.permutations(range(n)))
    g = TextAttributedGraph.from_records(
        [NodeRecord(names[i], i % 2, f"document {i}", tuple(nbrs[names[i]])) for i in order], 2)
    return g, draw(st.integers(0, 2 ** 16))


def keys_shared(g) -> bool:
    return len(set(map(node_sort_key, g.ids()))) < g.num_nodes


def first_keys_shared(g, labels) -> bool:
    """Whether two communities of ``labels`` have first members of equal
    ``node_sort_key``."""
    first: dict[int, tuple] = {}
    for v, c in zip(g.ids(), labels):
        first[c] = min(first.get(c, node_sort_key(v)), node_sort_key(v))
    return len(set(first.values())) < len(first)


def assert_canonical(g, part, labels):
    """``part`` groups the positions as ``labels`` does, and numbers its
    communities by their first position in canonical order."""
    labels = np.asarray(labels)
    comm = part.comm
    assert part.ids == g.ids() and comm.dtype == np.int64
    assert np.array_equal(comm[:, None] == comm[None, :], labels[:, None] == labels[None, :])
    order = np.argsort(g.key_rank(), kind="stable")
    seen = comm[order][np.sort(np.unique(comm[order], return_index=True)[1])]
    assert seen.tolist() == list(range(part.community_count))


# ``--hypothesis-profile deep`` raises the budget (tests/conftest.py)
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(twin_graphs(), st.data())
def test_partition_matches_string_keyed_reference(drawn, data):
    g, seed = drawn
    n, ids = g.num_nodes, g.ids()
    emb = random_embeddings(g, dim=4, seed=seed)

    # 1. detection numbers its communities as the reference did
    for params in (ModularityParams(gamma=1.0), ModularityParams(gamma=0.5)):
        part = detect_communities(g, emb, params, seed)
        ref = reference_detection(g, emb, params, seed)
        assert part.community_count == ref.community_count
        assert np.array_equal(part.comm, ref.community_array(g))
        assert_canonical(g, part, part.comm)

    # 2. an arbitrary labelling, handed to the reference in shuffled order
    labels = data.draw(st.lists(st.integers(-3, 6), min_size=n, max_size=n))
    part = Partition(g, labels)
    shuffled = data.draw(st.permutations(range(n)))
    ref = ReferencePartition.from_assignment({ids[i]: labels[i] for i in shuffled})
    assert part.community_count == ref.community_count
    if not first_keys_shared(g, labels):
        assert np.array_equal(part.comm, ref.community_array(g))
    assert_canonical(g, part, labels)

    # 3. modularity of both partitions
    if g.num_edges:
        for params in (ModularityParams(gamma=1.0),
                       ModularityParams(gamma=0.5, semantic_term="similarity"),
                       ModularityParams(gamma=0.5, semantic_term="distance")):
            got = semantic_modularity(g, part, emb, params)
            want = reference_semantic_modularity(g, ref, emb, params)
            if keys_shared(g):
                # equal keys order a community's rows differently, and so the
                # float sums of its pair terms, whose size is at most 1
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            else:
                assert got == want


CONSUMERS = {
    "semantic_modularity": lambda g, part: semantic_modularity(g, part),
    "select_seed": lambda g, part: select_seed(g, part, None, EnhancementMode.SEMANTIC),
    "sample_knowledge": lambda g, part: sample_knowledge(
        g, personalized_pagerank(g, [0]), partition=part),
    "build_report": lambda g, part: build_report(g, part),
    "sample_limited_detailed": lambda g, part: sample_limited_detailed(
        g, part, LimiterParams(alpha=0.5)),
    "connectivity_repair": lambda g, part: connectivity_repair(
        g, [0, 1, 2], part, LimiterParams(alpha=0.5)),
}


@pytest.mark.parametrize("other", ["reordered", "other-graph"])
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_foreign_partition_is_rejected_by_every_consumer(consumer, other):
    g = make_graph({str(i): [str(i + 1)] for i in range(5)} | {"5": ["0"]})
    others = {
        "reordered": TextAttributedGraph.from_records(tuple(reversed(g.nodes)), 1),
        "other-graph": make_graph({f"x{i}": [] for i in range(6)}),
    }
    CONSUMERS[consumer](g, Partition(g, [0, 0, 0, 1, 1, 1]))
    with pytest.raises(ValueError, match="node order"):
        CONSUMERS[consumer](g, Partition(others[other], [0, 0, 0, 1, 1, 1]))
