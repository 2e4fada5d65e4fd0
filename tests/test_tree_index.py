"""The child index and the prefix index against the full-scan oracles.

Trees are drawn as a random set of full branches (a valid prefix-closed
tree), then damaged: a few nodes dropped (missing prefixes, dead ends, a
missing root) and a few arbitrary nodes added (too deep, value out of range,
orphaned).  On every such tree the indexed queries must agree with the
scans in conftest.
"""

import itertools

from hypothesis import assume, given, settings, strategies as st

from slalomcover.conditions import NormedTree, ProductCondition, level
from slalomcover.extraction import (FiniteName, decides, property_III,
                                    property_V)
from slalomcover.scales import BoundFn

from conftest import (naive_decides, naive_node_norm, naive_split_index,
                      naive_split_nodes, naive_splits_decided, naive_stem,
                      naive_succ, naive_violations)

# level 0 draws one value past f(0) = 3 of the game triple
VALUES = (range(4), range(3), range(3))


def universe(depth):
    """Every tuple of length at most depth+1 over VALUES."""
    return [t for m in range(depth + 2)
            for t in itertools.product(*VALUES[:m])]


@st.composite
def damaged_trees(draw, triple, depth):
    full = list(itertools.product(*VALUES[:depth]))
    branches = draw(st.sets(st.sampled_from(full), min_size=1, max_size=6))
    nodes = {br[:m] for br in branches for m in range(depth + 1)}
    dropped = draw(st.sets(st.sampled_from(sorted(nodes)), max_size=2))
    added = draw(st.sets(st.sampled_from(universe(depth)), max_size=2))
    nodes = (nodes - dropped) | added
    assume(nodes)
    return NormedTree(depth, triple, frozenset(nodes))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tree_queries_match_full_scans(game_triple, data):
    depth = data.draw(st.integers(1, 2))
    tree = data.draw(damaged_trees(game_triple, depth))
    for node in universe(depth):
        assert tree.succ(node) == naive_succ(tree, node)
        assert tree.split_index(node) == naive_split_index(tree, node)
        if naive_succ(tree, node) and len(node) < depth:
            assert tree.node_norm(node) == naive_node_norm(tree, node)
    assert tree.split_nodes() == naive_split_nodes(tree)
    assert tree.stem() == naive_stem(tree)
    assert tree.violations() == naive_violations(tree)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decisions_match_full_scans(game_triple, data):
    depth = data.draw(st.integers(1, 2))
    coords = ("a", "b")[:data.draw(st.integers(1, 2))]
    p = ProductCondition(tuple((c, data.draw(damaged_trees(game_triple, depth)))
                               for c in coords))
    bound = (2, 2)[:depth]
    value = st.tuples(*(st.integers(0, b - 1) for b in bound))
    labels = tuple((br, data.draw(value)) for br in level(p, depth).tuples)
    tau = FiniteName(p, labels, BoundFn(bound))
    for m in range(depth + 1):
        for eta_bar in level(p, m).tuples:
            for k in range(depth + 1):
                assert decides(p, eta_bar, tau, k) == naive_decides(p, eta_bar, tau, k)
    assert property_V(p, tau) == naive_splits_decided(p, tau, 0)
    assert property_III(p, tau) == naive_splits_decided(p, tau, 1)
