"""Topology metrics and broadcast spanning trees, incl. property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology import FatTreeTopology, HypercubeTopology, make_topology


class TestHypercube:
    def test_hops_is_hamming_distance(self):
        t = HypercubeTopology(8)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 7) == 3
        assert t.hops(5, 6) == 2

    def test_out_of_range_rejected(self):
        t = HypercubeTopology(4)
        with pytest.raises(TopologyError):
            t.hops(0, 4)
        with pytest.raises(TopologyError):
            t.hops(-1, 0)

    def test_diameter(self):
        assert HypercubeTopology(8).diameter() == 3
        assert HypercubeTopology(16).diameter() == 4


class TestFatTree:
    def test_same_node_zero(self):
        t = FatTreeTopology(16)
        assert t.hops(3, 3) == 0

    def test_siblings_two_hops(self):
        t = FatTreeTopology(16)
        assert t.hops(0, 1) == 2
        assert t.hops(0, 3) == 2

    def test_cross_subtree_more_hops(self):
        t = FatTreeTopology(16)
        assert t.hops(0, 4) == 4
        assert t.hops(0, 15) == 4

    def test_symmetry(self):
        t = FatTreeTopology(64)
        for a, b in [(0, 63), (5, 7), (12, 48)]:
            assert t.hops(a, b) == t.hops(b, a)


class TestSpanningTree:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64])
    @pytest.mark.parametrize("root", [0, 1])
    def test_tree_covers_every_node_exactly_once(self, size, root):
        if root >= size:
            pytest.skip("root outside partition")
        t = HypercubeTopology(size)
        seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in t.spanning_tree_children(root, node):
                assert child not in seen, "node reached twice"
                seen.add(child)
                frontier.append(child)
        assert seen == set(range(size))

    def test_parent_child_consistency(self):
        t = FatTreeTopology(16)
        for root in (0, 5):
            for me in range(16):
                for child in t.spanning_tree_children(root, me):
                    assert t.spanning_tree_parent(root, child) == me

    def test_root_has_no_parent(self):
        t = HypercubeTopology(8)
        assert t.spanning_tree_parent(3, 3) is None

    def test_tree_depth_is_logarithmic(self):
        t = HypercubeTopology(64)

        def depth(root, me):
            d = 0
            while me != root:
                me = t.spanning_tree_parent(root, me)
                d += 1
            return d

        assert max(depth(0, m) for m in range(64)) <= 6

    @given(
        size=st.integers(min_value=1, max_value=80),
        root_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_every_tree_is_a_spanning_tree(self, size, root_seed):
        root = root_seed % size
        t = HypercubeTopology(size)
        seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in t.spanning_tree_children(root, node):
                assert child not in seen
                seen.add(child)
                frontier.append(child)
        assert seen == set(range(size))
        # and parents agree
        for me in range(size):
            if me != root:
                p = t.spanning_tree_parent(root, me)
                assert me in t.spanning_tree_children(root, p)


class TestFactory:
    def test_make_topology(self):
        assert isinstance(make_topology("fattree", 4), FatTreeTopology)
        assert isinstance(make_topology("hypercube", 4), HypercubeTopology)
        with pytest.raises(TopologyError):
            make_topology("torus", 4)
        with pytest.raises(TopologyError):
            make_topology("fattree", 0)
