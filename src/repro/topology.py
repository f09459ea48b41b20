"""Interconnect topologies: CM-5 fat-tree and binary hypercube.

Two things are needed from a topology:

1. ``hops(src, dst)`` — path length, which feeds the latency model;
2. ``spanning_tree_children(root, me)`` — the hypercube-like minimum
   spanning tree the paper uses to implement group broadcast on top of
   point-to-point active messages (Section 6.4).

The spanning tree is the classic binomial tree: relative to the root,
node ``r`` forwards to ``r | (1 << b)`` for every bit position ``b``
above ``r``'s highest set bit.  On a hypercube this is a *minimum*
spanning tree; on the CM-5 fat-tree it is the standard embedding the
paper describes as "hypercube-like".
"""

from __future__ import annotations

from typing import List

from repro.errors import TopologyError


def _check_node(n: int, size: int) -> None:
    if not (0 <= n < size):
        raise TopologyError(f"node {n} outside partition of size {size}")


class Topology:
    """Common interface for interconnect topologies."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise TopologyError(f"partition size must be >= 1, got {size}")
        self.size = size

    # -- metric --------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        raise NotImplementedError

    def diameter(self) -> int:
        """Maximum hop count over all node pairs."""
        return max(
            self.hops(s, d) for s in range(self.size) for d in range(self.size)
        )

    # -- broadcast tree --------------------------------------------------
    def spanning_tree_children(self, root: int, me: int) -> List[int]:
        """Children of ``me`` in the binomial broadcast tree rooted at
        ``root``.  Works for any partition size (non powers of two are
        handled by skipping out-of-range virtual ranks)."""
        _check_node(root, self.size)
        _check_node(me, self.size)
        rel = (me - root) % self.size
        children: List[int] = []
        bit = 1
        # The lowest set bit of `rel` bounds which bits we may add: a
        # binomial-tree node owns exactly the ranks obtained by setting
        # bits strictly below its own lowest set bit.
        limit = rel & -rel if rel else self.size
        while bit < limit and bit < _next_pow2(self.size):
            child_rel = rel | bit
            if child_rel != rel and child_rel < self.size:
                children.append((root + child_rel) % self.size)
            bit <<= 1
        return children

    def spanning_tree_parent(self, root: int, me: int) -> int | None:
        """Parent of ``me`` in the broadcast tree (None for the root)."""
        _check_node(root, self.size)
        _check_node(me, self.size)
        rel = (me - root) % self.size
        if rel == 0:
            return None
        low = rel & -rel
        return (root + (rel & ~low)) % self.size


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class HypercubeTopology(Topology):
    """Binary hypercube; ``hops`` is the Hamming distance.

    Partition sizes that are not powers of two are embedded in the next
    power-of-two cube (distance computed over the padded ranks).
    """

    def hops(self, src: int, dst: int) -> int:
        _check_node(src, self.size)
        _check_node(dst, self.size)
        return (src ^ dst).bit_count()


class FatTreeTopology(Topology):
    """CM-5-style 4-ary fat tree.

    Nodes are leaves; the hop count is twice the height of the lowest
    common ancestor in the 4-ary tree (up to the switch, back down),
    which matches the CM-5 data network's routing structure.
    """

    ARITY = 4

    def hops(self, src: int, dst: int) -> int:
        _check_node(src, self.size)
        _check_node(dst, self.size)
        if src == dst:
            return 0
        a, b, h = src, dst, 0
        while a != b:
            a //= self.ARITY
            b //= self.ARITY
            h += 1
        return 2 * h


def make_topology(kind: str, size: int) -> Topology:
    """Factory every backend's machine builds its topology with."""
    if kind == "fattree":
        return FatTreeTopology(size)
    if kind == "hypercube":
        return HypercubeTopology(size)
    raise TopologyError(f"unknown topology kind {kind!r}")
