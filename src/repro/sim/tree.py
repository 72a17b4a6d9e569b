"""Multicast-tree builders.

Section 4.1 models the multicast distribution tree as a full binary tree
(FBT) with the source at the root and receivers at the leaves.  This module
builds that tree — and a few other shapes useful for sensitivity studies —
as ``networkx`` arborescences that plug into
:class:`repro.sim.loss.TreeLoss`.

Node naming: the root is ``0``; children of node ``v`` in a ``b``-ary tree
are ``b*v + 1 .. b*v + b``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "full_binary_tree",
    "full_kary_tree",
    "linear_chain",
    "star_topology",
    "random_multicast_tree",
    "leaves_of",
    "path_to_root",
]


def _root_only() -> nx.DiGraph:
    """A new out-tree holding only the root, node 0.

    Every builder starts here, and this is where ``networkx`` is imported:
    it costs ~135 ms and only the builders and ``TreeLoss`` need it, so
    ``import repro`` (every MC pool worker) stays cheap.
    """
    import networkx as nx

    tree = nx.DiGraph()
    tree.add_node(0)
    return tree


def full_kary_tree(depth: int, arity: int = 2) -> nx.DiGraph:
    """Full ``arity``-ary out-tree of height ``depth`` (root = node 0)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    tree = _root_only()
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            for j in range(1, arity + 1):
                child = arity * node + j
                tree.add_edge(node, child)
                next_frontier.append(child)
        frontier = next_frontier
    return tree


def full_binary_tree(depth: int) -> nx.DiGraph:
    """The paper's FBT of height ``depth`` with ``2**depth`` leaves."""
    return full_kary_tree(depth, arity=2)


def linear_chain(length: int) -> nx.DiGraph:
    """A degenerate tree: a chain of ``length`` hops ending in one receiver.

    The extreme case of fully shared loss the paper mentions (all losses
    shared by all receivers behave like a single receiver).
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    tree = _root_only()
    for i in range(length):
        tree.add_edge(i, i + 1)
    return tree


def star_topology(n_receivers: int) -> nx.DiGraph:
    """Source directly connected to every receiver: zero shared loss.

    With per-node loss this reduces to the independent-loss model, which is
    handy for cross-validating :class:`repro.sim.loss.TreeLoss` against
    :class:`repro.sim.loss.BernoulliLoss`.
    """
    if n_receivers < 1:
        raise ValueError(f"need at least one receiver, got {n_receivers}")
    tree = _root_only()
    for r in range(1, n_receivers + 1):
        tree.add_edge(0, r)
    return tree


def random_multicast_tree(
    n_receivers: int,
    rng: np.random.Generator,
    max_children: int = 4,
) -> nx.DiGraph:
    """A random out-tree with ``n_receivers`` leaves.

    Grows the tree by attaching each new internal-or-leaf node to a uniformly
    chosen existing node that still has capacity — a crude but serviceable
    stand-in for "real" multicast trees in sensitivity experiments.
    """
    if n_receivers < 1:
        raise ValueError(f"need at least one receiver, got {n_receivers}")
    if max_children < 2:
        raise ValueError("max_children must be >= 2 to grow beyond a chain")
    tree = _root_only()
    open_nodes = [0]
    next_id = 1
    # First grow a random internal skeleton, then hang receivers off it.
    n_internal = max(1, n_receivers // 2)
    for _ in range(n_internal):
        parent = open_nodes[rng.integers(len(open_nodes))]
        tree.add_edge(parent, next_id)
        open_nodes.append(next_id)
        if tree.out_degree(parent) >= max_children:
            open_nodes.remove(parent)
        next_id += 1
    internal = list(tree.nodes)
    for _ in range(n_receivers):
        parent = internal[rng.integers(len(internal))]
        tree.add_edge(parent, next_id)
        next_id += 1
    return tree


def leaves_of(tree: nx.DiGraph) -> list:
    """Leaves of an out-tree in sorted order (the receiver set)."""
    return sorted(node for node in tree if tree.out_degree(node) == 0)


def path_to_root(tree: nx.DiGraph, node) -> list:
    """Nodes from ``node`` up to (and including) the root."""
    path = [node]
    while True:
        parents = list(tree.predecessors(path[-1]))
        if not parents:
            return path
        if len(parents) > 1:
            raise ValueError("not a tree: node has multiple parents")
        path.append(parents[0])
