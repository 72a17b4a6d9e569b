"""Unit tests for the multicast-tree builders."""

import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.sim.tree import (
    full_binary_tree,
    full_kary_tree,
    leaves_of,
    linear_chain,
    path_to_root,
    random_multicast_tree,
    star_topology,
)


class TestFullKaryTree:
    @pytest.mark.parametrize("depth,arity", [(0, 2), (3, 2), (2, 3), (4, 2)])
    def test_node_and_leaf_counts(self, depth, arity):
        tree = full_kary_tree(depth, arity)
        expected_nodes = sum(arity**level for level in range(depth + 1))
        assert tree.number_of_nodes() == expected_nodes
        assert len(leaves_of(tree)) == arity**depth

    def test_is_arborescence(self):
        assert nx.is_arborescence(full_kary_tree(3, 3))

    def test_binary_alias(self):
        assert nx.utils.graphs_equal(full_binary_tree(3), full_kary_tree(3, 2))

    def test_depth_zero(self):
        tree = full_kary_tree(0)
        assert list(tree.nodes) == [0]
        assert leaves_of(tree) == [0]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            full_kary_tree(-1)
        with pytest.raises(ValueError):
            full_kary_tree(2, 0)

    def test_path_lengths_equal_depth(self):
        depth = 4
        tree = full_binary_tree(depth)
        for leaf in leaves_of(tree):
            assert len(path_to_root(tree, leaf)) == depth + 1


class TestOtherShapes:
    def test_linear_chain(self):
        chain = linear_chain(5)
        assert leaves_of(chain) == [5]
        assert len(path_to_root(chain, 5)) == 6

    def test_linear_chain_zero(self):
        assert leaves_of(linear_chain(0)) == [0]

    def test_star(self):
        star = star_topology(10)
        assert leaves_of(star) == list(range(1, 11))
        assert all(len(path_to_root(star, r)) == 2 for r in range(1, 11))

    def test_star_invalid(self):
        with pytest.raises(ValueError):
            star_topology(0)

    def test_random_tree_has_requested_receivers(self):
        rng = np.random.default_rng(9)
        tree = random_multicast_tree(25, rng)
        assert nx.is_arborescence(tree)
        assert len(leaves_of(tree)) >= 25

    def test_random_tree_respects_fanout_during_growth(self):
        rng = np.random.default_rng(10)
        tree = random_multicast_tree(40, rng, max_children=3)
        assert nx.is_arborescence(tree)

    def test_path_to_root_rejects_multi_parent(self):
        graph = nx.DiGraph([(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="multiple parents"):
            path_to_root(graph, 2)


class TestLazyNetworkx:
    def test_import_repro_does_not_import_networkx(self):
        """Every ledger child and MC pool worker imports repro;
        only the tree builders and TreeLoss may pay for networkx."""
        code = (
            "import sys\n"
            "import repro\n"
            "assert 'networkx' not in sys.modules, 'import repro loaded networkx'\n"
            "from repro.sim.tree import full_binary_tree, leaves_of\n"
            "tree = full_binary_tree(3)\n"
            "import networkx as nx\n"
            "assert nx.is_arborescence(tree)\n"
            "assert len(leaves_of(tree)) == 8\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
