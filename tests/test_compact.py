"""Invariants of the CSR :class:`CompactHypergraph` representation."""

import random

import pytest

from repro.hypergraph.compact import CompactHypergraph
from tests.test_gain_model import _random_hypergraph


@pytest.fixture(scope="module", params=[0, 1, 2, 5])
def pair(request):
    hg = _random_hypergraph(random.Random(request.param * 7919 + 13))
    return hg, CompactHypergraph.from_hypergraph(hg)


def test_shapes(pair):
    hg, csr = pair
    assert csr.n_nodes == len(hg.nodes)
    assert csr.n_nets == len(hg.nets)
    assert len(csr.node_net_start) == csr.n_nodes + 1
    assert len(csr.net_node_start) == csr.n_nets + 1
    assert len(csr.node_nets) == len(csr.node_net_counts)
    assert len(csr.net_nodes) == len(csr.net_node_counts)
    # Both directions index the same incidence set.
    assert len(csr.node_nets) == len(csr.net_nodes)


def test_offsets_monotone(pair):
    _, csr = pair
    for arr in (csr.node_net_start, csr.net_node_start):
        assert arr[0] == 0
        assert all(a <= b for a, b in zip(arr, arr[1:]))
    assert csr.node_net_start[-1] == len(csr.node_nets)
    assert csr.net_node_start[-1] == len(csr.net_nodes)


def test_node_rows_match_object_graph(pair):
    hg, csr = pair
    for node in hg.nodes:
        expect = {}
        for net in list(node.input_nets) + list(node.output_nets):
            expect[net] = expect.get(net, 0) + 1
        pairs = csr.node_pin_pairs(node.index)
        # First-occurrence order over inputs then outputs, counts exact.
        assert pairs == list(expect.items())


def test_node_net_order_is_first_occurrence(pair):
    hg, csr = pair
    for node in hg.nodes:
        seen = dict.fromkeys(list(node.input_nets) + list(node.output_nets))
        assert [net for net, _ in csr.node_pin_pairs(node.index)] == list(seen)


def test_net_rows_are_transpose(pair):
    hg, csr = pair
    for e in range(csr.n_nets):
        members = csr.net_members(e)
        nodes = [v for v, _ in members]
        assert nodes == sorted(nodes)  # ascending node order
        for v, k in members:
            assert (e, k) in csr.node_pin_pairs(v)


def test_net_maxk(pair):
    _, csr = pair
    for e in range(csr.n_nets):
        counts = [k for _, k in csr.net_members(e)]
        assert csr.net_maxk[e] == (max(counts) if counts else 0)


def test_weights_and_kinds(pair):
    hg, csr = pair
    assert csr.weights == [n.clb_weight for n in hg.nodes]
    assert csr.is_cell == [n.is_cell for n in hg.nodes]
    assert csr.total_pins() == sum(
        len(n.input_nets) + len(n.output_nets) for n in hg.nodes
    )


def test_max_degree(pair):
    hg, csr = pair
    degrees = [len(csr.node_pin_pairs(v)) for v in range(csr.n_nodes)]
    assert csr.max_degree == (max(degrees) if degrees else 0)


def test_from_pins_counts_repeated_pins():
    # Node 0 has two pins on net 0; node 1 three on net 1.
    csr = CompactHypergraph.from_pins(
        [[0, 1, 0], [1, 1, 1]], 2, [1, 0], [True, False]
    )
    assert csr.node_pin_pairs(0) == [(0, 2), (1, 1)]
    assert csr.node_pin_pairs(1) == [(1, 3)]
    assert csr.net_members(1) == [(0, 1), (1, 3)]
    assert csr.net_maxk == [2, 3]
    assert csr.max_degree == 2


def test_from_pins_takes_the_unfolded_maxk():
    """A node standing for several folded nodes keeps their counts on the
    nets but not their critical-window bound."""
    pins = [[0, 1, 0], [1, 1, 1]]
    csr = CompactHypergraph.from_pins(pins, 2, [1, 0], [True, False])
    folded = CompactHypergraph.from_pins(
        pins, 2, [1, 0], [True, False], net_maxk=[2, 1]
    )
    assert folded.net_maxk == [2, 1]
    for name in ("node_net_start", "node_nets", "node_net_counts",
                 "net_node_start", "net_nodes", "net_node_counts"):
        assert getattr(folded, name) == getattr(csr, name)
