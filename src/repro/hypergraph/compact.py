"""Compact CSR (compressed sparse row) hypergraph representation.

The object-graph :class:`~repro.hypergraph.hypergraph.Hypergraph` is
convenient to build and inspect but slow to traverse: the partitioning
inner loops spend most of their time walking node→net and net→node
incidence.  :class:`CompactHypergraph` flattens both directions into int
arrays once, after which every traversal is a contiguous slice:

* ``node_net_start[v] : node_net_start[v + 1]`` indexes the *distinct*
  nets of node ``v`` in ``node_nets`` with the per-net pin count in
  ``node_net_counts`` (a node may contribute several pins to one net,
  e.g. a CLB output feeding back into its own input);
* ``net_node_start[e] : net_node_start[e + 1]`` indexes the distinct
  nodes of net ``e`` in ``net_nodes`` with the matching pin counts in
  ``net_node_counts``;
* ``net_maxk[e]`` is the largest per-node pin count on net ``e`` -- the
  "critical window" bound used by the FM engines to skip gain updates on
  nets whose side counts are too large to matter.

Orderings are load-bearing: ``node_nets`` lists nets in first-occurrence
order over the node's input pins then output pins, and ``net_nodes``
lists nodes in ascending node index.  These match the traversal orders of
the pre-optimization engines exactly, which is what lets the CSR-based
engines reproduce their results bit for bit.

A ``CompactHypergraph`` is immutable by convention and safe to share:
plain-FM and V-cycle multi-start runs build one per hypergraph and hand
the same instance to every run.  The k-way carver's candidates share
``ReplicationTables`` per carve level; a multilevel carve scan also
builds one ``CompactHypergraph`` per level for its V-cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph


class CompactHypergraph:
    """Flat-array view of a :class:`Hypergraph`, built once, shared read-only."""

    __slots__ = (
        "n_nodes",
        "n_nets",
        "node_net_start",
        "node_nets",
        "node_net_counts",
        "net_node_start",
        "net_nodes",
        "net_node_counts",
        "net_maxk",
        "weights",
        "is_cell",
        "max_degree",
    )

    def __init__(
        self,
        n_nodes: int,
        n_nets: int,
        node_net_start: List[int],
        node_nets: List[int],
        node_net_counts: List[int],
        net_node_start: List[int],
        net_nodes: List[int],
        net_node_counts: List[int],
        net_maxk: List[int],
        weights: List[int],
        is_cell: List[bool],
    ) -> None:
        self.n_nodes = n_nodes
        self.n_nets = n_nets
        self.node_net_start = node_net_start
        self.node_nets = node_nets
        self.node_net_counts = node_net_counts
        self.net_node_start = net_node_start
        self.net_nodes = net_nodes
        self.net_node_counts = net_node_counts
        self.net_maxk = net_maxk
        self.weights = weights
        self.is_cell = is_cell
        self.max_degree = max(
            (node_net_start[v + 1] - node_net_start[v] for v in range(n_nodes)),
            default=0,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_hypergraph(cls, hg: Hypergraph) -> "CompactHypergraph":
        return cls.from_pins(
            (node.input_nets + node.output_nets for node in hg.nodes),
            len(hg.nets),
            [node.clb_weight for node in hg.nodes],
            [node.is_cell for node in hg.nodes],
        )

    @classmethod
    def from_pins(
        cls,
        pins: Iterable[Sequence[int]],
        n_nets: int,
        weights: List[int],
        is_cell: List[bool],
        net_maxk: Optional[List[int]] = None,
    ) -> "CompactHypergraph":
        """Flatten per-node pin lists into the CSR arrays.

        ``pins`` yields, in node index order, each node's pins as net
        indices: input pins, then output pins, a net repeated once per pin
        it has on the node.  ``net_maxk`` defaults to the largest per-node
        pin count of each net; a caller that folds several nodes' pins into
        one node passes the bound of the unfolded nodes instead.
        """
        n_nodes = len(weights)
        node_net_start = [0] * (n_nodes + 1)
        node_nets: List[int] = []
        node_net_counts: List[int] = []
        maxk = [0] * n_nets
        net_degree = [0] * n_nets

        for v, node_pins in enumerate(pins):
            counts: Dict[int, int] = {}
            for net in node_pins:
                counts[net] = counts.get(net, 0) + 1
            for net, k in counts.items():
                node_nets.append(net)
                node_net_counts.append(k)
                net_degree[net] += 1
                if k > maxk[net]:
                    maxk[net] = k
            node_net_start[v + 1] = len(node_nets)

        # Transpose into net→node CSR, preserving ascending node order.
        net_node_start = [0] * (n_nets + 1)
        acc = 0
        for e in range(n_nets):
            net_node_start[e] = acc
            acc += net_degree[e]
        net_node_start[n_nets] = acc
        net_nodes = [0] * acc
        net_node_counts = [0] * acc
        cursor = list(net_node_start[:n_nets])
        for v in range(n_nodes):
            for i in range(node_net_start[v], node_net_start[v + 1]):
                e = node_nets[i]
                j = cursor[e]
                net_nodes[j] = v
                net_node_counts[j] = node_net_counts[i]
                cursor[e] = j + 1

        return cls(
            n_nodes,
            n_nets,
            node_net_start,
            node_nets,
            node_net_counts,
            net_node_start,
            net_nodes,
            net_node_counts,
            maxk if net_maxk is None else net_maxk,
            weights,
            is_cell,
        )

    # ------------------------------------------------------------------
    # Convenience views (tests / debugging; not used on hot paths)
    # ------------------------------------------------------------------
    def node_pin_pairs(self, v: int) -> List[Tuple[int, int]]:
        """Distinct ``(net, pin count)`` pairs of node ``v``."""
        lo, hi = self.node_net_start[v], self.node_net_start[v + 1]
        return list(zip(self.node_nets[lo:hi], self.node_net_counts[lo:hi]))

    def net_members(self, e: int) -> List[Tuple[int, int]]:
        """Distinct ``(node, pin count)`` pairs of net ``e``."""
        lo, hi = self.net_node_start[e], self.net_node_start[e + 1]
        return list(zip(self.net_nodes[lo:hi], self.net_node_counts[lo:hi]))

    def total_pins(self) -> int:
        return sum(self.node_net_counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactHypergraph({self.n_nodes} nodes, {self.n_nets} nets, "
            f"{len(self.node_nets)} incidences)"
        )
