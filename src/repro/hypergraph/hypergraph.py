"""Static pin-level hypergraph structure.

Nodes come in three kinds sharing one pin interface:

* ``CELL`` -- a mapped CLB: input pins, one or two output pins, per-output
  support (the adjacency-vector information of the paper's Section II),
  CLB weight 1.
* ``PI`` / ``PO`` -- terminal nodes (the paper's Y set): a primary input is a
  node with one output pin, a primary output a node with one input pin.
  Terminals weigh 0 CLBs and 1 IOB.

Nets record every pin they touch as ``(node, direction, pin_index)``; a node
may contribute several pins to the same net (e.g. a CLB whose registered
output feeds back into its own input), which the partitioning engines handle
by counting pins, not nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Pin direction constants used in :attr:`Net.pins`.
PIN_IN = 0
PIN_OUT = 1


class NodeKind(enum.Enum):
    CELL = "cell"
    PI = "pi"
    PO = "po"


@dataclass(slots=True)
class Node:
    """One hypergraph node (cell or terminal).

    ``weight`` is the CLB count of one instance; it is 1 for mapped cells
    and larger for the coarse super-nodes built by
    :func:`repro.partition.reference.coarsen_once`.

    ``__slots__`` (via ``slots=True``) keeps the per-node memory footprint
    flat and attribute access fast; these objects number in the tens of
    thousands on large circuits and sit on every traversal path.
    """

    index: int
    name: str
    kind: NodeKind
    input_nets: List[int] = field(default_factory=list)
    output_nets: List[int] = field(default_factory=list)
    supports: List[Tuple[int, ...]] = field(default_factory=list)
    weight: int = 1

    @property
    def clb_weight(self) -> int:
        """CLBs consumed by one instance of this node."""
        return self.weight if self.kind is NodeKind.CELL else 0

    @property
    def iob_weight(self) -> int:
        """IOBs consumed by this node (terminals are pads)."""
        return 0 if self.kind is NodeKind.CELL else 1

    @property
    def n_inputs(self) -> int:
        return len(self.input_nets)

    @property
    def n_outputs(self) -> int:
        return len(self.output_nets)

    @property
    def is_cell(self) -> bool:
        return self.kind is NodeKind.CELL

    def adjacency_vector(self, output_index: int) -> Tuple[int, ...]:
        """The paper's A_Xi: which input pins output ``output_index`` depends on."""
        members = set(self.supports[output_index])
        return tuple(
            1 if pin in members else 0 for pin in range(len(self.input_nets))
        )

    def exclusive_inputs(self, output_index: int) -> Tuple[int, ...]:
        """Input pin indices that support *only* ``output_index``."""
        others: set = set()
        for oi, sup in enumerate(self.supports):
            if oi != output_index:
                others.update(sup)
        return tuple(p for p in self.supports[output_index] if p not in others)

    def adjacent_nets(self) -> List[int]:
        """Distinct nets this node touches (inputs first, stable order)."""
        seen: Dict[int, None] = {}
        for net in self.input_nets:
            seen.setdefault(net, None)
        for net in self.output_nets:
            seen.setdefault(net, None)
        return list(seen)


@dataclass(slots=True)
class Net:
    """One hyperedge; pins are ``(node_index, direction, pin_index)``."""

    index: int
    name: str
    pins: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def degree(self) -> int:
        return len(self.pins)

    def node_indices(self) -> List[int]:
        seen: Dict[int, None] = {}
        for node, _, _ in self.pins:
            seen.setdefault(node, None)
        return list(seen)


class Hypergraph:
    """An immutable-after-build hypergraph of nodes and nets."""

    def __init__(self, name: str = "hypergraph") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.nets: List[Net] = []
        self._net_by_name: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, kind: NodeKind) -> Node:
        node = Node(index=len(self.nodes), name=name, kind=kind)
        self.nodes.append(node)
        return node

    def add_net(self, name: str) -> Net:
        if name in self._net_by_name:
            raise ValueError(f"duplicate net {name!r}")
        net = Net(index=len(self.nets), name=name)
        self.nets.append(net)
        self._net_by_name[name] = net.index
        return net

    def net_index(self, name: str) -> int:
        return self._net_by_name[name]

    def connect_input(self, node: Node, net: Net) -> int:
        """Attach ``net`` to a new input pin of ``node``; returns the pin index."""
        pin = len(node.input_nets)
        node.input_nets.append(net.index)
        net.pins.append((node.index, PIN_IN, pin))
        return pin

    def connect_output(self, node: Node, net: Net) -> int:
        """Attach ``net`` to a new output pin of ``node``; returns the pin index."""
        pin = len(node.output_nets)
        node.output_nets.append(net.index)
        net.pins.append((node.index, PIN_OUT, pin))
        return pin

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return sum(1 for n in self.nodes if n.is_cell)

    @property
    def n_terminals(self) -> int:
        return sum(1 for n in self.nodes if not n.is_cell)

    def cell_indices(self) -> List[int]:
        return [n.index for n in self.nodes if n.is_cell]

    def terminal_indices(self) -> List[int]:
        return [n.index for n in self.nodes if not n.is_cell]

    def total_clb_weight(self) -> int:
        return sum(n.clb_weight for n in self.nodes)

    def check(self) -> None:
        """Internal consistency checks; raises ``ValueError`` on violation."""
        for node in self.nodes:
            if node.is_cell:
                if not node.output_nets:
                    raise ValueError(f"cell {node.name!r} has no outputs")
                if len(node.supports) != len(node.output_nets):
                    raise ValueError(
                        f"cell {node.name!r}: supports/outputs length mismatch"
                    )
                for sup in node.supports:
                    for pin in sup:
                        if not 0 <= pin < len(node.input_nets):
                            raise ValueError(
                                f"cell {node.name!r}: support pin {pin} out of range"
                            )
            elif node.kind is NodeKind.PI:
                if node.input_nets or len(node.output_nets) != 1:
                    raise ValueError(f"PI terminal {node.name!r} malformed")
            elif node.kind is NodeKind.PO:
                if node.output_nets or len(node.input_nets) != 1:
                    raise ValueError(f"PO terminal {node.name!r} malformed")
        for net in self.nets:
            drivers = [p for p in net.pins if p[1] == PIN_OUT]
            # Terminal-free builds legitimately leave PI-driven nets without
            # a driver pin inside the graph; multiple drivers are always bugs.
            if len(drivers) > 1:
                raise ValueError(
                    f"net {net.name!r} has {len(drivers)} drivers (expected <= 1)"
                )
            if not net.pins:
                raise ValueError(f"net {net.name!r} has no pins")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hypergraph({self.name!r}: {self.n_cells} cells, "
            f"{self.n_terminals} terminals, {len(self.nets)} nets)"
        )
