"""The mapped netlist: multi-output CLB cells with adjacency vectors.

This is the circuit representation the paper's algorithms actually operate
on (its hypergraph H = ({X; Y}, E) is built from it): a set of cells (one
XC3000 CLB each) with one or two outputs, per-output input support --- the
**adjacency vectors** of Section II --- plus IOB terminals for primary I/O.

The mapped netlist keeps full truth tables, so it is simulatable; tests use
this to prove the mapping pipeline preserves circuit functionality.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.netlist import Netlist
from repro.techmap.cover import cover_netlist
from repro.techmap.decompose import decompose_netlist
from repro.techmap.pack import pack_cells


@dataclass
class MappedCell:
    """One technology-mapped cell (one CLB).

    Attributes
    ----------
    name: unique cell name.
    inputs: ordered distinct input net names (the cell's input pins).
    outputs: output net names (1 or 2; the cell's output pins).
    supports: per-output list of input nets the output depends on.
    masks: per-output truth table over the output's own support.
    registered: per-output flag; True when the output is a flip-flop Q.
    """

    name: str
    inputs: List[str]
    outputs: List[str]
    supports: List[List[str]]
    masks: List[int]
    registered: List[bool]

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def n_pins(self) -> int:
        return len(self.inputs) + len(self.outputs)

    def adjacency_vector(self, output_index: int) -> Tuple[int, ...]:
        """The paper's adjacency vector A_Xi over the cell's input pins."""
        support = set(self.supports[output_index])
        return tuple(1 if net in support else 0 for net in self.inputs)

    def adjacency_vectors(self) -> List[Tuple[int, ...]]:
        return [self.adjacency_vector(i) for i in range(len(self.outputs))]

    def evaluate_output(self, output_index: int, values: Mapping[str, int]) -> int:
        """Evaluate one output's function on named input values."""
        index = 0
        for bit, net in enumerate(self.supports[output_index]):
            if values[net]:
                index |= 1 << bit
        return (self.masks[output_index] >> index) & 1


class MappedNetlist:
    """A technology-mapped circuit: cells + IOB terminals + nets."""

    def __init__(
        self,
        name: str,
        cells: Sequence[MappedCell],
        primary_inputs: Sequence[str],
        primary_outputs: Sequence[str],
    ) -> None:
        self.name = name
        self.cells: List[MappedCell] = list(cells)
        self.primary_inputs: List[str] = list(primary_inputs)
        self.primary_outputs: List[str] = list(primary_outputs)
        self._cell_of_output: Dict[str, Tuple[int, int]] = {}
        for ci, cell in enumerate(self.cells):
            for oi, net in enumerate(cell.outputs):
                if net in self._cell_of_output:
                    raise ValueError(f"net {net!r} has two drivers")
                self._cell_of_output[net] = (ci, oi)
        self._validate()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        pi_set = set(self.primary_inputs)
        for cell in self.cells:
            for net in cell.inputs:
                if net not in self._cell_of_output and net not in pi_set:
                    raise ValueError(
                        f"cell {cell.name!r} input {net!r} has no driver"
                    )
        for po in self.primary_outputs:
            if po not in self._cell_of_output and po not in pi_set:
                raise ValueError(f"primary output {po!r} has no driver")

    def driver(self, net: str) -> Optional[Tuple[int, int]]:
        """(cell index, output index) driving ``net``; None for PIs."""
        return self._cell_of_output.get(net)

    def net_sinks(self) -> Dict[str, List[Tuple[int, int]]]:
        """Map net -> list of (cell index, input pin index) readers."""
        sinks: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
        for ci, cell in enumerate(self.cells):
            for pi_idx, net in enumerate(cell.inputs):
                sinks[net].append((ci, pi_idx))
        return dict(sinks)

    def nets(self) -> Dict[str, Dict[str, object]]:
        """All live nets with their driver and sinks.

        A net is live when it has at least one reader (cell pin or PO).
        Returns ``{net: {"driver": ("pi", name) | ("cell", ci, oi),
        "sinks": [(ci, pin_idx), ...], "is_po": bool}}``.
        """
        sinks = self.net_sinks()
        po_set = set(self.primary_outputs)
        result: Dict[str, Dict[str, object]] = {}
        # Read nets first, then reader-less POs, each in declaration
        # order: net numbering downstream must not depend on set order.
        for net in [*sinks, *(po for po in self.primary_outputs if po not in sinks)]:
            drv = self._cell_of_output.get(net)
            driver = ("cell", drv[0], drv[1]) if drv else ("pi", net)
            result[net] = {
                "driver": driver,
                "sinks": sinks.get(net, []),
                "is_po": net in po_set,
            }
        return result

    # ------------------------------------------------------------------
    # Table II quantities
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_iobs(self) -> int:
        return len(self.primary_inputs) + len(self.primary_outputs)

    @property
    def n_dff(self) -> int:
        return sum(sum(cell.registered) for cell in self.cells)

    @property
    def n_nets(self) -> int:
        return len(self.nets())

    @property
    def n_pins(self) -> int:
        return sum(cell.n_pins for cell in self.cells) + self.n_iobs

    @property
    def n_multi_output_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.n_outputs > 1)

    # ------------------------------------------------------------------
    # Simulation (for mapping verification)
    # ------------------------------------------------------------------
    def _output_order(self) -> List[Tuple[int, int]]:
        """Topological order over combinational cell outputs."""
        indeg: Dict[Tuple[int, int], int] = {}
        dependents: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
        for ci, cell in enumerate(self.cells):
            for oi in range(cell.n_outputs):
                if cell.registered[oi]:
                    continue
                node = (ci, oi)
                count = 0
                for net in cell.supports[oi]:
                    drv = self._cell_of_output.get(net)
                    if drv is not None and not self.cells[drv[0]].registered[drv[1]]:
                        count += 1
                        dependents[drv].append(node)
                indeg[node] = count
        order: List[Tuple[int, int]] = []
        queue = deque(node for node, d in indeg.items() if d == 0)
        while queue:
            node = queue.popleft()
            order.append(node)
            for dep in dependents.get(node, ()):
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    queue.append(dep)
        if len(order) != len(indeg):
            raise ValueError("combinational cycle in mapped netlist")
        return order

    def simulate(
        self,
        input_vectors: Sequence[Mapping[str, int]],
        initial_state: Optional[Mapping[str, int]] = None,
    ) -> List[Dict[str, int]]:
        """Cycle-accurate simulation mirroring :meth:`Netlist.simulate`."""
        state: Dict[str, int] = {}
        for cell in self.cells:
            for oi, reg in enumerate(cell.registered):
                if reg:
                    state[cell.outputs[oi]] = 0
        if initial_state:
            for key, val in initial_state.items():
                if key not in state:
                    raise KeyError(f"unknown state net {key!r}")
                state[key] = int(val)
        order = self._output_order()
        results: List[Dict[str, int]] = []
        for vec in input_vectors:
            values: Dict[str, int] = dict(state)
            for pi in self.primary_inputs:
                values[pi] = int(vec[pi])
            for ci, oi in order:
                cell = self.cells[ci]
                values[cell.outputs[oi]] = cell.evaluate_output(oi, values)
            results.append({po: values[po] for po in self.primary_outputs})
            next_state: Dict[str, int] = {}
            for cell in self.cells:
                for oi, reg in enumerate(cell.registered):
                    if reg:
                        next_state[cell.outputs[oi]] = cell.evaluate_output(oi, values)
            state = next_state
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappedNetlist({self.name!r}: {self.n_cells} CLBs, "
            f"{self.n_iobs} IOBs, {self.n_dff} DFF, {self.n_nets} nets)"
        )


def technology_map(
    netlist: Netlist,
    k: int = 5,
    max_function_inputs: int = 4,
    pair: bool = True,
    mapper: str = "area",
) -> MappedNetlist:
    """Map a gate-level netlist into XC3000-style CLB cells.

    Runs decomposition, LUT covering and CLB packing; returns the
    :class:`MappedNetlist`.  ``pair=False`` disables two-output cells
    (ablation switch; functional replication then degenerates to the
    traditional kind).  ``mapper`` selects the covering algorithm:
    ``"area"`` (duplication-free greedy, the default and the paper's
    setting) or ``"depth"`` (FlowMap, depth-optimal with duplication; see
    :mod:`repro.techmap.flowmap` -- quadratic, for small/medium circuits).
    """
    decomposed = decompose_netlist(netlist, max_fanin=min(4, k - 1))
    if mapper == "area":
        luts = cover_netlist(decomposed, k=k)
    elif mapper == "depth":
        from repro.techmap.flowmap import flowmap_cover

        luts, _ = flowmap_cover(decomposed, k=k)
    else:
        raise ValueError(f"unknown mapper {mapper!r} (use 'area' or 'depth')")
    specs = pack_cells(
        decomposed,
        luts,
        max_cell_inputs=k,
        max_function_inputs=max_function_inputs,
        pair=pair,
    )
    cells = [
        MappedCell(
            name=f"clb{idx}",
            inputs=spec.inputs,
            outputs=spec.outputs,
            supports=[list(fn.support) for fn in spec.functions],
            masks=[fn.mask for fn in spec.functions],
            registered=[fn.registered for fn in spec.functions],
        )
        for idx, spec in enumerate(specs)
    ]
    return MappedNetlist(
        name=netlist.name,
        cells=cells,
        primary_inputs=list(netlist.inputs),
        primary_outputs=list(netlist.outputs),
    )
