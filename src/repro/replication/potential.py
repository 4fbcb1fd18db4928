"""Replication potential psi, cell distributions and the threshold T.

Equation (4) of the paper: for a cell with m outputs and adjacency vectors
A_X1..A_Xm, the replication potential is::

    psi = sum_i | and_{j != i} not(A_Xj) AND A_Xi |     if m > 1
    psi = 0                                             if m == 1

i.e. the number of inputs that control exactly one output.  Equation (5)
defines the cell distribution d_X(psi) over all cells (Figure 3 plots it),
and equation (6) the maximum cell replication factor r_T = sum_{psi >= T}
d_X(psi): only cells with psi >= T are replication candidates; T = 0 allows
every multi-output cell and T = infinity disables replication.

Figure 3 distinguishes single-output cells (psi = 0 by definition) from
multi-output cells that happen to have psi = 0 (all inputs shared); the
distribution report keeps the two apart the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.replication.adjacency import norm, vand, vnot

#: Threshold value meaning "replication disabled" (eq. 6's T = infinity):
#: the no-replication baseline, the "[3]" columns of Tables IV-VII.  Its
#: JSON and display spellings are :mod:`repro.request`'s.
T_INFINITY = float("inf")


def replication_potential(adjacency_vectors: Sequence[Sequence[int]]) -> int:
    """Evaluate eq. (4) on a cell's per-output adjacency vectors."""
    m = len(adjacency_vectors)
    if m == 0:
        raise ValueError("cell must have at least one output")
    if m == 1:
        return 0
    total = 0
    for i, a_i in enumerate(adjacency_vectors):
        others = [vnot(a_j) for j, a_j in enumerate(adjacency_vectors) if j != i]
        total += norm(vand(a_i, *others))
    return total


def node_potential(node) -> int:
    """Replication potential of a hypergraph cell node (0 for terminals)."""
    if not getattr(node, "is_cell", False):
        return 0
    vectors = [node.adjacency_vector(i) for i in range(node.n_outputs)]
    return replication_potential(vectors)


@dataclass
class PotentialDistribution:
    """The d_X(psi) distribution of one circuit (a Figure 3 column).

    ``single_output_zero`` counts cells with one output (psi = 0 by
    definition); ``multi_output_zero`` counts multi-output cells whose psi is
    0 (the starred category of Figure 3); ``by_potential`` histograms
    multi-output cells with psi >= 1.
    """

    name: str
    n_cells: int
    single_output_zero: int
    multi_output_zero: int
    by_potential: Dict[int, int] = field(default_factory=dict)

    def fraction(self, count: int) -> float:
        return count / self.n_cells if self.n_cells else 0.0

    def cells_with_potential_at_least(self, threshold: Union[int, float]) -> int:
        """Eq. (6): r_T, the maximum cell replication factor.

        ``threshold=0`` includes multi-output psi = 0 cells (the paper's
        "T = 0 includes multi-output cells with psi = 0" note) but never
        single-output cells, which functional replication cannot split.
        """
        if threshold == T_INFINITY:
            return 0
        count = sum(c for psi, c in self.by_potential.items() if psi >= threshold)
        if threshold <= 0:
            count += self.multi_output_zero
        return count

    def rows(self) -> List[Tuple[str, int, float]]:
        """(label, count, fraction) rows for reports, Figure 3 ordering."""
        out: List[Tuple[str, int, float]] = [
            ("psi=0 (1-out)", self.single_output_zero, self.fraction(self.single_output_zero)),
            ("psi=0* (m-out)", self.multi_output_zero, self.fraction(self.multi_output_zero)),
        ]
        for psi in sorted(self.by_potential):
            count = self.by_potential[psi]
            out.append((f"psi={psi}", count, self.fraction(count)))
        return out


def cell_distribution(hg, name: str = "") -> PotentialDistribution:
    """Compute d_X(psi) (eq. 5) over the cells of a hypergraph."""
    single_zero = 0
    multi_zero = 0
    histogram: Counter = Counter()
    n_cells = 0
    for node in hg.nodes:
        if not node.is_cell:
            continue
        n_cells += 1
        if node.n_outputs == 1:
            single_zero += 1
            continue
        psi = node_potential(node)
        if psi == 0:
            multi_zero += 1
        else:
            histogram[psi] += 1
    return PotentialDistribution(
        name=name or hg.name,
        n_cells=n_cells,
        single_output_zero=single_zero,
        multi_output_zero=multi_zero,
        by_potential=dict(histogram),
    )


def max_replication_factor(
    distribution: PotentialDistribution, threshold: Union[int, float]
) -> int:
    """Eq. (6): r_T for a given threshold replication potential T."""
    return distribution.cells_with_potential_at_least(threshold)
