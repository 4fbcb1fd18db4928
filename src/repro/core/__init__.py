"""High-level orchestration: netlist -> mapping -> hypergraph -> partitioning.

:mod:`repro.core.flow` wires the substrates into the two end-to-end flows the
paper evaluates (min-cut bipartitioning with/without functional replication,
and heterogeneous-device k-way partitioning); :mod:`repro.core.results`
defines the serializable result records.
"""

from repro.core.flow import (
    map_circuit,
    bipartition_experiment,
)
from repro.core.results import BipartitionReport, KWayReport

__all__ = [
    "map_circuit",
    "bipartition_experiment",
    "BipartitionReport",
    "KWayReport",
]
