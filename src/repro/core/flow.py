"""End-to-end flows: the two experiments of the paper's Section IV.

* :func:`bipartition_experiment` -- experiment 1: bipartition into two
  equal-sized partitions minimizing the cut set with terminal constraints
  completely relaxed, comparing plain F-M min-cut against F-M min-cut with
  functional replication over N runs (Table III).
* :func:`kway_solution` -- experiment 2: the k-way device-cost/interconnect
  flow for a given threshold replication potential T (Tables IV-VII);
  :func:`~repro.core.results.kway_report_from_solution` turns its
  solution into a table row.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.results import BipartitionReport
from repro.hypergraph.build import build_hypergraph
from repro.netlist.benchmarks import RECORDED_SEED
from repro.netlist.netlist import Netlist
from repro.partition.devices import DeviceLibrary, XC3000_LIBRARY
from repro.partition.fm import FMConfig, multi_start
from repro.partition.fm_replication import (
    FUNCTIONAL,
    NONE,
    TRADITIONAL,
    ReplicationConfig,
)
from repro.partition.kway import KWayConfig, KWaySolution, best_heterogeneous_partition
from repro.partition.multilevel import MultilevelConfig, resolve_multilevel
from repro.replication.potential import T_INFINITY
from repro.request import Algorithm, MultilevelMode, RequestError
from repro.robust.budget import Budget
from repro.robust.errors import ConfigError
from repro.techmap.mapped import MappedNetlist, technology_map

#: The replication style of each algorithm's engine.  :class:`Algorithm`
#: declares the algorithms strongest first; that order is the attempt
#: cascade's degradation ladder.
ALGORITHM_STYLE: Dict[Algorithm, str] = {
    Algorithm.FM_FUNCTIONAL: FUNCTIONAL,
    Algorithm.FM_TRADITIONAL: TRADITIONAL,
    Algorithm.FM: NONE,
}


def resolve_algorithm(name: Union[Algorithm, str]) -> Algorithm:
    """The algorithm ``name`` spells; :class:`ConfigError` for a name
    :meth:`Algorithm.coerce` rejects."""
    try:
        return Algorithm.coerce(name)
    except RequestError as exc:
        raise ConfigError(str(exc)) from None


def map_circuit(circuit: Union[str, Netlist], scale: float = 1.0, seed: int = RECORDED_SEED) -> MappedNetlist:
    """Technology-map a netlist, or a circuit :func:`repro.api.load`
    resolves at run seed ``seed``."""
    if isinstance(circuit, str):
        from repro import api

        circuit = api.load(circuit, scale=scale, seed=seed).solution
    return technology_map(circuit)


def bipartition_experiment(
    mapped: MappedNetlist,
    algorithm: Union[Algorithm, str] = Algorithm.FM_FUNCTIONAL,
    runs: int = 20,
    threshold: Union[int, float] = 0,
    seed: int = 0,
    balance_tolerance: float = 0.02,
    max_passes: int = 16,
    max_growth: Optional[float] = None,
    budget: Optional[Budget] = None,
    jobs: int = 1,
    multilevel: MultilevelMode = MultilevelMode.AUTO,
) -> BipartitionReport:
    """Experiment 1: N equal-size min-cut bipartitioning runs.

    ``algorithm`` is one of ``"fm"`` (the [15] baseline), ``"fm+functional"``
    (this paper) or ``"fm+traditional"`` (the [13]-style ablation).
    Terminal constraints are relaxed by building the hypergraph without
    terminal nodes, exactly as the paper's first experiment does.

    The runs are one :func:`~repro.partition.fm.multi_start` sweep at
    ``seed``: ``jobs`` is its worker count (``0`` = all cores), and every
    count gives the same report for a given seed as long as no budget
    expires mid-sweep.  A ``budget`` is threaded into every run (which
    then winds down cooperatively); at one worker it is also checked
    between runs, and when it expires the report covers the runs
    completed so far (always at least one) and reads ``truncated``.

    ``multilevel`` is the :class:`~repro.request.MultilevelMode`
    (``True`` / ``False`` / ``None`` coerce to it), resolved against the
    netlist: on, every run is a coarsen-solve-uncoarsen V-cycle
    (replication algorithms finish with a replication pass at the finest
    level); off, the flat engines run.
    """
    algorithm = resolve_algorithm(algorithm)
    style = ALGORITHM_STYLE[algorithm]
    replicate = style != NONE
    hg = build_hypergraph(mapped, include_terminals=False)
    common: Dict[str, Any] = dict(seed=seed, balance_tolerance=balance_tolerance,
                                  max_passes=max_passes, budget=budget)
    base: Union[MultilevelConfig, FMConfig, ReplicationConfig]
    if resolve_multilevel(MultilevelMode.coerce(multilevel), hg.n_cells):
        base = MultilevelConfig(
            threshold=threshold,
            style=style if replicate else FUNCTIONAL,
            replication_refine=replicate,
            max_growth=max_growth,
            **common,
        )
    elif replicate:
        base = ReplicationConfig(
            threshold=threshold, style=style, max_growth=max_growth, **common
        )
    else:
        base = FMConfig(**common)
    start = time.perf_counter()
    results, cuts = multi_start(hg, runs, base, jobs)
    return BipartitionReport(
        circuit=mapped.name,
        algorithm=algorithm.value,
        runs=len(cuts),
        cuts=cuts,
        replicated_counts=[getattr(r, "n_replicated", 0) for r in results],
        elapsed_seconds=time.perf_counter() - start,
        n_cells=hg.n_cells,
        truncated=len(cuts) < runs,
    )


def kway_solution(
    mapped: MappedNetlist,
    threshold: Union[int, float],
    library: Optional[DeviceLibrary] = None,
    n_solutions: int = 2,
    seed: int = 0,
    seeds_per_carve: int = 3,
    algorithm: Union[Algorithm, str] = Algorithm.FM_FUNCTIONAL,
    devices_per_carve: int = 3,
    budget: Optional[Budget] = None,
    jobs: int = 1,
    multilevel: MultilevelMode = MultilevelMode.AUTO,
    carve_fill_levels: Tuple[float, ...] = KWayConfig.carve_fill_levels,
) -> KWaySolution:
    """Experiment 2: one k-way heterogeneous partitioning data point.

    ``threshold=T_INFINITY`` reproduces the no-replication baseline
    (the "In [3]" columns of Tables IV-VII) whatever the algorithm.  A
    ``budget`` makes the flow return its best (possibly truncated)
    solution at expiry.  ``jobs`` is the worker count of each carve
    level's candidate scan (``0`` = all cores; the solution is the same
    for every count).  ``algorithm`` takes the same names as
    :func:`bipartition_experiment`; ``multilevel`` is
    :attr:`KWayConfig.multilevel`, resolved per carve level.
    ``carve_fill_levels`` is :attr:`KWayConfig.carve_fill_levels`; the
    attempt cascade extends it on its lower rungs.
    """
    style = ALGORITHM_STYLE[resolve_algorithm(algorithm)]
    config = KWayConfig(
        library=library or XC3000_LIBRARY,
        threshold=threshold,
        style=NONE if threshold == T_INFINITY else style,
        seed=seed,
        seeds_per_carve=seeds_per_carve,
        devices_per_carve=devices_per_carve,
        carve_fill_levels=carve_fill_levels,
        budget=budget,
        jobs=jobs,
        multilevel=multilevel,
    )
    return best_heterogeneous_partition(mapped, config, n_solutions=n_solutions)
