"""The nine DAC'94 benchmark circuits, rebuilt synthetically.

The paper evaluates on four ISCAS'85 and five ISCAS'89 circuits from the MCNC
``partitioning93`` directory, technology-mapped into the Xilinx XC3000
family (its Table II).  The original netlists are not redistributable here,
so each circuit is rebuilt by a deterministic generator with the *published*
ISCAS profile (primary inputs, primary outputs, D flip-flops, gate count) and
a structure matching the circuit's known nature:

===========  =====================================================
c3540        ALU and control -- Rent-clustered random logic
c5315        ALU and selector -- Rent-clustered random logic
c6288        16x16 array multiplier -- exact structural generator
c7552        ALU and control -- Rent-clustered random logic
s5378 ...    sequential controllers -- clustered sequential cores
===========  =====================================================

Every builder accepts a ``scale`` factor that shrinks the circuit uniformly
(gates, DFFs and I/O all scale) so that experiments can trade fidelity for
runtime; ``scale=1.0`` reproduces the published profile.  The reproduction
targets are *relative* quantities (cut reductions, utilization ratios), which
are stable under uniform scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.netlist.generate import array_multiplier, random_logic, sequential_core
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class BenchmarkProfile:
    """Published ISCAS profile of one benchmark circuit."""

    name: str
    n_inputs: int
    n_outputs: int
    n_dff: int
    n_gates: int
    kind: str  # "random", "multiplier", "sequential"
    cluster_size: int = 32
    cross_cluster_prob: float = 0.10


#: Published profiles of the nine paper benchmarks (ISCAS'85/'89 handbook
#: values).  Cluster sizes / cross-link rates tune the Rent-style locality:
#: the sequential circuits are more strongly clustered (smaller clusters,
#: fewer cross links), the structure the paper credits for their larger
#: replication wins.
PROFILES: Dict[str, BenchmarkProfile] = {
    "c3540": BenchmarkProfile("c3540", 50, 22, 0, 1669, "random"),
    "c5315": BenchmarkProfile("c5315", 178, 123, 0, 2307, "random"),
    "c6288": BenchmarkProfile("c6288", 32, 32, 0, 2406, "multiplier"),
    "c7552": BenchmarkProfile("c7552", 207, 108, 0, 3512, "random"),
    "s5378": BenchmarkProfile(
        "s5378", 35, 49, 179, 2779, "sequential", cluster_size=36, cross_cluster_prob=0.06
    ),
    "s9234": BenchmarkProfile(
        "s9234", 36, 39, 211, 5597, "sequential", cluster_size=36, cross_cluster_prob=0.06
    ),
    "s13207": BenchmarkProfile(
        "s13207", 62, 152, 638, 7951, "sequential", cluster_size=32, cross_cluster_prob=0.05
    ),
    "s15850": BenchmarkProfile(
        "s15850", 77, 150, 534, 9772, "sequential", cluster_size=32, cross_cluster_prob=0.05
    ),
    "s38584": BenchmarkProfile(
        "s38584", 38, 304, 1426, 19253, "sequential", cluster_size=30, cross_cluster_prob=0.04
    ),
}

#: The generator seed of the recorded experiments: every table, figure
#: and ledger golden was generated at this seed, and a run seed of 0
#: resolves to it (:func:`repro.request.mapping_seed`).
RECORDED_SEED = 1994

#: Benchmark names in the paper's table order.
BENCHMARK_NAMES: Tuple[str, ...] = tuple(PROFILES.keys())

#: Names of the combinational (ISCAS'85) benchmarks.
COMBINATIONAL_NAMES: Tuple[str, ...] = ("c3540", "c5315", "c6288", "c7552")

#: Names of the sequential (ISCAS'89) benchmarks.
SEQUENTIAL_NAMES: Tuple[str, ...] = (
    "s5378",
    "s9234",
    "s13207",
    "s15850",
    "s38584",
)


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def benchmark_circuit(name: str, scale: float = 1.0, seed: int = RECORDED_SEED) -> Netlist:
    """Build one named benchmark circuit.

    Parameters
    ----------
    name:
        One of :data:`BENCHMARK_NAMES`.
    scale:
        Uniform size factor in (0, 1]; 1.0 reproduces the published profile.
        The multiplier circuit quantizes scale to an operand width.
    seed:
        Generator seed; the default matches the recorded experiments.
    """
    if name not in PROFILES:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}"
        )
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    profile = PROFILES[name]
    if profile.kind == "multiplier":
        width = max(4, int(round(16 * math.sqrt(scale))))
        netlist = array_multiplier(name, width)
        netlist.name = name
        return netlist
    if profile.kind == "random":
        return random_logic(
            name,
            n_gates=_scaled(profile.n_gates, scale, minimum=16),
            n_inputs=_scaled(profile.n_inputs, scale, minimum=4),
            n_outputs=_scaled(profile.n_outputs, scale, minimum=2),
            seed=seed,
            cluster_size=profile.cluster_size,
            cross_cluster_prob=profile.cross_cluster_prob,
        )
    return sequential_core(
        name,
        n_gates=_scaled(profile.n_gates, scale, minimum=32),
        n_inputs=_scaled(profile.n_inputs, scale, minimum=4),
        n_outputs=_scaled(profile.n_outputs, scale, minimum=2),
        n_dff=_scaled(profile.n_dff, scale, minimum=4),
        seed=seed,
        cluster_size=profile.cluster_size,
        cross_cluster_prob=profile.cross_cluster_prob,
    )


def benchmark_suite(scale: float = 1.0, seed: int = RECORDED_SEED) -> Dict[str, Netlist]:
    """Build the full nine-circuit suite (dict keyed by circuit name)."""
    return {name: benchmark_circuit(name, scale, seed) for name in BENCHMARK_NAMES}
