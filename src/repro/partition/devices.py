"""The heterogeneous FPGA device library (paper Table I).

Each device D_i = (c_i, t_i, d_i, l_i, u_i): CLB capacity, terminal (IOB)
count, unit price, and lower/upper bounds on CLB utilization.  A partition
P_j is *feasible* for device D_i when::

    l_i * c_i <= clbs(P_j) <= u_i * c_i     and     terminals(P_j) <= t_i

The bundled :data:`XC3000_LIBRARY` uses the Xilinx XC3000 capacities and IOB
counts from the data book; the prices and utilization bounds of the paper's
Table I are unreadable in the available scan, so the library ships with
reconstructed prices that preserve the economically relevant property the
paper relies on (unit cost d_i/c_i strictly decreasing with device size) and
the utilization window consistent with the reported 72-85% average CLB
utilizations.  EXPERIMENTS.md records this reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.robust.errors import ConfigError


@dataclass(frozen=True)
class Device:
    """One FPGA device type D_i = (c, t, d, l, u)."""

    name: str
    clbs: int  # c_i: CLB capacity
    terminals: int  # t_i: IOB count
    price: float  # d_i: unit price
    util_lower: float = 0.0  # l_i
    util_upper: float = 1.0  # u_i

    def __post_init__(self) -> None:
        if self.clbs <= 0 or self.terminals <= 0:
            raise ConfigError(f"device {self.name!r}: capacity fields must be positive")
        if self.price < 0:
            raise ConfigError(f"device {self.name!r}: price must be non-negative")
        if not 0.0 <= self.util_lower <= self.util_upper <= 1.0:
            raise ConfigError(f"device {self.name!r}: need 0 <= l <= u <= 1")

    @property
    def cost_per_clb(self) -> float:
        return self.price / self.clbs

    @property
    def min_clbs(self) -> int:
        """Smallest CLB count satisfying the lower utilization bound."""
        return int(math.ceil(self.util_lower * self.clbs))

    @property
    def max_clbs(self) -> int:
        """Largest CLB count satisfying the upper utilization bound."""
        return int(math.floor(self.util_upper * self.clbs))

    def fits(self, clbs: int, terminals: int) -> bool:
        """Feasibility test for a partition of ``clbs`` CLBs / ``terminals`` IOBs."""
        return self.min_clbs <= clbs <= self.max_clbs and terminals <= self.terminals


class DeviceLibrary:
    """An ordered collection of device types."""

    def __init__(self, devices: Sequence[Device], name: str = "library") -> None:
        if not devices:
            raise ConfigError("device library cannot be empty")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate device names in library")
        self.name = name
        self.devices: List[Device] = sorted(devices, key=lambda d: d.clbs)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, name: str) -> Device:
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise KeyError(f"no device named {name!r}")

    @property
    def largest(self) -> Device:
        return self.devices[-1]

    @property
    def smallest(self) -> Device:
        return self.devices[0]

    def feasible_devices(self, clbs: int, terminals: int) -> List[Device]:
        """All devices that can host a (clbs, terminals) partition, cheap first."""
        fits = [d for d in self.devices if d.fits(clbs, terminals)]
        return sorted(fits, key=lambda d: d.price)

    def cheapest_fit(self, clbs: int, terminals: int) -> Optional[Device]:
        """Cheapest feasible device, or None."""
        fits = self.feasible_devices(clbs, terminals)
        return fits[0] if fits else None

    def lower_bound_cost(self, clbs: int) -> float:
        """A simple cost lower bound for hosting ``clbs`` CLBs.

        The best achievable price is bounded by filling the most economical
        device to its utilization ceiling; used to prune k-way search.
        """
        best_rate = min(d.price / d.max_clbs for d in self.devices if d.max_clbs > 0)
        return best_rate * clbs


def _xc3000(name: str, clbs: int, terminals: int, price: float) -> Device:
    return Device(
        name=name,
        clbs=clbs,
        terminals=terminals,
        price=price,
        util_lower=0.0,
        util_upper=0.95,
    )


#: The paper's Table I device set: the five XC3000 family members, with CLB
#: and IOB capacities from the Xilinx data book.  Prices are reconstructed
#: (see module docstring) with strictly decreasing cost per CLB, normalized
#: so the smallest device costs 100 units.
XC3000_LIBRARY = DeviceLibrary(
    [
        _xc3000("XC3020", 64, 64, 100.0),
        _xc3000("XC3030", 100, 80, 145.0),
        _xc3000("XC3042", 144, 96, 195.0),
        _xc3000("XC3064", 224, 120, 280.0),
        _xc3000("XC3090", 320, 144, 370.0),
    ],
    name="XC3000",
)

#: The contemporary successor family (XC4000), usable as a drop-in library:
#: the formulation is library-agnostic, and partitioning the same circuit
#: against a different (capacity, terminal, price) curve is a natural study
#: the paper's model supports.  Capacities/IOBs from the XC4000 data book;
#: prices reconstructed on the same decreasing-cost-per-CLB principle.
XC4000_LIBRARY = DeviceLibrary(
    [
        _xc3000("XC4002", 64, 64, 90.0),
        _xc3000("XC4003", 100, 80, 130.0),
        _xc3000("XC4005", 196, 112, 230.0),
        _xc3000("XC4008", 324, 144, 350.0),
        _xc3000("XC4010", 400, 160, 415.0),
    ],
    name="XC4000",
)

#: The bundled libraries by the name requests and manifests carry.
LIBRARIES: Dict[str, DeviceLibrary] = {
    lib.name: lib for lib in (XC3000_LIBRARY, XC4000_LIBRARY)
}


def library_by_name(name: Optional[str]) -> DeviceLibrary:
    """A bundled device library by name (``None`` -> XC3000)."""
    if name is None:
        return XC3000_LIBRARY
    try:
        return LIBRARIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown device library {name!r}; known: {sorted(LIBRARIES)}"
        ) from None
