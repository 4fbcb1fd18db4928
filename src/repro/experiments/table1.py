"""Table I: the heterogeneous XC3000 device library.

A data table in the paper; regenerated here from the library object so the
reproduction's cost model is inspectable in the same shape, including the
economically essential property that unit cost per CLB decreases with
device size.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import TableResult
from repro.partition.devices import DeviceLibrary, XC3000_LIBRARY


def run(library: Optional[DeviceLibrary] = None) -> TableResult:
    library = library or XC3000_LIBRARY
    rows = []
    for dev in library:
        rows.append(
            [
                dev.name,
                dev.clbs,
                dev.terminals,
                dev.price,
                dev.util_lower,
                dev.util_upper,
                round(dev.cost_per_clb, 3),
            ]
        )
    return TableResult(
        title="Table I: device library (c_i, t_i, d_i, l_i, u_i)",
        headers=["Device", "CLB", "IOB", "price", "l", "u", "price/CLB"],
        rows=rows,
        notes=[
            "prices reconstructed: strictly decreasing cost per CLB "
            "(paper scan unreadable); capacities from the XC3000 data book"
        ],
    )
