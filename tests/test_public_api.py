"""The public API surface: everything advertised must import and work."""

import importlib

import pytest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.netlist",
        "repro.netlist.gates",
        "repro.netlist.netlist",
        "repro.netlist.bench_io",
        "repro.netlist.blif_io",
        "repro.netlist.validate",
        "repro.netlist.stats",
        "repro.netlist.generate",
        "repro.netlist.benchmarks",
        "repro.netlist.rent",
        "repro.techmap",
        "repro.techmap.decompose",
        "repro.techmap.cover",
        "repro.techmap.pack",
        "repro.techmap.mapped",
        "repro.hypergraph",
        "repro.hypergraph.hypergraph",
        "repro.hypergraph.build",
        "repro.hypergraph.metrics",
        "repro.replication",
        "repro.replication.adjacency",
        "repro.replication.potential",
        "repro.replication.gains",
        "repro.partition",
        "repro.partition.devices",
        "repro.partition.cost",
        "repro.partition.fm",
        "repro.partition.fm_replication",
        "repro.partition.kway",
        "repro.partition.reference",
        "repro.core",
        "repro.core.flow",
        "repro.core.results",
        "repro.experiments",
        "repro.experiments.common",
        "repro.experiments.table1",
        "repro.experiments.table2",
        "repro.experiments.table3",
        "repro.experiments.tables4to7",
        "repro.experiments.figure3",
        "repro.experiments.record",
        "repro.robust",
        "repro.robust.errors",
        "repro.robust.budget",
        "repro.robust.faults",
        "repro.robust.runner",
        "repro.obs",
        "repro.obs.events",
        "repro.obs.metrics",
        "repro.obs.trace",
        "repro.obs.summary",
        "repro.api",
        "repro.request",
        "repro.service",
        "repro.service.jobs",
        "repro.service.quota",
        "repro.service.server",
        "repro.service.client",
        "repro.cli",
    ],
)
def test_module_imports_and_documents(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} lacks a module docstring"


def test_public_callables_have_docstrings():
    import inspect

    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, undocumented


def test_api_surface_is_locked():
    """The ``repro.api`` facade is a stability contract: verbs and the
    result schema version only change deliberately."""
    from repro import api

    assert api.__all__ == [
        "SCHEMA_VERSION",
        "RESULT_SCHEMA_NAME",
        "RunResult",
        "PartitionRequest",
        "Algorithm",
        "CachePolicy",
        "MultilevelMode",
        "load",
        "map",
        "run_request",
        "cached_result",
        "analyze",
    ]
    assert api.SCHEMA_VERSION == 1
    assert api.RESULT_SCHEMA_NAME == "repro-run-result/1"
    assert api.RunResult.schema_version == 1  # dataclass default
    fields = set(api.RunResult.__dataclass_fields__)
    assert {
        "kind", "solution", "run_log", "metrics",
        "elapsed_seconds", "schema_version",
    } <= fields
    # the facade and its envelope are re-exported from the package root
    assert repro.api is api
    assert repro.RunResult is api.RunResult


def test_api_facade_quickstart():
    """The README's recommended entry point works end to end."""
    from dataclasses import replace

    from repro import api

    request = api.PartitionRequest(
        verb="partition", circuit="s5378", scale=0.08, threshold=1, seed=2
    )
    result = api.run_request(request)
    assert result.kind == "partition"
    assert result.schema_version == api.SCHEMA_VERSION
    assert result.solution.cost.total_cost > 0
    assert result.run_log.outcomes() == ["ok"] and result.metrics == {}

    # A deadline that never binds returns the same solution document.
    resilient = api.run_request(replace(request, deadline=60))
    assert resilient.run_log.outcomes() == ["ok"]
    assert resilient.to_dict()["solution"] == result.to_dict()["solution"]


def test_readme_quickstart_runs():
    """The README's quickstart snippet must work verbatim (small scale)."""
    from repro import (
        FMConfig,
        ReplicationConfig,
        benchmark_circuit,
        build_hypergraph,
        fm_bipartition,
        replication_bipartition,
        technology_map,
    )

    netlist = benchmark_circuit("s5378", scale=0.08)
    mapped = technology_map(netlist)
    hg = build_hypergraph(mapped, include_terminals=False)
    fm = fm_bipartition(hg, FMConfig(seed=42))
    fr = replication_bipartition(hg, ReplicationConfig(seed=42))
    assert fm.cut_size >= 0 and fr.cut_size >= 0
