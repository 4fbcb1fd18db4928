"""The structured exception taxonomy and its backward compatibility."""

import pytest

from repro.robust.errors import (
    FATAL,
    BudgetExceededError,
    ConfigError,
    InfeasibleError,
    ParseError,
    ReproError,
    VerificationError,
)


class TestHierarchy:
    def test_everything_descends_from_repro_error(self):
        for exc in (
            ConfigError,
            InfeasibleError,
            BudgetExceededError,
            ParseError,
            VerificationError,
        ):
            assert issubclass(exc, ReproError)

    def test_config_error_keeps_value_error_base(self):
        assert issubclass(ConfigError, ValueError)

    def test_infeasible_keeps_both_legacy_bases(self):
        assert issubclass(InfeasibleError, RuntimeError)
        assert issubclass(InfeasibleError, ValueError)

    def test_parse_error_keeps_value_error_base(self):
        assert issubclass(ParseError, ValueError)

    def test_retryable_and_fatal_are_disjoint(self):
        # The cascade retries every exception outside FATAL.
        assert not {InfeasibleError, VerificationError} & set(FATAL)
        for exc in FATAL:
            assert issubclass(exc, ReproError)


class TestParseError:
    def test_plain_message(self):
        err = ParseError("bad token")
        assert str(err) == "bad token"
        assert err.source is None and err.lineno is None

    def test_source_and_lineno_prefix(self):
        err = ParseError("bad token", source="a.bench", lineno=7)
        assert str(err) == "a.bench: line 7: bad token"
        assert err.source == "a.bench" and err.lineno == 7

    def test_lineno_only(self):
        err = ParseError("bad token", lineno=3)
        assert str(err) == "line 3: bad token"


class TestPayloads:
    def test_budget_exceeded_carries_log(self):
        sentinel = object()
        err = BudgetExceededError("out of time", log=sentinel)
        assert err.log is sentinel

    def test_verification_error_carries_violations(self):
        err = VerificationError(["v1", "v2"], circuit="c17")
        assert err.violations == ["v1", "v2"]
        assert "c17" in str(err) and "2 violation(s)" in str(err)


class TestLegacyCallSites:
    """Re-parented call sites must still satisfy old ``except`` clauses."""

    def test_bad_device_raises_config_error(self):
        from repro.partition.devices import Device

        with pytest.raises(ConfigError):
            Device("bad", clbs=0, terminals=8, price=1.0)
        with pytest.raises(ValueError):  # legacy catch still works
            Device("bad", clbs=0, terminals=8, price=1.0)

    def test_empty_library_raises_config_error(self):
        from repro.partition.devices import DeviceLibrary

        with pytest.raises(ConfigError):
            DeviceLibrary([])

    def test_bad_algorithm_raises_config_error(self):
        from repro.core.flow import bipartition_experiment

        with pytest.raises(ConfigError):
            bipartition_experiment(None, algorithm="simulated-annealing")

    def test_parser_errors_are_parse_errors(self):
        from repro.netlist.bench_io import BenchParseError, loads_bench
        from repro.netlist.blif_io import BlifParseError, loads_blif
        from repro.netlist.verilog_io import VerilogParseError, loads_verilog

        for cls, fn in (
            (BenchParseError, loads_bench),
            (BlifParseError, loads_blif),
            (VerilogParseError, loads_verilog),
        ):
            assert issubclass(cls, ParseError)
            with pytest.raises(cls) as err:
                fn("")
            assert "empty" in str(err.value)
