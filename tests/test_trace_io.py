"""Trace file I/O round trips and validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.core import TraceRecord
from repro.workloads.synthetic import TraceGenerator
from repro.workloads.profiles import profile_for
from repro.workloads.trace import (
    load_multi_trace,
    load_trace,
    save_multi_trace,
    save_trace,
    trace_from_string,
    trace_stats,
    trace_to_string,
)

records_strategy = st.lists(
    st.builds(TraceRecord,
              gap=st.integers(min_value=0, max_value=10_000),
              is_write=st.booleans(),
              address=st.integers(min_value=0, max_value=(1 << 40) - 1)),
    max_size=200)


class TestRoundTrip:
    @settings(max_examples=30)
    @given(records_strategy)
    def test_string_roundtrip(self, records):
        loaded, _ = trace_from_string(trace_to_string(records))
        assert loaded == records

    def test_file_roundtrip_with_metadata(self, tmp_path):
        path = tmp_path / "trace.txt"
        trace = TraceGenerator(profile_for("mcf"), 0).records(100)
        save_trace(trace, path, metadata={"benchmark": "mcf", "core": "0"})
        loaded, meta = load_trace(path)
        assert loaded == trace
        assert meta == {"benchmark": "mcf", "core": "0"}

    def test_loaded_trace_runs(self, tmp_path):
        from repro.sim.config import SimConfig
        from repro.sim.system import SimulationSystem
        path = tmp_path / "trace.txt"
        save_trace(TraceGenerator(profile_for("mcf"), 0).records(50), path)
        loaded, _ = load_trace(path)
        system = SimulationSystem(SimConfig(num_cores=1), [loaded])
        result = system.run()
        assert result.instructions == sum(r.gap + 1 for r in loaded)


class TestMultiTrace:
    def _capture(self):
        return [TraceGenerator(profile_for("mcf"), core).records(20)
                for core in range(3)]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "multi.trace"
        traces = self._capture()
        save_multi_trace(traces, path, metadata={"benchmark": "mcf"})
        loaded, meta = load_multi_trace(path)
        assert loaded == traces
        assert meta["benchmark"] == "mcf"
        assert meta["cores"] == "3"
        assert meta["records"] == str(sum(len(t) for t in traces))

    def test_legacy_reader_flattens_sections(self, tmp_path):
        path = tmp_path / "multi.trace"
        traces = self._capture()
        save_multi_trace(traces, path)
        flat, _ = load_trace(path)
        assert flat == [r for t in traces for r in t]

    def test_single_core_file_loads_as_one_section(self, tmp_path):
        path = tmp_path / "single.trace"
        trace = self._capture()[0]
        save_trace(trace, path)
        sections, _ = load_multi_trace(path)
        assert sections == [trace]

    def test_reserved_metadata_keys_rejected(self):
        import io
        for key in ("core", "cores", "records"):
            with pytest.raises(ValueError, match="reserved"):
                save_multi_trace([[]], io.StringIO(), metadata={key: "1"})

    def test_metadata_order_does_not_change_records(self):
        trace = self._capture()[0]
        forward = trace_to_string(trace, {"a": "1", "b": "2"})
        reverse = trace_to_string(trace, {"b": "2", "a": "1"})
        assert trace_from_string(forward)[0] == trace_from_string(reverse)[0]
        assert (trace_from_string(forward)[1]
                == trace_from_string(reverse)[1] == {"a": "1", "b": "2"})

    def test_save_is_deterministic(self, tmp_path):
        traces = self._capture()
        first, second = tmp_path / "a.trace", tmp_path / "b.trace"
        save_multi_trace(traces, first, metadata={"benchmark": "mcf"})
        save_multi_trace(traces, second, metadata={"benchmark": "mcf"})
        assert first.read_bytes() == second.read_bytes()


class TestValidation:
    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="not a repro trace"):
            trace_from_string("nonsense\n1 R 0x0\n")

    def test_rejects_malformed_record(self):
        with pytest.raises(ValueError):
            trace_from_string("# repro-trace v1\n1 X 0x0\n")

    def test_malformed_record_names_the_line(self):
        with pytest.raises(ValueError, match="line 4"):
            trace_from_string(
                "# repro-trace v1\n# benchmark=mcf\n1 R 0x40\n1 R\n")

    def test_unparseable_integers_name_the_line(self):
        with pytest.raises(ValueError, match="line 2.*decimal integer"):
            trace_from_string("# repro-trace v1\nxx R 0x40\n")
        with pytest.raises(ValueError, match="line 3"):
            trace_from_string("# repro-trace v1\n1 R 0x40\n1 W 0xZZ\n")

    def test_rejects_a_negative_gap(self):
        with pytest.raises(ValueError, match="line 3: negative gap"):
            trace_from_string("# repro-trace v1\n1 R 0x40\n-100000 R 0x1000\n")

    def test_rejects_a_negative_address(self):
        with pytest.raises(ValueError, match="line 2: address out of range"):
            trace_from_string("# repro-trace v1\n1 R -0x40\n")

    def test_rejects_an_address_of_64_bits_or_more(self):
        trace_from_string(f"# repro-trace v1\n1 R {2**64 - 1:#x}\n")
        with pytest.raises(ValueError, match="line 2: address out of range"):
            trace_from_string(f"# repro-trace v1\n1 R {2**64:#x}\n")
        with pytest.raises(ValueError, match="line 2: address out of range"):
            trace_from_string(f"# repro-trace v1\n1 R {2**160:#x}\n")

    def test_rejects_truncated_records(self):
        text = ("# repro-trace v1\n# cores=1\n# records=5\n"
                "# core=0\n1 R 0x40\n")
        with pytest.raises(ValueError, match="truncated.*records=5"):
            trace_from_string(text)

    def test_rejects_missing_core_section(self):
        text = "# repro-trace v1\n# cores=2\n# records=1\n# core=0\n1 R 0x0\n"
        with pytest.raises(ValueError, match="truncated.*cores=2"):
            trace_from_string(text)

    def test_rejects_non_sequential_core_markers(self):
        text = "# repro-trace v1\n# core=0\n1 R 0x0\n# core=2\n1 R 0x0\n"
        with pytest.raises(ValueError, match="sequential"):
            trace_from_string(text)

    def test_ignores_blank_and_comment_lines(self):
        text = "# repro-trace v1\n\n# a comment\n3 W 0x40\n"
        records, _ = trace_from_string(text)
        assert records == [TraceRecord(gap=3, is_write=True, address=0x40)]

    def test_tolerates_trailing_whitespace(self):
        text = "# repro-trace v1\n3 W 0x40   \n  \n1 R 0x80\t\n"
        records, _ = trace_from_string(text)
        assert records == [TraceRecord(gap=3, is_write=True, address=0x40),
                           TraceRecord(gap=1, is_write=False, address=0x80)]


class TestStats:
    def test_empty(self):
        assert trace_stats([])["records"] == 0

    def test_summary(self):
        trace = [TraceRecord(2, False, 0), TraceRecord(4, True, 64)]
        stats = trace_stats(trace)
        assert stats["records"] == 2
        assert stats["instructions"] == 8
        assert stats["write_fraction"] == 0.5
        assert stats["distinct_lines"] == 2
        assert stats["mean_gap"] == 3.0
