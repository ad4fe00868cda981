"""Synthetic generation determinism and the textual trace format."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbicasim import TraceFormatError
from lbicasim.engine import OpType
from lbicasim.workload import PhaseSpec, Sequential, UniformRandom, dump_trace, generate, load_trace


def uniform_phase(duration_ms=100, rate=1000, read_fraction=1.0, working_set=64, **kw):
    return PhaseSpec(
        duration_us=duration_ms * 1000,
        arrival_rate=rate,
        read_fraction=read_fraction,
        address_model=UniformRandom(),
        working_set_blocks=working_set,
        **kw,
    )


class TestPhaseSpec:
    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            uniform_phase(duration_ms=0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            uniform_phase(rate=0)

    def test_read_fraction_bounds(self):
        with pytest.raises(ValueError):
            uniform_phase(read_fraction=1.5)

    def test_jitter_bounds(self):
        with pytest.raises(ValueError):
            uniform_phase(jitter=2.0)

    def test_write_region_requires_uniform_addresses(self):
        with pytest.raises(ValueError):
            PhaseSpec(
                duration_us=1000,
                arrival_rate=1000,
                read_fraction=0.5,
                address_model=Sequential(),
                working_set_blocks=8,
                write_base=4096,
            )

    def test_sequential_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            Sequential(stride=0)


class TestGenerate:
    def test_request_count_matches_rate_times_duration(self):
        phase = uniform_phase(duration_ms=100, rate=1000)  # 0.1s at 1000/s
        requests = generate([phase], seed=1)
        assert len(requests) == 100
        assert abs(len(requests) - phase.arrival_rate * phase.duration_us / 1e6) <= 1

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=1.0, max_value=5000.0),
    )
    def test_count_property_over_random_phases(self, duration_ms, rate):
        phase = uniform_phase(duration_ms=duration_ms, rate=rate)
        requests = generate([phase], seed=3)
        assert abs(len(requests) - rate * duration_ms / 1000.0) <= 1

    def test_arrivals_stay_inside_their_phase(self):
        phases = [uniform_phase(duration_ms=50, rate=2000, jitter=0.5) for _ in range(3)]
        requests = generate(phases, seed=5)
        boundaries = [50_000, 100_000, 150_000]
        count_per_phase = len(requests) // 3
        for index, bound in enumerate(boundaries):
            chunk = requests[index * count_per_phase : (index + 1) * count_per_phase]
            assert all((bound - 50_000) <= r.arrival < bound for r in chunk)

    def test_arrivals_are_sorted(self):
        requests = generate([uniform_phase(jitter=0.9)], seed=11)
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)

    def test_sequential_addresses_walk_by_stride(self):
        phase = PhaseSpec(
            duration_us=10_000,
            arrival_rate=1000,
            read_fraction=1.0,
            address_model=Sequential(start=100, stride=8),
            working_set_blocks=1,
        )
        requests = generate([phase], seed=2)
        lbas = [r.lba for r in requests]
        assert lbas == [100 + 8 * i for i in range(len(requests))]

    def test_uniform_addresses_stay_in_working_set(self):
        phase = uniform_phase(working_set=32)
        for req in generate([phase], seed=4):
            assert 0 <= req.lba < 32

    def test_separate_write_region_splits_reads_and_writes(self):
        phase = uniform_phase(read_fraction=0.5, working_set=32, write_base=1000)
        requests = generate([phase], seed=6)
        reads = [r for r in requests if r.op is OpType.READ]
        writes = [r for r in requests if r.op is OpType.WRITE]
        assert reads and writes
        assert all(0 <= r.lba < 32 for r in reads)
        assert all(1000 <= r.lba < 1032 for r in writes)

    def test_same_seed_reproduces_the_stream(self):
        phases = [uniform_phase(read_fraction=0.5, jitter=0.5)]
        a = generate(phases, seed=9)
        b = generate(phases, seed=9)
        assert [(r.arrival, r.lba, r.op) for r in a] == [(r.arrival, r.lba, r.op) for r in b]

    def test_different_seeds_differ(self):
        phases = [uniform_phase(read_fraction=0.5, jitter=0.5)]
        a = generate(phases, seed=9)
        b = generate(phases, seed=10)
        assert [(r.arrival, r.lba, r.op) for r in a] != [(r.arrival, r.lba, r.op) for r in b]

    def test_read_fraction_extremes(self):
        all_reads = generate([uniform_phase(read_fraction=1.0)], seed=1)
        all_writes = generate([uniform_phase(read_fraction=0.0)], seed=1)
        assert all(r.op is OpType.READ for r in all_reads)
        assert all(r.op is OpType.WRITE for r in all_writes)


class TestLoadTrace:
    def test_single_record(self):
        requests = load_trace(io.StringIO("0,100,1,R\n"))
        assert len(requests) == 1
        req = requests[0]
        assert (req.arrival, req.lba, req.op) == (0, 100, OpType.READ)

    def test_multi_block_record_splits(self):
        requests = load_trace(io.StringIO("0,100,4,W\n"))
        assert [(r.arrival, r.lba) for r in requests] == [(0, 100), (0, 101), (0, 102), (0, 103)]
        assert all(r.op is OpType.WRITE for r in requests)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n10,5,1,R\n"
        assert len(load_trace(io.StringIO(text))) == 1

    def test_out_of_order_arrivals_rejected_with_line_number(self):
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace(io.StringIO("0,1,1,R\n10,2,1,R\n5,3,1,R\n"))

    def test_malformed_line_rejected_with_line_number(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(io.StringIO("0,1,R\n"))

    def test_non_integer_fields_rejected(self):
        with pytest.raises(TraceFormatError, match="integers"):
            load_trace(io.StringIO("zero,1,1,R\n"))

    def test_unknown_op_rejected(self):
        with pytest.raises(TraceFormatError, match="op"):
            load_trace(io.StringIO("0,1,1,X\n"))

    def test_zero_blocks_rejected(self):
        with pytest.raises(TraceFormatError, match="blocks"):
            load_trace(io.StringIO("0,1,0,R\n"))

    def test_ids_are_sequential_from_start_id(self):
        requests = load_trace(io.StringIO("0,1,2,R\n5,9,1,W\n"), start_id=10)
        assert [r.id for r in requests] == [10, 11, 12]
        assert all(r.app_id == r.id for r in requests)


def test_round_trip_through_the_trace_format(tmp_path):
    phases = [uniform_phase(read_fraction=0.4, jitter=0.3, working_set=128)]
    original = generate(phases, seed=21)
    path = tmp_path / "trace.txt"
    dump_trace(original, path)
    reloaded = load_trace(path)
    assert [(r.arrival, r.lba, r.op, r.origin) for r in original] == [
        (r.arrival, r.lba, r.op, r.origin) for r in reloaded
    ]
