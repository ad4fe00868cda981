"""Synthetic generation determinism and the textual trace format."""

import csv
import io
import itertools
import random
import sys
from array import array
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbicasim import EventLog, RunConfig, Simulation, TraceFormatError, workload
from lbicasim.engine import Origin
from lbicasim.workload import PhaseSpec, Sequential, UniformRandom, dump_trace, generate, load_trace

from conftest import scheduled


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
        schedule = generate(phases, seed=5)
        boundaries = [50_000, 100_000, 150_000]
        count_per_phase = len(schedule) // 3
        for index, bound in enumerate(boundaries):
            chunk = schedule.arrival[index * count_per_phase : (index + 1) * count_per_phase]
            assert all((bound - 50_000) <= arrival < bound for arrival in chunk)

    def test_arrivals_are_sorted(self):
        arrivals = list(generate([uniform_phase(jitter=0.9)], seed=11).arrival)
        assert arrivals == sorted(arrivals)

    def test_sequential_addresses_walk_by_stride(self):
        phase = PhaseSpec(
            duration_us=10_000,
            arrival_rate=1000,
            read_fraction=1.0,
            address_model=Sequential(start=100, stride=8),
            working_set_blocks=1,
        )
        schedule = generate([phase], seed=2)
        assert schedule.lba == [100 + 8 * i for i in range(len(schedule))]

    def test_uniform_addresses_stay_in_working_set(self):
        phase = uniform_phase(working_set=32)
        assert all(0 <= lba < 32 for lba in generate([phase], seed=4).lba)

    def test_separate_write_region_splits_reads_and_writes(self):
        phase = uniform_phase(read_fraction=0.5, working_set=32, write_base=1000)
        rows = scheduled(generate([phase], seed=6))
        reads = [lba for _, lba, origin in rows if origin is Origin.R]
        writes = [lba for _, lba, origin in rows if origin is Origin.W]
        assert reads and writes
        assert all(0 <= lba < 32 for lba in reads)
        assert all(1000 <= lba < 1032 for lba in writes)

    def test_same_seed_reproduces_the_stream(self):
        phases = [uniform_phase(read_fraction=0.5, jitter=0.5)]
        assert scheduled(generate(phases, seed=9)) == scheduled(generate(phases, seed=9))

    def test_different_seeds_differ(self):
        phases = [uniform_phase(read_fraction=0.5, jitter=0.5)]
        assert scheduled(generate(phases, seed=9)) != scheduled(generate(phases, seed=10))

    def test_read_fraction_extremes(self):
        all_reads = generate([uniform_phase(read_fraction=1.0)], seed=1)
        all_writes = generate([uniform_phase(read_fraction=0.0)], seed=1)
        assert len(all_reads) == len(all_writes) > 0
        assert all(all_reads.read)
        assert not any(all_writes.read)


# steady's phase (perfbench's generated workload), and three phases that
# mix a sequential walk with uniform draws that split reads from writes
PRESIZED_PHASES = {
    "steady": [
        PhaseSpec(
            duration_us=10_000_000,
            arrival_rate=6000,
            read_fraction=0.7,
            address_model=UniformRandom(),
            working_set_blocks=2048,
            jitter=0.5,
        )
    ],
    "three-phase": [
        PhaseSpec(
            duration_us=200_000,
            arrival_rate=3000,
            read_fraction=0.5,
            address_model=Sequential(start=500, stride=4),
            working_set_blocks=1,
        ),
        uniform_phase(duration_ms=300, rate=7000, read_fraction=0.3, write_base=4096, jitter=0.5),
        uniform_phase(duration_ms=100, rate=1500, read_fraction=0.9, working_set=4000),
    ],
}


@pytest.mark.parametrize("name", PRESIZED_PHASES)
def test_each_generated_column_is_allocated_at_its_length(name):
    # one allocation per column: a column grown row by row keeps the
    # spare capacity of its last reallocation
    phases = PRESIZED_PHASES[name]
    schedule = generate(phases, seed=1)
    n = sum(phase.request_count for phase in phases)
    assert len(schedule) == n > 0
    assert sys.getsizeof(schedule.arrival) == sys.getsizeof(array("q", [0]) * n)
    assert sys.getsizeof(schedule.lba) == sys.getsizeof([0] * n)
    assert sys.getsizeof(schedule.read) == sys.getsizeof(bytearray(n))
    assert scheduled(schedule) == reference_generate(phases, seed=1)


class TestLoadTrace:
    def test_single_record(self):
        assert scheduled(load_trace(io.StringIO("0,100,1,R\n"))) == [(0, 100, Origin.R)]

    def test_multi_block_record_splits(self):
        assert scheduled(load_trace(io.StringIO("0,100,4,W\n"))) == [
            (0, lba, Origin.W) for lba in (100, 101, 102, 103)
        ]

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

    def test_arrival_past_the_schedule_column_rejected_with_line_number(self):
        # a schedule keeps arrivals in a signed 64-bit column
        assert scheduled(load_trace(io.StringIO(f"{2**63 - 1},1,1,R\n"))) == [
            (2**63 - 1, 1, Origin.R)
        ]
        with pytest.raises(TraceFormatError, match="line 2: arrival_us must be at most"):
            load_trace(io.StringIO(f"0,1,1,R\n{2**63},1,1,R\n"))

    def test_ids_are_sequential_from_zero(self):
        # request i of the schedule is created with id and app id i: each
        # access, its first submit row, comes in file order
        schedule = load_trace(io.StringIO("0,1,2,R\n5,9,1,W\n"))
        buffer = io.StringIO()
        Simulation(RunConfig(cache_blocks=8), schedule, EventLog(buffer, "trace")).run()
        buffer.seek(0)
        buffer.readline()  # scenario header
        accesses = {}
        for row in csv.DictReader(buffer):
            if row["event"] == "submit" and row["app"]:
                accesses.setdefault(row["req"], (row["app"], row["lba"]))
        assert accesses == {"0": ("0", "1"), "1": ("1", "2"), "2": ("2", "9")}


def test_round_trip_through_the_trace_format(tmp_path):
    phases = [uniform_phase(read_fraction=0.4, jitter=0.3, working_set=128)]
    original = generate(phases, seed=21)
    path = tmp_path / "trace.txt"
    dump_trace(original, path)
    assert scheduled(load_trace(path)) == scheduled(original)


def reference_generate(phases, seed, rng_class=random.Random):
    """The stream ``generate`` must reproduce, as ``(arrival, lba, origin)``
    rows built the plain way, with ``rng.randrange`` for the address offset."""
    rng = rng_class(seed)
    draw, randrange = rng.random, rng.randrange
    rows = []
    phase_start = 0
    for phase in phases:
        slot = 1_000_000 / phase.arrival_rate
        model = phase.address_model
        seq_step = 0
        for i in range(phase.request_count):
            arrival = phase_start + int(i * slot)
            if phase.jitter > 0.0:
                arrival += int(draw() * phase.jitter * slot)
            is_read = draw() < phase.read_fraction
            if isinstance(model, Sequential):
                lba = model.start + seq_step * model.stride
                seq_step += 1
            else:
                offset = randrange(phase.working_set_blocks)
                if not is_read and phase.write_base is not None:
                    lba = phase.write_base + offset
                else:
                    lba = model.base + offset
            rows.append((arrival, lba, Origin.R if is_read else Origin.W))
        phase_start += phase.duration_us
    return rows


# 1, 2, 3 and 2^k - 1, 2^k, 2^k + 1: the rejection loop of the address
# draw retries most just above a power of two and never at one; widths
# past 32 bits take more than one Mersenne Twister word per draw
working_sets = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.builds(
        lambda k, delta: 2**k + delta,
        st.integers(min_value=2, max_value=40),
        st.sampled_from([-1, 0, 1]),
    ),
)
# dyadic jitters (0, 0.5, 1) keep ``draw() * jitter * slot`` exact under
# any grouping; 0.3, 0.6 and 0.7 do not
jitters = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 0.3, 0.6, 0.7]), st.floats(0.0, 1.0))


@st.composite
def phase_specs(draw):
    address_model = draw(
        st.one_of(
            st.builds(UniformRandom, st.integers(min_value=0, max_value=1 << 20)),
            st.builds(
                Sequential,
                st.integers(min_value=0, max_value=1 << 20),
                st.integers(min_value=1, max_value=64),
            ),
        )
    )
    write_bases = st.none() | st.integers(min_value=0, max_value=1 << 30)
    return PhaseSpec(
        duration_us=draw(st.integers(min_value=1, max_value=20_000)),
        # a rate in requests/s that does not divide 10^6 gives a fractional slot
        arrival_rate=draw(
            st.one_of(st.sampled_from([1500.0, 3000.0, 7000.0]), st.floats(1.0, 10_000.0))
        ),
        read_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        address_model=address_model,
        working_set_blocks=draw(working_sets),
        jitter=draw(jitters),
        write_base=draw(write_bases) if isinstance(address_model, UniformRandom) else None,
    )


def scripted_random(script):
    """A ``random.Random`` whose ``random()`` cycles through ``script``.

    Its ``getrandbits`` is the Mersenne Twister's, and defining it keeps
    ``randrange`` on the ``getrandbits`` path. Real draws almost never
    bring ``draw() * jitter * slot`` within an ulp of an integer, so a
    regrouped product would truncate the same; decimal fractions do.
    """
    values = itertools.cycle(script)

    class ScriptedRandom(random.Random):
        def random(self):
            return next(values)

        def getrandbits(self, k):
            return super().getrandbits(k)

    return ScriptedRandom


@settings(derandomize=True, max_examples=200)
@given(
    st.lists(phase_specs(), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**32),
    st.none() | st.lists(st.integers(1, 99).map(lambda k: k / 100), min_size=1, max_size=64),
)
def test_generate_matches_the_reference_stream_field_for_field(phases, seed, script):
    def rng_class():
        # a fresh class per generator, so each replays the script from its start
        return random.Random if script is None else scripted_random(script)

    expected = reference_generate(phases, seed, rng_class())
    with mock.patch.object(workload, "random", SimpleNamespace(Random=rng_class())):
        actual = scheduled(generate(phases, seed))
    assert actual == expected


@pytest.mark.parametrize("write_base", [None, 50_000])
def test_a_uniform_phase_shares_one_block_object_per_block(write_base):
    # steady's phase at a tenth of its length, its region moved past the
    # small ints that CPython shares anyway
    phase = PhaseSpec(
        duration_us=1_000_000,
        arrival_rate=6000,
        read_fraction=0.7,
        address_model=UniformRandom(base=10_000),
        working_set_blocks=2048,
        jitter=0.5,
        write_base=write_base,
    )
    schedule = generate([phase], seed=1)
    regions = 1 if write_base is None else 2
    assert len({id(lba) for lba in schedule.lba}) <= regions * phase.working_set_blocks
    assert scheduled(schedule) == reference_generate([phase], seed=1)


def test_a_sparsely_drawn_region_builds_no_table_of_its_blocks():
    # 8 requests over 2^40 blocks: a list of the region would not fit in memory
    base, write_base, working_set = 7, 2**41, 2**40
    phase = PhaseSpec(
        duration_us=8_000,
        arrival_rate=1000,
        read_fraction=0.5,
        address_model=UniformRandom(base=base),
        working_set_blocks=working_set,
        write_base=write_base,
    )
    rows = scheduled(generate([phase], seed=3))
    assert len(rows) == 8
    for _, lba, origin in rows:
        start = base if origin is Origin.R else write_base
        assert start <= lba < start + working_set
