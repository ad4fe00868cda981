"""Synthetic workload generation and the on-disk trace format.

A scenario is a list of phases. Each phase emits block-granular requests
at a fixed rate (optionally jittered inside each arrival slot) with a
seeded op mix and address pattern, so the same scenario and seed always
produce the same stream. Burstiness is modeled by stepping the rate
between phases rather than by heavy-tailed arrival processes, which
keeps per-phase counts checkable.

Both produce a :class:`~lbicasim.engine.Schedule`: columns of arrival
times, blocks and read flags, with no request object built ahead of
its arrival.

Traces serialize as text, one request per line::

    arrival_us,lba,blocks,op

with ``op`` R or W, ``#`` comments, and records sorted by arrival.
Multi-block records load as consecutive single-block requests sharing
the arrival time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .engine import Schedule


# the largest arrival time a schedule's ``array('q')`` column holds
_MAX_ARRIVAL = 2**63 - 1


class TraceFormatError(ValueError):
    """A trace file violated the format contract; message names the line."""


@dataclass(frozen=True)
class UniformRandom:
    """Addresses drawn uniformly from [base, base + working_set_blocks)."""

    base: int = 0


@dataclass(frozen=True)
class Sequential:
    """Strictly monotone address walk: start, start+stride, ..."""

    start: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("sequential stride must be at least 1")


@dataclass(frozen=True)
class PhaseSpec:
    duration_us: int
    arrival_rate: float  # requests per second
    read_fraction: float = 1.0
    address_model: UniformRandom | Sequential = UniformRandom()
    working_set_blocks: int = 1
    jitter: float = 0.0  # fraction of the arrival slot, 0 = exact spacing
    # when set, writes draw uniformly from their own region
    # [write_base, write_base + working_set_blocks) instead of sharing
    # the read region; lets a scenario keep reads cacheable while writes
    # churn elsewhere
    write_base: int | None = None

    def __post_init__(self):
        if self.duration_us <= 0:
            raise ValueError("phase duration must be positive")
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError("phase arrival rate must be positive and finite")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read fraction must be in [0, 1]")
        if self.working_set_blocks < 1:
            raise ValueError("working set must span at least one block")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.write_base is not None and not isinstance(self.address_model, UniformRandom):
            raise ValueError("a separate write region requires a uniform address model")

    @property
    def request_count(self) -> int:
        return int(self.duration_us * self.arrival_rate / 1_000_000)


def _region(base: int, working_set: int, request_count: int) -> Sequence[int]:
    """The blocks ``base, base + 1, ...`` of a uniform region, for indexing.

    A schedule's ``lba`` column holds every request's block until the run
    ends, and a block number above 256 is a 32-byte object of its own
    unless rows share it. A list holds one object per block, which the
    rows drawing that block share; a range makes a new one per draw.
    The list is built only when the phase has at least as many requests
    as the region has blocks, so a huge, sparsely drawn region costs
    nothing up front.
    """
    blocks = range(base, base + working_set)
    return list(blocks) if working_set <= request_count else blocks


def generate(phases: Sequence[PhaseSpec], seed: int) -> Schedule:
    """Expand a scenario into its request schedule, deterministically.

    Per request, the draws are: the jitter (when the phase has one), the
    read/write choice, and for a uniform phase the address offset. The
    offset is ``rng.randrange(working_set)`` written out: CPython's
    ``randrange(n)`` for ``n > 0`` draws ``getrandbits(n.bit_length())``
    until the value is below ``n``, so the stream, and every output of
    a run, is the same as with the call.

    The request count is known before the first draw (the phases'
    ``request_count``), so each column is allocated once at its final
    length and filled by row; the arrival order is checked once, after
    the last row.
    """
    rng = random.Random(seed)
    draw, getrandbits = rng.random, rng.getrandbits
    schedule = Schedule(sum(phase.request_count for phase in phases))
    arrivals, lbas, reads = schedule.arrival, schedule.lba, schedule.read
    row = 0
    phase_start = 0
    for phase in phases:
        slot = 1_000_000 / phase.arrival_rate
        jitter = phase.jitter
        read_fraction = phase.read_fraction
        model = phase.address_model
        count = phase.request_count
        working_set = phase.working_set_blocks
        bits = working_set.bit_length()
        # a sequential phase's region is its start block; a uniform
        # phase's is the sequence of its blocks, indexed by the offset
        sequential = isinstance(model, Sequential)
        if sequential:
            read_region = write_region = model.start
            stride = model.stride
        else:
            read_region = _region(model.base, working_set, count)
            write_region = (
                read_region
                if phase.write_base is None
                else _region(phase.write_base, working_set, count)
            )
        for i in range(count):
            arrival = phase_start + int(i * slot)
            if jitter > 0.0:
                arrival += int(draw() * jitter * slot)
            read = draw() < read_fraction
            region = read_region if read else write_region
            if sequential:
                lba = region + i * stride
            else:
                offset = getrandbits(bits)
                while offset >= working_set:
                    offset = getrandbits(bits)
                lba = region[offset]
            arrivals[row] = arrival
            lbas[row] = lba
            reads[row] = read
            row += 1
        phase_start += phase.duration_us
    schedule.check_order()
    return schedule


def load_trace(source: str | Path | Iterable[str]) -> Schedule:
    """Parse a trace file into a schedule of single-block requests, in file order.

    Raises :class:`TraceFormatError` with the offending line number for
    malformed records and for the first out-of-order arrival.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_trace(fh)

    schedule = Schedule()
    last_arrival = None
    for lineno, raw in enumerate(source, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise TraceFormatError(
                f"line {lineno}: expected 'arrival_us,lba,blocks,op', got {line!r}"
            )
        try:
            arrival, lba, blocks = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: arrival_us, lba and blocks must be integers")
        if arrival < 0 or lba < 0:
            raise TraceFormatError(f"line {lineno}: arrival_us and lba must be non-negative")
        if arrival > _MAX_ARRIVAL:
            raise TraceFormatError(f"line {lineno}: arrival_us must be at most {_MAX_ARRIVAL}")
        if blocks < 1:
            raise TraceFormatError(f"line {lineno}: blocks must be at least 1")
        op_field = fields[3].upper()
        if op_field not in ("R", "W"):
            raise TraceFormatError(f"line {lineno}: op must be R or W, got {fields[3]!r}")
        if last_arrival is not None and arrival < last_arrival:
            raise TraceFormatError(
                f"line {lineno}: arrivals not sorted ({arrival} after {last_arrival})"
            )
        last_arrival = arrival
        schedule.arrival.extend([arrival] * blocks)
        schedule.lba.extend(range(lba, lba + blocks))
        schedule.read.extend([op_field == "R"] * blocks)
    return schedule


def dump_trace(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule as a single-block-per-line trace."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# arrival_us,lba,blocks,op\n")
        for arrival, lba, read in zip(schedule.arrival, schedule.lba, schedule.read):
            fh.write(f"{arrival},{lba},1,{'R' if read else 'W'}\n")
