"""The interval record, snapshots, and interval bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbicasim.engine import Device, DeviceRole, Origin, Requests, Schedule
from lbicasim.telemetry import IntervalStats, IntervalTracker, take_snapshot

from conftest import make_stats

qsizes = st.integers(min_value=0, max_value=1_000_000)
latencies = st.integers(min_value=1, max_value=100_000)


class TestComputeQueueTimes:
    """The queue-time products the interval record derives from its depths."""

    def test_empty_queues(self):
        stats = make_stats(0, 100, 0, 5000)
        assert (stats.cache_qtime, stats.disk_qtime) == (0, 0)

    def test_direct_products(self):
        stats = make_stats(10, 100, 1, 5000)
        assert (stats.cache_qtime, stats.disk_qtime) == (1000, 5000)

    def test_cache_side_crossing_the_disk_side(self):
        stats = make_stats(60, 100, 1, 5000)
        assert (stats.cache_qtime, stats.disk_qtime) == (6000, 5000)

    @given(qsizes, latencies, qsizes, latencies)
    def test_linearity(self, s, ls, h, lh):
        once = make_stats(s, ls, h, lh)
        twice = make_stats(2 * s, ls, 2 * h, lh)
        assert (twice.cache_qtime, twice.disk_qtime) == (2 * once.cache_qtime, 2 * once.disk_qtime)


class TestIntervalStats:
    @given(qsizes, latencies, qsizes, latencies)
    def test_queue_times_and_burst_derive_from_the_depths(self, s, ls, h, lh):
        stats = make_stats(s, ls, h, lh)
        assert (stats.cache_qtime, stats.disk_qtime) == (s * ls, h * lh)
        assert stats.burst is (s * ls > h * lh)

    @pytest.mark.parametrize("derived", ["cache_qtime", "disk_qtime", "burst"])
    def test_derived_fields_are_not_arguments(self, derived):
        zeros = (0, 0, 0, 0)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            IntervalStats(1, 0, 1, 0, 0, 100, 5000, zeros, zeros, 0, 0, **{derived: 0})


class TestSnapshot:
    def setup_method(self):
        self.ssd = Device(DeviceRole.SSD, 100, 100)
        self.hdd = Device(DeviceRole.HDD, 5000, 5000)
        self.requests = Requests(Schedule())
        self.ssd.bind(self.requests)
        self.hdd.bind(self.requests)

    def enqueue(self, device, origin, now=0):
        device.submit(self.requests.add(origin.index, now, 0), now)

    def test_empty_queues_snapshot_empty(self):
        snap = take_snapshot(self.ssd, self.hdd)
        assert snap.ssd_inqueue == (0, 0, 0, 0)
        assert snap.hdd_inqueue == (0, 0, 0, 0)

    def test_origin_counts_copied_per_device(self):
        # counts are in Origin order (r, w, p, e), the in-service request included
        self.enqueue(self.ssd, Origin.R)
        self.enqueue(self.ssd, Origin.P)
        self.enqueue(self.ssd, Origin.P)
        self.enqueue(self.hdd, Origin.R)
        snap = take_snapshot(self.ssd, self.hdd)
        assert snap.ssd_inqueue == (1, 0, 2, 0)
        assert snap.hdd_inqueue == (1, 0, 0, 0)

    def test_snapshot_unaffected_by_later_completions(self):
        self.enqueue(self.ssd, Origin.R)
        snap = take_snapshot(self.ssd, self.hdd)
        before = snap.ssd_inqueue
        self.ssd.retire(self.ssd.busy_until)  # drain the device
        assert self.ssd.qsize == 0
        assert self.ssd.inqueue == [0, 0, 0, 0]
        assert snap.ssd_inqueue == before


class TestIntervalTracker:
    def setup_method(self):
        self.tracker = IntervalTracker(ssd_latency_avg=100, hdd_latency_avg=5000)

    def test_idle_window(self):
        stats = self.tracker.close_interval(1000, ssd_qsize=0, hdd_qsize=0)
        assert stats.interval_index == 1
        assert stats.window_start == 0 and stats.window_end == 1000
        assert stats.ssd_served == stats.hdd_served == (0, 0, 0, 0)
        assert stats.ssd_max_latency == stats.hdd_max_latency == 0
        assert (stats.cache_qtime, stats.disk_qtime) == (0, 0)

    def test_single_completion_sets_max_latency(self):
        self.tracker.record_completion(DeviceRole.SSD.index, [1, 0, 0, 0], 250)
        stats = self.tracker.close_interval(1000, 0, 0)
        assert stats.ssd_max_latency == 250
        assert stats.ssd_served == (1, 0, 0, 0)

    def test_retired_windows_add_up_within_a_window(self):
        # a device's windows add per origin; the largest latency wins
        self.tracker.record_completion(DeviceRole.SSD.index, [1, 0, 2, 0], 300)
        self.tracker.record_completion(DeviceRole.SSD.index, [0, 1, 1, 0], 200)
        self.tracker.record_completion(DeviceRole.HDD.index, [0, 0, 0, 0], 0)
        stats = self.tracker.close_interval(1000, 0, 0)
        assert stats.ssd_served == (1, 1, 3, 0)
        assert stats.ssd_max_latency == 300
        assert (stats.hdd_served, stats.hdd_max_latency) == ((0, 0, 0, 0), 0)

    def test_windowed_counters_reset_between_windows(self):
        self.tracker.record_completion(DeviceRole.HDD.index, [0, 1, 0, 0], 400)
        first = self.tracker.close_interval(1000, 0, 0)
        stats = self.tracker.close_interval(2000, 0, 0)
        assert first.hdd_served == (0, 1, 0, 0)
        assert stats.hdd_served == (0, 0, 0, 0)
        assert stats.hdd_max_latency == 0

    def test_qtimes_use_sampled_depths(self):
        stats = self.tracker.close_interval(1000, ssd_qsize=60, hdd_qsize=1)
        assert (stats.cache_qtime, stats.disk_qtime) == (6000, 5000)

    def test_overlapping_windows_rejected(self):
        self.tracker.close_interval(1000, 0, 0)
        with pytest.raises(ValueError):
            self.tracker.close_interval(1000, 0, 0)
