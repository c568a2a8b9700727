"""Unit tests for the open-system simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import DiskAllocation
from repro.core.cost import buckets_per_disk
from repro.core.exceptions import QueryError, SimulationError
from repro.core.grid import Grid
from repro.core.query import RangeQuery, query_at
from repro.core.registry import get_scheme
from repro.simulation.disk import DiskModel
from repro.simulation.open_system import (
    OpenSystemSimulator,
    poisson_arrivals,
    saturation_sweep,
)


def scalar_reference(allocation, queries, arrivals_ms, disk, sequential):
    """The simulator's original query-by-query FIFO replay.

    One ``buckets_per_disk`` call per query, then every touched disk's
    queue in disk order.  Returns ``(latencies, makespan, busy)``.
    """
    arrivals = np.asarray(arrivals_ms, dtype=np.float64)
    free_at = np.zeros(allocation.num_disks, dtype=np.float64)
    busy = np.zeros(allocation.num_disks, dtype=np.float64)
    latencies = []
    for query, arrival in zip(queries, arrivals):
        counts = buckets_per_disk(allocation, query)
        finish = float(arrival)
        for disk_id, count in enumerate(counts):
            if count == 0:
                continue
            service = disk.service_time_ms(int(count), sequential=sequential)
            start = max(free_at[disk_id], arrival)
            free_at[disk_id] = start + service
            busy[disk_id] += service
            finish = max(finish, free_at[disk_id])
        latencies.append(finish - float(arrival))
    return latencies, float(free_at.max()), busy.tolist()


@st.composite
def open_system_cases(draw):
    """A random allocation, a query stream and its arrival times.

    Queries may stick out of the grid (clipped) or lie wholly past it;
    arrival times are drawn from a small pool so ties are common.
    """
    dims = tuple(
        draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
    )
    num_disks = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    table = np.random.default_rng(seed).integers(0, num_disks, size=dims)
    allocation = DiskAllocation(Grid(dims), num_disks, table)
    corner = st.tuples(*(st.integers(0, d + 2) for d in dims))
    extent = st.tuples(*(st.integers(1, 4) for _ in dims))
    queries = [
        RangeQuery(lower, tuple(lo + e - 1 for lo, e in zip(lower, ext)))
        for lower, ext in draw(
            st.lists(st.tuples(corner, extent), min_size=1, max_size=30)
        )
    ]
    pool = draw(
        st.lists(
            st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=6
        )
    )
    arrivals = sorted(
        draw(
            st.lists(
                st.sampled_from(pool),
                min_size=len(queries),
                max_size=len(queries),
            )
        )
    )
    return allocation, queries, arrivals


disk_models = st.one_of(
    st.just(DiskModel()),
    st.builds(
        DiskModel,
        avg_seek_ms=st.floats(0.1, 40.0),
        rotation_ms=st.floats(0.1, 20.0),
        transfer_mb_per_s=st.floats(0.5, 200.0),
        bucket_kb=st.floats(0.5, 64.0),
    ),
)


@pytest.fixture
def allocation():
    return get_scheme("hcam").allocate(Grid((8, 8)), 4)


class TestPoissonArrivals:
    def test_deterministic_given_seed(self):
        a = poisson_arrivals(50, 10.0, seed=4)
        b = poisson_arrivals(50, 10.0, seed=4)
        assert np.array_equal(a, b)

    def test_monotone_increasing(self):
        arrivals = poisson_arrivals(100, 5.0, seed=1)
        assert np.all(np.diff(arrivals) >= 0)

    def test_mean_gap_matches_rate(self):
        arrivals = poisson_arrivals(20_000, 10.0, seed=2)
        mean_gap = float(np.diff(arrivals).mean())
        assert mean_gap == pytest.approx(100.0, rel=0.05)

    def test_invalid_args_rejected(self):
        with pytest.raises(SimulationError):
            poisson_arrivals(0, 10.0)
        with pytest.raises(SimulationError):
            poisson_arrivals(10, 0.0)


class TestOpenSystemSimulator:
    def test_idle_system_latency_is_service_time(self, allocation):
        disk = DiskModel()
        query = query_at((0, 0), (2, 2))
        # Arrivals 10 seconds apart: no queueing at all.
        simulator = OpenSystemSimulator(allocation, disk)
        report = simulator.run([query] * 3, [0.0, 10_000.0, 20_000.0])
        from repro.core.cost import response_time

        expected = disk.service_time_ms(
            response_time(allocation, query)
        )
        for latency in report.latencies_ms:
            assert latency == pytest.approx(expected)

    def test_simultaneous_arrivals_queue(self, allocation):
        query = query_at((0, 0), (2, 2))
        simulator = OpenSystemSimulator(allocation)
        report = simulator.run([query] * 3, [0.0, 0.0, 0.0])
        assert report.latencies_ms == sorted(report.latencies_ms)
        assert report.latencies_ms[2] > report.latencies_ms[0]

    def test_busy_time_independent_of_arrival_pattern(self, allocation):
        queries = [query_at((i, i), (2, 2)) for i in range(5)]
        simulator = OpenSystemSimulator(allocation)
        bunched = simulator.run(queries, [0.0] * 5)
        spread = simulator.run(
            queries, [0.0, 1000.0, 2000.0, 3000.0, 4000.0]
        )
        assert sum(bunched.disk_busy_ms) == pytest.approx(
            sum(spread.disk_busy_ms)
        )

    def test_utilization_at_most_one(self, allocation):
        queries = [query_at((i % 6, i % 6), (2, 2)) for i in range(30)]
        arrivals = poisson_arrivals(30, 50.0, seed=0)
        report = OpenSystemSimulator(allocation).run(queries, arrivals)
        assert 0.0 < report.max_utilization <= 1.0 + 1e-9

    def test_empty_stream_rejected(self, allocation):
        with pytest.raises(SimulationError):
            OpenSystemSimulator(allocation).run([], [])

    def test_arrival_count_mismatch_rejected(self, allocation):
        query = query_at((0, 0), (2, 2))
        with pytest.raises(SimulationError):
            OpenSystemSimulator(allocation).run([query], [0.0, 1.0])

    def test_decreasing_arrivals_rejected(self, allocation):
        query = query_at((0, 0), (2, 2))
        with pytest.raises(SimulationError):
            OpenSystemSimulator(allocation).run(
                [query, query], [5.0, 1.0]
            )

    def test_non_finite_arrivals_rejected(self, allocation):
        query = query_at((0, 0), (2, 2))
        simulator = OpenSystemSimulator(allocation)
        for arrivals in (
            [0.0, float("nan"), 5.0],
            [0.0, 1.0, float("inf")],
            [float("-inf"), 0.0, 1.0],
        ):
            with pytest.raises(SimulationError, match="finite"):
                simulator.run([query] * 3, arrivals)

    def test_wrong_dimension_query_rejected(self, allocation):
        query = RangeQuery((0, 0, 0), (1, 1, 1))
        with pytest.raises(QueryError):
            OpenSystemSimulator(allocation).run([query], [0.0])
        with pytest.raises(QueryError):
            saturation_sweep(allocation, [query], [10.0])

    def test_report_percentile_ordering(self, allocation):
        queries = [query_at((i % 6, 0), (2, 2)) for i in range(40)]
        arrivals = poisson_arrivals(40, 40.0, seed=5)
        report = OpenSystemSimulator(allocation).run(queries, arrivals)
        assert report.p95_latency_ms >= report.mean_latency_ms * 0.5
        assert report.p95_latency_ms <= max(report.latencies_ms)


class TestScalarOracle:
    """The batched simulator against the query-by-query replay, exactly."""

    @settings(deadline=None)
    @given(
        case=open_system_cases(),
        disk=disk_models,
        sequential=st.booleans(),
    )
    def test_oracle_matches_scalar_replay(self, case, disk, sequential):
        allocation, queries, arrivals = case
        report = OpenSystemSimulator(allocation, disk, sequential).run(
            queries, arrivals
        )
        latencies, makespan, busy = scalar_reference(
            allocation, queries, arrivals, disk, sequential
        )
        assert report.latencies_ms == latencies
        assert report.makespan_ms == makespan
        assert report.disk_busy_ms == busy


    @pytest.mark.parametrize("sequential", [False, True])
    def test_long_stream_matches_scalar_replay(self, sequential):
        # Hundreds of segments per disk: any reordering of the busy-time
        # sums or the queue recursion would show in the last bits.
        from repro.workloads.queries import random_queries_of_shape

        allocation = get_scheme("dm").allocate(Grid((12, 9)), 5)
        queries = random_queries_of_shape(
            allocation.grid, (3, 4), 400, seed=3
        )
        arrivals = np.round(poisson_arrivals(400, 90.0, seed=5), 1)
        disk = DiskModel(
            avg_seek_ms=7.3, rotation_ms=9.7, transfer_mb_per_s=3.3,
            bucket_kb=5.9,
        )
        report = OpenSystemSimulator(allocation, disk, sequential).run(
            queries, arrivals
        )
        latencies, makespan, busy = scalar_reference(
            allocation, queries, arrivals, disk, sequential
        )
        assert report.latencies_ms == latencies
        assert report.makespan_ms == makespan
        assert report.disk_busy_ms == busy


class TestSaturationSweep:
    def test_sweep_equals_one_run_per_rate(self, allocation):
        from repro.workloads.queries import random_queries_of_shape

        queries = random_queries_of_shape(
            allocation.grid, (3, 2), 120, seed=8
        )
        rates = [5.0, 80.0, 400.0]
        disk = DiskModel(avg_seek_ms=8.0, transfer_mb_per_s=4.0)
        reports = saturation_sweep(
            allocation, queries, rates, disk=disk, seed=2
        )
        simulator = OpenSystemSimulator(allocation, disk)
        for rate, report in zip(rates, reports):
            single = simulator.run(
                queries, poisson_arrivals(len(queries), rate, seed=2)
            )
            assert report.latencies_ms == single.latencies_ms
            assert report.makespan_ms == single.makespan_ms
            assert report.disk_busy_ms == single.disk_busy_ms

    def test_latency_monotone_in_rate(self, allocation):
        from repro.workloads.queries import random_queries_of_shape

        queries = random_queries_of_shape(
            allocation.grid, (2, 2), 200, seed=6
        )
        reports = saturation_sweep(
            allocation, queries, [5.0, 50.0, 200.0], seed=1
        )
        latencies = [r.mean_latency_ms for r in reports]
        assert latencies == sorted(latencies)

    def test_empty_workload_rejected(self, allocation):
        with pytest.raises(SimulationError):
            saturation_sweep(allocation, [], [10.0])


class TestLoadSweepExperiment:
    def test_light_load_matches_paper_ordering(self):
        from repro.experiments import exp_load_sweep

        result = exp_load_sweep.run(
            grid_dims=(16, 16),
            num_disks=8,
            num_queries=150,
            rates_per_second=(5.0, 60.0),
        )
        light = {
            name: result.series[name][0] for name in result.series
        }
        assert light["hcam"] < light["dm"]
        assert light["cyclic-exh"] <= light["hcam"] + 1e-9

    def test_relative_gap_shrinks_towards_saturation(self):
        from repro.experiments import exp_load_sweep

        result = exp_load_sweep.run(
            grid_dims=(16, 16),
            num_disks=8,
            num_queries=300,
            rates_per_second=(5.0, 100.0),
        )
        light_gap = result.series["dm"][0] / result.series["hcam"][0]
        heavy_gap = result.series["dm"][1] / result.series["hcam"][1]
        assert heavy_gap < light_gap
