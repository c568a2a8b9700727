"""Unit tests for the replica-choice query planner."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import DiskAllocation
from repro.core.cost import optimal_response_time, response_time
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import RangeQuery, all_placements, query_at
from repro.core.registry import get_scheme
from repro.faults.degraded import degraded_optimal_response_time
from repro.faults.models import FailStop, FaultScenario, Slowdown
from repro.replication import (
    chained_replication,
    degraded_replicated_response_time,
    orthogonal_replication,
    plan_batch,
    plan_query,
    replicated_response_time,
    replication_speedup,
)
from repro.replication.allocation import ReplicatedAllocation
from repro.replication.planner import _class_flow, _EPS


@pytest.fixture
def grid():
    return Grid((16, 16))


@pytest.fixture
def chained_dm(grid):
    return chained_replication(get_scheme("dm").allocate(grid, 8))


class TestPlanValidity:
    @pytest.mark.parametrize("method", ["flow", "greedy"])
    def test_assignment_uses_only_the_two_replicas(
        self, chained_dm, method
    ):
        plan = plan_query(
            chained_dm, query_at((3, 3), (3, 4)), method=method
        )
        for coords, disk in plan.assignment.items():
            assert disk in chained_dm.disks_of(coords)

    @pytest.mark.parametrize("method", ["flow", "greedy"])
    def test_every_bucket_assigned_once(self, chained_dm, method):
        query = query_at((0, 0), (4, 4))
        plan = plan_query(chained_dm, query, method=method)
        assert plan.num_buckets == 16
        assert plan.loads.sum() == 16

    def test_loads_match_assignment(self, chained_dm):
        plan = plan_query(chained_dm, query_at((2, 2), (3, 3)))
        recounted = np.zeros(chained_dm.num_disks, dtype=np.int64)
        for disk in plan.assignment.values():
            recounted[disk] += 1
        assert np.array_equal(plan.loads, recounted)

    def test_query_outside_grid_is_empty_plan(self, chained_dm):
        plan = plan_query(chained_dm, RangeQuery((40, 40), (42, 42)))
        assert plan.num_buckets == 0
        assert plan.response_time == 0

    def test_overhanging_query_clipped(self, chained_dm):
        inside = plan_query(chained_dm, query_at((14, 14), (2, 2)))
        overhang = plan_query(
            chained_dm, RangeQuery((14, 14), (20, 20))
        )
        assert overhang.num_buckets == inside.num_buckets

    def test_unknown_method_rejected(self, chained_dm):
        with pytest.raises(QueryError):
            plan_query(chained_dm, query_at((0, 0), (2, 2)), method="magic")

    def test_dimension_mismatch_rejected(self, chained_dm):
        with pytest.raises(QueryError):
            plan_query(chained_dm, RangeQuery((0,), (1,)))


class TestOptimality:
    def test_flow_never_worse_than_greedy(self, chained_dm):
        for query in all_placements(chained_dm.grid, (3, 3)):
            flow_rt = replicated_response_time(
                chained_dm, query, "flow"
            )
            greedy_rt = replicated_response_time(
                chained_dm, query, "greedy"
            )
            assert flow_rt <= greedy_rt

    def test_flow_never_below_information_bound(self, chained_dm):
        for query in all_placements(chained_dm.grid, (4, 2)):
            rt = replicated_response_time(chained_dm, query, "flow")
            assert rt >= optimal_response_time(
                query.num_buckets, chained_dm.num_disks
            )

    def test_replication_never_hurts(self, chained_dm):
        for query in all_placements(chained_dm.grid, (2, 2)):
            replicated = replicated_response_time(
                chained_dm, query, "flow"
            )
            primary_only = response_time(chained_dm.primary, query)
            assert replicated <= primary_only

    def test_chained_fixes_dm_small_squares(self, chained_dm):
        # The headline: DM + one chained copy answers every 2x2 at the
        # optimum (DM alone is 2x optimal on all of them).
        for query in all_placements(chained_dm.grid, (2, 2)):
            assert replicated_response_time(
                chained_dm, query, "flow"
            ) == 1

    def test_flow_exactness_by_brute_force(self):
        # Exhaustively check the flow planner against all 2^|Q| replica
        # choices on small queries.
        import itertools

        grid = Grid((6, 6))
        replicated = chained_replication(
            get_scheme("dm").allocate(grid, 3)
        )
        for query in [
            query_at((0, 0), (2, 2)),
            query_at((1, 2), (2, 3)),
            query_at((3, 0), (3, 2)),
        ]:
            buckets = list(query.iter_buckets())
            pairs = [replicated.disks_of(b) for b in buckets]
            best = None
            for choice in itertools.product((0, 1), repeat=len(pairs)):
                loads = np.zeros(3, dtype=np.int64)
                for pick, pair in zip(choice, pairs):
                    loads[pair[pick]] += 1
                cost = int(loads.max())
                best = cost if best is None else min(best, cost)
            assert replicated_response_time(
                replicated, query, "flow"
            ) == best

    def test_speedup_at_least_one(self, chained_dm):
        for query in all_placements(chained_dm.grid, (3, 3)):
            assert replication_speedup(chained_dm, query) >= 1.0

    def test_speedup_two_on_dm_2x2(self, chained_dm):
        assert replication_speedup(
            chained_dm, query_at((4, 4), (2, 2))
        ) == pytest.approx(2.0)


class TestDegradedModePerformance:
    def test_degraded_rt_bounded_by_double(self):
        # Chained: a failed disk's work moves to one neighbour, so any
        # query's degraded RT is at most twice its healthy RT.
        grid = Grid((16, 16))
        replicated = chained_replication(
            get_scheme("hcam").allocate(grid, 8)
        )
        survivor = replicated.surviving_allocation(3)
        for query in all_placements(grid, (3, 3)):
            healthy = response_time(replicated.primary, query)
            degraded = response_time(survivor, query)
            assert degraded <= 2 * healthy

    def test_degraded_remains_complete(self):
        grid = Grid((8, 8))
        replicated = chained_replication(
            get_scheme("dm").allocate(grid, 4)
        )
        survivor = replicated.surviving_allocation(0)
        # Every query still reads all its buckets.
        query = query_at((1, 1), (4, 4))
        from repro.core.cost import buckets_per_disk

        assert buckets_per_disk(survivor, query).sum() == 16

    def test_mean_degradation_is_moderate(self):
        # Averaged over placements, losing 1 of 8 disks costs well under
        # the 2x worst case.
        grid = Grid((16, 16))
        replicated = chained_replication(
            get_scheme("hcam").allocate(grid, 8)
        )
        survivor = replicated.surviving_allocation(2)
        from repro.core.cost import average_response_time

        healthy = average_response_time(replicated.primary, (4, 4))
        degraded = average_response_time(survivor, (4, 4))
        assert healthy <= degraded <= 1.6 * healthy


class TestOrthogonalPlanning:
    def test_orthogonal_copies_cover_both_weaknesses(self):
        grid = Grid((16, 16))
        replicated = orthogonal_replication(grid, 8, "dm", "hcam")
        # Square query: DM primary is bad, HCAM backup fixes it.
        square = query_at((3, 3), (2, 2))
        assert replicated_response_time(replicated, square, "flow") == 1
        # Row query: DM primary is already optimal.
        row = query_at((5, 0), (1, 16))
        assert replicated_response_time(
            replicated, row, "flow"
        ) == optimal_response_time(16, 8)


class TestDegradedPlanning:
    """plan_query with a FaultScenario: routing around failures."""

    @pytest.fixture
    def chained_small(self):
        grid = Grid((6, 6))
        return chained_replication(get_scheme("dm").allocate(grid, 3))

    @pytest.mark.parametrize("method", ["flow", "greedy"])
    def test_failed_disk_never_assigned(self, chained_dm, method):
        scenario = FaultScenario(8, [FailStop(3)])
        for query in all_placements(chained_dm.grid, (3, 3)):
            plan = plan_query(
                chained_dm, query, method=method, scenario=scenario
            )
            assert 3 not in plan.assignment.values()
            assert plan.loads[3] == 0

    def test_single_failure_keeps_plans_complete(self, chained_dm):
        scenario = FaultScenario(8, [FailStop(5)])
        for query in all_placements(chained_dm.grid, (4, 4)):
            plan = plan_query(chained_dm, query, scenario=scenario)
            assert plan.is_complete
            assert plan.num_lost == 0
            assert plan.loads.sum() == query.num_buckets

    def test_healthy_scenario_takes_the_healthy_path(self, chained_dm):
        query = query_at((2, 3), (3, 3))
        plain = plan_query(chained_dm, query)
        via_scenario = plan_query(
            chained_dm, query, scenario=FaultScenario.healthy(8)
        )
        assert via_scenario.assignment == plain.assignment
        assert via_scenario.factors is None
        assert via_scenario.completion_time == plain.response_time

    def test_lost_buckets_recorded(self, chained_small):
        # Adjacent failures {0, 1} on offset-1 chaining kill every
        # bucket whose copies are exactly (0, 1).
        scenario = FaultScenario(3, [FailStop([0, 1])])
        query = query_at((0, 0), (3, 3))
        plan = plan_query(chained_small, query, scenario=scenario)
        expected_lost = {
            coords
            for coords in query.iter_buckets()
            if chained_small.disks_of(coords) == (0, 1)
        }
        assert set(plan.lost) == expected_lost
        assert plan.num_lost == len(expected_lost)
        assert not plan.is_complete
        assert plan.loads.sum() == query.num_buckets - plan.num_lost

    def test_completion_time_is_weighted_busiest_disk(self, chained_dm):
        scenario = FaultScenario(
            8, [FailStop(0), Slowdown(1, 2.5)]
        )
        plan = plan_query(
            chained_dm, query_at((1, 1), (4, 4)), scenario=scenario
        )
        expected = (plan.loads * scenario.factors).max()
        assert plan.completion_time == pytest.approx(expected)

    def test_flow_never_worse_than_greedy_degraded(self, chained_small):
        scenario = FaultScenario(3, [FailStop(2), Slowdown(0, 2.0)])
        for query in all_placements(chained_small.grid, (2, 3)):
            flow = degraded_replicated_response_time(
                chained_small, query, scenario, "flow"
            )
            greedy = degraded_replicated_response_time(
                chained_small, query, scenario, "greedy"
            )
            assert flow <= greedy + 1e-9

    def test_flow_never_below_degraded_optimum(self, chained_dm):
        scenario = FaultScenario(8, [FailStop([2, 6])])
        for query in all_placements(chained_dm.grid, (4, 2)):
            plan = plan_query(chained_dm, query, scenario=scenario)
            served = query.num_buckets - plan.num_lost
            assert plan.completion_time >= degraded_optimal_response_time(
                served, scenario
            ) - 1e-9

    def test_degraded_flow_exactness_by_brute_force(self, chained_small):
        # Exhaustively check every surviving replica choice, including
        # straggler weighting, against the flow planner's completion.
        import itertools

        scenario = FaultScenario(
            3, [FailStop(1), Slowdown(2, 2.0)]
        )
        for query in [
            query_at((0, 0), (2, 2)),
            query_at((1, 2), (2, 3)),
            query_at((3, 0), (3, 2)),
        ]:
            choices = []
            for coords in query.iter_buckets():
                alive = [
                    d
                    for d in chained_small.disks_of(coords)
                    if not scenario.is_failed(d)
                ]
                choices.append(alive)
            best = None
            for picks in itertools.product(*choices):
                loads = np.zeros(3, dtype=np.int64)
                for disk in picks:
                    loads[disk] += 1
                cost = float((loads * scenario.factors).max())
                best = cost if best is None else min(best, cost)
            planned = degraded_replicated_response_time(
                chained_small, query, scenario, "flow"
            )
            assert planned == pytest.approx(best)

    def test_scenario_disk_count_must_match(self, chained_dm):
        with pytest.raises(QueryError):
            plan_query(
                chained_dm,
                query_at((0, 0), (2, 2)),
                scenario=FaultScenario.healthy(4),
            )

    def test_empty_degraded_plan(self, chained_dm):
        plan = plan_query(
            chained_dm,
            RangeQuery((40, 40), (42, 42)),
            scenario=FaultScenario(8, [FailStop(0)]),
        )
        assert plan.num_buckets == 0
        assert plan.completion_time == 0.0
        assert plan.is_complete


#: Straggler factors with short binary expansions: every weighted time
#: ``load * factor`` is exact, so the optimum is one well-defined float.
DYADIC_FACTORS = (1.25, 1.5, 2.0, 2.5, 3.0, 4.0)


@st.composite
def replicated_scenarios(draw, whole_grid=False):
    """A random two-copy layout, a query inside it and a fault scenario.

    ``whole_grid`` makes the query cover the grid, so bound searches run
    over more buckets.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    num_disks = draw(st.integers(2, 6))
    grid = Grid((rows, cols))
    primary = np.array(
        draw(st.lists(st.integers(0, num_disks - 1),
                      min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    shift = np.array(
        draw(st.lists(st.integers(1, num_disks - 1),
                      min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    replicated = ReplicatedAllocation(
        DiskAllocation(grid, num_disks, primary),
        DiskAllocation(grid, num_disks, (primary + shift) % num_disks),
    )
    low = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
    high = (draw(st.integers(low[0], rows - 1)),
            draw(st.integers(low[1], cols - 1)))
    if whole_grid:
        low, high = (0, 0), (rows - 1, cols - 1)
    failed = draw(st.sets(st.integers(0, num_disks - 1)))
    slow = draw(st.lists(
        st.builds(Slowdown, st.integers(0, num_disks - 1),
                  st.sampled_from(DYADIC_FACTORS)),
        max_size=3,
    ))
    faults = ([FailStop(sorted(failed))] if failed else []) + slow
    scenario = FaultScenario(num_disks, faults)
    return replicated, RangeQuery(low, high), scenario


def _brute_force_completion(options, factors):
    """Smallest ``max_d load_d * factor_d`` over every copy choice."""
    if not options:
        return 0.0
    picks = np.array(list(itertools.product(*options)))
    loads = np.stack(
        [(picks == disk).sum(axis=1) for disk in range(factors.size)],
        axis=1,
    )
    return float((loads * factors).max(axis=1).min())


class TestFlowAgainstBruteForce:
    @given(case=replicated_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_flow_plan_is_optimal_and_consistent(self, case):
        replicated, query, scenario = case
        plan = plan_query(replicated, query, "flow", scenario=scenario)
        surviving = {}
        lost = []
        for coords in query.iter_buckets():
            alive = tuple(
                d for d in replicated.disks_of(coords)
                if not scenario.is_failed(d)
            )
            if alive:
                surviving[coords] = alive
            else:
                lost.append(coords)
        assert plan.lost == tuple(lost)
        assert set(plan.assignment) == set(surviving)
        for coords, disk in plan.assignment.items():
            assert disk in surviving[coords]
        recounted = np.bincount(
            list(plan.assignment.values()),
            minlength=replicated.num_disks,
        )
        assert np.array_equal(plan.loads, recounted)
        assert plan.completion_time == _brute_force_completion(
            list(surviving.values()), scenario.factors
        )
        greedy = plan_query(replicated, query, "greedy", scenario=scenario)
        assert plan.completion_time <= greedy.completion_time


@st.composite
def planning_batches(draw):
    """A random 2-D or 3-D two-copy layout, a query batch and a scenario.

    Query corners range past the grid, so batches mix inside, clipped
    and fully outside (zero-bucket) queries.  The scenario is absent,
    healthy (no fail-stops), or random fail-stops and dyadic slowdowns.
    """
    ndim = draw(st.sampled_from((2, 3)))
    dims = tuple(
        draw(st.integers(1, 6 if ndim == 2 else 4)) for _ in range(ndim)
    )
    num_disks = draw(st.integers(2, 6))
    size = int(np.prod(dims))
    primary = np.array(
        draw(st.lists(st.integers(0, num_disks - 1),
                      min_size=size, max_size=size))
    ).reshape(dims)
    shift = np.array(
        draw(st.lists(st.integers(1, num_disks - 1),
                      min_size=size, max_size=size))
    ).reshape(dims)
    grid = Grid(dims)
    replicated = ReplicatedAllocation(
        DiskAllocation(grid, num_disks, primary),
        DiskAllocation(grid, num_disks, (primary + shift) % num_disks),
    )
    corner = st.tuples(*(st.integers(0, d + 2) for d in dims))
    extent = st.tuples(*(st.integers(0, d + 2) for d in dims))
    queries = [
        RangeQuery(low, tuple(lo + ext for lo, ext in zip(low, span)))
        for low, span in draw(
            st.lists(st.tuples(corner, extent), min_size=0, max_size=8)
        )
    ]
    kind = draw(st.sampled_from(("none", "healthy", "faulty")))
    if kind == "none":
        return replicated, queries, None
    if kind == "healthy":
        return replicated, queries, FaultScenario(num_disks)
    failed = draw(st.sets(st.integers(0, num_disks - 1)))
    slow = draw(st.lists(
        st.builds(Slowdown, st.integers(0, num_disks - 1),
                  st.sampled_from(DYADIC_FACTORS)),
        max_size=3,
    ))
    faults = ([FailStop(sorted(failed))] if failed else []) + slow
    return replicated, queries, FaultScenario(num_disks, faults)


class TestPlanBatch:
    @pytest.mark.parametrize("method", ["flow", "greedy"])
    @given(case=planning_batches())
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_plan_query(self, method, case):
        replicated, queries, scenario = case
        batch = plan_batch(replicated, queries, method, scenario=scenario)
        assert batch.loads.shape == (len(queries), replicated.num_disks)
        for row, query in enumerate(queries):
            plan = plan_query(replicated, query, method, scenario=scenario)
            assert np.array_equal(batch.loads[row], plan.loads)
            assert batch.response_times[row] == plan.response_time
            assert batch.completion_times[row] == plan.completion_time
            assert batch.num_lost[row] == plan.num_lost

    def test_same_validation_as_plan_query(self, chained_dm):
        with pytest.raises(QueryError):
            plan_batch(chained_dm, [query_at((0, 0), (2, 2))], "magic")
        with pytest.raises(QueryError):
            plan_batch(
                chained_dm, [query_at((0, 0), (2, 2))],
                scenario=FaultScenario(4),
            )
        with pytest.raises(QueryError):
            plan_batch(chained_dm, [RangeQuery((0,), (2,))])

    def test_pair_engine_is_built_once(self, chained_dm):
        assert chained_dm.pair_engine() is chained_dm.pair_engine()
        primary_of, backup_of, engine = chained_dm.pair_engine()
        # Chained copies: one pair per primary disk.
        assert engine.num_disks == chained_dm.num_disks
        assert np.array_equal(
            backup_of, (primary_of + 1) % chained_dm.num_disks
        )


def _dealt_flow_assignment(first, second, factors, limit):
    """Row-major deal of :func:`_class_flow` at bound ``limit``."""
    low, high = np.minimum(first, second), np.maximum(first, second)
    classes = sorted(set(zip(low.tolist(), high.tolist())))
    class_low = np.array([c[0] for c in classes], dtype=np.int64)
    class_high = np.array([c[1] for c in classes], dtype=np.int64)
    count = np.array(
        [sum(1 for pair in zip(low.tolist(), high.tolist()) if pair == c)
         for c in classes],
        dtype=np.int64,
    )
    used = sorted(set(class_low.tolist()) | set(class_high.tolist()))
    flow = _class_flow(
        class_low, class_high, count, used,
        (limit / factors + _EPS).astype(np.int64),
    )
    assert flow is not None
    dealt = dict.fromkeys(classes, 0)
    disks = []
    for pair in zip(low.tolist(), high.tolist()):
        k = classes.index(pair)
        disks.append(pair[0] if dealt[pair] < flow[k] else pair[1])
        dealt[pair] += 1
    return disks


class TestAssignmentPinnedToOptimalFlow:
    @given(case=replicated_scenarios(whole_grid=True))
    @settings(max_examples=300, deadline=None)
    def test_assignment_is_dealt_flow_at_the_optimum(self, case):
        # Whatever order the bound search probes candidates in, the
        # assignment is the flow found at the brute-force optimal bound
        # (or the first copies, when they are already optimal).
        replicated, query, scenario = case
        plan = plan_query(replicated, query, "flow", scenario=scenario)
        first, second = [], []
        for coords in query.iter_buckets():
            primary, backup = replicated.disks_of(coords)
            alive = [d for d in (primary, backup)
                     if not scenario.is_failed(d)]
            if alive:
                first.append(alive[0])
                second.append(alive[-1])
        if not first:
            assert plan.assignment == {}
            return
        first = np.array(first, dtype=np.int64)
        second = np.array(second, dtype=np.int64)
        factors = scenario.factors
        optimum = _brute_force_completion(
            [sorted({a, b}) for a, b in zip(first, second)], factors
        )
        first_copies = float(
            (np.bincount(first, minlength=factors.size) * factors).max()
        )
        if optimum == first_copies:
            expected = first.tolist()
        else:
            expected = _dealt_flow_assignment(
                first, second, factors, optimum
            )
        assert list(plan.assignment.values()) == expected
