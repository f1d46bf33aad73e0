"""Unit tests for the exploration loop (repro.reduction.explore, .cost)."""

import pytest

from repro.reduction.cost import CostBreakdown, CostFunction
from repro.reduction.explore import (ExplorationResult, ExplorationStats,
                                     full_reduction,
                                     full_reduction_with_stats,
                                     reduce_concurrency)
from repro.sg.generator import generate_sg
from repro.sg.properties import csc_conflicts, is_speed_independent
from repro.sg.regions import are_concurrent, concurrent_pairs
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import TABLE1_KEEP_CONC, lr_expanded


@pytest.fixture(scope="module")
def lr_max():
    return generate_sg(lr_expanded())


class TestCostFunction:
    def test_weight_range_checked(self):
        with pytest.raises(ValueError):
            CostFunction(weight=1.5)

    def test_breakdown_fields(self, lr_max):
        breakdown = CostFunction(weight=0.5).breakdown(lr_max)
        assert breakdown.csc_conflict_pairs == 3
        assert breakdown.logic_literals > 0
        assert breakdown.state_count == 16
        assert breakdown.value > 0

    def test_weight_zero_ignores_logic(self, lr_max):
        breakdown = CostFunction(weight=0.0).breakdown(lr_max)
        assert breakdown.value == pytest.approx(
            20.0 * 3 + 1e-3 * 16)

    def test_weight_one_ignores_csc(self, lr_max):
        breakdown = CostFunction(weight=1.0).breakdown(lr_max)
        assert breakdown.value == pytest.approx(
            breakdown.logic_literals + 1e-3 * 16)

    def test_memoised(self, lr_max):
        cost = CostFunction()
        assert cost(lr_max) == cost(lr_max.copy_without_arcs(()))


class TestReduceConcurrency:
    def test_improves_over_initial(self, lr_max):
        result = reduce_concurrency(lr_max)
        assert result.best_cost < result.initial_cost
        assert result.improved
        assert result.explored_count > 1

    def test_best_is_valid_sg(self, lr_max):
        result = reduce_concurrency(lr_max)
        assert is_speed_independent(result.best)
        assert result.best.initial == lr_max.initial

    def test_keep_conc_pairs_survive(self, lr_max):
        result = reduce_concurrency(lr_max, keep_conc=[("li-", "ri-")])
        assert are_concurrent(result.best, "li-", "ri-")

    def test_beam_strategy_runs(self, lr_max):
        result = reduce_concurrency(lr_max, strategy="beam", size_frontier=4)
        assert result.best_cost <= result.initial_cost
        assert result.levels >= 1

    def test_unknown_strategy_rejected(self, lr_max):
        with pytest.raises(ValueError):
            reduce_concurrency(lr_max, strategy="dfs")

    def test_bad_frontier_rejected(self, lr_max):
        with pytest.raises(ValueError):
            reduce_concurrency(lr_max, strategy="beam", size_frontier=0)

    def test_history_recorded(self, lr_max):
        result = reduce_concurrency(lr_max)
        assert result.history
        step = result.history[0]
        assert step.delayed in lr_max.events
        assert step.before in lr_max.events

    def test_no_concurrency_nothing_to_do(self):
        from repro.specs.lr import q_module_stg
        sg = generate_sg(q_module_stg())
        result = reduce_concurrency(sg)
        assert result.best_cost == result.initial_cost
        assert not result.improved

    def test_budget_limits_exploration(self, lr_max):
        small = reduce_concurrency(lr_max, max_explored=5)
        assert small.levels <= 5


class TestExplorationStats:
    """``explored`` means the same thing for every strategy: distinct
    configurations whose cost was evaluated, the input included."""

    def test_stats_attached_and_consistent(self, lr_max):
        for strategy in ("beam", "best-first"):
            result = reduce_concurrency(lr_max, strategy=strategy)
            stats = result.stats
            assert isinstance(stats, ExplorationStats)
            assert stats.strategy == strategy
            assert result.explored_count == stats.explored
            assert 1 <= stats.expanded <= stats.explored
            assert not stats.capped

    def test_full_reduction_stats(self, lr_max):
        best, stats = full_reduction_with_stats(lr_max)
        assert stats.strategy == "full"
        assert stats.expanded <= stats.explored
        assert len(best) == 8
        assert full_reduction(lr_max).signature() == best.signature()

    def test_beam_cap_enforced_inside_level(self, lr_max):
        # The first level alone generates more candidates than this budget;
        # the cap must stop generation mid-level, not after it.
        result = reduce_concurrency(lr_max, strategy="beam", max_explored=3)
        assert result.stats.capped
        assert result.explored_count <= 3

    def test_best_first_cap_counts_distinct_configs(self, lr_max):
        result = reduce_concurrency(lr_max, max_explored=5)
        assert result.stats.capped
        assert result.explored_count <= 5

    def test_full_reduction_cap_enforced_inside_level(self, lr_max):
        best, stats = full_reduction_with_stats(lr_max, max_explored=4)
        assert stats.capped
        assert stats.explored <= 4
        assert best is not None

    def test_history_records_improvements_only(self, lr_max):
        for strategy in ("beam", "best-first"):
            result = reduce_concurrency(lr_max, strategy=strategy)
            costs = [step.cost for step in result.history]
            assert all(late < early for early, late in zip(costs, costs[1:]))
            assert all(cost < result.initial_cost for cost in costs)
            if result.history:
                assert result.history[-1].cost == result.best_cost


class TestFullReduction:
    def test_lr_reaches_two_wires(self, lr_max):
        reduced = full_reduction(lr_max)
        assert concurrent_pairs(reduced) == set()
        assert len(csc_conflicts(reduced)) == 0
        assert len(reduced) == 8  # one fully sequential 8-event cycle

    def test_keep_conc_respected(self, lr_max):
        for name, pairs in TABLE1_KEEP_CONC.items():
            reduced = full_reduction(lr_max, keep_conc=pairs)
            label_a, label_b = pairs[0]
            assert are_concurrent(reduced, label_a, label_b), name

    def test_terminal_has_no_valid_moves_outside_keep(self, lr_max):
        from repro.reduction.fwdred import forward_reduction, reducible_pairs
        reduced = full_reduction(lr_max)
        for before, delayed in reducible_pairs(reduced):
            assert not forward_reduction(reduced, delayed, before).valid

    def test_already_sequential_is_fixed_point(self):
        from repro.specs.lr import q_module_stg
        sg = generate_sg(q_module_stg())
        reduced = full_reduction(sg)
        assert set(reduced.arcs()) == set(sg.arcs())
