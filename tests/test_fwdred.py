"""Unit tests for forward reduction and validity (repro.reduction)."""

import pytest

from repro import engine
from repro.reduction.fwdred import (ReductionError, ReductionResult,
                                    forward_reduction, reducible_pairs)
from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
from repro.reduction.validity import check_validity
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.sg.properties import (is_commutative, is_consistent,
                                 is_output_persistent)
from repro.sg.regions import are_concurrent, concurrent_pairs, excitation_region
from repro.specs.fig1 import fig1_stg
from repro.specs.fragments import fig8_sg
from repro.specs.lr import lr_expanded
from repro.specs.suite import load


class TestFig8:
    """The paper's own worked example of FwdRed (Fig. 8)."""

    def test_fragment_structure(self):
        sg = fig8_sg()
        assert len(sg) == 10
        assert excitation_region(sg, "a") == {"s1", "s3", "s5", "s7"}
        assert excitation_region(sg, "b") == {"s5", "s6"}

    def test_fwdred_a_b(self):
        sg = fig8_sg()
        result = forward_reduction(sg, "a", "b")
        assert result.valid
        reduced = result.sg
        # ER_red(a) = {s7}: the backward reachability from ER(a) /\ ER(b)
        # = {s5} sweeps s3 and s1 inside ER(a).
        assert excitation_region(reduced, "a") == {"s7"}
        # States only reachable through removed arcs disappear.
        for gone in ("s2", "s4", "s6"):
            assert gone not in reduced
        for kept in ("s0", "s1", "s3", "s5", "s7", "s8", "t1"):
            assert kept in reduced

    def test_fwdred_a_b_kills_other_concurrency(self):
        # The paper: reducing (a, b) also removes concurrency of a with d
        # and e, because of the backward sweep.
        reduced = forward_reduction(fig8_sg(), "a", "b").sg
        for other in ("b", "d", "e"):
            assert not are_concurrent(reduced, "a", other)

    def test_fwdred_against_non_concurrent_event(self):
        result = forward_reduction(fig8_sg(), "a", "c")
        assert not result.valid
        assert "not concurrent" in result.reason

    def test_fwdred_same_event_rejected(self):
        with pytest.raises(ReductionError):
            forward_reduction(fig8_sg(), "a", "a")

    def test_fwdred_unknown_event_rejected(self):
        with pytest.raises(ReductionError):
            forward_reduction(fig8_sg(), "zz", "a")

    def test_fwdred_reports_removals(self):
        result = forward_reduction(fig8_sg(), "a", "b")
        assert result.removed_arcs == 3  # arcs from s1, s3, s5
        assert result.removed_states == 3  # s2, s4, s6


class TestValidityRules:
    def test_input_event_cannot_be_delayed(self):
        sg = generate_sg(fig1_stg())
        result = forward_reduction(sg, "Req+", "Ack-")
        assert not result.valid
        assert "input" in result.reason

    def test_output_delayed_by_input_ok(self):
        sg = generate_sg(fig1_stg())
        result = forward_reduction(sg, "Ack-", "Req+")
        assert result.valid
        assert not are_concurrent(result.sg, "Ack-", "Req+")

    def test_fig1_reduction_shrinks_but_keeps_conflict(self):
        # The only reducible pair of Fig. 1 is (Ack-, Req+); serializing it
        # removes a state but the code 11 still appears twice -- Fig. 1's
        # conflict is an encoding problem, not a concurrency problem.
        from repro.sg.properties import csc_conflicts
        sg = generate_sg(fig1_stg())
        reduced = forward_reduction(sg, "Ack-", "Req+").sg
        assert len(reduced) == len(sg) - 1
        assert len(csc_conflicts(reduced)) == 1

    def test_reduction_preserves_si_and_consistency(self):
        sg = generate_sg(lr_expanded())
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if not result.valid:
                continue
            assert is_consistent(result.sg), (before, delayed)
            assert is_commutative(result.sg), (before, delayed)
            assert is_output_persistent(result.sg), (before, delayed)

    def test_reduction_is_monotone_on_arcs(self):
        sg = generate_sg(lr_expanded())
        original_arcs = set(sg.arcs())
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if result.valid:
                assert set(result.sg.arcs()) < original_arcs

    def test_no_events_disappear(self):
        sg = generate_sg(lr_expanded())
        original_events = {label for _, label, _ in sg.arcs()}
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if result.valid:
                reduced_events = {label for _, label, _ in result.sg.arcs()}
                assert reduced_events == original_events

    def test_initial_state_preserved(self):
        sg = generate_sg(lr_expanded())
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if result.valid:
                assert result.sg.initial == sg.initial


class TestReduciblePairs:
    def test_no_input_delays_offered(self):
        sg = generate_sg(lr_expanded())
        for before, delayed in reducible_pairs(sg):
            assert not sg.is_input_label(delayed)

    def test_keep_conc_filters(self):
        sg = generate_sg(lr_expanded())
        all_pairs = reducible_pairs(sg)
        kept = frozenset({frozenset(("li-", "ro-"))})
        filtered = reducible_pairs(sg, kept)
        assert ("li-", "ro-") not in filtered
        assert filtered < all_pairs

    def test_pairs_come_from_concurrency(self):
        sg = generate_sg(lr_expanded())
        conc = concurrent_pairs(sg)
        for before, delayed in reducible_pairs(sg):
            assert tuple(sorted((before, delayed))) in conc


class TestCheckValidity:
    def test_identical_graphs_valid(self):
        sg = generate_sg(fig1_stg())
        assert check_validity(sg, sg.copy_without_arcs(())).valid

    def test_lost_event_detected(self):
        sg = generate_sg(fig1_stg())
        reduced = sg.copy_without_arcs(
            (state, "Ack-") for state in sg.states
            if sg.target(state, "Ack-") is not None)
        report = check_validity(sg, reduced)
        assert not report.valid
        assert any("disappeared" in reason for reason in report.reasons)

    def test_new_deadlock_detected(self):
        sg = generate_sg(fig1_stg())
        state = next(s for s in sg.states if set(sg.enabled(s)) == {"Req+"})
        reduced = sg.copy_without_arcs([(state, "Req+")])
        report = check_validity(sg, reduced)
        assert not report.valid

    def test_changed_initial_detected(self):
        payload = sg_to_payload(generate_sg(fig1_stg()))
        sg = sg_from_payload(payload)
        reduced = sg_from_payload({**payload, "initial": 1})
        report = check_validity(sg, reduced)
        assert not report.valid
        assert any("initial" in reason for reason in report.reasons)

    def test_delayed_input_detected(self):
        sg = generate_sg(fig1_stg())
        state = next(s for s in sg.states
                     if sg.target(s, "Req+") is not None
                     and len(sg.enabled(s)) == 2)
        reduced = sg.copy_without_arcs([(state, "Req+")])
        report = check_validity(sg, reduced)
        assert not report.valid
        assert any("delayed" in reason for reason in report.reasons)


class TestReductionMemo:
    @pytest.mark.parametrize("spec, delayed, before", [
        ("micropipeline", "ain+", "aout+"), ("vme_read", "dtack-", "lds-")])
    def test_result_keeps_parent_name(self, spec, delayed, before):
        # Two graphs with one signature but different names must not share
        # a memoized result: the reduced graph inherits its parent's name.
        stg = load(spec)
        first = forward_reduction(generate_sg(stg, name="a"), delayed, before)
        second = forward_reduction(generate_sg(stg, name="b"), delayed, before)
        assert first.valid and second.valid
        assert (first.sg.name, second.sg.name) == ("a", "b")

    def test_caches_off_leaves_validity_memos_empty(self):
        tables = ("reduction-persistency", "reduction-live-labels")
        sg = generate_sg(load("vme_read"))
        engine.clear_caches()
        try:
            assert forward_reduction(sg, "dtack-", "lds-").valid
            assert all(engine.cache_stats()[t] == 1 for t in tables)
            engine.set_packed_memo(False)
            assert engine.cache_stats()[tables[0]] == 0
            assert forward_reduction(sg, "dtack-", "lds-").valid
            assert all(engine.cache_stats()[t] == 0 for t in tables)
        finally:
            engine.set_packed_memo(True)
