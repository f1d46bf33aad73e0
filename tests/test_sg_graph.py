"""Unit tests for the state graph container (repro.sg.graph)."""

import pytest

from repro.encoding.insertion import (insert_state_signal,
                                      insert_state_signal_sequencing)
from repro.petri.stg import Direction, SignalEvent, SignalKind
from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph, StateGraphError
from repro.specs.fragments import fig8_sg
from repro.specs.lr import q_module_stg


@pytest.fixture
def diamond():
    """a and b concurrent from s0: the four-state diamond."""
    sg = StateGraph("diamond")
    sg.declare_signal("a", SignalKind.OUTPUT)
    sg.declare_signal("b", SignalKind.INPUT)
    sg.declare_event("a+")
    sg.declare_event("b+")
    sg.add_state("s0", (0, 0))
    sg.add_state("s1", (1, 0))
    sg.add_state("s2", (0, 1))
    sg.add_state("s3", (1, 1))
    sg.add_arc("s0", "a+", "s1")
    sg.add_arc("s0", "b+", "s2")
    sg.add_arc("s1", "b+", "s3")
    sg.add_arc("s2", "a+", "s3")
    return sg


class TestConstruction:
    def test_declare_event_parses_label(self, diamond):
        assert diamond.events["a+"] == SignalEvent("a", Direction.RISE)

    def test_declare_event_undeclared_signal(self):
        sg = StateGraph()
        with pytest.raises(StateGraphError):
            sg.declare_event("x+")

    def test_declare_event_explicit(self):
        sg = StateGraph()
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_event("first_a", SignalEvent("a", Direction.RISE))
        assert sg.events["first_a"].signal == "a"

    def test_redeclare_event_conflict(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.declare_event("a+", SignalEvent("b", Direction.RISE))

    def test_undeclared_arc_label_rejected(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.add_arc("s0", "zz", "s1")

    def test_first_state_is_initial(self):
        sg = StateGraph()
        sg.add_state("x")
        assert sg.initial == "x"

    def test_nondeterminism_rejected(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.add_arc("s0", "a+", "s3")

    def test_duplicate_arc_tolerated(self, diamond):
        diamond.add_arc("s0", "a+", "s1")  # same target: fine
        assert diamond.arc_count() == 4

    def test_code_length_checked(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.add_state("bad", (0, 1, 0))


class TestQueries:
    def test_successors_and_predecessors(self, diamond):
        assert diamond.successors("s0") == {"a+": "s1", "b+": "s2"}
        assert diamond.predecessors("s3") == {("b+", "s1"), ("a+", "s2")}

    def test_enabled_and_target(self, diamond):
        assert set(diamond.enabled("s0")) == {"a+", "b+"}
        assert diamond.target("s0", "a+") == "s1"
        assert diamond.target("s3", "a+") is None

    def test_arcs_iteration(self, diamond):
        assert len(list(diamond.arcs())) == 4

    def test_labels_of_signal(self, diamond):
        assert diamond.labels_of_signal("a") == ["a+"]

    def test_is_input_label(self, diamond):
        assert diamond.is_input_label("b+")
        assert not diamond.is_input_label("a+")

    def test_codes(self, diamond):
        assert diamond.code_of("s3") == (1, 1)
        assert diamond.value_of("s1", "a") == 1
        with pytest.raises(StateGraphError):
            diamond.value_of("s1", "zz")

    def test_code_of_missing(self, diamond):
        diamond.add_state("nocode")
        with pytest.raises(StateGraphError):
            diamond.code_of("nocode")

    def test_code_string_marks_excited(self, diamond):
        assert diamond.code_string("s0") == "0*0*"
        assert diamond.code_string("s3") == "11"

    def test_len_and_contains(self, diamond):
        assert len(diamond) == 4
        assert "s0" in diamond
        assert "zz" not in diamond


class TestReachability:
    def test_reachable_from_initial(self, diamond):
        assert diamond.reachable_from() == {"s0", "s1", "s2", "s3"}

    def test_reachable_from_state(self, diamond):
        assert diamond.reachable_from("s1") == {"s1", "s3"}

    def test_backward_reachable(self, diamond):
        assert diamond.backward_reachable(["s3"]) == {"s0", "s1", "s2", "s3"}

    def test_backward_reachable_within(self, diamond):
        within = {"s1", "s3"}
        assert diamond.backward_reachable(["s3"], within=within) == {"s1", "s3"}

    def test_backward_reachable_target_outside_within(self, diamond):
        assert diamond.backward_reachable(["s3"], within={"s0"}) == set()


class TestMutation:
    """Removing arcs derives a new graph; the parent keeps its own."""

    def test_remove_arc(self, diamond):
        reduced = diamond.copy_without_arcs([("s2", "a+")])
        assert reduced.target("s2", "a+") is None
        assert ("a+", "s2") not in reduced.predecessors("s3")
        assert diamond.target("s2", "a+") == "s3"

    def test_copy_is_independent(self, diamond):
        clone = diamond.copy_without_arcs(())
        diamond.add_state("s4", (0, 0))
        assert "s4" not in clone
        clone.copy_without_arcs([("s0", "a+")])
        assert clone.target("s0", "a+") == "s1"
        assert diamond.target("s0", "a+") == "s1"


class TestDerivation:
    """Reductions derive a new graph from a parent instead of editing it."""

    def test_unreachable_states_pruned(self, diamond):
        reduced = diamond.copy_without_arcs([("s0", "a+")])
        assert "s1" not in reduced
        assert reduced.target("s0", "a+") is None
        assert ("b+", "s1") not in reduced.predecessors("s3")

    def test_orphans_dropped(self, diamond):
        diamond.add_state("orphan", (0, 0))
        assert "orphan" not in diamond.copy_without_arcs(())

    def test_copy_preserves_everything(self, diamond):
        clone = diamond.copy_without_arcs((), name="c")
        assert clone.name == "c"
        assert clone.codes == diamond.codes
        assert set(clone.arcs()) == set(diamond.arcs())
        assert clone.initial == diamond.initial
        assert clone.signature() == diamond.signature()


class TestFrozen:
    """Graphs are built once, then read."""

    CONSTRUCTION = [
        lambda sg: sg.declare_signal("c", SignalKind.OUTPUT),
        lambda sg: sg.declare_event("a-"),
        lambda sg: sg.add_state("s4"),
        lambda sg: sg.add_state("s0", (1, 1)),
        lambda sg: sg.add_arc("s3", "a+", "s0"),
        lambda sg: setattr(sg, "initial", "s1"),
    ]

    @pytest.mark.parametrize("construct", CONSTRUCTION)
    def test_construction_rejected_once_frozen(self, diamond, construct):
        construct(diamond)  # still open
        diamond.freeze()
        with pytest.raises(StateGraphError, match="frozen"):
            construct(diamond)

    @pytest.mark.parametrize("view", [
        lambda sg: sg.signature(), lambda sg: sg.compiled(),
        lambda sg: sg.code_int("s0"), lambda sg: sg.predecessors("s3"),
        lambda sg: sg.backward_reachable(["s3"])])
    def test_derived_view_freezes(self, diamond, view):
        assert not diamond.frozen
        view(diamond)
        assert diamond.frozen

    def test_codes_are_read_only(self, diamond):
        with pytest.raises(TypeError):
            diamond.codes["s0"] = (1, 1)
        assert diamond.code_of("s0") == (0, 0)

    def test_builders_return_frozen_graphs(self, diamond):
        generated = generate_sg(q_module_stg())
        built = [generated, generated.copy_without_arcs(()),
                 diamond.copy_without_arcs(()),
                 sg_from_payload(sg_to_payload(generated)), fig8_sg(),
                 insert_state_signal(generated, "ro+", "lo+", "x"),
                 insert_state_signal_sequencing(generated, "ro+", "lo+", "x")]
        assert all(sg is not None and sg.frozen for sg in built)
        assert not diamond.frozen


class TestDot:
    def test_dot_output(self, diamond):
        dot = diamond.to_dot()
        assert "digraph" in dot
        assert '"a+"' in dot
        assert dot.count("->") == 4
