"""Unit tests for CSC state-signal insertion (repro.encoding)."""

import functools
import hashlib
import json
import random
from collections import Counter, deque
from pathlib import Path

import pytest

from repro.encoding.csc import (conflict_cores, conflict_count,
                                conflicting_state_pairs,
                                estimate_csc_signals_needed,
                                irresolvable_conflicts,
                                signals_needing_resolution)
from repro.encoding import insertion
from repro.encoding.insertion import (InsertionChoice, _candidates,
                                      _materialize, enumerate_insertions,
                                      find_insertion, insert_state_signal,
                                      insert_state_signal_sequencing,
                                      resolve_csc)
from repro.obs.metrics import registry
from repro.obs.trace import TraceRecorder, recording
from repro.petri.stg import Direction, SignalEvent, SignalKind
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.sg.properties import (csc_conflicts, is_consistent,
                                 is_output_persistent,
                                 persistency_violations)
from repro.specs.fig1 import fig1_stg
from repro.specs.generate import generate_spec
from repro.specs.lr import lr_expanded, q_module_stg
from repro.sweep.grid import spec_registry


@pytest.fixture(scope="module")
def fig1():
    return generate_sg(fig1_stg())


@pytest.fixture(scope="module")
def q_module():
    return generate_sg(q_module_stg())


class TestConflictAnalysis:
    def test_fig1_core(self, fig1):
        cores = conflict_cores(fig1)
        assert len(cores) == 1
        assert cores[0].code == (1, 1)
        assert len(cores[0].states) == 2

    def test_counts(self, fig1):
        assert conflict_count(fig1) == 1
        assert len(conflicting_state_pairs(fig1)) == 1

    def test_signals_needing_resolution(self, fig1):
        assert signals_needing_resolution(fig1) == {"Ack"}

    def test_estimate_signals_needed(self, fig1):
        assert estimate_csc_signals_needed(fig1) == 1

    def test_fig1_conflict_is_irresolvable(self, fig1):
        # Only input events (Req-; Req+) separate the two 11 states: no
        # internal signal can tell them apart without delaying an input.
        assert len(irresolvable_conflicts(fig1)) == 1

    def test_resolvable_conflicts_not_flagged(self, q_module):
        assert irresolvable_conflicts(q_module) == []


class TestInsertion:
    def test_fig1_resolution_fails_cleanly(self, fig1):
        # The conflict is irresolvable (see above): the search must report
        # failure rather than produce a bogus insertion.
        result = resolve_csc(fig1)
        assert not result.resolved
        assert result.signal_count == 0
        assert result.sg is fig1

    def test_resolved_sg_is_well_formed(self, q_module):
        result = resolve_csc(q_module)
        sg = result.sg
        assert result.resolved
        assert is_consistent(sg)
        assert is_output_persistent(sg)
        assert sg.kinds["csc0"] == SignalKind.INTERNAL

    def test_resolve_q_module(self, q_module):
        result = resolve_csc(q_module)
        assert result.resolved
        assert result.signal_count == 1

    def test_resolve_lr_max_needs_two_signals(self):
        sg = generate_sg(lr_expanded())
        result = resolve_csc(sg)
        assert result.resolved
        assert result.signal_count == 2  # Table 1, "Max. concurrency" row

    def test_already_clean_sg_untouched(self, q_module):
        clean = resolve_csc(q_module).sg
        again = resolve_csc(clean)
        assert again.resolved
        assert again.signal_count == 0
        assert again.sg is clean

    def test_threading_rejects_input_triggers(self, fig1):
        assert insert_state_signal(fig1, "Req+", "Ack-", "x") is None
        assert insert_state_signal(fig1, "Ack-", "Req-", "x") is None

    def test_threading_rejects_same_trigger(self, q_module):
        assert insert_state_signal(q_module, "lo+", "lo+", "x") is None

    def test_threading_rejects_unknown(self, q_module):
        assert insert_state_signal(q_module, "zz", "lo+", "x") is None

    def test_threading_initial_value_validated(self, q_module):
        with pytest.raises(ValueError):
            insert_state_signal(q_module, "lo+", "ro+", "x", initial_value=2)

    @pytest.mark.parametrize("build", [insert_state_signal,
                                       insert_state_signal_sequencing])
    def test_initial_value_validated_before_rejection(self, q_module, build):
        # A candidate rejected on its triggers still has its value checked.
        with pytest.raises(ValueError):
            build(q_module, "lo+", "lo+", "x", initial_value=2)
        with pytest.raises(ValueError):
            build(q_module, "zz", "lo+", "x", initial_value=2)

    def test_threading_extends_codes(self, q_module):
        candidate = insert_state_signal(q_module, "ro+", "lo+", "x")
        assert candidate is not None
        assert len(candidate.signals) == len(q_module.signals) + 1
        assert is_consistent(candidate)

    def test_sequencing_allows_input_triggers(self, q_module):
        candidate = insert_state_signal_sequencing(q_module, "ri+", "li-", "x")
        assert candidate is not None
        assert is_consistent(candidate)

    def test_sequencing_never_delays_inputs(self, q_module):
        candidate = insert_state_signal_sequencing(q_module, "ri+", "li-", "x")
        # Every state that enabled an input in the original enables it in
        # the extension (pending or not).
        for state in candidate.states:
            orig = state[0]
            for label in q_module.enabled(orig):
                if q_module.is_input_label(label):
                    assert candidate.target(state, label) is not None

    def test_enumerate_orders_by_quality(self, q_module):
        choices = enumerate_insertions(q_module, "x")
        assert choices
        keys = [(choice.conflicts_after, choice.states_after)
                for choice in choices]
        assert keys == sorted(keys)

    def test_find_insertion_none_when_clean(self, q_module):
        clean = resolve_csc(q_module).sg
        assert find_insertion(clean, "x") is None

    def test_inserted_signal_participates_in_logic(self, q_module):
        from repro.logic.functions import extract_all_functions
        result = resolve_csc(q_module)
        functions = extract_all_functions(result.sg)
        assert "csc0" in functions
        assert all(not f.has_csc_conflict for f in functions.values())


# ----------------------------------------------------------------------
# Reference: build every candidate, then analyse the built graph.
# ----------------------------------------------------------------------
def _reference_insert(sg, style, rise, fall, signal, value):
    """The candidate SG by direct BFS over ``(state, value, pending)``."""
    if rise == fall or rise not in sg.events or fall not in sg.events:
        return None
    threading = style == "threading"
    if threading and (sg.is_input_label(rise) or sg.is_input_label(fall)):
        return None
    new = StateGraph(f"{sg.name}+{signal}")
    for name in sg.signals:
        new.declare_signal(name, sg.kinds[name])
    new.declare_signal(signal, SignalKind.INTERNAL)
    for label, event in sg.events.items():
        new.declare_event(label, event)
    rise_label, fall_label = f"{signal}+", f"{signal}-"
    new.declare_event(rise_label, SignalEvent(signal, Direction.RISE))
    new.declare_event(fall_label, SignalEvent(signal, Direction.FALL))
    initial = (sg.initial, value, None)
    new.add_state(initial, sg.codes[sg.initial] + (value,))
    queue, seen = deque([initial]), {initial}
    while queue:
        state = queue.popleft()
        orig, level, pending = state
        pushes = []
        if pending is not None:
            pushes.append(((orig, int(pending == "+"), None),
                           rise_label if pending == "+" else fall_label))
        for label, target in sg.successors(orig).items():
            if label not in (rise, fall):
                if threading or pending is None \
                        or sg.is_input_label(label):
                    pushes.append(((target, level, pending), label))
                continue
            if not threading and pending is not None:
                if sg.is_input_label(label):
                    return None  # an input trigger overtook the csc event
                continue
            wanted = 0 if label == rise else 1
            if level != wanted or pending is not None:
                if threading:
                    continue
                return None
            pushes.append(((target, wanted, "+" if wanted == 0 else "-"),
                           label))
        for target, label in pushes:
            if target not in seen:
                seen.add(target)
                new.add_state(target, sg.codes[target[0]] + (target[1],))
                queue.append(target)
            new.add_arc(state, label, target)
        if len(seen) > 8 * max(len(sg), 1):
            return None
    reached = {label for _, label, _ in new.arcs()}
    if any(not new.enabled(state) and sg.enabled(state[0])
           for state in new.states):
        return None
    if not {label for _, label, _ in sg.arcs()} | {rise_label, fall_label} \
            <= reached:
        return None
    return new.freeze()


def _reference_enumerate(sg, signal, require_improvement):
    """Every feasible choice, best first, scored on its built graph."""
    baseline = conflict_count(sg)
    return [choice for choice in _reference_choices(sg, signal)
            if not require_improvement or choice.conflicts_after < baseline]


@functools.lru_cache(maxsize=None)
def _reference_choices(sg, signal):
    """Every feasible choice, improving or not (cached per parent)."""
    if conflict_count(sg) == 0:
        return []
    live = sorted({label for _, label, _ in sg.arcs()})
    non_input = [label for label in live if not sg.is_input_label(label)]
    old = {(v.disabled, v.by) for v in persistency_violations(sg)}
    found = []
    for style, triggers in (("threading", non_input), ("sequencing", live)):
        for rise in triggers:
            for fall in triggers:
                for value in (0, 1):
                    built = _reference_insert(sg, style, rise, fall, signal,
                                              value)
                    if built is None or {(v.disabled, v.by) for v in
                                         persistency_violations(built)} - old:
                        continue
                    conflicts = conflict_count(built)
                    found.append(InsertionChoice(signal, rise, fall, value,
                                                 conflicts, len(built),
                                                 style))
    return sorted(found, key=lambda c: (c.conflicts_after, c.states_after,
                                        c.style, c.rise_trigger,
                                        c.fall_trigger, c.initial_value))


def _random_sg(rng):
    """A small consistent SG: random codes, one-bit arcs, labels that share
    a signal edge (``a+``, ``a+/1``, ``a+/2``); None unless all reachable."""
    signals = ["a", "b", "c"][:rng.randint(2, 3)]
    sg = StateGraph("random")
    for name in signals:
        sg.declare_signal(name, rng.choice([SignalKind.OUTPUT,
                                            SignalKind.OUTPUT,
                                            SignalKind.INPUT]))
        for sign, direction in (("+", Direction.RISE), ("-", Direction.FALL)):
            for instance in ("", "/1", "/2"):
                sg.declare_event(f"{name}{sign}{instance}",
                                 SignalEvent(name, direction))
    codes = [tuple(rng.randint(0, 1) for _ in signals)
             for _ in range(rng.randint(3, 8))]
    for state, code in enumerate(codes):
        sg.add_state(state, code)
    for state, code in enumerate(codes):
        for target, other in enumerate(codes):
            flipped = [k for k, bit in enumerate(code) if bit != other[k]]
            if len(flipped) != 1 or rng.random() >= 0.6:
                continue
            edge = signals[flipped[0]] + ("+" if other[flipped[0]] else "-")
            for instance in rng.sample(["", "/1", "/2"], rng.randint(1, 2)):
                if sg.target(state, edge + instance) is None:
                    sg.add_arc(state, edge + instance, target)
    return sg.freeze() if len(sg.reachable_from()) == len(codes) else None


def _graph_bytes(sg):
    return (sg.states, list(sg.arcs()), dict(sg.codes), sg.signals,
            sg.initial, list(sg.events.items()))


def _choice_digest(choices):
    rows = [[c.style, c.rise_trigger, c.fall_trigger, c.initial_value,
             c.conflicts_after, c.states_after] for c in choices]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: The reference takes seconds to build every candidate of a larger
#: generated SG; those are checked against the recorded digests only.
LIVE_LIMIT = 64

#: Per generated seed 0-59: the SG's state count and the digests
#: (``_choice_digest``) of its ``csc0`` choice lists, captured from
#: ``enumerate_insertions`` when it still built and analysed every
#: candidate -- ``"all"`` with ``require_improvement=False``,
#: ``"improving"`` with True.
RECORDED = json.loads((Path(__file__).parent / "data"
                       / "insertion_reference.json").read_text())


@functools.lru_cache(maxsize=None)
def _generated_sg(seed):
    return generate_sg(generate_spec(seed).build())


def _check_top_choice(sg, choices):
    top = choices[0]
    built = _materialize(sg, top)
    assert conflict_count(built) == top.conflicts_after
    assert len(built) == top.states_after
    return built


class TestScoring:
    """Scored choices equal the choices of building every candidate."""

    @pytest.mark.parametrize("require_improvement", [True, False])
    def test_registry_specs_match_reference(self, require_improvement):
        for name, build in spec_registry().items():
            if name == "mmu":
                continue
            sg = generate_sg(build())
            for level in range(3):
                signal = f"csc{level}"
                choices = enumerate_insertions(sg, signal,
                                               require_improvement)
                assert choices == _reference_enumerate(
                    sg, signal, require_improvement), (name, level)
                if not choices:
                    break
                top = choices[0]
                built = _check_top_choice(sg, choices)
                assert _graph_bytes(built) == _graph_bytes(_reference_insert(
                    sg, top.style, top.rise_trigger, top.fall_trigger,
                    signal, top.initial_value))
                sg = built

    @pytest.mark.parametrize("require_improvement", [True, False])
    def test_small_generated_specs_match_reference(self, require_improvement):
        key = "improving" if require_improvement else "all"
        live = [seed for seed in range(60)
                if RECORDED[str(seed)]["states"] <= LIVE_LIMIT]
        for seed in live:
            sg = _generated_sg(seed)
            assert len(sg) == RECORDED[str(seed)]["states"]
            choices = enumerate_insertions(sg, "csc0", require_improvement)
            reference = _reference_enumerate(sg, "csc0", require_improvement)
            assert choices == reference, seed
            assert _choice_digest(reference) == RECORDED[str(seed)][key]
            if choices:
                _check_top_choice(sg, choices)

    @pytest.mark.parametrize("seed", [
        seed for seed in range(60)
        if RECORDED[str(seed)]["states"] > LIVE_LIMIT])
    def test_large_generated_specs_match_recorded_reference(self, seed):
        sg = _generated_sg(seed)
        assert len(sg) == RECORDED[str(seed)]["states"]
        choices = enumerate_insertions(sg, "csc0", require_improvement=False)
        assert _choice_digest(choices) == RECORDED[str(seed)]["all"]
        baseline = conflict_count(sg)
        improving = [choice for choice in choices
                     if choice.conflicts_after < baseline]
        assert _choice_digest(improving) == RECORDED[str(seed)]["improving"]
        if choices:
            _check_top_choice(sg, choices)

    def test_generated_specs_have_conflicts(self):
        # Most generated specs exercise the scorer (188 of a 200-seed
        # sample have CSC conflicts).
        with_choices = [seed for seed, entry in RECORDED.items()
                        if entry["all"] != _choice_digest([])]
        assert len(with_choices) > 40

    def test_random_graphs_match_reference(self):
        # Tiny random SGs reach what the specs never do: two labels of one
        # signal edge enabled together, events lost without a deadlock,
        # parents that deadlock or violate persistency themselves.
        rng = random.Random(0)
        graphs = []
        while len(graphs) < 100:
            sg = _random_sg(rng)
            if sg is not None:
                graphs.append(sg)
        for index, sg in enumerate(graphs):
            for require_improvement in (True, False):
                assert enumerate_insertions(sg, "x", require_improvement) \
                    == _reference_enumerate(sg, "x", require_improvement), \
                    index

    def test_delays_the_parent_already_violates_are_allowed(self):
        # At t, p+ disables q+.  Sequencing after p+ from s0 delays q+ until
        # csc+ fires: the same (q+, p+) pair, so not a new violation.
        sg = StateGraph("shared-violation")
        for name in "pq":
            sg.declare_signal(name, SignalKind.OUTPUT)
        for source, label, target, code in [
                ("s0", "p+", "s1", (0, 0)), ("s0", "q+", "s2", (0, 0)),
                ("s1", "q+", "s3", (1, 0)), ("s2", "p+", "s3", (0, 1)),
                ("s3", "p-", "s4", (1, 1)), ("s4", "q-", "t", (0, 1)),
                ("t", "p+", "t1", (0, 0)), ("t", "q+", "t2", (0, 0)),
                ("t1", "p-", "s0", (1, 0)), ("t2", "q-", "s0", (0, 1))]:
            if label not in sg.events:
                sg.declare_event(label)
            sg.add_state(source, code)
            sg.add_arc(source, label, target)
        sg.freeze()
        assert {(v.disabled, v.by) for v in persistency_violations(sg)} == {
            ("q+", "p+"), ("p+", "q+")}
        choices = enumerate_insertions(sg, "x", require_improvement=False)
        assert choices == _reference_enumerate(sg, "x", False)
        assert ("sequencing", "p+", "p-", 0) in [
            (c.style, c.rise_trigger, c.fall_trigger, c.initial_value)
            for c in choices]

    def test_builders_match_reference_on_every_candidate(self, q_module):
        for style, rise, fall in _candidates(q_module):
            for value in (0, 1):
                choice = InsertionChoice("x", rise, fall, value, 0, 0, style)
                built = _materialize(q_module, choice)
                expected = _reference_insert(q_module, style, rise, fall,
                                             "x", value)
                assert (built is None) == (expected is None)
                if built is not None:
                    assert _graph_bytes(built) == _graph_bytes(expected)


class TestWork:
    def test_resolve_builds_only_the_beam(self, monkeypatch):
        builds = Counter()
        for name in ("insert_state_signal", "insert_state_signal_sequencing"):
            original = getattr(insertion, name)

            def counting(sg, rise, fall, signal, *args, _original=original):
                builds[signal] += 1
                return _original(sg, rise, fall, signal, *args)

            monkeypatch.setattr(insertion, name, counting)
        result = resolve_csc(generate_sg(lr_expanded()), beam_width=5)
        assert result.resolved and result.signal_count == 2
        assert set(builds) == {"csc0", "csc1"}
        assert all(count <= 5 + 1 for count in builds.values())

    def test_levels_are_traced_and_counted(self):
        names = ("scored", "materialized")
        before = {name: registry().value(
            f"repro_csc_candidates_{name}_total") or 0 for name in names}
        recorder = TraceRecorder()
        with recording(recorder):
            resolve_csc(generate_sg(lr_expanded()))
        levels = [span.attrs for span in _walk_spans(recorder.roots)
                  if span.name == "resolve:level"]
        assert [level["signal"] for level in levels] == ["csc0", "csc1"]
        for level in levels:
            assert level["scored"] >= level["feasible"] > 0
            assert 1 <= level["materialized"] <= 5
        for name in names:
            counted = registry().value(f"repro_csc_candidates_{name}_total")
            assert counted - before[name] == sum(level[name]
                                                 for level in levels)


def _walk_spans(spans):
    for span in spans:
        yield span
        yield from _walk_spans(span.children)
