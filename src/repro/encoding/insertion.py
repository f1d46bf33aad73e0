"""State-signal insertion for CSC resolution: score on the parent, build the survivors.

When concurrency reduction leaves CSC conflicts, an internal state signal is
inserted by *threading* it through the behaviour: for a chosen pair of
non-input trigger events ``x`` and ``y`` the executions are constrained to
the cyclic order::

    x ; csc+ ; y ; csc- ; x ; ...

``csc+`` fires after ``x`` (concurrently with everything else), ``y`` waits
for ``csc+``, and the next ``x`` waits for ``csc-``.  This is the SG-level
analogue of threading an interface constraint through the STG and has the
properties Definition 5.1 demands by construction:

* only ``x`` and ``y`` are ever delayed, and both are non-input events, so
  the I/O interface is untouched;
* output persistency is preserved: a delayed event is simply not enabled in
  the new SG until its csc phase is reached -- it is never enabled and then
  disabled (assuming the input SG is persistent and the triggers alternate);
* consistency holds by construction (the csc value is part of the state).

No candidate is built to be judged.  As in the region-based view of state
assignment (Cortadella et al., IEEE TCAD 16(8), 1997), the extended SG is the
parent's states split by the new signal's value and pending transition, so
:func:`_walk` explores it on the parent's compiled arrays, with product
states packed into ints ``orig * 6 + value * 3 + pending``.  Each candidate
is scored from its walk (feasibility, new persistency violations, CSC
conflicts, states); the search prefers the fewest conflicts, then the fewest
states.  Only what :func:`resolve_csc` keeps is built, from the same walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from ..petri.stg import Direction, SignalEvent, SignalKind
from ..sg.graph import StateGraph
from ..sg.properties import persistency_violations
from .csc import conflict_count


@dataclass(frozen=True)
class InsertionChoice:
    """A committed insertion: triggers, style and the quality of the result."""

    signal: str
    rise_trigger: str   # x: csc+ fires right after this event
    fall_trigger: str   # y: csc- fires right after this event
    initial_value: int
    conflicts_after: int
    states_after: int
    style: str = "threading"


#: The pending csc transition of a product phase (``q % 6``), and the
#: phase it completes to: ``+`` to value 1, ``-`` to value 0.
_PENDING = (None, "+", "-", None, "+", "-")
_CSC_TARGET = (0, 3, 0, 0, 3, 0)


class _Parent:
    """A parent SG's arrays: per state, its arcs as ``(label id, target *
    6)`` (``moves``, ``input_moves``) and its label mask (``enabled``).
    Label ids ``size`` and ``size + 1`` are ``csc+`` and ``csc-``."""

    def __init__(self, sg: StateGraph) -> None:
        compiled = self.compiled = sg.compiled()
        self.start = compiled.index[sg.initial]
        self.size = len(compiled.labels)
        self.inputs = sum(1 << lid for lid, flag in enumerate(compiled.is_input)
                          if flag)
        self.moves = [[(lid, tid * 6) for lid, tid in out.items()]
                      for out in compiled.succ]
        self.input_moves = [[move for move in moves
                             if self.inputs >> move[0] & 1]
                            for moves in self.moves]
        self.enabled = [sum(1 << lid for lid in out) for out in compiled.succ]
        self.live = sum(1 << lid for lid in set().union(*compiled.succ))


def _walk(parent: _Parent, r: int, f: int, value: int, sequencing: bool
          ) -> Optional[Tuple[List[int], List[int]]]:
    """Breadth-first walk of a candidate (triggers ``r``, ``f``) as a product.

    Returns the product states in discovery order with their label masks,
    or None when a sequencing trigger fires out of phase, a state newly
    deadlocks, or an event (csc ones included) never fires.  Four phases
    are reachable per parent state: the product stays within 4 * |SG|.
    """
    csc = 1 << parent.size, 2 << parent.size
    add = (0, csc[0], csc[1], 0, csc[0], csc[1])
    both = 1 << r | 1 << f
    if sequencing:
        # Non-inputs wait for a pending csc transition; a trigger that
        # fires out of phase would make the signal inconsistent.
        every, inputs = ~0, parent.inputs
        keep = (every, inputs, inputs, every, inputs, inputs)
        abort = (1 << f, both & inputs, both & inputs, 1 << r,
                 both & inputs, both & inputs)
        moves, waits = parent.moves, parent.input_moves
        table = (moves, waits, waits, moves, waits, waits)
    else:
        # x waits for the previous csc handshake, y waits for csc+.
        keep = (~(1 << f), ~both, ~both, ~(1 << r), ~both, ~both)
        abort = (0,) * 6
        table = (parent.moves,) * 6
    enabled = parent.enabled
    start = parent.start * 6 + value * 3
    order = [start]
    seen = bytearray(6 * len(enabled))
    seen[start] = 1
    masks: List[int] = []
    reached = 0
    for q in order:
        orig, phase = divmod(q, 6)
        mask = enabled[orig]
        if mask & abort[phase]:
            return None
        current = mask & keep[phase] | add[phase]
        if mask and not current:
            return None  # a new deadlock
        masks.append(current)
        reached |= current
        if phase % 3:
            target = q - phase + _CSC_TARGET[phase]
            if not seen[target]:
                seen[target] = 1
                order.append(target)
        # x moves phase 0 to 1 (csc+ pending), y phase 3 to 5 (csc-
        # pending); every other event keeps the phase.
        for lid, base in table[phase][orig]:
            if lid == r:
                if phase:
                    continue
                target = base + 1
            elif lid == f:
                if phase != 3:
                    continue
                target = base + 5
            else:
                target = base + phase
            if not seen[target]:
                seen[target] = 1
                order.append(target)
    need = parent.live | csc[0] | csc[1]
    return (order, masks) if reached & need == need else None


def _build(sg: StateGraph, signal: str, rise: str, fall: str, value: int,
           sequencing: bool) -> Optional[StateGraph]:
    """The frozen SG of a candidate's walk: states and arcs in push order."""
    parent = _Parent(sg)
    compiled = parent.compiled
    r, f = compiled.label_index[rise], compiled.label_index[fall]
    walk = _walk(parent, r, f, value, sequencing)
    if walk is None:
        return None
    labels = compiled.labels + [f"{signal}+", f"{signal}-"]
    states = {q: (compiled.states[q // 6], q % 6 // 3, _PENDING[q % 6])
              for q in walk[0]}
    new = StateGraph(f"{sg.name}+{signal}")
    for name in sg.signals:
        new.declare_signal(name, sg.kinds[name])
    new.declare_signal(signal, SignalKind.INTERNAL)
    for label, event in sg.events.items():
        new.declare_event(label, event)
    new.declare_event(labels[-2], SignalEvent(signal, Direction.RISE))
    new.declare_event(labels[-1], SignalEvent(signal, Direction.FALL))
    for state in states.values():
        new.add_state(state, sg.codes[state[0]] + (state[1],))
    for q, mask in zip(*walk):
        orig, phase = divmod(q, 6)
        if phase % 3:
            new.add_arc(states[q], labels[parent.size + phase % 3 - 1],
                        states[q - phase + _CSC_TARGET[phase]])
        for lid, base in parent.moves[orig]:
            if mask >> lid & 1:
                step = 1 if lid == r else 5 if lid == f else phase
                new.add_arc(states[q], labels[lid], states[base + step])
    return new.freeze()


def insert_state_signal(sg: StateGraph, rise_trigger: str, fall_trigger: str,
                        signal: str, initial_value: int = 0) -> Optional[StateGraph]:
    """Thread ``signal`` through the cycle ``x ; s+ ; y ; s- ; x``.

    Returns None when the candidate is infeasible: a trigger is an input
    event, the threading deadlocks, or some event disappears.
    """
    if initial_value not in (0, 1):
        raise ValueError("initial_value must be 0 or 1")
    if (rise_trigger == fall_trigger or rise_trigger not in sg.events
            or fall_trigger not in sg.events
            or sg.is_input_label(rise_trigger)
            or sg.is_input_label(fall_trigger)):
        return None
    return _build(sg, signal, rise_trigger, fall_trigger, initial_value,
                  False)


def insert_state_signal_sequencing(sg: StateGraph, rise_after: str,
                                   fall_after: str, signal: str,
                                   initial_value: int = 0) -> Optional[StateGraph]:
    """Serial insertion: the csc transition fires right after its trigger and
    every *non-input* event waits for it.

    Inputs are never delayed (they may race ahead of the pending csc
    transition), so the I/O interface is preserved; the candidate is
    infeasible when a trigger overtakes the pending transition (the signal
    would turn inconsistent).  This style changes the encoding sharply at
    the trigger, which resolves conflicts the threading style smears over.
    """
    if initial_value not in (0, 1):
        raise ValueError("initial_value must be 0 or 1")
    if (rise_after == fall_after or rise_after not in sg.events
            or fall_after not in sg.events):
        return None
    return _build(sg, signal, rise_after, fall_after, initial_value, True)


def _candidates(sg: StateGraph) -> List[Tuple[str, str, str]]:
    """Every ``(style, rise, fall)`` the search scores, in scoring order."""
    compiled = sg.compiled()
    live = {compiled.labels[lid] for out in compiled.succ for lid in out}
    labels = [label for label in sorted(sg.events) if label in live]
    non_input = [label for label in labels if not sg.is_input_label(label)]
    return ([("threading", rise, fall) for rise in non_input
             for fall in non_input if rise != fall]
            + [("sequencing", rise, fall) for rise in labels
               for fall in labels if rise != fall])


def enumerate_insertions(sg: StateGraph, signal: str,
                         require_improvement: bool = True,
                         ) -> List[InsertionChoice]:
    """All feasible single-signal insertions over both styles, best first.

    Candidates must not introduce persistency violations (a safety net on
    top of the by-construction argument); with ``require_improvement`` they
    must also strictly reduce the CSC conflict count.  Each is scored on
    its walk; none is built.

    Persistency needs no pass over the product's arcs.  A csc transition
    disables nothing; any other arc disables at most what its parent arc
    does -- except a sequencing trigger, which also delays the non-inputs
    enabled on both sides of its parent arc until the csc transition: new
    violations, at the parent states in ``delaying[trigger]``.
    """
    baseline_conflicts = conflict_count(sg)
    if baseline_conflicts == 0:
        return []
    parent = _Parent(sg)
    compiled = parent.compiled
    allowed = [0] * parent.size
    for violation in persistency_violations(sg):
        allowed[compiled.label_index[violation.by]] |= \
            1 << compiled.label_index[violation.disabled]
    delaying: Dict[int, int] = {}
    for s, moves in enumerate(parent.moves):
        for lid, base in moves:
            if (parent.enabled[s] & parent.enabled[base // 6] & ~parent.inputs
                    & ~(1 << lid) & ~allowed[lid]):
                delaying[lid] = delaying.get(lid, 0) | 1 << s
    # One excitation bit per non-input (signal, direction), csc+ and csc-.
    classes: Dict[Tuple[int, Direction], int] = {}
    excite = [0 if compiled.is_input[lid] else 1 << classes.setdefault(
        (compiled.event_signal[lid], compiled.event_direction[lid]),
        len(classes)) for lid in range(parent.size)]
    excite += [1 << len(classes), 2 << len(classes)]
    excitation: Dict[int, int] = {}
    value_bit = (0, 0, 0) + (1 << len(sg.signals),) * 3

    def conflicts_of(order: List[int], masks: List[int]) -> int:
        """Pairs of states with one code and different excitations."""
        for mask in set(masks).difference(excitation):
            excitation[mask] = 0
            for lid, bit in enumerate(excite):
                if mask >> lid & 1:
                    excitation[mask] |= bit
        codes = [compiled.code_ints[q // 6] | value_bit[q % 6] for q in order]
        keys = zip(codes, map(excitation.__getitem__, masks))
        return (sum(n * (n - 1) for n in Counter(codes).values())
                - sum(n * (n - 1) for n in Counter(keys).values())) // 2

    found: List[Tuple[Tuple, InsertionChoice]] = []
    for style, rise, fall in _candidates(sg):
        r, f = compiled.label_index[rise], compiled.label_index[fall]
        delays = (delaying.get(r, 0), 0, 0, delaying.get(f, 0), 0, 0) \
            if style == "sequencing" else (0,) * 6
        for value in (0, 1):
            walk = _walk(parent, r, f, value, style == "sequencing")
            if walk is None or any(delays) and any(
                    delays[q % 6] >> q // 6 & 1 for q in walk[0]):
                continue
            conflicts = conflicts_of(*walk)
            if require_improvement and conflicts >= baseline_conflicts:
                continue
            states = len(walk[0])
            found.append(((conflicts, states, style, rise, fall, value),
                          InsertionChoice(signal, rise, fall, value,
                                          conflicts, states, style)))
    found.sort(key=lambda item: item[0])
    return [choice for _, choice in found]


def _materialize(sg: StateGraph, choice: InsertionChoice) -> StateGraph:
    """Build a scored choice through the module's builders."""
    build = (insert_state_signal if choice.style == "threading"
             else insert_state_signal_sequencing)
    return build(sg, choice.rise_trigger, choice.fall_trigger, choice.signal,
                 choice.initial_value)


def find_insertion(sg: StateGraph, signal: str,
                   ) -> Optional[Tuple[InsertionChoice, StateGraph]]:
    """Best single-signal insertion, built, or None if nothing helps."""
    choices = enumerate_insertions(sg, signal)
    return (choices[0], _materialize(sg, choices[0])) if choices else None


@dataclass
class ResolutionResult:
    """Outcome of the greedy CSC resolution loop."""

    sg: StateGraph
    insertions: List[InsertionChoice]
    resolved: bool

    @property
    def signal_count(self) -> int:
        return len(self.insertions)


def resolve_csc(sg: StateGraph, max_signals: int = 4, prefix: str = "csc",
                beam_width: int = 5) -> ResolutionResult:
    """Insert state signals until CSC holds, by bounded best-first search.

    Greedy insertion can paint itself into a corner (the locally best first
    signal may leave conflicts no second signal can separate), so a small
    beam of the most promising partial solutions is kept per level.  The
    first fully resolved solution with the fewest signals wins; if none
    resolves within ``max_signals``, the best partial result is returned.
    Candidates are scored on their parents; only the beam's members and
    the resolution are built.
    """
    if conflict_count(sg) == 0:
        return ResolutionResult(sg=sg, insertions=[], resolved=True)

    Partial = Tuple[StateGraph, List[InsertionChoice]]
    frontier: List[Partial] = [(sg, [])]
    best_partial: Tuple[int, int, StateGraph, List[InsertionChoice]] = (
        conflict_count(sg), 0, sg, [])
    metrics = obs_registry()

    for index in range(max_signals):
        signal = f"{prefix}{index}"
        with obs_span("resolve:level", signal=signal) as record:
            kept: List[Tuple[InsertionChoice, StateGraph, list]] = []
            scored = feasible = 0
            for current, insertions in frontier:
                choices = enumerate_insertions(current, signal)
                scored += 2 * len(_candidates(current))
                feasible += len(choices)
                kept += [(choice, current, insertions + [choice])
                         for choice in choices[: 2 * beam_width]]
                if choices and choices[0].conflicts_after == 0:
                    break  # the first resolution found wins
            # Stable: a resolution sorts ahead of every earlier candidate.
            kept.sort(key=lambda item: (item[0].conflicts_after,
                                        item[0].states_after))
            resolved = bool(kept) and kept[0][0].conflicts_after == 0
            frontier = [(_materialize(parent, choice), trail) for
                        choice, parent, trail in kept[:1 if resolved
                                                      else beam_width]]
            metrics.counter("repro_csc_candidates_scored_total",
                            "CSC-insertion candidates scored").inc(scored)
            metrics.counter("repro_csc_candidates_materialized_total",
                            "CSC-insertion candidates built").inc(len(frontier))
            if record is not None:
                record.set(scored=scored, feasible=feasible,
                           materialized=len(frontier))
        if not frontier:
            break
        head_sg, head_trail = frontier[0]
        if resolved:
            return ResolutionResult(sg=head_sg, insertions=head_trail,
                                    resolved=True)
        head = (head_trail[-1].conflicts_after, len(head_trail))
        if head < best_partial[:2]:
            best_partial = (*head, head_sg, head_trail)

    # Every partial result still has conflicts: a resolution returns early.
    _, __, partial_sg, partial_trail = best_partial
    return ResolutionResult(sg=partial_sg, insertions=partial_trail,
                            resolved=False)
