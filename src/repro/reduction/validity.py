"""Validity of concurrency reductions (Section 5, Definition 5.1).

A reduced SG is valid when:

1. speed-independence is preserved (commutativity and determinism cannot
   break under arc removal, so only output persistency is checked);
2. the I/O interface is preserved (no input transition delayed; the initial
   state survives up to internal events);
3. no event disappears (every event with a non-empty ER keeps one);
4. no new deadlock states appear.

The exploration loop validates every candidate against the same parent, so
the per-graph aggregates (live label set, persistency signature) are
memoized per graph in weak-keyed engine caches.  Taking an entry freezes
the graph, so an entry never goes stale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from .. import engine
from ..sg.graph import State, StateGraph
from ..sg.properties import persistency_violations
from ..petri.stg import SignalKind


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the Definition 5.1 checks."""

    valid: bool
    reasons: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


_PERSISTENCY_MEMO: "weakref.WeakKeyDictionary[StateGraph, FrozenSet]" = (
    engine.register_cache(weakref.WeakKeyDictionary(),
                          name="reduction-persistency"))
_LIVE_LABEL_MEMO: "weakref.WeakKeyDictionary[StateGraph, FrozenSet[str]]" = (
    engine.register_cache(weakref.WeakKeyDictionary(),
                          name="reduction-live-labels"))


def _persistency_signature(sg: StateGraph) -> FrozenSet[Tuple[State, str, str]]:
    signature = _PERSISTENCY_MEMO.get(sg)
    if signature is None:
        signature = frozenset((v.state, v.disabled, v.by)
                              for v in persistency_violations(sg))
        if engine.packed_memo_enabled():
            _PERSISTENCY_MEMO[sg.freeze()] = signature
    return signature


def _live_labels(sg: StateGraph) -> FrozenSet[str]:
    """Labels appearing on at least one arc, memoized per graph."""
    live = _LIVE_LABEL_MEMO.get(sg)
    if live is None:
        live = frozenset(label for out in sg._succ.values() for label in out)
        if engine.packed_memo_enabled():
            _LIVE_LABEL_MEMO[sg.freeze()] = live
    return live


def validate_removal(original: StateGraph, delayed: str,
                     truncated: Set[State]
                     ) -> Tuple[ValidityReport, Set[State]]:
    """Definition 5.1 checks for a forward reduction, before building it.

    The candidate is ``original`` minus the ``delayed``-labelled arcs of the
    ``truncated`` states, restricted to the reachable part.  Everything the
    checks need can be read off the parent, so invalid candidates (the
    majority, in a dense exploration) are rejected without materializing a
    graph.  Under that structure the full-graph sweeps collapse:

    * surviving states keep every arc except ``delayed`` leaving
      ``truncated``, so no input event can be delayed (``delayed`` is
      non-input by precondition), the initial state survives, and new
      deadlocks can only appear at truncated survivors;
    * every *new* persistency violation has ``delayed`` as the disabled
      event and one of the truncated survivors as the witness successor, so
      only the fan-in of those states needs scanning.

    Returns the report plus the post-removal reachable set, which a valid
    candidate's construction can reuse.
    """
    reasons: List[str] = []
    succ = original._succ
    initial = original.initial

    reachable: Set[State] = set()
    live: Set[str] = set()
    deadlock: Optional[State] = None
    if initial is not None:
        reachable.add(initial)
        stack = [initial]
        while stack:
            state = stack.pop()
            out = succ[state]
            if state in truncated:
                kept = False
                for label, target in out.items():
                    if label == delayed:
                        continue
                    kept = True
                    live.add(label)
                    if target not in reachable:
                        reachable.add(target)
                        stack.append(target)
                if not kept and out:
                    deadlock = state
            else:
                for label, target in out.items():
                    live.add(label)
                    if target not in reachable:
                        reachable.add(target)
                        stack.append(target)

    lost = _live_labels(original) - live
    if lost:
        reasons.append(f"events disappeared: {sorted(lost)}")
    if deadlock is not None:
        reasons.append(f"new deadlock at state {deadlock!r}")
    if initial is None or initial not in reachable:
        reasons.append("initial state changed")

    parent_sig = _persistency_signature(original)
    original_pred = original._pred
    done = False
    for t in truncated:
        if done or t not in reachable:
            continue
        for b, s in original_pred[t]:
            if s not in reachable or s in truncated:
                # A truncated source lost its own delayed arc, so delayed is
                # not enabled there; no new violation can be witnessed.
                continue
            if delayed not in succ[s]:
                continue
            if (s, delayed, b) in parent_sig:
                continue
            reasons.append(
                f"persistency violated: {delayed} disabled by {b} at {s!r}")
            done = True
            break

    return ValidityReport(valid=not reasons, reasons=tuple(reasons)), reachable


def check_validity(original: StateGraph, reduced: StateGraph) -> ValidityReport:
    """Run all Definition 5.1 checks of ``reduced`` against ``original``."""
    reasons: List[str] = []

    # (3) no events disappear
    lost = _live_labels(original) - _live_labels(reduced)
    if lost:
        reasons.append(f"events disappeared: {sorted(lost)}")

    original_succ = original._succ
    reduced_succ = reduced._succ

    # (4) no new deadlocks
    for state, out in reduced_succ.items():
        if out:
            continue
        if original_succ.get(state):
            reasons.append(f"new deadlock at state {state!r}")
            break

    # (2b) initial state preserved (arc removal keeps states, so the original
    # initial state must still exist and be the initial state).
    if reduced.initial != original.initial or reduced.initial not in reduced:
        reasons.append("initial state changed")

    # (2a) no input transition delayed: every state surviving reduction must
    # enable the same input events it enabled originally.
    is_input = original.is_input_label
    for state, out in reduced_succ.items():
        original_out = original_succ.get(state)
        if original_out is None or original_out.keys() == out.keys():
            continue
        missing = [label for label in original_out
                   if label not in out and is_input(label)]
        if missing:
            reasons.append(f"input events {sorted(missing)} delayed at {state!r}")
            break

    # (1) output persistency preserved: no *new* violations.
    new_violations = _persistency_signature(reduced) - _persistency_signature(original)
    if new_violations:
        state, disabled, by = next(iter(new_violations))
        reasons.append(
            f"persistency violated: {disabled} disabled by {by} at {state!r}")

    return ValidityReport(valid=not reasons, reasons=tuple(reasons))
