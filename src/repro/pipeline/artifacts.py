"""Typed, serializable stage artifacts and their payload codecs.

Every pipeline stage produces a JSON-serializable *payload* that can be
persisted in the :class:`~repro.pipeline.store.ArtifactStore` and decoded
back into the in-memory objects the next stage consumes.  Two invariants
make stage-granular resume sound:

* **Canonical renaming.**  :func:`sg_to_payload` renumbers states by BFS
  from the initial state (successors in sorted label order), so the payload
  of a graph is independent of how its states were spelled (marking tuples,
  strings, prior payload indices) and of hash-seed-dependent iteration.
  Encoding a decoded graph is the identity.

* **Normalize through the wire format.**  The pipeline always feeds a stage
  the *decoded* payload of its input, never the live object the previous
  stage happened to produce in this process.  Cold and warm runs therefore
  start every stage from bit-identical inputs, which is what makes their
  reports byte-identical.

Decoded state graphs use dense integers ``0..n-1`` as states (state ``0``
is initial); all analyses treat states as opaque hashables, so nothing
downstream can tell the difference.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from fractions import Fraction
from typing import Dict, List, Optional

from ..circuit.library import Library
from ..circuit.netlist import Netlist
from ..circuit.synthesize import CircuitImplementation, SignalImplementation
from ..encoding.insertion import InsertionChoice
from ..petri.stg import Direction, SignalEvent, SignalKind
from ..sg.graph import StateGraph
from ..timing.critical_cycle import CycleReport


class ArtifactError(Exception):
    """Raised when an artifact cannot be encoded or decoded."""


# ----------------------------------------------------------------------
# state graphs
# ----------------------------------------------------------------------
def _canonical_state_order(sg: StateGraph) -> List:
    """BFS order from the initial state, successors in sorted label order.

    Unreachable states (none exist in flow-produced graphs) are appended in
    ``repr`` order, which is deterministic for the marking-tuple and string
    states the system uses.
    """
    if sg.initial is None or sg.initial not in sg:
        raise ArtifactError(f"state graph {sg.name!r} has no initial state")
    order: List = [sg.initial]
    index = {sg.initial: 0}
    queue = deque((sg.initial,))
    while queue:
        state = queue.popleft()
        successors = sg.successors(state)
        for label in sorted(successors):
            target = successors[label]
            if target not in index:
                index[target] = len(order)
                order.append(target)
                queue.append(target)
    if len(order) < len(sg):
        for state in sorted((s for s in sg.states if s not in index),
                            key=repr):
            index[state] = len(order)
            order.append(state)
    return order


def sg_to_payload(sg: StateGraph) -> Dict[str, object]:
    """Canonical JSON-ready rendering of a state graph."""
    order = _canonical_state_order(sg)
    index = {state: i for i, state in enumerate(order)}
    codes = sg.codes
    arcs: List[List[object]] = []
    for state in order:
        successors = sg.successors(state)
        for label in sorted(successors):
            arcs.append([index[state], label, index[successors[label]]])
    return {
        "name": sg.name,
        "signals": [[signal, sg.kinds[signal].value] for signal in sg.signals],
        "events": sorted(
            [[label, event.signal, event.direction.value, event.instance]
             for label, event in sg.events.items()]),
        "states": len(order),
        "initial": 0,
        "codes": [list(codes[state]) if state in codes else None
                  for state in order],
        "arcs": arcs,
    }


def sg_from_payload(payload: Dict[str, object]) -> StateGraph:
    """Rebuild a state graph from its payload (states are ints ``0..n-1``)."""
    sg = StateGraph(payload["name"])
    for signal, kind in payload["signals"]:
        sg.declare_signal(signal, SignalKind(kind))
    for label, signal, direction, instance in payload["events"]:
        sg.declare_event(label, SignalEvent(signal, Direction(direction),
                                            instance))
    codes = payload["codes"]
    for state in range(payload["states"]):
        code = codes[state]
        sg.add_state(state, None if code is None else tuple(code))
    sg.initial = payload["initial"]
    for source, label, target in payload["arcs"]:
        sg.add_arc(source, label, target)
    return sg.freeze()


# ----------------------------------------------------------------------
# netlists and circuits
# ----------------------------------------------------------------------
def netlist_from_payload(payload: Dict[str, object],
                         library: Library) -> Netlist:
    """Rebuild a netlist from :func:`repro.pipeline.hashing.netlist_payload`.

    Gate names, orders and cell bindings are preserved exactly, so the
    rebuilt netlist simulates and renders byte-identically to the original.
    """
    netlist = Netlist(payload["name"], library)
    for net in payload["inputs"]:
        netlist.add_input(net)
    for net in payload["outputs"]:
        netlist.add_output(net)
    for name, cell, inputs, output in payload["gates"]:
        netlist.add_gate(cell, inputs, output=output, name=name)
    for source, target in payload["aliases"]:
        netlist.add_alias(source, target)
    return netlist


def circuit_payload(circuit: CircuitImplementation) -> Dict[str, object]:
    """JSON-ready rendering of a synthesized circuit.

    Minimized covers are carried as rendered equations only; a rebuilt
    :class:`SignalImplementation` has ``cover``/``set_cover``/``reset_cover``
    set to ``None`` (everything reports consume -- style, equation, netlist,
    per-signal area -- survives the round trip).
    """
    from .hashing import netlist_payload
    return {
        "name": circuit.name,
        "area": circuit.area,
        "netlist": netlist_payload(circuit.netlist),
        "signals": [[signal, impl.style, impl.equation,
                     netlist_payload(impl.netlist)]
                    for signal, impl in circuit.signals.items()],
    }


def circuit_from_payload(payload: Dict[str, object],
                         library: Library) -> CircuitImplementation:
    signals = {
        signal: SignalImplementation(
            signal=signal, style=style, cover=None, set_cover=None,
            reset_cover=None,
            netlist=netlist_from_payload(net_payload, library),
            equation=equation)
        for signal, style, equation, net_payload in payload["signals"]}
    return CircuitImplementation(
        name=payload["name"], signals=signals,
        netlist=netlist_from_payload(payload["netlist"], library))


# ----------------------------------------------------------------------
# timing, insertions
# ----------------------------------------------------------------------
def cycle_payload(cycle: Optional[CycleReport]) -> Optional[Dict[str, object]]:
    if cycle is None:
        return None
    from .hashing import fraction_text
    return {
        "period": fraction_text(cycle.period),
        "events": list(cycle.events),
        "input_events": list(cycle.input_events),
        "transient_steps": cycle.transient_steps,
    }


def cycle_from_payload(payload: Optional[Dict[str, object]]
                       ) -> Optional[CycleReport]:
    if payload is None:
        return None
    return CycleReport(period=Fraction(payload["period"]),
                       events=tuple(payload["events"]),
                       input_events=tuple(payload["input_events"]),
                       transient_steps=payload["transient_steps"])


def insertion_payload(choice: InsertionChoice) -> Dict[str, object]:
    return dataclasses.asdict(choice)


def insertion_from_payload(payload: Dict[str, object]) -> InsertionChoice:
    return InsertionChoice(**payload)


# ----------------------------------------------------------------------
# partial specifications (expand-stage keys)
# ----------------------------------------------------------------------
def spec_payload(spec) -> Dict[str, object]:
    """Canonical-ish rendering of a :class:`~repro.hse.spec.PartialSpec`.

    Used only to *key* the expand stage (dataclass ``repr`` handles the
    net's labels); expansion itself always reruns from the live object when
    the key misses.
    """
    net = spec.net
    return {
        "name": spec.name,
        "channels": {name: role.name for name, role in spec.channels.items()},
        "partial_signals": {name: kind.name
                            for name, kind in spec.partial_signals.items()},
        "full_signals": {name: kind.name
                         for name, kind in spec.full_signals.items()},
        "initial_values": dict(spec.initial_values),
        "net": {
            "places": [repr(place) for place in net.places],
            "transitions": [repr(transition)
                            for transition in net.transitions],
            "pre": {t: dict(places) for t, places in net._pre.items()},
            "post": {t: dict(places) for t, places in net._post.items()},
            "initial": net.marking_dict(net.initial_marking()),
        },
    }
