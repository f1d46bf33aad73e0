"""State graphs.

A State Graph (SG) is the reachability graph of an STG: nodes are markings
labelled with a vector of binary signal values, arcs are labelled with the
fired transition.  The SG is the model on which the paper performs
concurrency reduction (Sections 5-6).

States are opaque hashable objects (marking tuples when generated from an
STG, strings when built by hand in tests).  Arc labels are transition names;
``events`` maps each label to its :class:`~repro.petri.stg.SignalEvent`
(dummy labels are not allowed in an SG used for synthesis).

Graphs are built once, then read.  The construction calls
(:meth:`~StateGraph.declare_signal`, :meth:`~StateGraph.declare_event`,
:meth:`~StateGraph.add_state`, :meth:`~StateGraph.add_arc` and setting
``initial``) work until the graph is frozen, and raise
:class:`StateGraphError` afterwards.  Builders (:func:`repro.sg.generator.
generate_sg`, :meth:`~StateGraph.copy_without_arcs`, the CSC insertion
builders, the payload decoder) freeze what they return, and so does taking
any derived view.  The operations of the paper never edit a graph: FwdRed
and state-signal insertion each derive a new graph from a frozen parent.

Binary codes live in two representations: the tuple API (:meth:`code_of`,
the read-only ``codes`` mapping) and packed integers where bit ``i`` is the
value of signal ``i`` (:meth:`code_int`), the same convention the logic
minimizer uses for minterms.  The analysis passes
(:mod:`repro.sg.properties`, :mod:`repro.sg.regions`, function extraction)
run on a compiled flat-array snapshot (:meth:`compiled`), computed once per
graph like the :meth:`signature` and the predecessor map.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..petri.stg import Direction, SignalEvent, SignalKind

State = Hashable
Code = Tuple[int, ...]


class StateGraphError(Exception):
    """Raised for invalid state-graph operations."""


@dataclass
class CompiledSG:
    """Flat index-based snapshot of an SG for the analysis hot loops.

    Everything is addressed by dense integer ids: ``states[i]`` is the state
    with id ``i`` and ``succ[i]`` maps label ids to target state ids.
    ``code_ints`` holds the packed binary codes (bit ``k`` = value of signal
    ``k``); states without a code pack to -1.
    """

    states: List[State]
    index: Dict[State, int]
    labels: List[str]
    label_index: Dict[str, int]
    succ: List[Dict[int, int]]
    code_ints: List[int]
    is_input: List[bool]
    event_signal: List[int]
    event_direction: List[Direction]


class StateGraph:
    """A finite, deterministic-by-construction labelled transition system."""

    def __init__(self, name: str = "sg") -> None:
        self.name = name
        self.signals: List[str] = []
        self.kinds: Dict[str, SignalKind] = {}
        self.events: Dict[str, SignalEvent] = {}
        self._initial: Optional[State] = None
        self._succ: Dict[State, Dict[str, State]] = {}
        self._codes: Dict[State, Code] = {}
        self._signal_pos: Dict[str, int] = {}
        self._frozen = False
        self._pred_store: Optional[Dict[State, Set[Tuple[str, State]]]] = None
        self._code_int_cache: Dict[State, int] = {}
        self._signature: Optional[Tuple] = None
        self._compiled: Optional[CompiledSG] = None

    @property
    def initial(self) -> Optional[State]:
        """The initial state (the first state added unless set explicitly)."""
        return self._initial

    @initial.setter
    def initial(self, state: Optional[State]) -> None:
        if self._frozen:
            raise self._frozen_error()
        self._initial = state

    @property
    def codes(self) -> Mapping[State, Code]:
        """Read-only view of the binary codes; write them with :meth:`add_state`."""
        return MappingProxyType(self._codes)

    @property
    def frozen(self) -> bool:
        """Whether construction has ended (see :meth:`freeze`)."""
        return self._frozen

    def freeze(self) -> "StateGraph":
        """End construction and return the graph.

        Builders call this before they return.  The derived views (the
        signature, the compiled snapshot, packed codes, the predecessor map)
        and the process-global memos are computed once per graph, so taking
        any of them freezes the graph too.
        """
        self._frozen = True
        return self

    def _frozen_error(self) -> StateGraphError:
        return StateGraphError(
            f"state graph {self.name!r} is frozen; derive a new graph instead")

    @property
    def _pred(self) -> Dict[State, Set[Tuple[str, State]]]:
        """Predecessor map, built from ``_succ`` on the first backward query.

        Reduction candidates are built by the thousands and most are
        discarded before anything ever walks backwards, so no builder
        maintains it.
        """
        pred = self._pred_store
        if pred is None:
            self._frozen = True
            pred = {state: set() for state in self._succ}
            for state, out in self._succ.items():
                for label, target in out.items():
                    pred[target].add((label, state))
            self._pred_store = pred
        return pred

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def declare_signal(self, name: str, kind: SignalKind) -> None:
        """Register a signal; order defines the code bit positions."""
        if self._frozen:
            raise self._frozen_error()
        if name in self.kinds:
            if self.kinds[name] != kind:
                raise StateGraphError(f"signal {name!r} redeclared with different kind")
            return
        self._signal_pos[name] = len(self.signals)
        self.signals.append(name)
        self.kinds[name] = kind

    def declare_event(self, label: str, event: Optional[SignalEvent] = None) -> None:
        """Register an arc label and its signal event.

        When ``event`` is omitted, the label itself is parsed as an event.
        """
        if self._frozen:
            raise self._frozen_error()
        if event is None:
            event = SignalEvent.parse(label)
        if event.signal not in self.kinds:
            raise StateGraphError(f"undeclared signal {event.signal!r}")
        existing = self.events.get(label)
        if existing is not None and existing != event:
            raise StateGraphError(f"label {label!r} redeclared with different event")
        self.events[label] = event

    def add_state(self, state: State, code: Optional[Code] = None) -> None:
        """Add a state (idempotent), optionally with (or rewriting) its code."""
        if self._frozen:
            raise self._frozen_error()
        if state not in self._succ:
            self._succ[state] = {}
        if code is not None:
            if len(code) != len(self.signals):
                raise StateGraphError("code length does not match signal count")
            self._codes[state] = tuple(code)
        if self._initial is None:
            self._initial = state

    def add_arc(self, source: State, label: str, target: State) -> None:
        """Add ``source --label--> target``; labels must be declared events."""
        if label not in self.events:
            raise StateGraphError(f"undeclared event label {label!r}")
        self.add_state(source)
        self.add_state(target)
        existing = self._succ[source].get(label)
        if existing is not None and existing != target:
            raise StateGraphError(
                f"nondeterminism: {source!r} --{label}--> both {existing!r} and {target!r}")
        self._succ[source][label] = target

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def states(self) -> List[State]:
        """Every state, in insertion order."""
        return list(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, state: State) -> bool:
        return state in self._succ

    def successors(self, state: State) -> Dict[str, State]:
        """Outgoing arcs of a state as ``{label: target}``."""
        if state not in self._succ:
            raise StateGraphError(f"unknown state {state!r}")
        return dict(self._succ[state])

    def predecessors(self, state: State) -> Set[Tuple[str, State]]:
        """Incoming arcs of a state as ``{(label, source)}``."""
        if state not in self._pred:
            raise StateGraphError(f"unknown state {state!r}")
        return set(self._pred[state])

    def arcs(self) -> Iterator[Tuple[State, str, State]]:
        """Iterate over all arcs as (source, label, target)."""
        for source, outgoing in self._succ.items():
            for label, target in outgoing.items():
                yield source, label, target

    def arc_count(self) -> int:
        """Total number of labelled arcs."""
        return sum(len(out) for out in self._succ.values())

    def enabled(self, state: State) -> List[str]:
        """Labels enabled at a state."""
        return list(self._succ[state])

    def target(self, state: State, label: str) -> Optional[State]:
        """The state reached by firing ``label``, or None if not enabled."""
        return self._succ.get(state, {}).get(label)

    def labels(self) -> List[str]:
        """All declared arc labels."""
        return list(self.events)

    def labels_of_signal(self, signal: str) -> List[str]:
        """The rise/fall labels of ``signal``, e.g. ``["a+", "a-"]``."""
        return [label for label, event in self.events.items() if event.signal == signal]

    def is_input_label(self, label: str) -> bool:
        """Whether ``label`` is an event of an input signal."""
        return self.kinds[self.events[label].signal] == SignalKind.INPUT

    def code_of(self, state: State) -> Code:
        """The binary code tuple of ``state``."""
        try:
            return self._codes[state]
        except KeyError:
            raise StateGraphError(f"state {state!r} has no binary code") from None

    def code_int(self, state: State) -> int:
        """The state's binary code packed into one integer (bit i = signal i).

        Cached per state; :meth:`copy_without_arcs` hands the cache down.
        """
        cached = self._code_int_cache.get(state)
        if cached is None:
            self._frozen = True
            code = self.code_of(state)
            cached = 0
            for i, value in enumerate(code):
                if value:
                    cached |= 1 << i
            self._code_int_cache[state] = cached
        return cached

    def value_of(self, state: State, signal: str) -> int:
        """The value of ``signal`` in ``state``."""
        return self.code_of(state)[self.signal_index(signal)]

    def signal_index(self, signal: str) -> int:
        """The code bit position of ``signal``."""
        try:
            return self._signal_pos[signal]
        except KeyError:
            raise StateGraphError(f"undeclared signal {signal!r}") from None

    def signature(self) -> Tuple:
        """Hashable identity of the graph, computed once.

        Covers everything the analyses depend on -- the arc set, the
        initial state, signal declarations and the binary codes -- so two
        graphs with equal signatures are interchangeable for cost
        evaluation and reduction.  Exploration and the process-global memo
        tables key on this; keeping it saves a full sweep per lookup.
        """
        if self._signature is None:
            self._frozen = True
            self._signature = (
                frozenset(self.arcs()),
                self._initial,
                tuple((signal, self.kinds[signal]) for signal in self.signals),
                frozenset(self._codes.items()),
            )
        return self._signature

    def compiled(self) -> CompiledSG:
        """The flat index-based snapshot, computed once."""
        if self._compiled is not None:
            return self._compiled
        self._frozen = True
        states = list(self._succ)
        index = {state: i for i, state in enumerate(states)}
        labels = list(self.events)
        label_index = {label: i for i, label in enumerate(labels)}
        succ: List[Dict[int, int]] = []
        for state in states:
            out = self._succ[state]
            succ.append({label_index[label]: index[target]
                         for label, target in out.items()})
        codes = self._codes
        code_ints = [self.code_int(s) if s in codes else -1 for s in states]
        is_input = [self.is_input_label(label) for label in labels]
        event_signal = [self._signal_pos[self.events[label].signal] for label in labels]
        event_direction = [self.events[label].direction for label in labels]
        self._compiled = CompiledSG(
            states=states, index=index, labels=labels, label_index=label_index,
            succ=succ, code_ints=code_ints, is_input=is_input,
            event_signal=event_signal, event_direction=event_direction)
        return self._compiled

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def reachable_from(self, start: Optional[State] = None) -> Set[State]:
        """Forward-reachable states from ``start`` (default: initial)."""
        start = self.initial if start is None else start
        if start is None or start not in self._succ:
            return set()
        seen = {start}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for target in self._succ[state].values():
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

    def backward_reachable(self, targets: Iterable[State],
                           within: Optional[Set[State]] = None) -> Set[State]:
        """States from which some target is reachable.

        When ``within`` is given, the search only traverses states inside
        that set (used by FwdRed to stay inside an excitation region).
        Targets themselves are included when they belong to ``within`` (or
        unconditionally if ``within`` is None).
        """
        result: Set[State] = set()
        queue: deque = deque()
        for target in targets:
            if target in self._succ and (within is None or target in within):
                result.add(target)
                queue.append(target)
        while queue:
            state = queue.popleft()
            for _, source in self._pred[state]:
                if source in result:
                    continue
                if within is not None and source not in within:
                    continue
                result.add(source)
                queue.append(source)
        return result

    def copy_without_arcs(self, removed_arcs: Iterable[Tuple[State, str]],
                          name: Optional[str] = None,
                          reachable: Optional[Set[State]] = None) -> "StateGraph":
        """Frozen copy of the reachable part of the graph minus the given arcs.

        Built in one forward pass, which is what the reduction engine does
        for every candidate it generates; ``copy_without_arcs(())`` is a
        plain copy of the reachable part.  ``reachable`` may supply the
        post-removal reachable set when the caller has already computed it
        (states keep their declaration order); otherwise it is discovered
        by BFS from the initial state.
        """
        dropped: Dict[State, Set[str]] = {}
        for state, label in removed_arcs:
            dropped.setdefault(state, set()).add(label)
        clone = StateGraph(name or self.name)
        clone.signals = list(self.signals)
        clone.kinds = dict(self.kinds)
        clone.events = dict(self.events)
        clone._signal_pos = dict(self._signal_pos)
        initial = self._initial
        if initial is None:
            return clone.freeze()
        succ = self._succ
        codes = self._codes
        new_succ: Dict[State, Dict[str, State]] = {}
        if reachable is not None:
            for state in succ:
                if state not in reachable:
                    continue
                bad = dropped.get(state)
                new_succ[state] = {
                    label: target for label, target in succ[state].items()
                    if bad is None or label not in bad}
        else:
            queue = deque([initial])
            new_succ[initial] = {}
            while queue:
                state = queue.popleft()
                bad = dropped.get(state)
                out = {label: target for label, target in succ[state].items()
                       if bad is None or label not in bad}
                new_succ[state] = out
                for target in out.values():
                    if target not in new_succ:
                        new_succ[target] = {}
                        queue.append(target)
        clone._succ = new_succ
        clone._initial = initial
        code_map = clone._codes
        cache = clone._code_int_cache
        own_cache = self._code_int_cache
        for state in new_succ:
            code = codes.get(state)
            if code is not None:
                code_map[state] = code
                packed = own_cache.get(state)
                if packed is not None:
                    cache[state] = packed
        return clone.freeze()

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def code_string(self, state: State) -> str:
        """Human-readable code with ``*`` marking excited signals (as in Fig. 1d)."""
        code = self.code_of(state)
        enabled_signals = {self.events[label].signal for label in self._succ[state]}
        parts = []
        for signal, value in zip(self.signals, code):
            parts.append(f"{value}*" if signal in enabled_signals else str(value))
        return "".join(parts)

    def to_dot(self) -> str:
        """GraphViz rendering for debugging and documentation."""
        lines = [f'digraph "{self.name}" {{', '  node [shape=box];']
        ids = {state: f"s{i}" for i, state in enumerate(self._succ)}
        for state, sid in ids.items():
            label = self.code_string(state) if state in self.codes else str(state)
            shape = ' peripheries=2' if state == self.initial else ''
            lines.append(f'  {sid} [label="{label}"{shape}];')
        for source, label, target in self.arcs():
            lines.append(f'  {ids[source]} -> {ids[target]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"StateGraph({self.name!r}, |S|={len(self._succ)}, "
                f"|A|={self.arc_count()})")
