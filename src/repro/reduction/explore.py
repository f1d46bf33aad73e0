"""Frontier-based exploration of concurrency reductions (Fig. 9).

Starting from the maximally concurrent SG, each level applies every eligible
forward reduction to every SG on the frontier; the ``size_frontier`` best
candidates (by the heuristic cost) survive to the next level.  Because every
step strictly reduces concurrency, the search terminates when no reduction
applies.  The best SG over *everything explored* (including the input) is
returned -- reduction is an optimization, not an obligation.

Every strategy runs one expansion step (:meth:`_Search.expand`) and keeps
only its frontier policy: the beam level, the best-first heap, or the full
reduction's terminal rule.  Their defaults are :data:`STRATEGY_DEFAULTS`.

Accounting is strategy-independent: every strategy fills in the same
:class:`ExplorationStats`, where ``explored`` always means the number of
*distinct* configurations whose cost was evaluated (the input included) and
``expanded`` the subset whose successors were generated.  The
``max_explored`` budget is an :class:`~repro.explore.ExplorationBudget`
state cap shared with the other frontier engines; it caps ``explored``
via the meter's non-raising pre-check (the search must flip ``capped``
*before* generating a candidate past the budget, never drop one
silently), so a single wide level cannot blow past it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..explore import ExplorationBudget
from ..hse.constraints import normalise_keep_conc
from ..sg.graph import StateGraph
from ..sg.regions import are_concurrent
from .cost import CostFunction
from .fwdred import forward_reduction, reducible_pairs

#: Per-strategy ``(size_frontier, max_explored)`` defaults -- the numbers
#: the paper's searches use (4/10k) and the exhaustive variant (6/20k).
#: :data:`repro.pipeline.config.STRATEGY_DEFAULTS` is this table.
STRATEGY_DEFAULTS: Dict[str, Tuple[Optional[int], Optional[int]]] = {
    "none": (None, None),
    "beam": (4, 10_000),
    "best-first": (4, 10_000),
    "full": (6, 20_000),
}
_SEARCH_FRONTIER, _SEARCH_EXPLORED = STRATEGY_DEFAULTS["beam"]
_FULL_FRONTIER, _FULL_EXPLORED = STRATEGY_DEFAULTS["full"]


def _keeps_concurrency(sg: StateGraph,
                       preserved: FrozenSet[FrozenSet[str]]) -> bool:
    """True when every Keep_Conc pair is still concurrent in ``sg``.

    The paper's Fig. 9 only avoids reducing the pairs directly, but a
    reduction of *another* pair can serialize a protected one as a side
    effect; checking after the fact keeps the guarantee the designer asked
    for ("crucial for overall system performance").
    """
    for pair in preserved:
        label_a, label_b = sorted(pair)
        if not are_concurrent(sg, label_a, label_b):
            return False
    return True


@dataclass
class ExplorationStep:
    """One new best-so-far configuration in the search history."""

    level: int
    before: str
    delayed: str
    cost: float
    states: int


@dataclass(frozen=True)
class ExplorationStats:
    """Strategy-independent accounting of one exploration run.

    ``explored`` counts the *distinct* configurations whose cost was
    evaluated, the input configuration included; ``expanded`` counts the
    subset whose successors were generated.  The numbers mean exactly the
    same thing for ``beam``, ``best-first`` and ``full``, so sweep reports
    are comparable across strategies.  ``levels`` is beam levels for the
    level-by-level strategies and expansion steps for best-first;
    ``capped`` records whether the ``max_explored`` budget stopped the
    search before it converged.
    """

    strategy: str
    explored: int
    expanded: int
    levels: int
    capped: bool


@dataclass
class ExplorationResult:
    """Outcome of the Fig. 9 loop."""

    best: StateGraph
    best_cost: float
    initial_cost: float
    stats: ExplorationStats
    history: List[ExplorationStep] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.best_cost < self.initial_cost


class _Search:
    """The state one search shares across its expansions.

    ``seen`` holds the signature of every distinct configuration the
    search generated, the input included: ``max_explored`` budgets
    distinct configurations, not generation events.  Only ``expanded``
    configurations are closed; a candidate pruned from one beam level may
    be regenerated along a better path later.
    """

    def __init__(self, sg: StateGraph, keep_conc: Iterable[Tuple[str, str]],
                 max_explored: Optional[int]) -> None:
        self.preserved: FrozenSet[FrozenSet[str]] = frozenset(
            normalise_keep_conc(sg, keep_conc))
        self.seen = {sg.signature()}
        self.expanded: set = set()
        self.meter = ExplorationBudget(max_states=max_explored).meter()
        self.capped = False

    def expand(self, current: StateGraph) -> Optional[List[tuple]]:
        """The valid FwdRed children of ``current`` (Sections 5-6), as
        ``(before, delayed, child, child signature)``; ``None`` when
        ``current`` was already expanded.  The budget is checked before
        each candidate; when it runs out, ``capped`` is set and the
        children found so far are returned."""
        signature = current.signature()
        if signature in self.expanded:
            return None
        self.expanded.add(signature)
        children: List[tuple] = []
        for before, delayed in sorted(reducible_pairs(current, self.preserved)):
            if self.meter.states_exhausted(len(self.seen)):
                self.capped = True
                break
            result = forward_reduction(current, delayed, before)
            if not result.valid:
                continue
            if self.preserved and not _keeps_concurrency(result.sg,
                                                         self.preserved):
                continue
            child_signature = result.sg.signature()
            self.seen.add(child_signature)
            children.append((before, delayed, result.sg, child_signature))
        return children

    def beam_levels(self, sg: StateGraph, cost: CostFunction,
                    size_frontier: int
                    ) -> Iterator[Tuple[List[tuple], List[StateGraph]]]:
        """Fig. 9's beam, one level per item: the ``size_frontier``
        cheapest new children as ``(cost, child, before, delayed)``, and
        the frontier configurations with no valid child (the terminals)."""
        frontier = [sg]
        while frontier and not self.capped:
            candidates: Dict[tuple, tuple] = {}
            terminals: List[StateGraph] = []
            for current in frontier:
                children = self.expand(current)
                if children is None:
                    continue
                for before, delayed, child, signature in children:
                    if signature not in self.expanded \
                            and signature not in candidates:
                        candidates[signature] = (cost(child), child,
                                                 before, delayed)
                if self.capped:
                    break
                if not children:
                    terminals.append(current)
            survivors = sorted(candidates.values(),
                               key=lambda item: item[0])[:size_frontier]
            yield survivors, terminals
            frontier = [child for _, child, _, _ in survivors]

    def stats(self, strategy: str, levels: int) -> ExplorationStats:
        return ExplorationStats(strategy=strategy, explored=len(self.seen),
                                expanded=len(self.expanded), levels=levels,
                                capped=self.capped)


def reduce_concurrency(sg: StateGraph,
                       keep_conc: Iterable[Tuple[str, str]] = (),
                       size_frontier: int = _SEARCH_FRONTIER,
                       weight: float = 0.5,
                       cost_function: Optional[CostFunction] = None,
                       max_explored: int = _SEARCH_EXPLORED,
                       strategy: str = "best-first",
                       patience: int = 150) -> ExplorationResult:
    """Search over valid forward reductions.

    ``keep_conc`` lists event pairs whose concurrency must be preserved;
    elements may be labels, base events or bare signal names (see
    :func:`repro.hse.constraints.normalise_keep_conc`).  ``weight`` is the
    paper's ``W``: 0 biases towards CSC resolution, 1 towards logic size.

    ``strategy`` selects between the paper's level-by-level beam
    (``"beam"``, Fig. 9) and a best-first variant (``"best-first"``, the
    default) that expands the globally cheapest configuration next.  The
    cost landscape of reshuffling is deceptive -- the best final
    interleaving is often reached through intermediate configurations that
    look expensive -- and best-first recovers from that where a narrow beam
    cannot.  ``patience`` bounds the number of consecutive non-improving
    expansions in best-first mode.
    """
    if strategy == "best-first":
        return _best_first(sg, keep_conc, weight, cost_function,
                           max_explored, patience)
    if strategy != "beam":
        raise ValueError(f"unknown strategy {strategy!r}")
    if size_frontier < 1:
        raise ValueError("size_frontier must be at least 1")
    cost = cost_function or CostFunction(weight=weight)
    search = _Search(sg, keep_conc, max_explored)
    initial_cost = cost(sg)
    best, best_cost = sg, initial_cost
    history: List[ExplorationStep] = []
    level = 0
    for level, (survivors, _) in enumerate(
            search.beam_levels(sg, cost, size_frontier), start=1):
        for value, candidate, before, delayed in survivors:
            if value < best_cost:
                best, best_cost = candidate, value
                history.append(ExplorationStep(level, before, delayed, value,
                                               len(candidate)))
    return ExplorationResult(best=best, best_cost=best_cost,
                             initial_cost=initial_cost,
                             stats=search.stats("beam", level),
                             history=history)


def _best_first(sg: StateGraph,
                keep_conc: Iterable[Tuple[str, str]],
                weight: float,
                cost_function: Optional[CostFunction],
                max_explored: int,
                patience: int) -> ExplorationResult:
    """Priority-queue exploration: always expand the cheapest known SG."""
    cost = cost_function or CostFunction(weight=weight)
    search = _Search(sg, keep_conc, max_explored)
    initial_cost = cost(sg)
    best, best_cost = sg, initial_cost
    counter = 0
    heap: List[Tuple[float, int, StateGraph]] = [(initial_cost, counter, sg)]
    history: List[ExplorationStep] = []
    stale = 0

    while heap and not search.capped and stale < patience:
        _, _, current = heapq.heappop(heap)
        children = search.expand(current)
        if children is None:
            continue
        improved = False
        for before, delayed, child, signature in children:
            if signature in search.expanded:
                continue
            child_cost = cost(child)
            counter += 1
            heapq.heappush(heap, (child_cost, counter, child))
            if child_cost < best_cost:
                best, best_cost = child, child_cost
                improved = True
                history.append(ExplorationStep(len(search.expanded), before,
                                               delayed, child_cost,
                                               len(child)))
        stale = 0 if improved else stale + 1

    return ExplorationResult(
        best=best, best_cost=best_cost, initial_cost=initial_cost,
        stats=search.stats("best-first", len(search.expanded)),
        history=history)


def full_reduction_with_stats(sg: StateGraph,
                              keep_conc: Iterable[Tuple[str, str]] = (),
                              size_frontier: int = _FULL_FRONTIER,
                              weight: float = 0.5,
                              cost_function: Optional[CostFunction] = None,
                              max_explored: int = _FULL_EXPLORED,
                              ) -> Tuple[StateGraph, ExplorationStats]:
    """:func:`full_reduction` plus the unified exploration accounting."""
    cost = cost_function or CostFunction(weight=weight)
    search = _Search(sg, keep_conc, max_explored)
    best_terminal: Optional[StateGraph] = None
    best_terminal_cost = float("inf")
    levels = 0
    for levels, (_, terminals) in enumerate(
            search.beam_levels(sg, cost, size_frontier), start=1):
        for terminal in terminals:
            value = cost(terminal)
            if value < best_terminal_cost:
                best_terminal, best_terminal_cost = terminal, value
    return ((best_terminal if best_terminal is not None else sg),
            search.stats("full", levels))


def full_reduction(sg: StateGraph,
                   keep_conc: Iterable[Tuple[str, str]] = (),
                   size_frontier: int = _FULL_FRONTIER,
                   weight: float = 0.5,
                   cost_function: Optional[CostFunction] = None,
                   max_explored: int = _FULL_EXPLORED) -> StateGraph:
    """Reduce until no valid reduction remains; best terminal wins.

    Unlike :func:`reduce_concurrency` (which may stop anywhere), this drives
    concurrency as low as the validity rules allow (the "Full reduction" and
    ``x || y`` rows of Tables 1 and 2): a configuration only counts as a
    result when *no* valid reduction applies to it.  A beam of width
    ``size_frontier`` avoids the greedy trap where an early cheap-looking
    reduction forecloses the globally best interleaving.
    """
    best, _ = full_reduction_with_stats(
        sg, keep_conc=keep_conc, size_frontier=size_frontier, weight=weight,
        cost_function=cost_function, max_explored=max_explored)
    return best
