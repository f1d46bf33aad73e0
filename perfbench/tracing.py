"""Outside-in layer tracing: wrap each layer's entry points, record spans.

Nothing under ``src/`` is edited.  :func:`install` replaces a function at
the module attribute its caller resolves it through (for example
``repro.pipeline.stages.resolve_csc``) with a wrapper that records one
span per call: layer, entry-point name, start, duration and the index of
the enclosing wrapped span.  Spans stay in memory while the workload runs
and are written out once, when the run ends (:meth:`Tracer.dump`).

A span's *self time* is its duration minus the time covered by its
wrapped children.  Time inside no wrapped span at all is *unattributed*.
Only entry points called at most ~10^5 times per run are wrapped, so hot
primitives such as ``StateGraph.add_state`` are left alone.

Wrappers only observe: they return the wrapped function's result
unchanged, so a traced run produces the same bytes as an untraced one
(the workloads check this on every traced unit).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span record fields, kept as plain lists for a cheap wrapper.
_LAYER, _NAME, _PARENT, _START, _DURATION, _CHILD = range(6)


def _states_arcs(counters: Dict[str, float], result) -> None:
    counters["sg.states"] += len(result)
    counters["sg.arcs"] += result.arc_count()


def _candidate(counters: Dict[str, float], result) -> None:
    counters["encoding.candidates"] += 1
    if result is not None:
        counters["encoding.candidate_states"] += len(result)


def _accepted(counters: Dict[str, float], result) -> None:
    counters["encoding.accepted"] += len(result)


def _exploration(counters: Dict[str, float], result) -> None:
    stats = result.stats
    if stats is not None:
        counters["reduction.configs_explored"] += stats.explored


def _full_reduction(counters: Dict[str, float], result) -> None:
    stats = result[1]
    if stats is not None:
        counters["reduction.configs_explored"] += stats.explored


def _forward_reduction(counters: Dict[str, float], result) -> None:
    counters["reduction.candidates"] += 1
    if result:
        counters["reduction.valid"] += 1


def _verified(counters: Dict[str, float], result) -> None:
    report, cached = result
    if not cached:
        counters["verify.product_states"] += report.product_states


def _pipeline(counters: Dict[str, float], result) -> None:
    for state in result.stage_status().values():
        key = ("pipeline.stages_cached" if state == "cached"
               else "pipeline.stages_computed")
        counters[key] += 1


def _symbolic(counters: Dict[str, float], result) -> None:
    counters["symbolic.bdd_nodes"] += result.bdd_nodes or 0


def _count(name: str) -> Callable[[Dict[str, float], object], None]:
    def hook(counters: Dict[str, float], _result) -> None:
        counters[name] += 1
    return hook


#: (module, attribute, layer, result hook).  ``attribute`` may be
#: ``Class.method``.  Each entry is the name a caller resolves at call
#: time, so every call passes through exactly one wrapper.
WRAP_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # sweep: the serial runner the table workloads drive
    ("repro.sweep.runner", "run_sweep", "sweep", None),
    # pipeline: stage orchestration, payload codec, artifact store
    ("repro.sweep.runner", "run_pipeline", "pipeline", _pipeline),
    ("repro.pipeline.jobs", "run_pipeline", "pipeline", _pipeline),
    ("repro.sweep.runner", "cached_graph_digest", "pipeline.codec", None),
    ("repro.pipeline.stages", "sg_to_payload", "pipeline.codec", None),
    ("repro.pipeline.stages", "sg_from_payload", "pipeline.codec", None),
    ("repro.pipeline.stages", "digest_payload", "pipeline.codec", None),
    ("repro.pipeline.stages", "graph_digest", "pipeline.codec", None),
    ("repro.pipeline.stages", "text_digest", "pipeline.codec", None),
    ("repro.pipeline.store", "ArtifactStore.get_entry", "pipeline.store",
     None),
    ("repro.pipeline.store", "ArtifactStore.put_entry", "pipeline.store",
     None),
    # sg.generate: explicit state-graph generation
    ("repro.sg.generator", "generate_sg", "sg.generate", _states_arcs),
    ("repro.pipeline.stages", "generate_sg", "sg.generate", _states_arcs),
    ("repro.sweep.runner", "generate_sg", "sg.generate", _states_arcs),
    # sg.properties: persistency / CSC checks called from encoding,
    # reduction and the explicit coding check
    ("repro.encoding.insertion", "persistency_violations", "sg.properties",
     _count("sg.properties_calls")),
    ("repro.encoding.csc", "csc_conflicts", "sg.properties",
     _count("sg.properties_calls")),
    ("repro.reduction.validity", "persistency_violations", "sg.properties",
     _count("sg.properties_calls")),
    ("repro.reduction.cost", "csc_conflicts", "sg.properties",
     _count("sg.properties_calls")),
    ("repro.sg.properties", "coding_report", "sg.properties",
     _count("sg.properties_calls")),
    # reduction: the concurrency-reduction search
    ("repro.pipeline.stages", "reduce_concurrency", "reduction",
     _exploration),
    ("repro.pipeline.stages", "full_reduction_with_stats", "reduction",
     _full_reduction),
    ("repro.reduction.explore", "forward_reduction", "reduction.candidate",
     _forward_reduction),
    ("repro.reduction.cost", "CostFunction.breakdown", "reduction.cost",
     None),
    # encoding: CSC resolution by state-signal insertion
    ("repro.pipeline.stages", "resolve_csc", "encoding", None),
    ("repro.encoding.insertion", "enumerate_insertions", "encoding.search",
     _accepted),
    ("repro.encoding.insertion", "insert_state_signal", "encoding.candidate",
     _candidate),
    ("repro.encoding.insertion", "insert_state_signal_sequencing",
     "encoding.candidate", _candidate),
    # logic: two-level minimization
    ("repro.logic.functions", "minimize", "logic",
     _count("logic.minimize_calls")),
    ("repro.logic.functions", "minimize_fast_ints", "logic",
     _count("logic.minimize_calls")),
    ("repro.logic.complexity", "fast_literal_count", "logic",
     _count("logic.minimize_calls")),
    # circuit: mapping the minimized logic onto the gate library
    ("repro.pipeline.stages", "synthesize_circuit", "circuit", None),
    ("repro.pipeline.stages", "estimate_circuit_area", "circuit", None),
    # timing and verification
    ("repro.pipeline.stages", "critical_cycle", "timing", None),
    ("repro.verify.certificate", "verify_netlist", "verify", _verified),
    # symbolic: the BDD coding check
    ("repro.symbolic.csc", "check_coding_symbolic", "symbolic", _symbolic),
)

#: Every wrapped layer -> the group its self time counts towards in the
#: per-layer shares (``encoding.candidate`` -> ``encoding``).
GROUPS = {
    "sweep": "sweep", "pipeline": "pipeline",
    "pipeline.codec": "pipeline", "pipeline.store": "pipeline",
    "sg.generate": "sg.generate", "sg.properties": "sg.properties",
    "reduction": "reduction", "reduction.candidate": "reduction",
    "reduction.cost": "reduction", "encoding": "encoding",
    "encoding.search": "encoding", "encoding.candidate": "encoding",
    "logic": "logic", "circuit": "circuit", "timing": "timing",
    "verify": "verify", "symbolic": "symbolic",
}

#: Counters every traced run reports (zero when a layer does no work).
COUNTERS = ("sg.states", "sg.arcs", "sg.properties_calls",
            "encoding.candidates",
            "encoding.candidate_states", "encoding.accepted",
            "reduction.configs_explored", "reduction.candidates",
            "reduction.valid", "logic.minimize_calls",
            "verify.product_states", "pipeline.stages_computed",
            "pipeline.stages_cached", "symbolic.bdd_nodes")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _wrap(self, func, layer: str, name: str, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [layer, name, stack[-1] if stack else None, clock(),
                      0.0, 0.0]
            stack.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                record[_DURATION] = clock() - record[_START]
                spans.append(record)
                if stack:
                    stack[-1][_CHILD] += record[_DURATION]
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Patch every wrap point; :meth:`uninstall` restores them."""
        for module_name, attribute, layer, hook in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            name = f"{module_name}.{attribute}"
            setattr(owner, leaf, self._wrap(original, layer, name, hook))
            self._patched.append((owner, leaf, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def totals(self, traced_seconds: float) -> Dict[str, object]:
        """Additive per-layer sums: totals of several runs can be added.

        ``traced_seconds`` is the wall time of the traced work.
        """
        inclusive = {layer: 0.0 for layer in GROUPS}
        self_time = {layer: 0.0 for layer in GROUPS}
        root_time = 0.0
        for record in self.spans:
            layer = record[_LAYER]
            self_time[layer] += record[_DURATION] - record[_CHILD]
            parent = record[_PARENT]
            if parent is None:
                root_time += record[_DURATION]
            # Inclusive time counts the outermost span of a layer only, so
            # recursion through the same layer is not counted twice.
            while parent is not None and parent[_LAYER] != layer:
                parent = parent[_PARENT]
            if parent is None:
                inclusive[layer] += record[_DURATION]
        return {"inclusive": inclusive, "self": self_time,
                "counters": dict(self.counters), "root": root_time,
                "traced": traced_seconds, "spans": len(self.spans)}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (index, parent index, ...)."""
        index = {id(record): position
                 for position, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for position, record in enumerate(self.spans):
                parent = record[_PARENT]
                handle.write(json.dumps({
                    "id": position,
                    "parent": None if parent is None else index[id(parent)],
                    "layer": record[_LAYER],
                    "name": record[_NAME],
                    "start": round(record[_START], 7),
                    "seconds": round(record[_DURATION], 7),
                    "self_seconds": round(record[_DURATION]
                                          - record[_CHILD], 7),
                }) + "\n")


def add_totals(into: Dict[str, object], more: Dict[str, object]) -> None:
    """Add the :meth:`Tracer.totals` ``more`` into ``into`` in place."""
    for key, value in more.items():
        if isinstance(value, dict):
            for name, amount in value.items():
                into[key][name] += amount
        else:
            into[key] += value


def layer_metrics(totals: Dict[str, object]) -> Dict[str, float]:
    """Per-layer seconds, self-time shares, counters and ratios."""
    inclusive, self_time = totals["inclusive"], totals["self"]
    counters, traced = totals["counters"], totals["traced"]
    out: Dict[str, float] = {
        "encoding.resolve_s": inclusive["encoding"],
        "encoding.candidates": counters["encoding.candidates"],
        "encoding.candidate_states": counters["encoding.candidate_states"],
        "encoding.accept_ratio": _ratio(counters["encoding.accepted"],
                                        counters["encoding.candidates"]),
        "sg.properties_s": inclusive["sg.properties"],
        "sg.properties_calls": counters["sg.properties_calls"],
        "reduction.search_s": inclusive["reduction"],
        "reduction.configs_explored": counters["reduction.configs_explored"],
        "reduction.candidates": counters["reduction.candidates"],
        "reduction.valid_ratio": _ratio(counters["reduction.valid"],
                                        counters["reduction.candidates"]),
        "reduction.cost_s": inclusive["reduction.cost"],
        "logic.minimize_s": inclusive["logic"],
        "logic.minimize_calls": counters["logic.minimize_calls"],
        "circuit.synthesize_s": self_time["circuit"],
        "timing.cycle_s": inclusive["timing"],
        "verify.verify_s": inclusive["verify"],
        "verify.product_states": counters["verify.product_states"],
        "pipeline.codec_s": inclusive["pipeline.codec"],
        "pipeline.store_s": inclusive["pipeline.store"],
        "pipeline.stages_computed": counters["pipeline.stages_computed"],
        "pipeline.stages_cached": counters["pipeline.stages_cached"],
        "sweep.self_s": self_time["sweep"],
        "sg.generate_s": inclusive["sg.generate"],
        "sg.states": counters["sg.states"],
        "sg.arcs": counters["sg.arcs"],
        "symbolic.check_s": inclusive["symbolic"],
        "symbolic.bdd_nodes": counters["symbolic.bdd_nodes"],
        "trace.spans": totals["spans"],
        "trace.unattributed_frac": max(
            0.0, 1.0 - _ratio(totals["root"], traced)),
    }
    for layer, seconds in self_time.items():
        group = "share." + GROUPS[layer]
        out[group] = out.get(group, 0.0) + _ratio(seconds, traced)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
