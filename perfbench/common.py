"""Shared helpers: rounds, statistics, memory, scratch space."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

from tracing import Tracer, add_totals, layer_metrics

#: Scratch space inside the checkout (stores, logs, span dumps).
SCRATCH = ".perfbench_tmp"
#: Where traced runs write their span dumps.
TRACE_DIR = os.path.join(SCRATCH, "traces")
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


class BenchError(Exception):
    """A failed correctness oracle or an invalid measurement."""


def scratch_dir(prefix: str) -> str:
    """A fresh directory under the checkout's scratch space."""
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: str) -> int:
    """Total size of the regular files below ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def canonical(payload) -> bytes:
    """Deterministic JSON bytes, the form outputs are compared in."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def percentile(values: List[float], fraction: float) -> float:
    """Inclusive-method quantile (``fraction`` in (0, 1))."""
    if len(values) == 1:
        return values[0]
    if fraction == 0.5:
        return statistics.median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def latency_metrics(seconds: List[float]) -> Dict[str, float]:
    """Median and 90th percentile of per-operation latencies."""
    return {"latency_p50_s": percentile(seconds, 0.5),
            "latency_p90_s": percentile(seconds, 0.9)}


def cpu_seconds() -> float:
    """CPU time of this process and its reaped descendants, user + system.

    The timed metrics use CPU time, not wall time: on a shared host the
    hypervisor and other processes take the CPU away for stretches that
    wall time counts and CPU time does not (the guest kernel leaves steal
    time out of it).  The measured work is serial, so on an idle machine
    the two agree within ~2%.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def dump_trace(tracer: Tracer, stem: str) -> str:
    """Write a tracer's spans to ``.perfbench_tmp/traces/<stem>.jsonl``."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{stem}.jsonl")
    tracer.dump(path)
    return path


@dataclass
class Unit:
    """What one measured unit of work produced."""

    #: How many user-visible operations the unit performed.
    ops: int
    #: The unit's outputs, compared byte for byte across modes and rounds.
    output: object
    #: Unit-specific figures.
    extra: Dict[str, float] = field(default_factory=dict)


class RoundsWorkload:
    """A workload measured as repeated cold rounds, each in a new process.

    A fresh process per round makes every round cold and samples the
    process-to-process variation (memory layout, allocator state) that
    rounds within one process would share.  Subclasses provide
    ``unit(index) -> Unit``, ``check(unit)`` (the oracle, raising
    :class:`BenchError`) and ``figures(rounds)``, which returns the run
    figures including ``ops_per_s``.
    """

    name = ""
    seed = 0

    def setup_probe(self) -> None:
        """Building the workload object is the whole set-up."""

    def layer_figures(self, rounds: List[dict]) -> Dict[str, float]:
        return {}

    # -- inside a round process ----------------------------------------
    def run_round(self, index: int, traced: bool) -> dict:
        """One round, optionally under the tracer, and its oracle."""
        tracer = Tracer() if traced else None
        started = time.perf_counter()
        cpu_started = cpu_seconds()
        if tracer is None:
            unit = self.unit(index)
        else:
            with tracer:
                unit = self.unit(index)
        took = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_started
        self.check(unit)
        result = {"ops": unit.ops, "output": unit.output,
                  "extra": unit.extra, "seconds": took, "cpu_s": cpu,
                  "traced": traced}
        if tracer is not None:
            result["totals"] = tracer.totals(took)
            dump_trace(tracer, f"{self.name}-seed{self.seed}-round{index}")
        return result

    # -- in the driving process ----------------------------------------
    def _spawn(self, index: int, traced: bool) -> dict:
        process = subprocess.run(
            [sys.executable, RUN_PY, "--workload", self.name, "--seed",
             str(self.seed), "--seconds", "0", "--round", str(index),
             "--trace", str(int(traced))],
            capture_output=True, text=True)
        if process.returncode != 0:
            raise BenchError(f"round {index} failed: "
                             + process.stderr.strip()[-2000:])
        return json.loads(process.stdout.strip().splitlines()[-1])

    def run(self, trace: bool, seconds: float) -> Dict[str, object]:
        """Rounds until about ``seconds`` of measured time have passed.

        The run stops at the round boundary nearest to ``seconds``, after
        at least one round.  Traced runs alternate untraced and traced
        rounds (at least one of each), so both copies run equally cold.
        Every round must reproduce round 0's outputs byte for byte, which
        also proves tracing changes no output.
        """
        rounds: List[dict] = []
        elapsed = 0.0
        while len(rounds) < 1 + trace \
                or elapsed + elapsed / len(rounds) / 2 < seconds:
            result = self._spawn(len(rounds), trace and len(rounds) % 2 == 1)
            if rounds and canonical(result["output"]) != \
                    canonical(rounds[0]["output"]):
                raise BenchError(f"round {len(rounds)} produced other "
                                 "outputs than round 0")
            rounds.append(result)
            elapsed += result["seconds"]
        plain = [result for result in rounds if not result["traced"]]
        figures = self.figures(plain)
        end_to_end = {"ops_per_s": figures.pop("ops_per_s")}
        layers: Dict[str, float] = {}
        if trace:
            traced = [result for result in rounds if result["traced"]]
            totals = traced[0]["totals"]
            for result in traced[1:]:
                add_totals(totals, result["totals"])
            layers = layer_metrics(totals)
            layers["trace.overhead_frac"] = (
                statistics.median(result["cpu_s"] for result in traced)
                / statistics.median(result["cpu_s"] for result in plain)
                - 1.0)
            layers.update(self.layer_figures(traced))
        return {"attempted": sum(result["ops"] for result in rounds),
                "failed": 0, "end_to_end": end_to_end, "layers": layers,
                "info": figures}
