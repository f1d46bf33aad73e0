"""Repository benchmark: user-facing workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload tables_maxconc --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
unit of work a second time under the outside-in layer tracer
(:mod:`tracing`), checks that both copies produced byte-identical
outputs, and reports the per-layer metrics.  Every metric is printed
with its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness oracle ends the run with exit code 1 and no JSON line.

``--workload all`` runs every workload, untraced and then traced, each in
its own process, and fails if any of them fails.

``setup_s`` is the median CPU time of seven cold set-ups, each in a fresh
process (``--setup-only``): imports plus building the workload's inputs
and, for ``serve_generated``, booting the server until ``/healthz``
answers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Every workload this script runs.  BENCHMARK.json lists all but
#: serve_generated, whose oracle fails on this revision (README.md, "Known
#: defect").
WORKLOADS = ("tables_maxconc", "tables_search", "serve_generated",
             "check_families")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
#: End-to-end metrics only serve_generated reports: fresh-request latency
#: from each request's scheduled send time.
SERVE_END_TO_END = {"latency_p50_s": "s", "latency_p90_s": "s"}
#: Per-layer metrics of a traced run, in report order: name -> unit.  A
#: layer that does no work in a workload reports 0.
PER_LAYER = {name: unit for unit, names in (
    ("s", ("encoding.resolve_s", "sg.properties_s", "reduction.search_s",
           "reduction.cost_s", "logic.minimize_s", "circuit.synthesize_s",
           "timing.cycle_s", "verify.verify_s", "pipeline.codec_s",
           "pipeline.store_s", "sweep.self_s", "sg.generate_s",
           "symbolic.check_s")),
    ("count", ("encoding.candidates", "encoding.candidate_states",
               "sg.properties_calls", "reduction.configs_explored",
               "reduction.candidates", "logic.minimize_calls",
               "verify.product_states", "pipeline.stages_computed",
               "pipeline.stages_cached", "sg.states", "sg.arcs",
               "symbolic.bdd_nodes", "trace.spans")),
    ("bytes", ("pipeline.store_bytes",)),
    ("fraction", ("encoding.accept_ratio", "reduction.valid_ratio",
                  "trace.unattributed_frac", "trace.overhead_frac",
                  "share.sweep", "share.pipeline", "share.sg.generate",
                  "share.sg.properties", "share.reduction", "share.encoding",
                  "share.logic", "share.circuit", "share.timing",
                  "share.verify", "share.symbolic")),
) for name in names}
#: Per-layer metrics only serve_generated reports, from the server's
#: ``/stats`` and ``/jobs/<id>/trace``.
SERVE_LAYER = {"serve.queue_wait_p50_s": "s", "serve.queue_wait_p90_s": "s",
               "serve.service_p50_s": "s", "serve.dedup_hits": "count",
               "serve.history_hits": "count", "serve.max_backlog": "count"}
#: Units of the run figures printed beside the metrics (not in the JSON).
INFO_UNITS = {
    "error_rate": "fraction", "rounds": "count", "points": "count",
    "checks": "count", "area_literals": "literals",
    "cycle_time": "delay units", "csc_signals": "signals",
    "warm_points_per_s": "1/s", "wall_ops_per_s": "1/s",
    "requests": "count", "rate_per_s": "1/s",
    "distinct_jobs": "count", "slo_attainment": "fraction",
    "slo_limit_s": "s", "generator_lateness_p50_s": "s",
    "generator_lateness_max_s": "s", "replay_s": "s",
    "latency_all_p50_s": "s", "latency_all_p90_s": "s",
}
SETUP_REPEATS = 7


def _import_repro() -> None:
    """Make ``src/`` importable; fail clearly when the sources are absent."""
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        raise SystemExit("perfbench: no src/repro below the working "
                         "directory; run from the repository root")
    sys.path.insert(0, source)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    import repro  # noqa: F401 - fail here, before any measurement


def _workload(name: str, seed: int, seconds: float):
    if name == "serve_generated":
        from serve_load import ServeGenerated
        return ServeGenerated(seed, seconds)
    if name == "check_families":
        from workloads import Families
        return Families(seed)
    from workloads import Tables
    return Tables(name, seed)


def _setup_seconds(args) -> float:
    """Median CPU time of fresh-process set-ups of this workload.

    A set-up's CPU time includes the processes it starts and reaps (the
    server and its worker), as :func:`common.cpu_seconds` counts them.
    """
    from common import cpu_seconds
    timings = []
    for _ in range(SETUP_REPEATS):
        started = cpu_seconds()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", args.workload, "--seed",
                        str(args.seed), "--seconds", str(args.seconds),
                        "--setup-only"], check=True)
        timings.append(cpu_seconds() - started)
    return statistics.median(timings)


def _run_all(args) -> int:
    """Every workload, untraced then traced; nonzero if any run failed."""
    failed = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            failed |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", trace]).returncode != 0
    return int(failed)


def _print_metrics(title: str, metrics, units) -> None:
    print(f"# {title}")
    for name in sorted(metrics):
        print(f"{name:34s} {metrics[name]:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs (and boot the server), exit")
    parser.add_argument("--round", type=int, default=None,
                        help="run one round in this process and print it "
                             "as JSON (the driving process spawns these)")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite the tables_* expected-results file "
                             "from one cold round, then exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_repro()

    from common import BenchError, peak_rss_mb

    workload = _workload(args.workload, args.seed, args.seconds)
    try:
        if args.setup_only:
            workload.setup_probe()
            return 0
        if args.write_expected:
            workload.write_expected()
            return 0
        if args.round is not None:
            print(json.dumps(workload.run_round(args.round,
                                                bool(args.trace))))
            return 0
        result = workload.run(bool(args.trace), args.seconds)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    info = result["info"]
    info["error_rate"] = result["failed"] / result["attempted"]
    if args.trace:
        units = dict(PER_LAYER, **(SERVE_LAYER if args.workload
                                   == "serve_generated" else {}))
        metrics = {name: result["layers"].get(name, 0) for name in units}
        title = "per-layer (traced)"
    else:
        result["end_to_end"]["setup_s"] = _setup_seconds(args)
        units = dict(END_TO_END, **(SERVE_END_TO_END if args.workload
                                    == "serve_generated" else {}))
        metrics = {name: result["end_to_end"][name] for name in units}
        title = "end-to-end"
    _print_metrics(f"{args.workload} {title}", metrics, units)
    _print_metrics(f"{args.workload} run figures", info, INFO_UNITS)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
