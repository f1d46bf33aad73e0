"""The round-based workloads: Tables 1-2 grids and family coding checks.

Each workload builds its inputs in its constructor (the set-up) and
defines a *unit*: one cold round of work (engine caches cleared, a fresh
artifact store) whose outputs the workload's oracle checks.
:class:`common.RoundsWorkload` runs rounds, each in a fresh process,
until the run's measured time is used up.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List

from common import BenchError, RoundsWorkload, Unit, canonical, \
    cpu_seconds, dir_bytes, remove_dir, scratch_dir

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")

#: tables_maxconc leaves out the MMU: its maximal-concurrency point runs
#: an exhaustive 4-signal CSC search of ~50 s on a 2-CPU host, longer than
#: a whole run may take.  tables_search keeps only the MMU's plain full
#: reduction: its six beam/best-first points (~18 s) and four Keep_Conc
#: rows (~6 s) would leave room for one or two grid passes per run, too
#: few to average out this host's ~10% round-to-round timing noise.
MAXCONC_SKIP = ("mmu",)

#: Row fields pinned by BENCH_baseline.json's exact Table 1-2 metrics:
#: (case, metric) -> (spec, point label or "*" for every point, field).
BASELINE_PINS = {
    ("table1_lr", "max_area"): ("lr", "lr/none", "area"),
    ("table1_lr", "max_cycle"): ("lr", "lr/none", "cycle_time"),
    ("table1_lr", "max_csc_signals"): ("lr", "lr/none", "csc_signals"),
    ("table1_lr", "full_area"): ("lr", "lr/full/W=0.5", "area"),
    ("table1_lr", "lo_ro_area"): ("lr", "lr/lo || ro", "area"),
    ("table2_mmu", "sg_states"): ("mmu", "*", "states_max"),
}

#: Family members checked per round and their state counts: the closed
#: forms of tests/test_families.py, and for the arbiter tree, which has
#: no closed form, the count pinned there.  The members are the unshuffled
#: ones (declaration seed 0) on every run: with seed-drawn shuffles the
#: symbolic engine's time and memory swing up to ~15x with the declaration
#: order (BDD variable order), which would make the run-to-run spread a
#: property of the seed rather than of the code.  The sizes fit a round
#: into a few seconds: on a 2-CPU host micropipeline_chain_4 and counter_7
#: take ~12 s each on the explicit engine, and arbiter_tree_4 on the
#: symbolic engine ran for over 80 s and was killed before it finished.
FAMILIES = (
    ("fifo_chain_7", 3 ** (7 + 1) + (-1) ** 7),
    ("micropipeline_chain_3", 2 ** (3 * 3 + 2)),
    ("counter_6", 2 ** (2 * 6 + 1)),
    ("arbiter_tree_2", 28),
)


# ----------------------------------------------------------------------
# Tables 1-2
# ----------------------------------------------------------------------
def _grid(workload: str):
    from repro.sweep.grid import SweepGrid, make_point, spec_registry, \
        tables_grid
    if workload == "tables_maxconc":
        return SweepGrid(make_point(spec, "none", verify=True)
                         for spec in spec_registry()
                         if spec not in MAXCONC_SKIP)
    full = tables_grid(strategies=("beam", "best-first", "full"),
                       verify=True)
    return SweepGrid(point for point in full
                     if point.spec != "mmu"
                     or (point.strategy == "full" and not point.variant))


def _expected(workload: str) -> List[dict]:
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["rows"]


def _baseline() -> Dict[str, Dict[str, float]]:
    with open("BENCH_baseline.json", encoding="utf-8") as handle:
        cases = json.load(handle)["cases"]
    return {case: {name: metric["value"]
                   for name, metric in entry["metrics"].items()}
            for case, entry in cases.items()}


def check_rows(labels: List[str], rows: List[dict], expected: List[dict],
               baseline: Dict[str, Dict[str, float]]) -> None:
    """The Tables 1-2 oracle: expected rows, verdicts, baseline pins.

    ``labels`` are the grid points' labels, in row order.
    """
    if len(rows) != len(expected):
        raise BenchError(f"{len(rows)} rows, expected {len(expected)}")
    for label, row, want in zip(labels, rows, expected):
        if canonical(row) != canonical(want):
            diff = sorted(key for key in set(row) | set(want)
                          if row.get(key) != want.get(key))
            raise BenchError(f"{label}: row differs from the expected "
                             f"results in {diff}")
        # Verification is skipped exactly when no circuit was synthesized.
        if row["verdict"] not in ("conforming", "skipped"):
            raise BenchError(f"{label}: circuit verdict is "
                             f"{row['verdict']!r}, not 'conforming'")
    for (case, metric), (spec, pinned_label, column) in BASELINE_PINS.items():
        pinned = baseline[case][metric]
        for label, row in zip(labels, rows):
            if row["spec"] == spec and pinned_label in ("*", label) \
                    and row[column] != pinned:
                raise BenchError(f"{label}: {column}={row[column]} but "
                                 f"BENCH_baseline {case}.{metric}={pinned}")


class Tables(RoundsWorkload):
    """tables_maxconc / tables_search: serial ``run_sweep`` rounds.

    The paper's case studies are fixed inputs; ``--seed`` only names the
    run here.  A round's measured time is the CPU time of its cold grid
    pass.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.name = workload
        self.seed = seed
        self.grid = _grid(workload)
        self.baseline = _baseline()

    def unit(self, _index: int) -> Unit:
        from repro import engine
        from repro.sweep import runner
        from repro.sweep.store import ResultStore
        engine.clear_caches()
        root = scratch_dir("store-")
        try:
            store = ResultStore(root)
            started = cpu_seconds()
            cold = runner.run_sweep(self.grid, jobs=1, store=store)
            extra = {"cold_cpu_s": cpu_seconds() - started,
                     "cold_s": cold.seconds, "computed": cold.computed}
            if self.name == "tables_search":
                started = cpu_seconds()
                warm = runner.run_sweep(self.grid, jobs=1, store=store)
                extra["warm_cpu_s"] = cpu_seconds() - started
                if warm.computed or canonical(warm.rows) != \
                        canonical(cold.rows):
                    raise BenchError("the warm-store pass recomputed points "
                                     "or changed rows")
            extra["store_bytes"] = dir_bytes(root)
        finally:
            remove_dir(root)
        return Unit(ops=len(cold.rows), output=cold.rows, extra=extra)

    def check(self, unit: Unit) -> None:
        if unit.extra["computed"] != len(self.grid):
            raise BenchError("a cold pass served points from the store")
        check_rows([point.label() for point in self.grid], unit.output,
                   _expected(self.name), self.baseline)

    def write_expected(self) -> None:
        """Rewrite ``expected/<workload>.json`` from one cold round."""
        rows = self.unit(0).output
        with open(os.path.join(EXPECTED_DIR, f"{self.name}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"rows": rows}, handle, indent=1, sort_keys=True)
            handle.write("\n")

    def figures(self, rounds: List[dict]) -> Dict[str, object]:
        points = len(self.grid)
        rows = rounds[0]["output"]
        out = {
            "ops_per_s": points / statistics.median(
                r["extra"]["cold_cpu_s"] for r in rounds),
            "wall_ops_per_s": points / statistics.median(
                r["extra"]["cold_s"] for r in rounds),
            "rounds": len(rounds),
            "points": points * len(rounds),
            "area_literals": sum(row["area"] or 0 for row in rows),
            "cycle_time": sum(row["cycle_time"] or 0 for row in rows),
            "csc_signals": sum(row["csc_signals"] for row in rows),
        }
        if self.name == "tables_search":
            out["warm_points_per_s"] = points / statistics.median(
                r["extra"]["warm_cpu_s"] for r in rounds)
        return out

    def layer_figures(self, rounds: List[dict]) -> Dict[str, float]:
        return {"pipeline.store_bytes": max(r["extra"]["store_bytes"]
                                            for r in rounds)}


# ----------------------------------------------------------------------
# check_families
# ----------------------------------------------------------------------
class Families(RoundsWorkload):
    """Explicit and symbolic ``check_coding`` on fixed family members.

    ``--seed`` only names the run (see :data:`FAMILIES`).  A round checks
    every member on both engines; its measured time is the CPU time of the
    whole round.
    """

    name = "check_families"

    def __init__(self, seed: int) -> None:
        from repro.specs.families import load_family
        self.seed = seed
        self.members = [(name, load_family(name), states)
                        for name, states in FAMILIES]

    def unit(self, _index: int) -> Unit:
        from repro import engine
        from repro.sg.properties import check_coding
        output = []
        for name, stg, states in self.members:
            reports = {}
            for engine_name in ("auto", "symbolic"):
                engine.clear_caches()
                reports[engine_name] = check_coding(
                    stg, engine=engine_name, name=name).to_payload()
            output.append({"name": name, "states": states,
                           "explicit": reports["auto"],
                           "symbolic": reports["symbolic"]})
        return Unit(ops=2 * len(output), output=output)

    @staticmethod
    def check(unit: Unit) -> None:
        for entry in unit.output:
            if canonical(entry["explicit"]) != canonical(entry["symbolic"]):
                raise BenchError(f"{entry['name']}: explicit and symbolic "
                                 "coding reports differ")
            if entry["explicit"]["states"] != entry["states"]:
                raise BenchError(f"{entry['name']}: "
                                 f"{entry['explicit']['states']} states, "
                                 f"closed form says {entry['states']}")

    @staticmethod
    def figures(rounds: List[dict]) -> Dict[str, object]:
        checks = rounds[0]["ops"]
        return {"ops_per_s": checks / statistics.median(
                    r["cpu_s"] for r in rounds),
                "wall_ops_per_s": checks / statistics.median(
                    r["seconds"] for r in rounds),
                "rounds": len(rounds), "checks": checks * len(rounds)}
