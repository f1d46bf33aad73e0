"""Job-oriented pipeline entry point: digests out, not objects.

:func:`~repro.pipeline.stages.run_pipeline` returns a live
:class:`~repro.pipeline.stages.PipelineResult` -- state graphs, circuits,
exploration traces.  A long-running service cannot hand those across
process boundaries, and it does not need to: with an
:class:`~repro.pipeline.store.ArtifactStore` every stage payload is
already persisted under a content digest.  :func:`run_synth_job` evaluates
one design point and returns a **pure-JSON job payload**: the per-stage
artifact digests (resolvable through ``GET /artifacts/<digest>`` or
:meth:`ArtifactStore.entry_by_digest`), a flat summary row of the
reproducible quantities Tables 1-2 report, and the config identity.

:func:`summary_row` is the single home for deriving that row from a
:class:`~repro.pipeline.stages.PipelineResult`; the sweep runner builds its
report rows from the same function, so the service, the CLI sweep and the
benchmarks can never drift on what a "row" means.

Everything returned here is deterministic: no timings, no cache
provenance, containers in fixed order -- two evaluations of the same job
(cold or warm, serial or across a worker pool) render byte-identical JSON.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from .config import STAGE_ORDER, FlowConfig
from .stages import PipelineResult, run_pipeline
from .store import ArtifactStore

__all__ = ["run_synth_job", "run_synth_job_with_status", "summary_row",
           "synth_job_payload"]


def summary_row(result: PipelineResult) -> Dict[str, object]:
    """The reproducible summary quantities of one pipeline evaluation.

    Exactly the stage-derived columns of a sweep report row (states before/
    after reduction, CSC accounting, area, critical cycle, exploration
    stats, verification verdict) -- and nothing run-dependent: no wall
    times, no cache hit/miss provenance.  Byte-identical between cold and
    warm runs and between serial and parallel execution.
    """
    reduce_payload = result.results["reduce"].payload
    resolve_payload = result.results["resolve"].payload
    synth_payload = result.results["synthesize"].payload
    cycle = result.results["timing"].payload["cycle"]
    verify_result = result.results.get("verify")
    verification = None if verify_result is None else verify_result.payload
    stats = reduce_payload["stats"]
    circuit = synth_payload["circuit"]
    area = (circuit["area"] if circuit is not None
            else synth_payload["area_estimate"])
    return {
        "states_max": result.results["generate"].payload["states"],
        "states": reduce_payload["sg"]["states"],
        "csc_signals": len(resolve_payload["insertions"]),
        "csc_resolved": resolve_payload["resolved"],
        "area": None if area is None else float(area),
        "cycle_time": (None if cycle is None
                       else float(Fraction(cycle["period"]))),
        "input_events": (None if cycle is None
                         else len(cycle["input_events"])),
        "explored": None if stats is None else stats["explored"],
        "expanded": None if stats is None else stats["expanded"],
        "levels": None if stats is None else stats["levels"],
        "capped": None if stats is None else stats["capped"],
        "verdict": None if verification is None else verification["verdict"],
        "verify_states": (None if verification is None
                          else verification["product_states"]),
        "verify_arcs": (None if verification is None
                        else verification["product_arcs"]),
    }


def synth_job_payload(result: PipelineResult) -> Dict[str, object]:
    """The deterministic JSON payload of one completed synthesis job.

    ``artifacts`` maps each evaluated stage to the content digest of its
    payload; with a shared store a client can fetch the full artifact
    (canonical state graphs, the netlist, the certificate) by digest
    without the service ever serializing a live object.  ``equations``
    duplicates the synthesized logic inline because it is the one artifact
    nearly every caller wants immediately.
    """
    circuit = result.results["synthesize"].payload["circuit"]
    equations = (None if circuit is None
                 else [entry[2] for entry in circuit["signals"]])
    return {
        "name": result.name,
        "config": result.config.to_payload(),
        "config_digest": result.config.digest(),
        "artifacts": {stage: result.results[stage].digest
                      for stage in STAGE_ORDER if stage in result.results},
        "summary": summary_row(result),
        "equations": equations,
    }


def run_synth_job(config: FlowConfig,
                  stg_text: str,
                  name: Optional[str] = None,
                  store: Optional[ArtifactStore] = None
                  ) -> Dict[str, object]:
    """Evaluate one design point from raw ``.g`` text; return job JSON.

    Callers that also need the run-dependent cache provenance use
    :func:`run_synth_job_with_status` instead.
    """
    payload, _ = run_synth_job_with_status(config, stg_text, name=name,
                                           store=store)
    return payload


def run_synth_job_with_status(config: FlowConfig,
                              stg_text: str,
                              name: Optional[str] = None,
                              store: Optional[ArtifactStore] = None):
    """Like :func:`run_synth_job`, plus the per-stage cached/computed map.

    The stage-status map is run-dependent (it reflects what this
    evaluation found in the store) and therefore deliberately **not** part
    of the job payload; services report it next to the result, never
    inside it.
    """
    result = run_pipeline(config, stg_text=stg_text, name=name, store=store)
    return synth_job_payload(result), result.stage_status()
