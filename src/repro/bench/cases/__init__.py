"""The registered benchmark cases, one module per bench family.

Importing this package registers every case with
:mod:`repro.bench.registry` (import order is fixed, so registry order --
and therefore run order and report layout -- is deterministic).
``repro bench --cases NAME`` runs any one of them.

| module | cases |
| --- | --- |
| ``figures``  | fig1/fig2/fig3/fig6/fig8/fig10 |
| ``tables``   | table1_lr, table2_mmu, ablation_search |
| ``engine``   | engine_scaling |
| ``frontier`` | frontier_scaling |
| ``symbolic`` | symbolic_scaling |
| ``fuzzing``  | fuzz_throughput |
| ``sweeps``   | sweep_throughput |
| ``pipelines``| pipeline_resume |
| ``serving``  | serve_throughput |
| ``verifying``| verify_throughput |
"""

from . import (figures, tables, engine, frontier, symbolic,  # noqa: F401
               fuzzing, sweeps, pipelines, serving, verifying)
