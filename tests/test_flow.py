"""Integration tests for the end-to-end flow (``run_pipeline``)."""

import pytest

from repro.pipeline import FlowConfig, run_pipeline
from repro.sg.generator import generate_sg
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import TABLE1_KEEP_CONC, lr_expanded, lr_spec, q_module_stg
from repro.timing.delays import DelayModel

AS_IS = FlowConfig(strategy="none")


class TestImplement:
    def test_q_module_report(self):
        result = run_pipeline(AS_IS, stg=q_module_stg(),
                              name="Q-module (hand)")
        assert result.name == "Q-module (hand)"
        assert result.csc_resolved()
        assert len(result.insertions()) == 1
        assert result.area() > 0
        assert result.cycle().cycle_time > 0
        assert result.cycle().input_event_count == 4

    def test_unresolved_falls_back_to_estimate(self):
        result = run_pipeline(AS_IS, initial_sg=generate_sg(fig1_stg()))
        assert not result.csc_resolved()
        assert result.circuit() is None
        assert result.area() == result.area_estimate()
        assert result.area() is not None

    def test_resynthesise_flag(self):
        result = run_pipeline(AS_IS.replace(resynthesise=True),
                              stg=q_module_stg())
        stg = result.resynthesised_stg()
        assert stg is not None
        assert set(stg.signals) >= {"li", "lo", "ri", "ro"}

    def test_custom_delays(self):
        fast = run_pipeline(AS_IS.replace(delays=DelayModel.by_kind(1, 1, 1)),
                            stg=q_module_stg())
        slow = run_pipeline(AS_IS.replace(delays=DelayModel.by_kind(4, 1, 1)),
                            stg=q_module_stg())
        assert fast.cycle().cycle_time < slow.cycle().cycle_time


class TestRunFlow:
    def test_max_concurrency(self):
        result = run_pipeline(AS_IS, spec=lr_spec(), name="max")
        assert len(result.initial_sg()) == 16
        assert result.exploration() is None
        assert len(result.insertions()) == 2
        assert result.csc_resolved()

    def test_full_reduction_flow(self):
        result = run_pipeline(FlowConfig(strategy="full"), spec=lr_spec(),
                              name="full")
        assert result.area() == 0
        assert len(result.insertions()) == 0
        assert result.circuit().equations["lo"] == "lo = ri"

    def test_beam_flow_improves(self):
        result = run_pipeline(FlowConfig(), spec=lr_spec(), name="auto")
        exploration = result.exploration()
        assert exploration is not None
        assert exploration.best_cost <= exploration.initial_cost
        assert result.csc_resolved()

    def test_keep_conc_flow(self):
        from repro.sg.regions import are_concurrent
        config = FlowConfig.create(strategy="full",
                                   keep_conc=TABLE1_KEEP_CONC["li || ri"])
        result = run_pipeline(config, spec=lr_spec())
        assert are_concurrent(result.reduced_sg(), "li-", "ri-")

    def test_two_phase_flow_skips_logic(self):
        # 2-phase refinements have toggle events: the SG generates, the
        # timing works, but logic extraction is a 4-phase concept.
        config = FlowConfig(strategy="none", phases=2, max_csc_signals=0)
        result = run_pipeline(config, spec=lr_spec())
        assert len(result.initial_sg()) == 8
