"""Preset registry: lookup, errors, and preset well-formedness."""

from dataclasses import replace

import pytest

from repro.faults import NODE_CRASH, NODE_REJOIN
from repro.scenario import (
    PAPER_SCALE,
    QUICK_SCALE,
    ScenarioRunner,
    ScenarioSpec,
    bench_scenario,
    fig7_scenario,
    fig8_scenario,
    fig9_scenario,
    figure_base,
    get_scenario,
    scenario_names,
)

#: The ``churn`` preset's trace digest and block count, recorded when it
#: still declared its duty cycle through the retired ``workload.churn``
#: shorthand; the two-event timeline that replaced it runs identically.
CHURN_TRACE_SHA256 = (
    "b4ed6d113ddb270e7ddaaf8b41d6de12d1429612f77255351aeba99027e5fbe7"
)
CHURN_BLOCKS = 570

REQUIRED_PRESETS = {
    "quickstart", "paper-fig7", "paper-fig9",
    "attack-majority", "attack-eclipse", "attack-sybil",
    "churn", "bench-fast", "bench-full",
}


class TestLookup:
    def test_required_presets_registered(self):
        assert REQUIRED_PRESETS <= set(scenario_names())

    def test_unknown_name_raises_with_roster(self):
        with pytest.raises(KeyError, match="quickstart"):
            get_scenario("no-such-scenario")

    def test_lookup_returns_fresh_specs(self):
        assert get_scenario("quickstart") is not get_scenario("quickstart")

    def test_every_preset_builds_and_round_trips(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert spec.name == name
            assert spec.description
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
            assert "scale" not in spec.to_dict()

    @pytest.mark.parametrize("name, built", [
        ("paper-fig7", fig7_scenario(0.5, PAPER_SCALE)),
        ("paper-fig7", fig8_scenario(0.33, PAPER_SCALE)),
        ("paper-fig9", fig9_scenario(10, 5, 50, PAPER_SCALE)),
    ], ids=["paper-fig7-is-fig7", "paper-fig7-is-fig8", "paper-fig9"])
    def test_figure_presets_are_the_builders_at_paper_scale(self, name, built):
        # Fig. 7's C = 0.5 MB run and Fig. 8's 33% run are one spec
        # apart from their labels, so one preset serves both (and the
        # headline ratios, whose denominators they are).
        preset = get_scenario(name)
        assert preset == replace(
            built, name=name, description=preset.description
        )

    @pytest.mark.parametrize("retired", ["headline", "paper-fig8"])
    def test_retired_figure_presets_have_no_alias(self, retired):
        with pytest.raises(KeyError, match="paper-fig7"):
            get_scenario(retired)


class TestFigureSizes:
    def test_paper_matches_section_vi(self):
        assert PAPER_SCALE.node_count == 50
        assert PAPER_SCALE.workload.slots == 200
        assert PAPER_SCALE.workload.sample_slots[-1] == 200
        assert PAPER_SCALE.workload.validate

    def test_quick_is_smaller(self):
        assert QUICK_SCALE.node_count < PAPER_SCALE.node_count
        assert QUICK_SCALE.workload.slots < PAPER_SCALE.workload.slots

    def test_sample_slots_within_run(self):
        for base in (PAPER_SCALE, QUICK_SCALE):
            assert max(base.workload.sample_slots) <= base.workload.slots

    def test_figure_base_fits_tiny_topologies(self):
        # The default ProtocolSpec (gamma 16) is rejected below 17
        # nodes; a base must validate at any size a test wants.
        base = figure_base(2, 3, seed=9)
        assert (base.node_count, base.workload.slots, base.seed) == (2, 3, 9)
        assert base.workload.sample_slots == ()
        assert base.workload.validate


class TestBuilders:
    def test_fig7_scenario_derives_gamma_from_scale(self):
        base = figure_base(30, 20, sample_slots=(10, 20), validate=False, seed=4)
        spec = fig7_scenario(0.5, base)
        assert spec.protocol.gamma == 10
        assert spec.node_count == 30
        assert spec.workload.slots == 20
        assert spec.workload.sample_slots == (10, 20)
        assert not spec.workload.validate
        assert spec.seed == 4

    def test_fig8_scenario_tolerance_fraction(self):
        base = figure_base(50, 25, sample_slots=(25,))
        assert fig8_scenario(0.33, base).protocol.gamma == 17
        assert fig8_scenario(0.49, base).protocol.gamma == 25

    def test_fig9_scenario_seeds_by_malicious_count(self):
        base = figure_base(16, 10, sample_slots=(10,), seed=3)
        spec = fig9_scenario(gamma=4, malicious=2, slots=12, base=base)
        assert spec.seed == 5
        assert spec.workload.slots == 12
        assert spec.adversaries[0].kind == "silent"
        assert spec.adversaries[0].count == 2
        honest = fig9_scenario(gamma=4, malicious=0, slots=12, base=base)
        assert honest.adversaries == ()

    @pytest.mark.parametrize(
        "base", [PAPER_SCALE, QUICK_SCALE, figure_base(9, 12, seed=2)],
        ids=["paper", "quick", "nine-nodes"],
    )
    def test_fig7_and_fig8_builders_are_idempotent(self, base):
        # What makes `report --only fig7 --scenario paper-fig7` the same
        # run as `report --only fig7`.
        for body_mb in (0.1, 0.5, 1.0):
            once = fig7_scenario(body_mb, base)
            assert fig7_scenario(body_mb, once) == once
        for fraction in (0.33, 0.49):
            once = fig8_scenario(fraction, base)
            assert fig8_scenario(fraction, once) == once

    def test_builders_read_only_the_size_of_their_base(self):
        # A base's own protocol, topology kind, adversaries and faults
        # never leak into a figure run.
        base = get_scenario("attack-eclipse")
        sized = figure_base(
            base.node_count, base.workload.slots,
            validate=base.workload.validate, seed=base.seed,
        )
        assert fig7_scenario(0.5, base) == fig7_scenario(0.5, sized)
        assert fig8_scenario(0.33, base) == fig8_scenario(0.33, sized)
        assert fig9_scenario(3, 1, 20, base) == fig9_scenario(3, 1, 20, sized)

    def test_a_base_without_sample_slots_samples_its_last_slot(self):
        quickstart = get_scenario("quickstart")
        assert quickstart.workload.sample_slots == ()
        assert fig7_scenario(0.5, quickstart).workload.sample_slots == (30,)
        assert fig8_scenario(0.33, quickstart).workload.sample_slots == (30,)

    def test_bench_scenarios_match_golden_workload(self):
        fast = bench_scenario(fast=True)
        assert (fast.node_count, fast.workload.slots, fast.protocol.gamma) == (12, 25, 3)
        assert fast.seed == 7
        full = bench_scenario(fast=False)
        assert (full.node_count, full.workload.slots, full.protocol.gamma) == (20, 100, 4)


class TestChurnPreset:
    def test_duty_cycle_is_a_crash_and_a_rejoin(self):
        events = get_scenario("churn").workload.faults.events
        nodes = (3, 6, 9, 12, 15, 17)
        assert [(e.kind, e.slot, e.nodes) for e in events] == [
            (NODE_CRASH, 15, nodes), (NODE_REJOIN, 25, nodes),
        ]
        assert events[1].forgive

    def test_trace_digest_and_block_count_are_pinned(self):
        result = ScenarioRunner(get_scenario("churn")).run()
        assert result.trace_sha256 == CHURN_TRACE_SHA256
        assert result.total_blocks == CHURN_BLOCKS
