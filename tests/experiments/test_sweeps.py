"""Tests for the extra parameter sweeps."""

import pytest

from repro.campaign.cells import execute_cell
from repro.experiments.sweeps import (
    density_sweep,
    density_sweep_cells,
    gamma_sweep,
    gamma_sweep_cells,
)

#: Every column of both sweeps; each sweep-point payload carries all.
SWEEP_COLUMNS = {
    "gamma", "comm_range", "mean_messages", "prop4_lower", "prop6_upper",
    "mean_degree", "digest_bits_per_slot", "success_rate",
}


@pytest.fixture(scope="module")
def gamma_points():
    return gamma_sweep([2, 4, 6], node_count=12, slots=18, validations=5, seed=1)


class TestGammaSweep:
    def test_messages_within_proposition_bounds(self, gamma_points):
        for point in gamma_points:
            if point.success_rate > 0:
                assert point.mean_messages >= point.prop4_lower
                assert point.mean_messages <= point.prop6_upper

    def test_cost_grows_with_gamma(self, gamma_points):
        messages = [p.mean_messages for p in gamma_points if p.success_rate > 0]
        assert messages == sorted(messages)

    def test_all_gammas_verifiable(self, gamma_points):
        for point in gamma_points:
            assert point.success_rate > 0.5


class TestDensitySweep:
    def test_degree_grows_with_range(self):
        points = density_sweep(
            [80.0, 160.0], node_count=12, slots=15, validations=4, gamma=4, seed=2
        )
        assert points[0].mean_degree < points[1].mean_degree

    def test_digest_traffic_grows_with_density(self):
        points = density_sweep(
            [80.0, 160.0], node_count=12, slots=15, validations=4, gamma=4, seed=2
        )
        # More neighbours -> more digest pushes per block.
        assert points[0].digest_bits_per_slot < points[1].digest_bits_per_slot


class TestSweepPointKind:
    def test_both_sweeps_use_one_kind(self):
        cells = gamma_sweep_cells([2, 4]) + density_sweep_cells([60.0])
        assert {cell.kind for cell in cells} == {"sweep-point"}

    @pytest.mark.parametrize("cells", [
        gamma_sweep_cells([3], node_count=8, slots=8, validations=2),
        density_sweep_cells([90.0], node_count=8, slots=8, validations=2),
    ], ids=["gamma", "density"])
    def test_payload_carries_the_columns_of_both_sweeps(self, cells):
        (cell,) = cells
        payload = execute_cell(cell)
        assert set(payload) == SWEEP_COLUMNS
        assert payload["gamma"] == cell.scenario.protocol.gamma
        assert payload["comm_range"] == cell.scenario.topology.comm_range
        assert payload["mean_degree"] > 0
        assert payload["digest_bits_per_slot"] > 0
        assert payload["prop4_lower"] <= payload["prop6_upper"]
