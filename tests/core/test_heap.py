"""A memory ratchet: what a built ledger keeps alive, per block.

Measured with ``tools/heap_by_line.py`` — ``tracemalloc`` over one
``ScenarioRunner`` run, the runner still alive, ``gc.collect()`` first —
on the 4 x 4, 32-slot lattice of the ``--quick`` perf workloads.  Each
bound is 10% above the value read when it was set: 4.18 KB per block
with validation off, 5.16 with it on, once the logical DAG became a
view built on read (docs/performance.md; the tree before read 4.65 and
5.64).
"""

import importlib.util
from pathlib import Path

import pytest

from repro.scenario import ProtocolSpec, ScenarioRunner, ScenarioSpec, TopologySpec, WorkloadSpec

TOOL = Path(__file__).resolve().parents[2] / "tools" / "heap_by_line.py"


@pytest.fixture(scope="module")
def live_heap():
    module_spec = importlib.util.spec_from_file_location("heap_by_line", TOOL)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.live_heap


@pytest.mark.parametrize("validate, bound_kb", [(False, 4.60), (True, 5.68)])
def test_live_kb_per_block(live_heap, validate, bound_kb):
    spec = ScenarioSpec(
        name="lattice",
        protocol=ProtocolSpec.paper(gamma=5, body_mb=0.5),
        topology=TopologySpec(kind="grid", rows=4, cols=4, spacing=40.0, comm_range=90.0),
        workload=WorkloadSpec(slots=32, validate=validate, sample_slots=(8, 16, 24, 32)),
        seed=7,
    )
    # Once untraced: imports and process-wide memo tables are not the ledger's.
    ScenarioRunner(spec).run()
    result, rows, total = live_heap(spec)
    assert result.total_blocks == 16 * 32
    assert rows and total >= sum(size for size, _, _ in rows)
    assert total / 1e3 / result.total_blocks <= bound_kb

