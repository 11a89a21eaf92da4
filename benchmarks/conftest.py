"""Benchmark configuration.

Every benchmark regenerates one paper table/figure and prints the rows
the paper plots.  By default the reduced-but-same-shape
``repro.scenario.QUICK_SCALE`` sizes the runs so the whole suite
finishes in minutes; set ``REPRO_FULL=1`` for ``PAPER_SCALE``, the
paper's full 50-node / 200-slot configuration.  This fixture is the
only reader of that variable — it is a test-harness setting, the
library takes its size as an argument.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.fig9_consensus import PAPER_PROBES
from repro.scenario import PAPER_SCALE, QUICK_SCALE, ScenarioSpec


@pytest.fixture(scope="session")
def scale() -> ScenarioSpec:
    """The base spec sizing every figure run: quick, or paper with REPRO_FULL=1."""
    return PAPER_SCALE if os.environ.get("REPRO_FULL") == "1" else QUICK_SCALE


@pytest.fixture(scope="session")
def probes(scale) -> int:
    """Fig. 9 probes per sampled slot: the paper's, halved at quick size."""
    return PAPER_PROBES if scale is PAPER_SCALE else PAPER_PROBES // 2
