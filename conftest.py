"""Fixtures shared by ``tests/`` and ``benchmarks/``."""

import pytest


@pytest.fixture
def finished():
    """``finished(sim, handle)``: drain ``sim``, then the handle's value.

    For what ``PopValidator.run``, ``IoTNode.verify_block`` and
    ``verify_batch`` return.
    """

    def finished(sim, handle):
        sim.run()
        assert handle.triggered and handle.ok
        return handle.value

    return finished
