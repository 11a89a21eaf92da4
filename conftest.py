"""Fixtures shared by ``tests/`` and ``benchmarks/``."""

import pytest


@pytest.fixture
def finished():
    """``finished(sim, handle)``: drain ``sim``, then the handle's value.

    For what ``PopValidator.run`` and ``IoTNode.verify_block`` return.
    """

    def finished(sim, handle):
        sim.run()
        assert handle.triggered and handle.ok
        return handle.value

    return finished


@pytest.fixture(scope="session")
def references():
    """``references(child, digest)``: whether ``child``'s Δ holds ``digest``.

    The child-of test of §III-C, for checking that a path is a chain of
    digest links.  Session-scoped so hypothesis tests may use it.
    """

    def references(child, digest):
        return digest.value in {parent.value for parent in child.digests.values()}

    return references
