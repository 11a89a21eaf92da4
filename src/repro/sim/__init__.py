"""Discrete-event simulation kernel.

This package provides the simulation substrate used by every protocol in
the reproduction: an event heap with deterministic tie-breaking
(:mod:`repro.sim.kernel`) and named deterministic random streams
(:mod:`repro.sim.rng`).

The kernel is intentionally small and dependency-free; it resembles a
reduced ``simpy`` with explicit determinism guarantees, which the paper's
evaluation (time-slot driven, repeated seeded trials) requires.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> hits = []
>>> sim.call_at(3.0, lambda: hits.append(sim.now))
>>> sim.run()
>>> hits
[3.0]
"""

from repro.sim.kernel import Simulator

__all__ = ["Simulator"]
