"""Proof-of-Path (PoP): the paper's reactive consensus protocol (§IV).

A *validator* verifies a *verifier's* block on demand by extending a
path of child blocks through the logical DAG until the path has
traversed γ+1 distinct physical nodes:

* :mod:`repro.core.pop.wps` — Weighted Path Selection (Algorithm 1)
  picks which neighbour of the current verifying node to ask next;
* :mod:`repro.core.pop.tps` — Trust Path Selection (Algorithm 2)
  extends the path for free using the validator's cache ``H_i`` of
  previously verified headers;
* :mod:`repro.core.pop.validator` — the full validator state machine
  (Algorithm 3) including timeout handling and rollback around
  malicious nodes;
* :mod:`repro.core.pop.responder` — the responder (Algorithm 4),
  answering ``REQ_CHILD`` with the oldest matching child header.
"""
