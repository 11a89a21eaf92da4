"""Adversarial behaviours and attack scenarios (§IV-D).

Behaviour classes plug into :class:`repro.core.node.IoTNode` via the
``behavior`` parameter; scenario helpers wire whole coalitions:

* :class:`SilentResponder` — never answers PoP queries (the "malicious
  nodes" of Fig. 5 and Fig. 9; §IV-D-6's selfish node, which generates
  blocks but never serves others, behaves the same);
* :class:`CorruptResponder` — answers with tampered headers (MITM-style
  corruption; rejected by signature/digest checks);
* :func:`eclipse_victim` — drop rule isolating a victim's PoP traffic;
* :func:`sybil_identities` — §IV-D-3: forged identities that fail
  registry checks;
* :func:`make_coalition` — pick γ-sized malicious coalitions for the
  majority-attack experiments.
"""
