"""Adversarial behaviours and attack scenarios (§IV-D).

Behaviour classes plug into :class:`repro.core.node.IoTNode` via the
``behavior`` parameter; scenario helpers wire whole coalitions:

* :class:`SilentResponder` — never answers PoP queries (the "malicious
  nodes" of Fig. 5 and Fig. 9);
* :class:`CorruptResponder` — answers with tampered headers (MITM-style
  corruption; rejected by signature/digest checks);
* :class:`EquivocatingResponder` — answers with a genuine but wrong
  header (rejected by the digest comparison of Algorithm 3 line 21);
* :class:`SelfishNode` — §IV-D-6: participates in generation but never
  serves others;
* :class:`DosFlooder` — §IV-D-5: pushes digests faster than the nonce
  puzzle permits;
* :func:`eclipse_victim` — drop rule isolating a victim's PoP traffic;
* :func:`sybil_identities` — §IV-D-3: forged identities that fail
  registry checks;
* :func:`make_coalition` — pick γ-sized malicious coalitions for the
  majority-attack experiments.
"""
