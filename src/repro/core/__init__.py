"""The paper's primary contribution: 2LDAG + Proof-of-Path.

Layout
------
``config``
    Protocol constants — field bit-sizes of Fig. 2, Eqs. (2)-(3), γ,
    timeouts.
``block``
    Data blocks: header (version/time/root/digests/nonce/signature) and
    body, with bit-exact size accounting.
``dag``
    The logical layer ``Ḡ(B, L)`` (§III-C): parent/child edges over all
    blocks, paths and descendant queries.
``node``
    The physical-layer node (§III-A/D): own-block storage ``S_i``,
    neighbour digest cache ``A_i``, trusted header cache ``H_i``, block
    generation, and the responder role (Algorithm 4).
``pop``
    Proof-of-Path: WPS (Alg. 1), TPS (Alg. 2), the validator (Alg. 3).
``protocol``
    Slot-driven network simulation per §VI.
"""
