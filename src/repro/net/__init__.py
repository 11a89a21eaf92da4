"""Wireless network substrate.

Models the physical layer of §III-A/§VI: static IoT nodes placed in a
square area with a fixed communication range, connected by undirected
links.  Provides:

* :mod:`repro.net.topology` — the paper's sequential random geometric
  placement (each new node lands within range of an existing one, so
  the network is connected by construction);
* :mod:`repro.net.routing` — hop counts and shortest paths, used by the
  "route PoP over shortest physical paths" future-work feature;
* :mod:`repro.net.transport` — discrete-event message delivery with
  per-node transmit/receive byte counters (the quantities Figs. 7-8
  measure).
"""
