"""PBFT blockchain baseline.

A faithful (if compact) implementation of the Castro-Liskov three-phase
protocol — PRE-PREPARE / PREPARE / COMMIT with ``f = ⌊(n-1)/3⌋`` — in
which every IoT node is a replica, every generated data block is a
client request, and every replica stores the full replicated chain.
That full replication is exactly what makes PBFT unsuitable for
constrained devices, and what Figs. 7-8 quantify.
"""
