"""Analytical results from Section V.

Closed-form implementations of Propositions 1-6, used by the test
suite to check the simulation against the paper's bounds and by
experiment reports to annotate measured values.
"""
